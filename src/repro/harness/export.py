"""Tabular export of figure results and observability captures.

Each figure result is flattened into a list of records (one dict per
plotted point/bar), so downstream plotting tools can regenerate the
paper's graphics from files instead of re-running simulations.

:func:`export_result` writes a figure's records as CSV + JSON;
:func:`export_captures` writes a traced sweep's events as JSONL beside
its merged timeline and report.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Sequence

from repro.obs.capture import ObsCapture
from repro.obs.report import render_report
from repro.obs.timeline import save_merged

__all__ = ["records_for", "write_csv", "write_json", "write_jsonl",
           "export_records", "export_result", "export_captures"]


def records_for(name: str, result: Any) -> list[dict[str, Any]]:
    """Flatten one figure/table result into row records."""
    if name in ("table1", "table2"):
        return [dict(zip(result.headers, row)) for row in result.rows]
    if name == "fig1":
        return [
            {"threads": t, "naive_speedup": n, "private_speedup": p}
            for t, n, p in zip(result.thread_counts, result.naive_speedup,
                               result.private_speedup)
        ]
    if name == "fig2":
        return [
            {"app": app, "d": d, "cum_fraction": frac}
            for app, prof in result.profiles.items()
            for d, frac in prof.rows()
        ]
    if name == "fig7":
        return [
            {"app": app, "d": d, "gs_serviced_pct": result.gs_pct[(app, d)],
             "gi_serviced_pct": result.gi_pct[(app, d)]}
            for (app, d) in sorted(result.gs_pct)
        ]
    if name == "fig8":
        return [
            {"app": app, "d": d,
             **{k.value: v for k, v in split.items()},
             "total": result.total(app, d)}
            for (app, d), split in sorted(result.normalized.items())
        ]
    if name == "fig9":
        return [
            {"app": app, "d": d,
             "noc_saved_pct": result.noc_pct[(app, d)],
             "memory_saved_pct": result.memory_pct[(app, d)],
             "total_saved_pct": result.combined_pct[(app, d)]}
            for (app, d) in sorted(result.noc_pct)
        ]
    if name == "fig10":
        return [
            {"app": app, "d": d, "speedup_pct": v}
            for (app, d), v in sorted(result.speedup_pct.items())
        ]
    if name == "fig11":
        return [
            {"app": app, "d": d, "error_pct": v}
            for (app, d), v in sorted(result.error_pct.items())
        ]
    if name == "fig12":
        return [
            {"timeout_cycles": t, "gi_serviced_pct": g, "error_mpe_pct": e}
            for t, g, e in zip(result.timeouts, result.gi_serviced_pct,
                               result.error_pct)
        ]
    if name == "protocols":
        base = result.baseline_cycles()
        return [
            {"protocol": p, "cycles": row.cycles,
             "speedup_vs_first": base / row.cycles,
             "traffic": row.total_traffic, "error_pct": row.error_pct,
             "gs_serviced_pct": row.gs_serviced_pct,
             "gi_serviced_pct": row.gi_serviced_pct}
            for p, row in zip(result.protocols, result.rows)
        ]
    if name == "topology":
        return [
            {"topology": t, "cores": c, "dir_hops": h, "cycles": r.cycles,
             "gs_serviced_pct": r.gs_serviced_pct,
             "gi_serviced_pct": r.gi_serviced_pct,
             "gi_flashes_per_kcycle": r.gi_flashes_per_kcycle,
             "flit_hops": r.flit_hops, "hops_per_flit": r.hops_per_flit,
             "error_pct": r.error_pct}
            for (t, c), h, r in zip(result.points, result.dir_hops,
                                    result.rows)
        ]
    raise KeyError(f"no exporter for {name!r}")


def write_csv(records: list[dict[str, Any]], path: Path) -> None:
    """Write records as CSV (union of keys as the header)."""
    if not records:
        raise ValueError("nothing to export")
    fields: list[str] = []
    for rec in records:
        for key in rec:
            if key not in fields:
                fields.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(records)


def write_json(records: list[dict[str, Any]], path: Path) -> None:
    """Write records as a JSON array."""
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2, default=str)
        fh.write("\n")


def write_jsonl(records: list[dict[str, Any]], path: Path) -> None:
    """Write records as JSON Lines (one compact object per line)."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":"), default=str))
            fh.write("\n")


def export_records(records: list[dict[str, Any]], name: str,
                   out_dir: str | Path) -> list[Path]:
    """Write ``<name>.csv`` and ``<name>.json`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{name}.csv", out / f"{name}.json"]
    write_csv(records, paths[0])
    write_json(records, paths[1])
    return paths


def export_result(name: str, result: Any, out_dir: str | Path) -> list[Path]:
    """Write ``<name>.csv`` and ``<name>.json`` under ``out_dir``."""
    return export_records(records_for(name, result), name, out_dir)


def export_captures(labeled: Sequence[tuple[str, ObsCapture]],
                    out_dir: str | Path) -> list[Path]:
    """Write the merged observability bundle of a traced sweep.

    Produces up to three files under ``out_dir``: ``events.jsonl``
    (every run's event records, each tagged with its run label),
    ``timeline.npz`` (all timelines merged via
    :func:`repro.obs.timeline.save_merged`) and ``report.txt`` (the
    per-phase breakdown of every capture).  Labels are emitted in the
    given order, so a sorted ``labeled`` makes the files byte-identical
    regardless of how the runs were scheduled.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    event_records = [
        {"run": label, **rec}
        for label, cap in labeled for rec in cap.events
    ]
    if event_records:
        path = out / "events.jsonl"
        write_jsonl(event_records, path)
        paths.append(path)
    timelines = [(label, cap.timeline) for label, cap in labeled
                 if cap.timeline is not None]
    if timelines:
        path = out / "timeline.npz"
        save_merged(timelines, path)
        paths.append(path)
    if labeled:
        path = out / "report.txt"
        blocks = [f"=== {label} ===\n{render_report(cap)}"
                  for label, cap in labeled]
        path.write_text("\n\n".join(blocks) + "\n")
        paths.append(path)
    return paths
