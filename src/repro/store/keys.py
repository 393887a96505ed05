"""Content-address keys for stored sweep results.

A stored row must be safe to reuse wherever the *simulated result* would
be identical, and only there.  The key therefore covers everything that
shapes the simulation — workload name, every run kwarg, the coherence
protocol, the seed, the fault knobs — plus a code/schema version, and
deliberately excludes knobs that only shape *execution*: worker count,
the store path itself, retry/timeout policy, and the observability
capture switches (a traced run produces the same ``RunRow`` stats; only
its ``obs`` side channel differs, and stored rows never carry one).

The digest is a keyed BLAKE2b over the canonical ``repr`` of the
normalized point, the same construction
:func:`repro.harness.parallel.derive_seed` uses for per-job seeds, so
keys are stable across processes, platforms and ``PYTHONHASHSEED``.
"""
from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Mapping

__all__ = ["CODE_VERSION", "KEY_SCHEMA", "EXECUTION_FIELDS",
           "NEUTRAL_DEFAULTS", "options_fingerprint", "canonical_point",
           "point_key"]

#: Revision of the key construction itself.  Bump when the
#: canonicalization below changes shape — or when the same key starts
#: naming a different simulation — so old stores never serve rows
#: under a differently-built key.  Schema 2: ``protocol="mesi"``/
#: ``"moesi"`` at ``d>0`` is the precise base, where schema 1 rows hold
#: Ghostwriter results for those keys.
KEY_SCHEMA = 2

#: Version tag stored with (and hashed into) every row.  Derived from
#: the package version plus :data:`KEY_SCHEMA`; bumping either retires
#: every previously stored row (``repro store gc`` reclaims them).
def _code_version() -> str:
    try:
        from importlib.metadata import version

        pkg = version("repro")
    except Exception:
        pkg = "1.0.0"
    return f"{pkg}+k{KEY_SCHEMA}"


CODE_VERSION = _code_version()

#: ``RunOptions`` fields that shape *how* a grid executes, not *what*
#: the simulation computes.  They never enter the content key: a row
#: computed with ``--jobs 8`` must satisfy a ``--jobs 1`` lookup (the
#: bit-identity guarantee makes them interchangeable), and the store /
#: retry knobs must not invalidate their own cache.
EXECUTION_FIELDS = frozenset({
    "jobs", "store", "resume",
    "point_timeout", "point_retries",
    "trace_events", "timeline_interval",
    # the batch backend is bit-identical to serial by construction (and
    # by the differential suite), so a row computed either way satisfies
    # a lookup from the other
    "backend",
    # ditto the vectorized hit-run fast lane (repro.core.hitrun): rows
    # computed lane-on and lane-off are interchangeable by the fast-lane
    # equivalence suite
    "fast_lane",
})


#: Result-shaping ``RunOptions`` fields elided from the fingerprint
#: while they hold their neutral default.  This is how a *new* knob
#: joins ``RunOptions`` without retiring every stored row: a row keyed
#: before the knob existed still satisfies a lookup at the knob's
#: default (which is defined to be simulation-identical to the
#: pre-knob behavior), while any non-default value keys distinctly.
NEUTRAL_DEFAULTS = {
    # the default mesh is byte-identical to the pre-topology-layer
    # machine (PR 8); ring/crossbar/chiplet fingerprints diverge
    "topology": "mesh",
}


def options_fingerprint(options: Any) -> tuple:
    """The result-shaping fields of a ``RunOptions``, as sorted pairs.

    Works on any dataclass instance; fields named in
    :data:`EXECUTION_FIELDS` are dropped, and fields sitting at their
    :data:`NEUTRAL_DEFAULTS` value are elided.  The tuple form has a
    deterministic ``repr`` suitable for hashing.
    """
    pairs = []
    for f in dataclasses.fields(options):
        if f.name in EXECUTION_FIELDS:
            continue
        value = getattr(options, f.name)
        if f.name in NEUTRAL_DEFAULTS and value == NEUTRAL_DEFAULTS[f.name]:
            continue
        pairs.append((f.name, value))
    return tuple(sorted(pairs))


def _canonical_value(value: Any) -> Any:
    """Normalize one kwarg value into a deterministically-``repr``-able
    form (options objects become their fingerprint tuples)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return ("@options",) + options_fingerprint(value)
    if isinstance(value, Mapping):
        return tuple(sorted((k, _canonical_value(v))
                            for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(v) for v in value)
    return value


def canonical_point(workload: str, kwargs: Mapping[str, Any]) -> tuple:
    """The canonical, hashable form of one grid point.

    Kwargs are sorted by name; ``label`` never appears (it is cosmetic
    and lives on the ``GridPoint``, not in its kwargs).
    """
    return (
        str(workload),
        tuple(sorted((k, _canonical_value(v)) for k, v in kwargs.items())),
    )


def point_key(workload: str, kwargs: Mapping[str, Any], *,
              code_version: str | None = None) -> str:
    """BLAKE2b content key of one grid point (32 hex chars).

    ``code_version`` defaults to :data:`CODE_VERSION`; passing an
    explicit value exists for migration tooling and tests.
    """
    version = CODE_VERSION if code_version is None else code_version
    text = repr((version, canonical_point(workload, kwargs)))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()
