"""Workload registry — the reproduction of Table 2.

Maps workload names to classes, carries the Table 2 metadata, and
provides factory helpers the harness and benchmarks use.
"""
from __future__ import annotations

from typing import Type

from repro.isa.compiled import ProgramCache
from repro.workloads.base import Workload
from repro.workloads.blackscholes import BlackScholes
from repro.workloads.histogram import Histogram
from repro.workloads.inversek2j import InverseK2J
from repro.workloads.jpeg import Jpeg
from repro.workloads.linear_regression import LinearRegression
from repro.workloads.microbench import (
    BadDotProduct, PrivateDotProduct, StoreThroughDotProduct,
)
from repro.workloads.pca import Pca

__all__ = [
    "PAPER_WORKLOADS", "MICROBENCHMARKS", "ALL_WORKLOADS", "PROGRAM_CACHE",
    "create", "table2_rows", "paper_input_desc",
]

#: process-wide compiled-program cache shared by every sweep point
#: (each ``--jobs`` worker process holds its own copy)
PROGRAM_CACHE = ProgramCache()

#: the six Table 2 applications, in the paper's order
PAPER_WORKLOADS: dict[str, Type[Workload]] = {
    "histogram": Histogram,
    "linear_regression": LinearRegression,
    "pca": Pca,
    "blackscholes": BlackScholes,
    "inversek2j": InverseK2J,
    "jpeg": Jpeg,
}

MICROBENCHMARKS: dict[str, Type[Workload]] = {
    "bad_dot_product": BadDotProduct,
    "private_dot_product": PrivateDotProduct,
    "store_through_dot_product": StoreThroughDotProduct,
}

ALL_WORKLOADS: dict[str, Type[Workload]] = {
    **PAPER_WORKLOADS, **MICROBENCHMARKS,
}

#: the paper's original input descriptions (Table 2), for documentation
_PAPER_INPUTS = {
    "histogram": "400MB image",
    "linear_regression": "50MB file",
    "pca": "4MB matrix",
    "blackscholes": "200K options",
    "inversek2j": "1000K points",
    "jpeg": "512x512 RGB",
}


def create(name: str, num_threads: int, seed: int = 12345,
           scale: float = 1.0, **kwargs) -> Workload:
    """Instantiate a registered workload by name (its programs take the
    d-distance of the machine they are bound to)."""
    cls = ALL_WORKLOADS.get(name)
    if cls is None:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(ALL_WORKLOADS)}"
        )
    w = cls(num_threads=num_threads, seed=seed, scale=scale, **kwargs)
    # arm the program cache: the key base identifies the op stream up to
    # the per-machine knobs Workload.bind_program appends at bind time
    key = (name, num_threads, seed, scale, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return w  # unhashable extra params: run uncached
    w._program_cache = PROGRAM_CACHE
    w._program_key = key
    return w


def paper_input_desc(name: str) -> str:
    """The paper's original Table 2 input description for a workload."""
    return _PAPER_INPUTS.get(name, "-")


def table2_rows(num_threads: int = 24) -> list[tuple[str, str, str, str]]:
    """(application, domain, input, error-metric) rows, paper order.

    Input shows the paper's original size; the instantiated scaled size
    is reported by each workload's ``input_desc``.
    """
    rows = []
    for name, cls in PAPER_WORKLOADS.items():
        w = cls(num_threads=num_threads)
        rows.append((name, w.domain, paper_input_desc(name), w.error_metric))
    return rows
