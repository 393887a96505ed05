"""Topology knob threading: store keys, sweeps, figures, backends.

The acceptance bar for the topology layer is that ``--topology mesh``
is invisible: store point keys hash to exactly what they hashed before
the knob existed (pinned here against pre-change golden digests), and
the fig12-style rows come out identical across the serial, ``--jobs``
and ``--backend batch`` execution paths.  Non-default topologies must
key distinctly and run end-to-end through ``sweep_topology_scale`` /
``fig_topology``.
"""
import pytest

from repro.harness.experiment import run_workload
from repro.harness.figures import fig_topology
from repro.harness.options import RunOptions
from repro.harness.parallel import GridFailure
from repro.harness.sweeps import sweep_topology_scale
from repro.store.keys import (
    NEUTRAL_DEFAULTS,
    canonical_point,
    options_fingerprint,
    point_key,
)

#: Pre-topology-layer point keys of the fig12 grid (captured on the
#: commit before the ``topology`` field existed), under the schema-1
#: version tag.  They pin the canonicalization itself: if these move,
#: the key construction changed shape.
SCHEMA1_VERSION = "1.0.0+k1"
GOLDEN_FIG12_KEYS = {
    128: "af73c46b7338d4d8e662495059a423e5",
    512: "5baaca8d783b6d272b9106d3a5733173",
    1024: "99c485efa7050412f47b31cd1d01d51a",
}

#: The same points under the current schema-2 tag (``mesi``/``moesi``
#: at d>0 became the precise base, retiring every schema-1 row).  If
#: these move while the schema-1 pins hold, every stored sweep row
#: silently retires — that is a KEY_SCHEMA bump, not a refactor detail.
GOLDEN_FIG12_KEYS_SCHEMA2 = {
    128: "a640deb1a55ab0f074fcf93074fbf248",
    512: "3c4d93edebab8ba3b9de0170be7d441a",
    1024: "2e538796afe3abc2217e2949cab0b521",
}


def _fig12_kwargs(gi_timeout, **over):
    kwargs = dict(d_distance=4, num_threads=4, seed=12345,
                  gi_timeout=gi_timeout, n_points=4096, max_value=3,
                  options=RunOptions())
    kwargs.update(over)
    return kwargs


class TestStoreKeyByteIdentity:
    def test_default_mesh_keys_unchanged(self):
        for gi, want in GOLDEN_FIG12_KEYS.items():
            key = point_key("bad_dot_product", _fig12_kwargs(gi),
                            code_version=SCHEMA1_VERSION)
            assert key == want, f"gi_timeout={gi} schema-1 key moved"
        for gi, want in GOLDEN_FIG12_KEYS_SCHEMA2.items():
            key = point_key("bad_dot_product", _fig12_kwargs(gi))
            assert key == want, f"gi_timeout={gi} key moved"

    def test_default_topology_elided_from_fingerprint(self):
        assert NEUTRAL_DEFAULTS == {"topology": "mesh"}
        fp = options_fingerprint(RunOptions())
        assert "topology" not in dict(fp)
        assert dict(fp)["protocol"] == "ghostwriter"

    def test_non_default_topology_keys_distinctly(self):
        fp = options_fingerprint(RunOptions(topology="ring"))
        assert dict(fp)["topology"] == "ring"
        mesh = point_key("bad_dot_product", _fig12_kwargs(1024))
        ring = point_key(
            "bad_dot_product",
            _fig12_kwargs(1024, options=RunOptions(topology="ring")))
        assert mesh != ring

    def test_topology_kwarg_enters_canonical_point(self):
        a = canonical_point("w", {"topology": "mesh"})
        b = canonical_point("w", {"topology": "ring"})
        assert a != b


SMALL = dict(workload="bad_dot_product", core_counts=(2,), scale=0.05,
             seed=12345, n_points=256, max_value=3)


def _rows(options, topologies=("mesh", "ring")):
    kwargs = dict(SMALL)
    kwargs.pop("core_counts")
    result = sweep_topology_scale(
        kwargs.pop("workload"), topologies, (2,), options=options, **kwargs)
    assert not result.failures(), result.render()
    return result


class TestSweepTopologyScale:
    def test_grid_shape_and_labels(self):
        result = _rows(RunOptions())
        assert result.parameter == "topology_scale"
        assert result.values == (("mesh", 2), ("ring", 2))
        assert all(r.cycles > 0 for r in result.rows)

    def test_serial_parallel_batch_rows_identical(self):
        serial = _rows(RunOptions()).rows
        fanned = _rows(RunOptions(jobs=2)).rows
        batch = _rows(RunOptions(backend="batch")).rows
        assert serial == fanned == batch

    def test_topology_changes_the_simulation(self):
        # 2 cores see different directory distances on mesh vs crossbar
        mesh, xbar = _rows(RunOptions(),
                           topologies=("mesh", "crossbar")).rows
        assert mesh.flit_hops != xbar.flit_hops


class TestFigTopology:
    def test_chiplet_column_end_to_end(self):
        fig = fig_topology(("chiplet",), (4,), n_points=256, seed=12345)
        assert fig.points == [("chiplet", 4)]
        assert fig.dir_hops[0] > 0
        row = fig.rows[0]
        assert not isinstance(row, GridFailure)
        assert row.cycles > 0 and row.flits > 0
        text = fig.render()
        assert "chiplet" in text and "dir hops" in text

    def test_rows_carry_the_new_noc_metrics(self):
        row = run_workload("bad_dot_product", d_distance=4, num_threads=2,
                           seed=12345, n_points=256, max_value=3,
                           options=RunOptions(topology="ring"))
        assert row.flits > 0
        assert row.flit_hops > 0
        assert row.hops_per_flit == pytest.approx(
            row.flit_hops / row.flits)
        assert row.gi_flashes_per_kcycle >= 0.0
