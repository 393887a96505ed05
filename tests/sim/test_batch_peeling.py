"""Lane peeling under injected divergence (satellite of ISSUE 7).

Property tests over the lockstep engine's core invariant: a lane the
:class:`~repro.sim.batch.DecisionTrace` predicts to share really would
have made every comparator decision the representative made, and every
lane the predicate rejects *peels* — drops back to its own serial run —
so surviving lanes are always bit-identical to never-batched runs.
Divergence is injected three ways: random decision traces whose
alternative thresholds genuinely flip decisions, GI-timeout flashes
(sweeping ``gi_timeout`` on a workload that arms the flash timer), and
seeded cache-bit-flip fault injection via :mod:`repro.faults`; a forced
cross-check mismatch exercises the trust-but-verify degradation path
end to end.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import WORD_BITS, WORD_MASK
from repro.harness.batch import BatchReport, batch_fan_out, group_key
from repro.harness.options import RunOptions
from repro.harness.parallel import GridPoint, run_grid
from repro.scribe.similarity import is_similar
from repro.sim.batch import (
    DecisionTrace, Lane, gi_never_armed, run_group, share_split,
)

words = st.integers(min_value=0, max_value=WORD_MASK)
ds = st.integers(min_value=1, max_value=WORD_BITS)


@st.composite
def traces_and_lanes(draw):
    """A synthetic decision trace (recorded under swept_d) plus
    alternative lane thresholds."""
    swept_d = draw(ds)
    n = draw(st.integers(min_value=0, max_value=24))
    records = []
    for _ in range(n):
        a, b = draw(words), draw(words)
        # mix swept-site records with hardcoded-d records the trace
        # must ignore (the substitution rule)
        p = draw(st.sampled_from([swept_d, swept_d, 4, 31]))
        records.append((a, b, p, is_similar(a, b, p)))
    lane_ds = draw(st.lists(ds, min_size=1, max_size=6))
    return swept_d, records, lane_ds


class TestDecisionTrace:
    @given(traces_and_lanes())
    @settings(max_examples=200, deadline=None)
    def test_predictions_match_the_scalar_comparator(self, case):
        """decisions(d) is extensionally the production scalar
        comparator over the swept-site records, in order."""
        swept_d, records, lane_ds = case
        trace = DecisionTrace(records, swept_d=swept_d)
        swept = [r for r in records if r[2] == swept_d]
        assert len(trace) == len(swept)
        for d in lane_ds:
            expect = [is_similar(a, b, d) for a, b, _p, _ok in swept]
            assert trace.decisions(d).tolist() == expect

    @given(traces_and_lanes())
    @settings(max_examples=200, deadline=None)
    def test_agreement_is_exact(self, case):
        """agrees(d) holds iff *every* swept decision is reproduced —
        one flipped decision must peel the lane."""
        swept_d, records, lane_ds = case
        trace = DecisionTrace(records, swept_d=swept_d)
        swept = [r for r in records if r[2] == swept_d]
        for d in lane_ds:
            flips = sum(
                is_similar(a, b, d) != ok
                for a, b, _p, ok in swept
            )
            assert trace.agrees(d) == (flips == 0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            DecisionTrace([], swept_d=4, mode="fuzzy")


class TestShareSplit:
    @given(traces_and_lanes(),
           st.lists(st.integers(min_value=64, max_value=4096),
                    min_size=1, max_size=5),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_partition_is_total_and_sound(self, case, gis, armed):
        swept_d, records, lane_ds = case
        trace = DecisionTrace(records, swept_d=swept_d)
        rep = Lane(d=swept_d, gi=1024, payload="rep")
        lanes = [Lane(d=d, gi=gis[i % len(gis)], payload=i)
                 for i, d in enumerate(lane_ds)]
        shared, peeled = share_split(trace, rep, lanes,
                                     rep_armed_gi=armed)
        # total partition, order-preserving within each side
        assert sorted(x.payload for x in shared + peeled) == sorted(
            x.payload for x in lanes)
        for lane in shared:
            assert lane.gi == rep.gi or not armed
            assert lane.d == rep.d or trace.agrees(lane.d)
        for lane in peeled:
            assert ((lane.gi != rep.gi and armed)
                    or (lane.d != rep.d and not trace.agrees(lane.d)))

    @given(traces_and_lanes())
    @settings(max_examples=100, deadline=None)
    def test_run_group_covers_every_lane_exactly_once(self, case):
        """Peeled lanes recurse with a fresh representative until the
        pool drains; nobody is dropped or served twice."""
        swept_d, records, lane_ds = case
        lanes = [Lane(d=d, gi=1024, payload=i)
                 for i, d in enumerate(lane_ds)]

        class Out:  # stands in for RepRun: isinstance check must fail
            pass

        seen = []
        trace = DecisionTrace(records, swept_d=swept_d)

        def run_rep(lane):
            from repro.sim.batch import RepRun

            class R:
                stats = None
            result = R()
            # reuse the same trace for every rep: d-dependent sharing
            # only — the GI rule is covered above
            rep_trace = DecisionTrace(
                [(a, b, lane.d if p == swept_d else p, ok)
                 for a, b, p, ok in records], swept_d=lane.d)
            return RepRun(result=result, cfg=None, trace=rep_trace)

        import repro.sim.batch as B
        orig = B.gi_never_armed
        B.gi_never_armed = lambda stats: True
        try:
            for rep, _out, shared in run_group(lanes, run_rep):
                seen.append(rep.payload)
                seen.extend(lane.payload for lane in shared)
        finally:
            B.gi_never_armed = orig
        assert sorted(seen) == list(range(len(lanes)))


class TestInjectedDivergence:
    def _grid(self, name, *, ds=(4,), gis=(1024,), options=None, n=96,
              protocol=None):
        if protocol is not None:
            options = (options or RunOptions()).replace(protocol=protocol)
        extra = [("options", options)] if options is not None else []
        return [
            GridPoint(name, tuple([("d_distance", d), ("gi_timeout", gi),
                                   ("num_threads", 4), ("seed", 7),
                                   ("n_points", n), ("max_value", 3)]
                                  + extra))
            for d in ds for gi in gis
        ]

    def test_gi_flash_peels_but_stays_bit_identical(self):
        """Under gw-gi-only the workload arms the GI flash timer, so
        gi-swept lanes cannot share a representative that flashed —
        they peel, re-run, and the grid still matches serial row for
        row.  Under plain ghostwriter the same grid never arms the
        timer, so every gi lane shares one representative."""
        flashing = self._grid("bad_dot_product", ds=(4,),
                              gis=(16, 64, 256, 1024),
                              protocol="gw-gi-only")
        report = BatchReport()
        batch = batch_fan_out(flashing, report=report)
        assert batch == run_grid(flashing)
        assert report.reps == 4, "GI flash must peel every gi lane"
        assert report.shared == 0

        quiet = self._grid("bad_dot_product", ds=(4,),
                           gis=(16, 64, 256, 1024))
        report = BatchReport()
        batch = batch_fan_out(quiet, report=report)
        assert batch == run_grid(quiet)
        assert report.reps == 1 and report.shared == 3
        assert report.verified == 1

    def test_fault_injection_batches_bit_identically(self):
        """Seeded cache bit flips (repro.faults) perturb the very words
        the scribe compares; the decision trace records the perturbed
        reality, so sharing stays sound — and the serial cross-check
        guards the claim."""
        opts = RunOptions(fault_rate=200.0, fault_seed=99)
        points = self._grid("bad_dot_product", ds=(1, 2, 4, 8, 16),
                            options=opts)
        assert all(group_key(p) is not None for p in points)
        assert batch_fan_out(points) == run_grid(points, options=opts)

    def test_forced_cross_check_mismatch_degrades_to_serial(self,
                                                            monkeypatch):
        """Forced deopt: corrupt every non-representative shared row so
        the trust-but-verify sample trips; the whole share set must
        degrade to serial execution and the grid output must remain
        exactly the serial rows."""
        import repro.harness.batch as HB

        # a grid whose four gi lanes all share one representative
        grid = lambda: self._grid("bad_dot_product", ds=(4,),  # noqa: E731
                                  gis=(16, 64, 256, 1024))
        serial = run_grid(grid())
        real = HB._shared_row

        def corrupt(point, out):
            import dataclasses
            row = real(point, out)
            # corrupt shared lanes only: the representative rebuilds
            # its own row through the same helper, under its own gi
            if (dict(point.kwargs)["gi_timeout"]
                    != out.cfg.ghostwriter.gi_timeout):
                row = dataclasses.replace(row, cycles=-1)
            return row

        monkeypatch.setattr(HB, "_shared_row", corrupt)
        report = BatchReport()
        batch = batch_fan_out(grid(), report=report)
        assert batch == serial
        assert report.divergences, "cross-check should have tripped"
        assert report.degraded == 2   # the two lanes behind the sample
        assert report.shared == 0


def test_batch_grid_takes_no_checkpoints(monkeypatch):
    """Representatives run with the decision probe alone: a d x gi grid
    through the batch backend captures no checkpoint, its rows equal
    the serial rows, and the report accounts for every serial
    simulation it executed."""
    from repro.sim.state import MachineCheckpoint
    from repro.workloads.base import Workload

    base = [("num_threads", 4), ("seed", 7), ("scale", 0.05)]
    points = [GridPoint("histogram", tuple([("d_distance", 0)] + base))]
    points += [GridPoint("histogram", tuple([("d_distance", d),
                                             ("gi_timeout", gi)] + base))
               for d in (2, 8) for gi in (256, 1024)]
    serial = run_grid(points)

    captures, sims = [], []
    capture, run = MachineCheckpoint.capture, Workload.run

    def counting_capture(cls, machine):
        captures.append(machine)
        return capture(machine)

    def counting_run(self, cfg, *args, **kwargs):
        sims.append(self.name)
        return run(self, cfg, *args, **kwargs)

    monkeypatch.setattr(MachineCheckpoint, "capture",
                        classmethod(counting_capture))
    monkeypatch.setattr(Workload, "run", counting_run)
    report = BatchReport()
    batch = batch_fan_out(points, report=report)
    assert captures == []
    assert batch == serial
    assert (report.reps + report.verified + report.serial
            + report.degraded) == len(sims)


class TestGroupKey:
    def test_swept_knobs_do_not_split_groups(self):
        a = GridPoint("histogram", (("d_distance", 2), ("gi_timeout", 64),
                                    ("num_threads", 4), ("seed", 7),
                                    ("scale", 0.05)))
        b = GridPoint("histogram", (("d_distance", 9), ("gi_timeout", 999),
                                    ("num_threads", 4), ("seed", 7),
                                    ("scale", 0.05)))
        assert group_key(a) == group_key(b) is not None

    def test_disabled_lanes_bucket_separately(self):
        on = GridPoint("histogram", (("d_distance", 2), ("seed", 7),
                                     ("scale", 0.05)))
        off = GridPoint("histogram", (("d_distance", 0), ("seed", 7),
                                      ("scale", 0.05)))
        assert group_key(on) != group_key(off)
        assert group_key(off) is not None

    def test_unbatchable_points_fall_back(self):
        assert group_key(GridPoint("histogram",
                                   (("d_distance", "4"),))) is None
        assert group_key(GridPoint("histogram",
                                   (("d_distance", True),))) is None
        assert group_key(GridPoint(
            "histogram", (("d_distance", 4),
                          ("extras", bytearray(b"unhashable"))))) is None


def test_gi_never_armed_reads_the_flash_counters():
    from repro.harness.experiment import run_workload_result

    result, _cfg = run_workload_result("bad_dot_product", d_distance=4,
                                       num_threads=4, seed=7,
                                       gi_timeout=16, n_points=96,
                                       max_value=3,
                                       options=RunOptions(
                                           protocol="gw-gi-only"))
    assert not gi_never_armed(result.stats)
    result, _cfg = run_workload_result("histogram", d_distance=4,
                                       num_threads=4, seed=7, scale=0.05)
    assert gi_never_armed(result.stats)
