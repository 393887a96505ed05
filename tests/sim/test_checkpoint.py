"""Checkpoint/restore round trips across every layer (repro.sim.state).

The contract under test: capture at a safe point mid-run, restore into a
freshly built shape-compatible machine, resume — and the resumed run is
*bit-identical* to the uninterrupted one in every counter, every backing
word, and every cache line (``machine_fingerprint``).
"""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import small_config
from repro.harness.experiment import experiment_config, row_from_result
from repro.workloads.base import WorkloadResult
from repro.workloads.registry import create as registry_create
from repro.isa.compiled import ProgramCache, ProgramSpec
from repro.isa.instructions import (
    BarrierWait, Compute, Load, Scribble, SetAprx, Store,
)
from repro.sim.engine import CheckpointUnsupported, Engine, SimulationError
from repro.sim.machine import Machine
from repro.sim.state import (
    CheckpointRecorder, MachineCheckpoint, fingerprint_payload,
    machine_fingerprint,
)
from tests.conftest import build_machine

BLK = 0x4000
SHARED = 0x4040


def _factory(cid: int, rounds: int = 24, salt: int = 0):
    """A deterministic false-sharing + scribble mix for one core, with
    compute gaps long enough that the machine regularly quiesces (the
    safe points the checkpoint layer needs)."""
    def prog():
        yield SetAprx(4)
        for i in range(rounds):
            yield Store(BLK + 4 * (4 + cid), (cid << 10) | (i ^ salt))
            yield Load(BLK + 4 * (4 + ((cid + 1) % 4)))
            yield Scribble(SHARED, (cid << 10) | i)
            yield Compute(20)
    return prog


def _scripted_machine(num_cores: int = 2, *, period: int | None = 64,
                      rounds: int = 24, salt: int = 0,
                      protocol: str = "ghostwriter",
                      max_keep: int | None = None) -> Machine:
    m = build_machine(num_cores, protocol=protocol)
    if period is not None:
        m.checkpoint_recorder = CheckpointRecorder(period, max_keep=max_keep)
    # a per-machine program cache keeps the cores in recorder/compiled
    # mode — the snapshotable program forms (a bare generator is not);
    # with a recorder attached, even a key's first request records
    cache = ProgramCache()
    for cid in range(num_cores):
        m.add_thread(cid, ProgramSpec(_factory(cid, rounds, salt),
                                      key=(cid, rounds, salt),
                                      cache=cache))
    return m


class TestRoundTrip:
    def test_mid_run_restore_is_bit_identical(self):
        base = _scripted_machine(2)
        end = base.run()
        rec = base.checkpoint_recorder
        mid = [c for c in rec.checkpoints if 0 < c.cycle < end]
        assert mid, f"no mid-run checkpoint ({len(rec)} kept)"
        ckpt = mid[len(mid) // 2]

        fresh = _scripted_machine(2)
        ckpt.restore_into(fresh, verify=True)
        assert fresh.engine.now == ckpt.cycle
        assert fresh.resume() == end
        assert machine_fingerprint(fresh) == machine_fingerprint(base)
        assert fresh.stats.flatten() == base.stats.flatten()

    def test_every_checkpoint_resumes_to_same_state(self):
        base = _scripted_machine(2, period=32)
        end = base.run()
        final = machine_fingerprint(base)
        anchors = [c for c in base.checkpoint_recorder.checkpoints
                   if c.cycle < end]
        assert len(anchors) >= 3
        for ckpt in anchors:
            fresh = _scripted_machine(2)
            ckpt.restore_into(fresh)
            fresh.resume()
            assert machine_fingerprint(fresh) == final, (
                f"divergence resuming from cycle {ckpt.cycle}")

    def test_payload_layers_match_not_just_digest(self):
        base = _scripted_machine(2)
        base.run()
        ckpt = base.checkpoint_recorder.checkpoints[0]
        fresh = _scripted_machine(2)
        ckpt.restore_into(fresh)
        fresh.resume()
        a, b = fingerprint_payload(base), fingerprint_payload(fresh)
        assert a["stats"] == b["stats"]
        assert a["memory"] == b["memory"]
        assert a["caches"] == b["caches"]

    def test_restore_verify_detects_tampered_blob(self):
        base = _scripted_machine(2)
        base.run()
        ckpt = base.checkpoint_recorder.checkpoints[-1]

        def bump_first_counter(group) -> bool:
            for key, val in group["values"].items():
                if isinstance(val, (int, float)) and val:
                    group["values"][key] = val + 1
                    return True
            return any(bump_first_counter(kid)
                       for kid in group["children"].values())

        assert bump_first_counter(ckpt.blob["stats"])
        fresh = _scripted_machine(2)
        with pytest.raises(ValueError, match="fingerprint"):
            ckpt.restore_into(fresh, verify=True)

    def test_shape_mismatch_fails_loudly(self):
        base = _scripted_machine(2)
        base.run()
        ckpt = base.checkpoint_recorder.latest()
        with pytest.raises(ValueError, match="L1s|cores"):
            ckpt.restore_into(_scripted_machine(4))


class TestSafePoints:
    def test_untagged_event_blocks_capture(self):
        m = build_machine(2)
        m.engine.schedule(3, lambda: None)
        with pytest.raises(CheckpointUnsupported, match="untagged"):
            MachineCheckpoint.capture(m)

    def test_engine_snapshot_rejects_anonymous_closures(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        assert not eng.all_tagged()
        with pytest.raises(CheckpointUnsupported):
            eng.snapshot()

    def test_stale_event_restore_rejected(self):
        """Satellite regression: a blob whose event predates its clock
        must fail deterministically, never replay into the past."""
        eng = Engine()
        blob = {"now": 100, "seq": 7, "events_executed": 0,
                "events": [(40, 1, ("monitor",))]}
        with pytest.raises(ValueError, match="past"):
            eng.restore(blob, lambda tag: (lambda: None))
        # the failed restore must not have adopted the stale clock
        assert eng.now == 0 and eng.pending() == 0

    def test_engine_queue_roundtrip_preserves_order(self):
        eng = Engine()
        fired: list[str] = []
        eng.schedule_tagged(5, lambda: fired.append("b"), ("tag_b",))
        eng.schedule_tagged(2, lambda: fired.append("a"), ("tag_a",))
        blob = eng.snapshot()

        eng2 = Engine()
        eng2.restore(blob, lambda tag: (lambda: fired.append(tag[0])))
        eng2.run()
        assert fired == ["tag_a", "tag_b"]
        assert eng2.now == 5


class TestRecorder:
    def test_max_keep_evicts_oldest(self):
        m = _scripted_machine(2, period=32, max_keep=2)
        m.run()
        rec = m.checkpoint_recorder
        assert 1 <= len(rec) <= 2
        cycles = [c.cycle for c in rec.checkpoints]
        assert cycles == sorted(cycles)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointRecorder(0)
        with pytest.raises(ValueError):
            CheckpointRecorder(10, max_keep=0)

    def test_chunked_drain_matches_plain_run(self):
        """The recorder's windowed drain must not perturb the sim: same
        final state as the same machine run without any recorder."""
        plain = _scripted_machine(2, period=None)
        end_plain = plain.run()
        for period in (17, 64, 501):
            chunked = _scripted_machine(2, period=period)
            assert chunked.run() == end_plain
            assert (machine_fingerprint(chunked)
                    == machine_fingerprint(plain))


class TestErrorCheckpoints:
    def test_simulation_error_carries_restorable_checkpoint(self):
        m = build_machine(2)
        m.checkpoint_recorder = CheckpointRecorder(32)
        bar = m.barrier(2)

        def stuck():
            yield Compute(1)
            yield BarrierWait(bar)

        cache = ProgramCache()
        m.add_thread(0, ProgramSpec(stuck, key="stuck", cache=cache))
        m.add_thread(1, ProgramSpec(_factory(1, rounds=12),
                                    key="worker", cache=cache))
        with pytest.raises(SimulationError) as info:
            m.run()
        ckpt = info.value.checkpoint
        assert ckpt is not None
        assert ckpt.cycle <= m.engine.now

    def test_error_without_recorder_has_no_checkpoint(self):
        m = build_machine(2)
        bar = m.barrier(2)

        def stuck():
            yield BarrierWait(bar)

        m.add_thread(0, stuck())
        m.add_thread(1, _factory(1, rounds=4)())
        with pytest.raises(SimulationError) as info:
            m.run()
        assert info.value.checkpoint is None


class TestWorkloadMatrix:
    """Satellite (c): the round trip holds for *real* experiment
    machines, not just scripted ones — across coherence protocols and
    NoC topologies, the restored run's stats, fingerprint, and summary
    row match the uninterrupted run bit for bit."""

    @staticmethod
    def _cfg(protocol, topology):
        from dataclasses import replace
        cfg = experiment_config(
            d_distance=0 if protocol == "mesi" else 4, num_cores=4,
            protocol=None if protocol == "mesi" else protocol,
            topology=topology)
        return replace(cfg, verify=replace(cfg.verify,
                                           checkpoint_period=150))

    @staticmethod
    def _run(workload_name, cfg):
        w = registry_create(workload_name, num_threads=4, seed=11,
                            n_points=512)
        machine = w.prepare(cfg)
        end = machine.run()
        return w, machine, end

    @pytest.mark.parametrize("protocol",
                             ["mesi", "ghostwriter", "self-invalidate"])
    @pytest.mark.parametrize("topology", [None, "chiplet"])
    def test_roundtrip_matrix(self, protocol, topology):
        cfg = self._cfg(protocol, topology)
        base_w, base, end = self._run("bad_dot_product", cfg)
        base_row = row_from_result(
            "bad_dot_product", WorkloadResult(base_w, base, end), cfg)
        mids = [c for c in base.checkpoint_recorder.checkpoints
                if 0 < c.cycle < end]
        assert mids, "no mid-run safe point in this cell"
        ckpt = mids[len(mids) // 2]

        fresh_w, = (registry_create("bad_dot_product", num_threads=4,
                                    seed=11, n_points=512),)
        fresh = fresh_w.prepare(cfg)
        ckpt.restore_into(fresh, verify=True)
        end2 = fresh.resume()
        assert end2 == end
        assert machine_fingerprint(fresh) == machine_fingerprint(base)
        assert fresh.stats.flatten() == base.stats.flatten()
        row2 = row_from_result(
            "bad_dot_product", WorkloadResult(fresh_w, fresh, end2), cfg)
        assert dataclasses.asdict(row2) == dataclasses.asdict(base_row)


class TestCli:
    def test_dump_and_reload(self, tmp_path, capsys):
        from repro.sim.state import main
        path = tmp_path / "ckpt.npz"
        rc = main(["--workload", "bad_dot_product", "--dump-checkpoint",
                   str(path), "--num-threads", "4", "--scale", "1.0",
                   "--checkpoint-period", "150"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checkpoint @ cycle" in out
        loaded = MachineCheckpoint.load(path)
        assert loaded.cycle > 0 and loaded.fingerprint


class TestPersistence:
    @pytest.mark.parametrize("name", ["ckpt.pkl", "ckpt.npz"])
    def test_save_load_roundtrip(self, tmp_path, name):
        base = _scripted_machine(2)
        end = base.run()
        ckpt = base.checkpoint_recorder.checkpoints[0]
        path = tmp_path / name
        ckpt.save(path)
        loaded = MachineCheckpoint.load(path)
        assert loaded.cycle == ckpt.cycle
        assert loaded.fingerprint == ckpt.fingerprint
        fresh = _scripted_machine(2)
        loaded.restore_into(fresh, verify=True)
        assert fresh.resume() == end
        assert machine_fingerprint(fresh) == machine_fingerprint(base)


@settings(max_examples=6, deadline=None)
@given(data=st.data(),
       salt=st.integers(0, 255),
       period=st.integers(16, 200))
def test_fingerprint_property_random_anchor(data, salt, period):
    """Property: restoring from *any* kept checkpoint of a randomized
    run and resuming reproduces the uninterrupted run's fingerprint."""
    base = _scripted_machine(2, period=period, salt=salt, rounds=12)
    end = base.run()
    final = machine_fingerprint(base)
    anchors = base.checkpoint_recorder.checkpoints
    if not anchors:
        return
    k = data.draw(st.integers(0, len(anchors) - 1))
    fresh = _scripted_machine(2, salt=salt, rounds=12)
    anchors[k].restore_into(fresh)
    fresh.resume()
    assert machine_fingerprint(fresh) == final
    assert fresh.engine.now == end
