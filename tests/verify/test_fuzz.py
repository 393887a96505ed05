"""Protocol fuzzer: matrix sweep, oracles, minimizer, corpus replay."""
import time
from pathlib import Path

import pytest

from repro.mem.backing import BackingStore
from repro.verify.fuzz import (
    PROTOCOL_MATRIX, FuzzFailure, FuzzTrace, approx_drops, generate_trace,
    load_corpus_trace, minimize_trace, run_differential, run_matrix,
    run_trace,
)

CORPUS = Path(__file__).parent / "corpus"


class TestTrace:
    def test_json_roundtrip(self):
        trace = generate_trace(7)
        again = FuzzTrace.from_json(trace.to_json())
        assert again == trace

    def test_generation_is_deterministic(self):
        assert generate_trace(11) == generate_trace(11)
        assert generate_trace(11) != generate_trace(12)

    def test_store_values_are_unique(self):
        trace = generate_trace(5)
        values = [
            b for ops in trace.ops for kind, _a, b in ops
            if kind in ("store", "scribble")
        ]
        assert len(values) == len(set(values))


class TestMatrix:
    def test_200_runs_clean_within_budget(self):
        """The acceptance gate: >= 200 runs across seeded traces and
        every registered PROTOCOL_MATRIX variant, zero violations,
        within the CI time budget."""
        t0 = time.time()
        summary = run_matrix(range(30))
        elapsed = time.time() - t0
        assert summary["runs"] == 30 * len(PROTOCOL_MATRIX) >= 200
        assert elapsed < 60, f"fuzz matrix too slow: {elapsed:.1f}s"

    def test_matrix_samples_every_registered_variant(self):
        """The default matrix covers each precise base and every
        approximation-capable registry variant."""
        from repro.coherence.policy import available_protocols

        sampled = {p for p, *_rest in PROTOCOL_MATRIX}
        assert sampled == set(available_protocols())

    def test_matrix_samples_the_batch_backend(self):
        """The matrix exercises the lockstep lane-sharing differential
        (repro.sim.batch) on at least two protocol variants."""
        batch = {p for p, _gw, backend in PROTOCOL_MATRIX
                 if backend == "batch"}
        assert len(batch) >= 2

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_differential(generate_trace(0), protocol="ghostwriter",
                             gw=True, backend="vector")

    def test_jitter_runs_clean(self):
        summary = run_matrix(range(5), jitter=3)
        assert summary["runs"] == 5 * len(PROTOCOL_MATRIX)


class TestBatchDifferential:
    def test_both_sharing_paths_occur(self):
        """Across the first fuzz seeds, the default lane set exercises
        both outcomes of the sharing predicate: lanes served from the
        representative and lanes peeled back to their own run."""
        shared = peeled = checks = 0
        for seed in range(15):
            s = run_differential(generate_trace(seed),
                                 protocol="ghostwriter", gw=True,
                                 backend="batch")
            shared += s["shared"]
            peeled += s["peeled"]
            checks += s["checks"]
        assert shared > 0 and peeled > 0 and checks > 0

    def test_bad_prediction_is_caught_and_minimized(self, monkeypatch,
                                                    tmp_path):
        """Force the sharing predicate to lie (always 'shares'): the
        bit-identity fingerprint must catch the divergence, and
        run_matrix must ddmin the offending trace into the corpus."""
        from repro.sim.batch import DecisionTrace

        monkeypatch.setattr(DecisionTrace, "agrees",
                            lambda self, d: True)
        with pytest.raises(FuzzFailure, match="diverged"):
            for seed in range(30):
                run_differential(generate_trace(seed),
                                 protocol="ghostwriter", gw=True,
                                 backend="batch", lane_ds=(4,))

        with pytest.raises(FuzzFailure, match="diverged"):
            run_matrix(range(30),
                       matrix=(("ghostwriter", True, "batch"),),
                       corpus_dir=tmp_path)
        saved = sorted(tmp_path.glob("batch_divergence_*.json"))
        assert saved, "divergence was not saved to the corpus"
        small = load_corpus_trace(saved[0])
        assert small.op_count() < generate_trace(small.seed).op_count()


class TestOracles:
    def test_fabricated_value_is_caught(self, monkeypatch):
        """A (simulated) buggy memory path returning wrong fill data must
        trip the load-provenance oracle."""
        orig = BackingStore.read_block

        def tampered(self, addr):
            return [w ^ 0x5A5A for w in orig(self, addr)]

        monkeypatch.setattr(BackingStore, "read_block", tampered)
        trace = FuzzTrace(
            seed=0, num_cores=2, d_distance=10,
            ops=((("load", 0x8004, 0),), (("compute", 1, 0),)),
        )
        with pytest.raises(FuzzFailure, match="fabricated value"):
            run_trace(trace, protocol="mesi", gw=False)

    def test_failure_names_the_configuration(self, monkeypatch):
        orig = BackingStore.read_block
        monkeypatch.setattr(
            BackingStore, "read_block",
            lambda self, addr: [w ^ 1 for w in orig(self, addr)],
        )
        trace = FuzzTrace(
            seed=42, num_cores=2, d_distance=10,
            ops=((("load", 0x8004, 0),), (("compute", 1, 0),)),
        )
        with pytest.raises(FuzzFailure, match="seed=42 protocol=moesi"):
            run_trace(trace, protocol="moesi", gw=False)


class TestMinimizer:
    def test_shrinks_to_the_needle(self):
        trace = generate_trace(3)
        assert trace.op_count() > 10

        def failing(t):
            return any(
                kind == "store" for ops in t.ops for kind, _a, _b in ops
            )

        small = minimize_trace(trace, failing)
        assert failing(small)
        assert small.op_count() == 1
        assert small.num_cores == 1

    def test_rejects_passing_trace(self):
        with pytest.raises(ValueError):
            minimize_trace(generate_trace(0), lambda t: False)


class TestCorpus:
    def test_corpus_is_populated(self):
        assert list(CORPUS.glob("*.json")), "regression corpus is empty"

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem
    )
    def test_replay(self, path):
        """Every corpus trace must still run clean under the full oracle
        set AND still reproduce the race it was shrunk to pin down."""
        trace = load_corpus_trace(path)
        machine = run_trace(trace, protocol="ghostwriter", gw=True)
        assert approx_drops(machine) > 0, (
            f"{path.name} no longer exhibits the GS/GI-drop race"
        )
