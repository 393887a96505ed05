"""Tests for the paper's future-work extensions we implement:
arithmetic similarity mode (§3.4) and the approximate-write budget
(§3.5 runtime error bounding)."""
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.common.config import GhostwriterConfig, small_config
from repro.common.types import CoherenceState as CS
from repro.isa.instructions import Compute, Load, Scribble, SetAprx, Store
from repro.scribe.similarity import (
    bits_to_int, int_to_bits, is_similar, is_similar_arithmetic,
)
from repro.sim.machine import Machine

from tests.conftest import run_scripts

BLK = 0x4000


def _machine(num_cores=2, **gw_kwargs):
    cfg = small_config(num_cores=num_cores)
    gw = GhostwriterConfig(d_distance=4, **gw_kwargs)
    return Machine(replace(cfg, ghostwriter=gw))


class TestArithmeticSimilarity:
    def test_paper_minus1_vs_0_case(self):
        """§3.4's motivating example: -1 and 0 are arithmetically close
        but bit-wise maximal."""
        m1, zero = int_to_bits(-1), 0
        assert not is_similar(m1, zero, 8)
        assert is_similar_arithmetic(m1, zero, 1)

    @given(a=st.integers(-(2**31), 2**31 - 1),
           b=st.integers(-(2**31), 2**31 - 1),
           d=st.integers(0, 31))
    def test_matches_abs_difference(self, a, b, d):
        expected = abs(a - b) < (1 << d)
        assert is_similar_arithmetic(int_to_bits(a), int_to_bits(b), d) \
            == expected

    @given(a=st.integers(0, 2**31 - 1), b=st.integers(0, 2**31 - 1),
           d=st.integers(0, 32))
    def test_bitwise_implies_arithmetic(self, a, b, d):
        """A pair within d low bits differs by < 2**d arithmetically
        (for same-sign patterns): bitwise pass => arithmetic pass."""
        if is_similar(a, b, d):
            assert is_similar_arithmetic(a, b, d)

    def test_mode_reaches_protocol(self):
        """A scribble crossing a power-of-two boundary is serviced under
        arithmetic mode but falls back under bitwise mode."""
        def scripts():
            def a():
                yield SetAprx(4)
                yield Load(BLK)
                yield Compute(300)
                # resident word 15; store 16: bitwise d=5, arithmetic |1|
                yield Scribble(BLK, 16)
                yield Compute(50)

            def b():
                yield Compute(100)
                yield Load(BLK)
                yield Compute(300)
            return a(), b()

        bitwise = _machine(similarity_mode="bitwise")
        bitwise.backing.store_word(BLK, 15)
        run_scripts(bitwise, *scripts())
        assert bitwise.l1s[0].stats.gs_serviced == 0

        arith = _machine(similarity_mode="arithmetic")
        arith.backing.store_word(BLK, 15)
        run_scripts(arith, *scripts())
        assert arith.l1s[0].stats.gs_serviced == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            GhostwriterConfig(similarity_mode="fuzzy")


class TestApproxWriteBudget:
    def _run(self, budget, n_scribbles=6):
        m = _machine(similarity_mode="bitwise",
                     approx_write_budget=budget)
        got = {}

        def a():
            yield SetAprx(4)
            yield Load(BLK)
            yield Compute(300)
            for i in range(n_scribbles):
                yield Scribble(BLK, (i + 1) & 0x7)  # all similar
            got["state"] = m.l1s[0].state_of(BLK)
            yield Compute(10)

        def b():
            yield Compute(100)
            yield Load(BLK)
            yield Compute(500)

        run_scripts(m, a(), b())
        return m, got

    def test_unbudgeted_episode_stays_approximate(self):
        m, got = self._run(budget=None)
        assert got["state"] is CS.GS
        assert m.l1s[0].stats.budget_fallbacks == 0

    def test_budget_forces_recoherence(self):
        m, got = self._run(budget=3)
        # the 4th similar scribble must have fallen back conventionally
        assert m.l1s[0].stats.budget_fallbacks >= 1
        assert got["state"] is CS.M  # re-cohered as the owner

    def test_budget_bounds_microbench_error(self):
        """Tight budgets trade benefit for accuracy on the adversarial
        accumulator (the §3.5 error-bounding behaviour)."""
        from repro.harness.experiment import experiment_config
        from repro.workloads.registry import create

        def run(budget):
            cfg = experiment_config(d_distance=4,
                                    num_cores=8)
            cfg = replace(cfg, ghostwriter=replace(
                cfg.ghostwriter, approx_write_budget=budget))
            w = create("bad_dot_product", num_threads=8, n_points=512,
                       max_value=3)
            return w.run(cfg)

        unbounded = run(None)
        tight = run(2)
        assert tight.error_pct <= unbounded.error_pct + 1e-9

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            GhostwriterConfig(approx_write_budget=0)
