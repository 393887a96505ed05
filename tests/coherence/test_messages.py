"""Unit tests for coherence message objects."""
import pytest

from repro.coherence.messages import Message, ProtocolError
from repro.common.types import MessageType


class TestMessage:
    def test_data_message_requires_words(self):
        with pytest.raises(ProtocolError):
            Message(MessageType.DATA, 0x40, src=0, dst=1)
        with pytest.raises(ProtocolError):
            Message(MessageType.PUTM, 0x40, src=0, dst=1)

    def test_control_message_ok_without_words(self):
        m = Message(MessageType.GETS, 0x40, src=0, dst=1, requestor=0)
        assert m.words is None
        assert m.requestor == 0

    def test_repr_stable(self):
        m = Message(MessageType.FWD_GETS, 0x80, src=2, dst=3, requestor=1)
        text = repr(m)
        assert "FWD_GETS" in text and "req=1" in text

    def test_stale_flag_defaults_false(self):
        m = Message(MessageType.ACK, 0x40, src=0, dst=1)
        assert m.stale is False
        m2 = Message(MessageType.ACK, 0x40, src=0, dst=1, stale=True)
        assert m2.stale


class TestDeterminism:
    """Identical runs must be bit-for-bit identical (no hidden state)."""

    def test_workload_run_reproducible(self):
        from repro.harness.experiment import run_workload

        def go():
            row = run_workload("linear_regression", d_distance=8,
                               num_threads=6, scale=0.1, seed=77)
            return (row.cycles, row.error_pct, row.total_traffic,
                    row.gs_serviced, row.gi_serviced)

        assert go() == go()

    def test_different_seeds_differ(self):
        from repro.harness.experiment import run_workload

        a = run_workload("linear_regression", d_distance=8, num_threads=6,
                         scale=0.1, seed=77)
        b = run_workload("linear_regression", d_distance=8, num_threads=6,
                         scale=0.1, seed=78)
        assert (a.cycles, a.error_pct) != (b.cycles, b.error_pct)
