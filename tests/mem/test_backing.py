"""Unit + property tests for the functional backing store."""
import pytest
from hypothesis import given, strategies as st

from repro.mem.backing import BackingStore


class TestWordAccess:
    def test_default_zero(self):
        bs = BackingStore()
        assert bs.load_word(0x1234 * 4) == 0

    def test_store_load_roundtrip(self):
        bs = BackingStore()
        bs.store_word(0x100, 0xDEADBEEF)
        assert bs.load_word(0x100) == 0xDEADBEEF

    def test_unaligned_rejected(self):
        bs = BackingStore()
        with pytest.raises(ValueError):
            bs.load_word(0x101)
        with pytest.raises(ValueError):
            bs.store_word(0x102, 1)

    def test_masked_to_32_bits(self):
        bs = BackingStore()
        bs.store_word(0, 0x1_0000_0001)
        assert bs.load_word(0) == 1


class TestBlockAccess:
    def test_read_block_copy_isolation(self):
        bs = BackingStore()
        bs.store_word(4, 7)
        blk = bs.read_block(0)
        blk[1] = 99
        assert bs.load_word(4) == 7  # caller copy must not alias

    def test_write_block(self):
        bs = BackingStore()
        bs.write_block(64, list(range(16)))
        assert bs.load_word(64 + 4 * 5) == 5

    def test_write_block_wrong_size(self):
        bs = BackingStore()
        with pytest.raises(ValueError):
            bs.write_block(0, [0] * 15)

    def test_unaligned_block_rejected(self):
        bs = BackingStore()
        with pytest.raises(ValueError):
            bs.read_block(32)
        with pytest.raises(ValueError):
            bs.write_block(4, [0] * 16)

    def test_block_base(self):
        bs = BackingStore()
        assert bs.block_base(0) == 0
        assert bs.block_base(67) == 64
        assert bs.block_base(128) == 128


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),  # word index
            st.integers(min_value=0, max_value=0xFFFFFFFF),
        ),
        max_size=200,
    )
)
def test_model_equivalence(writes):
    """The store behaves exactly like a dict of words."""
    bs = BackingStore()
    model: dict[int, int] = {}
    for wi, val in writes:
        bs.store_word(wi * 4, val)
        model[wi] = val
    for wi in range(256):
        assert bs.load_word(wi * 4) == model.get(wi, 0)


def test_memory_image_deep():
    bs = BackingStore()
    bs.store_word(0, 1)
    snap = bs.memory_image()
    snap[0][0] = 42
    assert bs.load_word(0) == 1

