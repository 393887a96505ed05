"""Unit tests for repro.common.types."""
import pytest

from repro.common.types import (
    AccessType,
    CoherenceState,
    DirState,
    MessageClass,
    MessageType,
    WordAddr,
    WORD_BYTES,
)


class TestAccessType:
    def test_is_write(self):
        assert not AccessType.LOAD.is_write
        assert AccessType.STORE.is_write
        assert AccessType.SCRIBBLE.is_write


class TestCoherenceState:
    def test_stable_states(self):
        for s in (CoherenceState.I, CoherenceState.S, CoherenceState.E,
                  CoherenceState.M, CoherenceState.GS, CoherenceState.GI):
            assert s.stable
            assert not s.transient

    def test_transient_states(self):
        for s in (CoherenceState.IS_D, CoherenceState.IM_D,
                  CoherenceState.SM_D):
            assert s.transient
            assert not s.stable

    def test_readable(self):
        assert CoherenceState.S.readable
        assert CoherenceState.E.readable
        assert CoherenceState.M.readable
        assert CoherenceState.GS.readable, "paper: loads hit on GS"
        assert CoherenceState.GI.readable, "paper: loads hit on GI"
        assert not CoherenceState.I.readable
        assert not CoherenceState.IS_D.readable

    def test_writable(self):
        assert CoherenceState.E.writable
        assert CoherenceState.M.writable
        assert CoherenceState.GS.writable, "paper: stores hit on GS"
        assert CoherenceState.GI.writable, "paper: stores hit on GI"
        assert not CoherenceState.S.writable
        assert not CoherenceState.I.writable

    def test_approximate_flags(self):
        assert CoherenceState.GS.approximate
        assert CoherenceState.GI.approximate
        assert not CoherenceState.M.approximate

    def test_dirty_owner_states(self):
        dirty = [s for s in CoherenceState if s.owns_dirty_data]
        assert dirty == [CoherenceState.M, CoherenceState.O]

    def test_owned_state_properties(self):
        assert CoherenceState.O.stable
        assert CoherenceState.O.readable
        assert not CoherenceState.O.writable
        assert not CoherenceState.O.approximate

    @pytest.mark.parametrize("attr,names", [
        ("stable", {"I", "S", "E", "M", "O", "GS", "GI"}),
        ("transient", {"IS_D", "IM_D", "SM_D"}),
        ("readable", {"S", "E", "M", "O", "GS", "GI"}),
        ("writable", {"E", "M", "GS", "GI"}),
        ("approximate", {"GS", "GI"}),
        ("owns_dirty_data", {"M", "O"}),
    ])
    def test_every_flag_pinned(self, attr, names):
        """Each flag holds on exactly the listed states."""
        assert {s.name for s in CoherenceState if getattr(s, attr)} == names
        assert all(type(getattr(s, attr)) is bool for s in CoherenceState)


@pytest.mark.parametrize("enum_type", [
    AccessType, CoherenceState, DirState, MessageClass, MessageType,
])
def test_members_hash_by_identity(enum_type):
    """Members key dicts and sets by identity, not by Enum's name hash."""
    for member in enum_type:
        assert hash(member) == object.__hash__(member)
        assert {member: 1}[member] == 1


class TestMessageType:
    def test_data_bearing(self):
        assert MessageType.DATA.carries_data
        assert MessageType.DATA_E.carries_data
        assert MessageType.PUTM.carries_data
        assert MessageType.FWD_DATA.carries_data
        assert MessageType.CHAIN_DATA.carries_data
        assert not MessageType.GETS.carries_data
        assert not MessageType.INV.carries_data

    def test_fig8_classes(self):
        """The Fig. 8 traffic breakdown buckets."""
        assert MessageType.GETS.klass is MessageClass.GETS
        assert MessageType.GETX.klass is MessageClass.GETX
        assert MessageType.UPGRADE.klass is MessageClass.UPGRADE
        assert MessageType.DATA.klass is MessageClass.DATA
        assert MessageType.INV.klass is MessageClass.OTHER
        assert MessageType.INV_ACK.klass is MessageClass.OTHER

    def test_every_type_has_class(self):
        for mt in MessageType:
            assert isinstance(mt.klass, MessageClass)
            assert mt.label


class TestWordAddr:
    def test_valid(self):
        a = WordAddr(64)
        assert int(a) == 64
        assert a.word_index == 16

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            WordAddr(WORD_BYTES + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WordAddr(-4)
