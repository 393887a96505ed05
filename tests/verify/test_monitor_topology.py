"""The invariant monitor's golden-memory path under non-mesh topologies.

``check_block_structure`` and the data-value invariant both resolve a
block's home through ``SimConfig.home_directory``, which now interleaves
over topology-defined directory placements (chiplet gateway slices,
ring-adjacent sets) instead of the hardwired mesh corners.  These tests
pin that the monitor checks run clean — and actually exercise multiple
directory slices — on such machines, and that a placement/agent mismatch
surfaces as a named ProtocolError rather than a KeyError.
"""
import pytest

from repro.coherence.messages import ProtocolError
from repro.common.config import (
    CacheConfig,
    DramConfig,
    NocConfig,
    SimConfig,
    VerifyConfig,
)
from repro.isa.instructions import Compute, Load, Store
from repro.sim.machine import Machine
from repro.verify.monitor import check_block_structure

RING4 = NocConfig(mesh_cols=4, mesh_rows=1, topology="ring",
                  directory_nodes=(1, 2))
CHIP4 = NocConfig(mesh_cols=2, mesh_rows=1, topology="chiplet", chiplets=2)
XBAR4 = NocConfig(mesh_cols=4, mesh_rows=1, topology="crossbar")


def _machine(noc: NocConfig, num_cores: int = 4) -> Machine:
    cfg = SimConfig(
        num_cores=num_cores,
        l1=CacheConfig(1024, 2, 64, 2),
        l2=CacheConfig(4096, 8, 64, 10),
        noc=noc,
        dram=DramConfig(access_latency=60),
        verify=VerifyConfig(monitor_period=16),
    )
    return Machine(cfg)


def _sharing_threads(machine, blocks):
    """Every core stores to its own block, then reads all of them, so
    lines spanning every directory slice go through M and S states."""

    def program(cid):
        yield Store(blocks[cid], 0x100 + cid)
        yield Compute(300)
        for b in blocks:
            yield Load(b)
        yield Compute(300)

    for cid in range(machine.cfg.num_cores):
        machine.add_thread(cid, program(cid))


@pytest.mark.parametrize("noc", [RING4, CHIP4, XBAR4],
                         ids=lambda n: n.topology)
def test_monitor_runs_clean_across_directory_slices(noc):
    m = _machine(noc)
    blocks = [0x4000 + i * 64 for i in range(8)]
    # the block set must interleave over every directory slice
    homes = {m.cfg.home_directory(b) for b in blocks}
    assert homes == set(noc.directory_nodes)
    _sharing_threads(m, blocks)
    m.run()
    m.check_quiescent()
    m.check_coherence_invariants()
    assert m.monitor is not None
    assert m.monitor.stats.checks > 1
    assert m.monitor.stats.blocks_checked > 0
    assert m.monitor.stats.value_violations == 0
    assert m.monitor.violations == []


def test_golden_memory_tracks_stores_on_chiplet_machine():
    m = _machine(CHIP4, num_cores=2)
    blocks = [0x4000, 0x4040]  # homes 0 and 2 (the two gateways)
    assert [m.cfg.home_directory(b) for b in blocks] == [0, 2]
    _sharing_threads(m, blocks)
    m.run()
    assert m.monitor.golden.word(blocks[0]) == 0x100
    assert m.monitor.golden.word(blocks[1]) == 0x101


def test_missing_directory_agent_is_a_named_error():
    m = _machine(RING4)
    block = 0x4000
    home = m.cfg.home_directory(block)
    m.agents.pop(home)
    with pytest.raises(ProtocolError, match="no directory agent"):
        check_block_structure(m, block, {})
    m.agents.clear()
    with pytest.raises(ProtocolError, match="'ring'"):
        check_block_structure(m, block, {})
