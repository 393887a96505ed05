"""Unit tests for repro.common.config (paper Table 1)."""
import pytest

from repro.common.config import (
    CacheConfig,
    DramConfig,
    GhostwriterConfig,
    NocConfig,
    SimConfig,
    default_config,
    small_config,
    table1_rows,
)


class TestCacheConfig:
    def test_paper_l1_geometry(self):
        l1 = CacheConfig(32 * 1024, 2, 64, 2)
        assert l1.num_blocks == 512
        assert l1.num_sets == 256
        assert l1.words_per_block == 16

    def test_paper_l2_geometry(self):
        l2 = CacheConfig(128 * 1024, 8, 64, 10)
        assert l2.num_blocks == 2048
        assert l2.num_sets == 256

    def test_set_index_wraps(self):
        c = CacheConfig(1024, 2, 64)
        assert c.num_sets == 8
        assert c.set_index(0) == 0
        assert c.set_index(64) == 1
        assert c.set_index(64 * 8) == 0

    @pytest.mark.parametrize("size", [0, 3, 100])
    def test_rejects_non_pow2_size(self, size):
        with pytest.raises(ValueError):
            CacheConfig(size, 2, 64)

    def test_rejects_cache_smaller_than_set(self):
        with pytest.raises(ValueError):
            CacheConfig(64, 4, 64)


class TestNocConfig:
    def test_paper_mesh_corners(self):
        noc = NocConfig(mesh_cols=6, mesh_rows=4)
        assert noc.num_nodes == 24
        assert noc.directory_nodes == (0, 5, 18, 23)

    def test_coords_roundtrip(self):
        noc = NocConfig(mesh_cols=6, mesh_rows=4)
        assert noc.topo.coords(0) == (0, 0)
        assert noc.topo.coords(5) == (5, 0)
        assert noc.topo.coords(23) == (5, 3)

    def test_hops_manhattan(self):
        noc = NocConfig(mesh_cols=6, mesh_rows=4)
        assert noc.topo.hops(0, 0) == 0
        assert noc.topo.hops(0, 23) == 8
        assert noc.topo.hops(5, 18) == 8

    def test_topology_knob_rebuilds_the_model(self):
        ring = NocConfig(mesh_cols=6, mesh_rows=4, topology="ring")
        assert ring.topo.hops(0, 23) == 1
        with pytest.raises(ValueError, match="registered"):
            NocConfig(topology="torus")

    def test_directory_node_error_names_topology(self):
        with pytest.raises(ValueError, match="'mesh'"):
            NocConfig(mesh_cols=2, mesh_rows=2, directory_nodes=(4,))

    def test_flits(self):
        noc = NocConfig()
        assert noc.flits(8) == 1
        assert noc.flits(16) == 1
        assert noc.flits(17) == 2
        assert noc.flits(64 + 8) == 5

    def test_message_latency_serialization(self):
        noc = NocConfig(mesh_cols=2, mesh_rows=2)
        control = noc.message_latency(0, 1, 8)
        data = noc.message_latency(0, 1, 72)
        assert control == 2          # 1 hop * (1+1)
        assert data == 2 + (5 - 1)   # + serialization

    def test_local_delivery_nonzero(self):
        noc = NocConfig()
        assert noc.message_latency(0, 0, 8) >= 1


class TestSimConfig:
    def test_default_matches_table1(self):
        cfg = default_config()
        assert cfg.num_cores == 24
        assert cfg.l1.size_bytes == 32 * 1024 and cfg.l1.assoc == 2
        assert cfg.l2.size_bytes == 128 * 1024 and cfg.l2.assoc == 8
        assert cfg.l1.hit_latency == 2 and cfg.l2.hit_latency == 10
        assert cfg.ghostwriter.gi_timeout == 1024
        assert len(cfg.noc.directory_nodes) == 4

    def test_table1_rows_render(self):
        rows = dict(table1_rows(default_config()))
        assert "24 in-order cores" in rows["Cores"]
        assert "32kB" in rows["L1"]
        assert "1024-cycle GI timeout" in rows["Coherence"]
        assert "Mesh Corners" in rows["Network"]

    def test_table1_baseline_row(self):
        cfg = default_config().with_ghostwriter(d_distance=0)
        assert dict(table1_rows(cfg))["Coherence"] == "Baseline MESI"

    def test_with_ghostwriter_sweep(self):
        cfg = default_config().with_ghostwriter(d_distance=8, gi_timeout=128)
        assert cfg.ghostwriter.d_distance == 8
        assert cfg.ghostwriter.gi_timeout == 128
        assert cfg.ghostwriter.enabled

    def test_home_directory_interleave(self):
        cfg = default_config()
        homes = {cfg.home_directory(b * 64) for b in range(16)}
        assert homes == set(cfg.noc.directory_nodes)

    def test_home_l2_slice_interleave(self):
        cfg = default_config()
        slices = {cfg.home_l2_slice(b * 64) for b in range(48)}
        assert slices == set(range(24))

    def test_cores_must_fit_mesh(self):
        with pytest.raises(ValueError):
            SimConfig(num_cores=25)

    def test_small_config_valid(self):
        for n in (1, 2, 3, 4, 8):
            cfg = small_config(n)
            assert cfg.num_cores == n
            assert cfg.num_cores <= cfg.noc.num_nodes


class TestGhostwriterConfig:
    def test_d_distance_bounds(self):
        GhostwriterConfig(d_distance=0)
        GhostwriterConfig(d_distance=32)
        with pytest.raises(ValueError):
            GhostwriterConfig(d_distance=33)
        with pytest.raises(ValueError):
            GhostwriterConfig(d_distance=-1)

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            GhostwriterConfig(gi_timeout=0)


class TestDramConfig:
    def test_defaults(self):
        d = DramConfig()
        assert d.size_bytes == 2 * 1024**3
        assert d.num_banks == 8

    def test_rejects_bad_banks(self):
        with pytest.raises(ValueError):
            DramConfig(num_banks=3)
