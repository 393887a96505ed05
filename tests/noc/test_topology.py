"""Mesh routing through the topology layer (``NocConfig.topo``)."""
from hypothesis import given, strategies as st

from repro.common.config import NocConfig

PAPER = NocConfig(mesh_cols=6, mesh_rows=4)
TOPO = PAPER.topo


class TestXYRoute:
    def test_self_route(self):
        assert TOPO.route(7, 7) == [7]

    def test_straight_line(self):
        assert TOPO.route(0, 3) == [0, 1, 2, 3]

    def test_x_then_y(self):
        # 0 is (0,0); 23 is (5,3): route goes across row 0 then down col 5
        assert TOPO.route(0, 23) == [0, 1, 2, 3, 4, 5, 11, 17, 23]

    def test_route_length_is_hops(self):
        for src in range(PAPER.num_nodes):
            for dst in range(PAPER.num_nodes):
                assert len(TOPO.route(src, dst)) - 1 == TOPO.hops(src, dst)

    def test_validate_paper_topology(self):
        TOPO.validate()

    def test_router_traversals_include_injection(self):
        assert TOPO.route_routers(0, 0) == 1
        assert TOPO.route_routers(0, 1) == 2

    @given(
        cols=st.integers(min_value=1, max_value=8),
        rows=st.integers(min_value=1, max_value=8),
    )
    def test_any_mesh_validates(self, cols, rows):
        NocConfig(mesh_cols=cols, mesh_rows=rows).topo.validate()

    @given(st.integers(min_value=0, max_value=23),
           st.integers(min_value=0, max_value=23))
    def test_route_endpoints(self, src, dst):
        path = TOPO.route(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(set(path)) == len(path)  # no loops

    @given(st.integers(min_value=0, max_value=23),
           st.integers(min_value=0, max_value=23))
    def test_hops_symmetric(self, src, dst):
        assert TOPO.hops(src, dst) == TOPO.hops(dst, src)

