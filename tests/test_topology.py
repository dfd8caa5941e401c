import pytest

from conftest import brute_min_cost, enumerate_min_paths, path_to, random_topology, seeded
from routescale.errors import (
    Disconnected,
    DuplicateLink,
    DuplicateRouter,
    InvalidLink,
    InvalidRouter,
    NoEdgeRouters,
    SelfLoop,
    UnknownRouter,
)
from routescale.topology import build_topology, shortest_paths


def line3():
    return build_topology([(0, "edge"), (1, "core"), (2, "edge")], [(0, 1, 1), (1, 2, 1)])


def square():
    # two equal-cost paths 0-1-3 and 0-2-3
    return build_topology(
        [(0, "edge"), (1, "core"), (2, "core"), (3, "edge")],
        [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)],
    )


class TestBuild:
    def test_single_router(self):
        topo = build_topology([(0, "edge")], [])
        assert len(topo.roles) == 1
        assert topo.edge_routers == [0]

    def test_line_is_valid(self):
        topo = line3()
        assert sorted(topo.roles) == [0, 1, 2]
        assert topo.adj[1] == {0: 1, 2: 1}

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            build_topology([(0, "edge"), (1, "edge")], [])

    def test_duplicate_router(self):
        with pytest.raises(DuplicateRouter):
            build_topology([(0, "edge"), (0, "core")], [])

    def test_bad_router_is_not_a_duplicate(self):
        for routers in ([(-1, "edge")], [(0, "edge"), (1, "transit")]):
            with pytest.raises(InvalidRouter):
                build_topology(routers, [])

    def test_duplicate_link(self):
        with pytest.raises(DuplicateLink):
            build_topology([(0, "edge"), (1, "edge")], [(0, 1, 1), (1, 0, 2)])

    def test_non_positive_cost_is_not_a_duplicate(self):
        for cost in (0, -2):
            with pytest.raises(InvalidLink):
                build_topology([(0, "edge"), (1, "edge")], [(0, 1, cost)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_topology([(0, "edge")], [(0, 0, 1)])

    def test_needs_edge_router(self):
        with pytest.raises(NoEdgeRouters):
            build_topology([(0, "core"), (1, "core")], [(0, 1, 1)])

    def test_link_to_unknown_router(self):
        with pytest.raises(InvalidLink):
            build_topology([(0, "edge")], [(0, 5, 1)])

    # a number that is not an int is rejected, never truncated or parsed
    @pytest.mark.parametrize("rid", [1.0, 2.5, True, "3", None])
    def test_non_integer_router_id(self, rid):
        with pytest.raises(InvalidRouter):
            build_topology([(0, "edge"), (rid, "edge")], [])

    @pytest.mark.parametrize("link", [(0, 1, 2.5), (0, 1, 1.0), (0, 1, True), (0, 1, "3"),
                                      (0, 1.0, 1), ("0", 1, 1), (False, 1, 1)])
    def test_non_integer_link_value(self, link):
        with pytest.raises(InvalidLink):
            build_topology([(0, "edge"), (1, "edge")], [link])


class TestShortestPaths:
    def test_line_next_hop_via_middle(self):
        topo = line3()
        assert shortest_paths(topo, 0)[2] == 1

    def test_self_route(self):
        assert shortest_paths(line3(), 0)[0] == 0

    def test_square_tie_break_lowest_id(self):
        # both 1 and 2 lie on minimum-cost paths; 1 wins
        topo = square()
        paths = enumerate_min_paths(topo, 0, 3)
        assert sorted(p[1] for p in paths) == [1, 2]
        assert shortest_paths(topo, 0)[3] == 1

    def test_unknown_source(self):
        with pytest.raises(UnknownRouter):
            shortest_paths(line3(), 9)


class TestPathTo:
    def test_trivial_self_path(self):
        topo = line3()
        assert path_to(topo, 0, 0) == [0]

    def test_line_path(self):
        topo = line3()
        assert path_to(topo, 0, 2) == [0, 1, 2]

    def test_square_path_consistent_with_tie_break(self):
        topo = square()
        assert path_to(topo, 0, 3) == [0, 1, 3]

    def test_unknown_router(self):
        topo = line3()
        with pytest.raises(UnknownRouter):
            path_to(topo, 0, 9)


class TestProperties:
    def test_path_cost_matches_brute_force_oracle(self):
        rng = seeded(7)
        for _ in range(30):
            topo = random_topology(rng, rng.randint(1, 8))
            for src in topo.roles:
                for dst in topo.roles:
                    path = path_to(topo, src, dst)
                    cost = sum(topo.adj[a][b] for a, b in zip(path, path[1:]))
                    assert cost == brute_min_cost(topo, src, dst)

    def test_next_hop_following_is_loop_free(self):
        rng = seeded(11)
        for _ in range(20):
            topo = random_topology(rng, rng.randint(2, 8))
            for src in topo.roles:
                for dst in topo.roles:
                    cur, hops = src, 0
                    while cur != dst:
                        cur = topo.next_hop(cur, dst)
                        hops += 1
                        assert hops <= len(topo.roles)

    def test_identical_spec_gives_identical_tables(self):
        routers = [(0, "edge"), (1, "core"), (2, "core"), (3, "edge")]
        links = [(0, 1, 2), (0, 2, 2), (1, 3, 1), (2, 3, 1), (0, 3, 5)]
        t1 = build_topology(routers, links)
        t2 = build_topology(routers, links)
        for src in t1.roles:
            assert shortest_paths(t1, src) == shortest_paths(t2, src)

