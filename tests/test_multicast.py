import pytest

from conftest import (
    path_to,
    random_topology,
    rebuild_from_membership,
    seeded,
    sg_as_dict,
    sg_total,
)
from routescale.errors import NoState, NotJoined, RpfFailure, UnknownRouter
from routescale.multicast import (
    LOCAL,
    SgKey,
    SgState,
    forward_multicast,
    join,
    leave,
    simulate_delivery,
)
from routescale.topology import build_topology


def line3():
    return build_topology([(0, "edge"), (1, "core"), (2, "edge")], [(0, 1, 1), (1, 2, 1)])


class TestJoin:
    def test_receiver_at_source_edge(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 0)
        assert sg_as_dict(state) == {0: {sg: (LOCAL, frozenset({LOCAL}))}}

    def test_line_tree_shape(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        assert sg_as_dict(state) == {
            2: {sg: (1, frozenset({LOCAL}))},
            1: {sg: (0, frozenset({2}))},
            0: {sg: (LOCAL, frozenset({1}))},
        }

    def test_join_is_idempotent(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        snapshot = sg_as_dict(state)
        join(state, topo, sg, 2)
        assert sg_as_dict(state) == snapshot

    def test_unknown_receiver_or_source_installs_nothing(self):
        topo = line3()
        state = SgState()
        for sg, receiver in ((SgKey(0, 1), 99), (SgKey(99, 1), 2)):
            with pytest.raises(UnknownRouter, match="router 99"):
                join(state, topo, sg, receiver)
        assert state.entries == {} and state.changed == set()


class TestLeave:
    def test_join_then_leave_empties_state(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        leave(state, topo, sg, 2)
        assert sg_as_dict(state) == {}

    def test_shared_segment_survives_one_branch_leaving(self):
        # star: source at 1, receivers at 2 and 3, all via hub 0
        topo = build_topology(
            [(0, "core"), (1, "edge"), (2, "edge"), (3, "edge")],
            [(0, 1, 1), (0, 2, 1), (0, 3, 1)],
        )
        state = SgState()
        sg = SgKey(1, 9)
        join(state, topo, sg, 2)
        join(state, topo, sg, 3)
        leave(state, topo, sg, 3)
        rebuilt = rebuild_from_membership(topo, {9: 1}, {9: {2}})
        assert sg_as_dict(state) == sg_as_dict(rebuilt)
        assert state.entry(0, sg).oifs == {2}

    def test_leave_without_join(self):
        topo = line3()
        state = SgState()
        with pytest.raises(NotJoined):
            leave(state, topo, SgKey(0, 1), 2)


class TestForward:
    def test_transit_replication(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        assert forward_multicast(state, sg, 1, arrived_from=0) == {2}

    def test_rpf_failure_on_wrong_arrival(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        with pytest.raises(RpfFailure):
            forward_multicast(state, sg, 1, arrived_from=2)

    def test_no_state(self):
        with pytest.raises(NoState):
            forward_multicast(SgState(), SgKey(0, 1), 1, arrived_from=0)

    def test_fan_out_router_replicates_per_branch(self):
        topo = build_topology(
            [(0, "core"), (1, "edge"), (2, "edge"), (3, "edge"), (4, "edge")],
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        )
        state = SgState()
        sg = SgKey(1, 5)
        for receiver in (2, 3, 4):
            join(state, topo, sg, receiver)
        assert forward_multicast(state, sg, 0, arrived_from=1) == {2, 3, 4}
        assert sorted(simulate_delivery(state, sg)) == [2, 3, 4]


class TestCounts:
    def test_fresh_state_is_zero(self):
        assert SgState().count(0) == 0

    def test_disjoint_pairs_through_shared_core(self):
        topo = build_topology(
            [(0, "core")] + [(i, "edge") for i in range(1, 7)],
            [(0, i, 1) for i in range(1, 7)],
        )
        state = SgState()
        for g in range(5):
            sg = SgKey(1 + (g % 3), 100 + g)
            join(state, topo, sg, 4 + (g % 3))
        assert state.count(0) == 5

    def test_join_leave_returns_to_zero(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        leave(state, topo, sg, 2)
        assert state.count(0) == 0
        assert sg_total(state) == 0


class TestProperties:
    def test_delivery_matches_membership_ground_truth(self):
        rng = seeded(31)
        for _ in range(40):
            topo = random_topology(rng, rng.randint(2, 8))
            edges = topo.edge_routers
            state = SgState()
            source = rng.choice(edges)
            sg = SgKey(source, 1)
            members = set(rng.sample(edges, rng.randint(0, len(edges))))
            for receiver in members:
                join(state, topo, sg, receiver)
            delivered = simulate_delivery(state, sg)
            assert len(delivered) == len(set(delivered))   # no duplicates
            assert set(delivered) == members

    def test_state_is_order_independent(self):
        rng = seeded(37)
        for _ in range(60):
            topo = random_topology(rng, rng.randint(2, 8))
            edges = topo.edge_routers
            groups = {g: rng.choice(edges) for g in range(rng.randint(1, 3))}
            state = SgState()
            membership = {g: set() for g in groups}
            for _ in range(rng.randint(0, 25)):
                g = rng.choice(sorted(groups))
                sg = SgKey(groups[g], g)
                joined = membership[g]
                if joined and rng.random() < 0.4:
                    receiver = rng.choice(sorted(joined))
                    leave(state, topo, sg, receiver)
                    joined.remove(receiver)
                else:
                    receiver = rng.choice(edges)
                    join(state, topo, sg, receiver)
                    joined.add(receiver)
            rebuilt = rebuild_from_membership(topo, groups, membership)
            assert sg_as_dict(state) == sg_as_dict(rebuilt)

    def test_tree_is_union_of_reverse_shortest_paths(self):
        rng = seeded(41)
        for _ in range(25):
            topo = random_topology(rng, rng.randint(2, 8))
            edges = topo.edge_routers
            source = rng.choice(edges)
            sg = SgKey(source, 3)
            members = set(rng.sample(edges, rng.randint(1, len(edges))))
            state = SgState()
            expected_routers = set()
            for receiver in members:
                join(state, topo, sg, receiver)
                expected_routers.update(path_to(topo, receiver, source))
            holding = {r for r in state.entries if state.entry(r, sg)}
            assert holding == expected_routers
