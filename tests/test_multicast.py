import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SgEntry,
    SgKey,
    SgState,
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
        assert sg_as_dict(state) == {sg: {0: (LOCAL, frozenset({LOCAL}))}}

    def test_line_tree_shape(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        assert sg_as_dict(state) == {sg: {
            2: (1, frozenset({LOCAL})),
            1: (0, frozenset({2})),
            0: (LOCAL, frozenset({1})),
        }}
        assert state.counts == {0: 1, 1: 1, 2: 1} and state.changed == {0, 1, 2}

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
        assert state.trees == {} and state.counts == {} and state.changed == set()


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
        assert state.trees[sg][0].oifs == {2}

    def test_leave_without_join(self):
        topo = line3()
        state = SgState()
        with pytest.raises(NotJoined):
            leave(state, topo, SgKey(0, 1), 2)

    def test_missing_upstream_entry_raises_no_state(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        del state.trees[sg][1]
        with pytest.raises(NoState, match="router 1"):
            leave(state, topo, sg, 2)


class TestForward:
    """``simulate_delivery`` over hand-built trees: the replication, NoState
    and RPF checks it makes at each router a copy reaches."""

    def line_tree(self, transit_oifs):
        state = SgState()
        sg = SgKey(0, 1)
        state.trees[sg] = {0: SgEntry(LOCAL, {1}), 1: SgEntry(0, transit_oifs),
                           2: SgEntry(1, {LOCAL})}
        return state, sg

    def test_transit_replication(self):
        state, sg = self.line_tree({2})
        assert simulate_delivery(state, sg) == [2]
        state, sg = self.line_tree({2, LOCAL})
        assert sorted(simulate_delivery(state, sg)) == [1, 2]

    def test_rpf_failure_on_wrong_arrival(self):
        state, sg = self.line_tree({2})
        state.trees[sg][1].iif = 2
        with pytest.raises(RpfFailure, match="router 1"):
            simulate_delivery(state, sg)

    def test_no_state(self):
        state, sg = self.line_tree({2})
        del state.trees[sg][2]
        with pytest.raises(NoState, match="router 2"):
            simulate_delivery(state, sg)
        # no tree, or no entry at the source: the source sends nothing
        assert simulate_delivery(SgState(), sg) == []
        del state.trees[sg][0]
        assert simulate_delivery(state, sg) == []

    def test_fan_out_router_replicates_per_branch(self):
        topo = build_topology(
            [(0, "core"), (1, "edge"), (2, "edge"), (3, "edge"), (4, "edge")],
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        )
        state = SgState()
        sg = SgKey(1, 5)
        for receiver in (2, 3, 4):
            join(state, topo, sg, receiver)
        assert state.trees[sg][0] == SgEntry(1, {2, 3, 4})
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
            assert set(state.trees[sg]) == expected_routers


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.data())
def test_counts_trees_and_delivery_after_every_join_and_leave(seed, n, data):
    rng = seeded(seed)
    topo = random_topology(rng, n)
    edges = topo.edge_routers
    groups = {group: rng.choice(edges) for group in (1, 2, 3)}
    sgs = [SgKey(source, group) for group, source in groups.items()]
    membership = {group: set() for group in groups}
    state = SgState()
    ops = data.draw(st.lists(st.tuples(st.sampled_from(sgs), st.sampled_from(edges),
                                       st.booleans()), max_size=30))
    for sg, edge, joining in ops:
        before = dict(state.counts)
        state.changed.clear()
        if joining:
            join(state, topo, sg, edge)
            membership[sg.group].add(edge)
        elif edge in membership[sg.group]:
            leave(state, topo, sg, edge)
            membership[sg.group].discard(edge)
        else:
            trees = sg_as_dict(state)
            with pytest.raises(NotJoined):
                leave(state, topo, sg, edge)
            assert sg_as_dict(state) == trees
        for router in topo.roles:
            assert state.count(router) == sum(router in tree for tree in state.trees.values())
        assert all(state.trees.values())
        moved = {r for r in topo.roles if state.count(r) != before.get(r, 0)}
        assert moved == state.changed
        assert sg_as_dict(state) == sg_as_dict(rebuild_from_membership(topo, groups, membership))
        for probed in sgs:
            delivered = simulate_delivery(state, probed)
            assert sorted(delivered) == sorted(membership[probed.group])
