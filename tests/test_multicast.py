import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oif_set,
    path_to,
    random_topology,
    rebuild_from_membership,
    reference_sg_tree,
    seeded,
    sg_as_dict,
    sg_entry,
    sg_total,
)
from routescale.errors import NoState, NotJoined, RpfFailure, UnknownRouter
from routescale.multicast import (
    LOCAL,
    SgKey,
    SgState,
    join,
    leave,
    simulate_delivery,
)
from routescale.topology import build_topology


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, a block still running after ``seconds``."""
    def fail(*_):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def line3():
    return build_topology([(0, "edge"), (1, "core"), (2, "edge")], [(0, 1, 1), (1, 2, 1)])


def add_oif(state, sg, router, oif):
    """Add ``oif`` to ``router``'s (S,G) entry by hand, keeping the entry
    in its stored form."""
    tree = state.trees[sg]
    tree[router] = sg_entry(oif_set(tree[router]) | {oif})


class TestJoin:
    def test_receiver_at_source_edge(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 0)
        assert sg_as_dict(state) == {sg: {0: frozenset({LOCAL})}}

    def test_line_tree_shape(self):
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        assert sg_as_dict(state) == {sg: {
            2: frozenset({LOCAL}),
            1: frozenset({2}),
            0: frozenset({1}),
        }}
        assert state.counts == {0: 1, 1: 1, 2: 1} and state.changed == {0, 1, 2}

    def test_one_oif_is_held_bare_and_a_second_makes_a_set(self):
        topo = build_topology([(0, "edge"), (1, "core"), (2, "edge"), (3, "edge")],
                              [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        assert state.trees == {sg: {0: 1, 1: 2, 2: LOCAL}}
        join(state, topo, sg, 3)
        join(state, topo, sg, 0)
        assert state.trees == {sg: {0: {1, LOCAL}, 1: {2, 3}, 2: LOCAL, 3: LOCAL}}

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
        assert state.trees[sg][0] == 2     # one oif left: bare again

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

    @pytest.mark.parametrize("entry", [3, {3, LOCAL}], ids=["bare", "set"])
    def test_prune_stops_at_an_entry_without_the_pruned_router(self, entry):
        # 0 - 1 - {2, 3}: source 0, receiver 2, and router 1's entry
        # rewired by hand to hold router 3 but not router 2
        topo = build_topology([(0, "edge"), (1, "core"), (2, "edge"), (3, "edge")],
                              [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        state.trees[sg][1] = entry
        state.changed.clear()
        leave(state, topo, sg, 2)
        assert state.trees == {sg: {0: 1, 1: entry}}
        assert state.trees[sg][1] is entry
        assert state.counts == {0: 1, 1: 1, 2: 0} and state.changed == {2}


class TestForward:
    """``simulate_delivery`` over trees joined on a real topology, some
    then rewired by hand: the replication, NoState and RPF checks it
    makes at each router a copy reaches, reading each router's RPF
    neighbour from the next-hop table toward the source."""

    def line_tree(self):
        """line 3, source 0, receiver 2: ``{0: {1}, 1: {2}, 2: {LOCAL}}``."""
        topo = line3()
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 2)
        return topo, state, sg

    def test_transit_replication(self):
        topo, state, sg = self.line_tree()
        assert simulate_delivery(state, topo, sg) == [2]
        add_oif(state, sg, 1, LOCAL)
        assert sorted(simulate_delivery(state, topo, sg)) == [1, 2]

    def test_rpf_failure_on_wrong_oif(self):
        # square 0-1-3-2-0 of unit links: 3's next hop toward source 0 is
        # 1, the smaller of two equal-cost neighbours, so a copy that 2
        # sends on to 3 fails the RPF check at 3
        topo = build_topology([(0, "edge"), (1, "core"), (2, "core"), (3, "edge")],
                              [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
        state = SgState()
        sg = SgKey(0, 1)
        join(state, topo, sg, 3)
        assert sg_as_dict(state) == {sg: {0: frozenset({1}), 1: frozenset({3}),
                                          3: frozenset({LOCAL})}}
        assert simulate_delivery(state, topo, sg) == [3]
        state.trees[sg] = {0: 2, 2: 3, 3: LOCAL}
        with pytest.raises(RpfFailure, match="router 3: .* arrived from 2, expected 1"):
            simulate_delivery(state, topo, sg)

    def test_copy_sent_back_to_the_source(self):
        # 0 -> 1 -> 0 would replicate forever without the check
        topo, state, sg = self.line_tree()
        add_oif(state, sg, 1, 0)
        with time_limit(2), pytest.raises(RpfFailure, match="router 0: .* arrived from 1"):
            simulate_delivery(state, topo, sg)
        # the source has no RPF neighbour, not even itself
        topo, state, sg = self.line_tree()
        add_oif(state, sg, 0, 0)
        with time_limit(2), pytest.raises(RpfFailure, match="router 0: .* arrived from 0"):
            simulate_delivery(state, topo, sg)
        state.trees[sg] = {0: 0}            # the same, as a bare oif
        with time_limit(2), pytest.raises(RpfFailure, match="router 0: .* arrived from 0"):
            simulate_delivery(state, topo, sg)

    def test_oif_cycle_fails_the_rpf_check(self):
        # 1 -> 2 -> 1 would replicate forever without the check
        topo, state, sg = self.line_tree()
        add_oif(state, sg, 2, 1)
        with time_limit(2), pytest.raises(RpfFailure, match="router 1: .* arrived from 2"):
            simulate_delivery(state, topo, sg)
        # a router that sends a copy to itself
        topo, state, sg = self.line_tree()
        add_oif(state, sg, 1, 1)
        with time_limit(2), pytest.raises(RpfFailure, match="router 1: .* arrived from 1"):
            simulate_delivery(state, topo, sg)

    def test_no_state(self):
        topo, state, sg = self.line_tree()
        del state.trees[sg][2]
        with pytest.raises(NoState, match="router 2"):
            simulate_delivery(state, topo, sg)
        add_oif(state, sg, 1, LOCAL)        # the same, from a set of oifs
        with pytest.raises(NoState, match="router 2"):
            simulate_delivery(state, topo, sg)
        # no tree, or no entry at the source: the source sends nothing
        assert simulate_delivery(SgState(), topo, sg) == []
        del state.trees[sg][0]
        assert simulate_delivery(state, topo, sg) == []

    def test_fan_out_router_replicates_per_branch(self):
        topo = build_topology(
            [(0, "core"), (1, "edge"), (2, "edge"), (3, "edge"), (4, "edge")],
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        )
        state = SgState()
        sg = SgKey(1, 5)
        for receiver in (2, 3, 4):
            join(state, topo, sg, receiver)
        assert state.trees[sg][0] == {2, 3, 4}
        assert state.trees[sg][1] == 0
        assert sorted(simulate_delivery(state, topo, sg)) == [2, 3, 4]


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
            delivered = simulate_delivery(state, topo, sg)
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
            delivered = simulate_delivery(state, topo, probed)
            assert sorted(delivered) == sorted(membership[probed.group])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12),
       st.data())
def test_trees_match_the_scan_next_hop_oracle_after_every_event(seed, n, data):
    # the oracle walks each member's reverse path with scan_next_hop, which
    # reads no Topology table, so it checks the next hops join reads too
    rng = seeded(seed)
    topo = random_topology(rng, n)
    edges = topo.edge_routers
    sgs = [SgKey(rng.choice(edges), group) for group in (1, 2, 3)]
    members = {sg: set() for sg in sgs}
    state = SgState()
    for _ in range(data.draw(st.integers(min_value=0, max_value=40))):
        sg = data.draw(st.sampled_from(sgs))
        if members[sg] and data.draw(st.booleans()):
            receiver = data.draw(st.sampled_from(sorted(members[sg])))
            leave(state, topo, sg, receiver)
            members[sg].discard(receiver)
        else:
            receiver = data.draw(st.sampled_from(edges))
            join(state, topo, sg, receiver)
            members[sg].add(receiver)
        expected = {sg: reference_sg_tree(topo, sg.source_edge, joined)
                    for sg, joined in members.items() if joined}
        assert sg_as_dict(state) == expected
        for router in topo.roles:
            assert state.count(router) == sum(router in tree for tree in expected.values())
        for probed in sgs:
            delivered = simulate_delivery(state, topo, probed)
            assert len(delivered) == len(members[probed])
            assert set(delivered) == members[probed]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12),
       st.data())
def test_entries_keep_one_stored_form_after_every_event(seed, n, data):
    # one oif is held bare and two or more in a set, so each entry equals
    # the reference's oifs in that form; a drawn receiver that is a member
    # leaves, any other joins
    rng = seeded(seed)
    topo = random_topology(rng, n)
    edges = topo.edge_routers
    sgs = [SgKey(rng.choice(edges), group) for group in (1, 2)]
    members = {sg: set() for sg in sgs}
    state = SgState()
    for _ in range(data.draw(st.integers(min_value=0, max_value=40))):
        sg = data.draw(st.sampled_from(sgs))
        receiver = data.draw(st.sampled_from(edges))
        if receiver in members[sg]:
            leave(state, topo, sg, receiver)
            members[sg].discard(receiver)
        else:
            join(state, topo, sg, receiver)
            members[sg].add(receiver)
        for tree in state.trees.values():
            for router, entry in tree.items():
                assert not isinstance(entry, set) or len(entry) >= 2, (router, entry)
        assert state.trees == {
            sg: {router: sg_entry(oifs)
                 for router, oifs in reference_sg_tree(topo, sg.source_edge, joined).items()}
            for sg, joined in members.items() if joined}
