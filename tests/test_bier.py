import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    STUB_HEAVY,
    BierHeader,
    bit_positions,
    encapsulate_bier,
    expand_bift,
    random_topology,
    reference_bift,
    seeded,
    stub_heavy_topology,
)
from routescale import multicast
from routescale.bier import (
    LOCAL,
    assign_bfr_ids,
    bfer_placements,
    bit_mask,
    build_bift,
    flood_deliver,
    forward_bier,
    id_to_si_bit,
)
from routescale.errors import BiftLoop, MissingBiftEntry, NoEdgeRouters
from routescale.multicast import SgKey, SgState
from routescale.topology import build_topology


def line3():
    return build_topology([(0, "edge"), (1, "core"), (2, "edge")], [(0, 1, 1), (1, 2, 1)])


class TestBfrIds:
    def test_ascending_router_id_order(self):
        assert assign_bfr_ids([7, 3, 9]) == {3: 1, 7: 2, 9: 3}

    def test_single_edge(self):
        assert assign_bfr_ids([4]) == {4: 1}

    def test_dense_no_gaps(self):
        ids = assign_bfr_ids(range(10, 30))
        assert sorted(ids.values()) == list(range(1, 21))

    def test_no_edges(self):
        with pytest.raises(NoEdgeRouters):
            assign_bfr_ids([])


class TestSiBit:
    def test_first_id(self):
        assert id_to_si_bit(1, 4) == (0, 1)

    def test_wrap_to_next_si(self):
        assert id_to_si_bit(5, 4) == (1, 1)

    def test_ten_ids_at_bsl_4_span_three_sis(self):
        assert id_to_si_bit(10, 4) == (2, 2)
        sis = {id_to_si_bit(i, 4)[0] for i in range(1, 11)}
        assert sis == {0, 1, 2}


class TestBuildBift:
    def test_line_example(self):
        topo = line3()
        bift = expand_bift(build_bift(topo, bfer_placements(topo.edge_routers, 8)))
        assert bift[1] == {(0, 1): (0, 0b01), (0, 2): (2, 0b10)}
        assert bift[0] == {(0, 1): (LOCAL, 0b01), (0, 2): (1, 0b10)}

    def test_single_router_domain(self):
        topo = build_topology([(5, "edge")], [])
        bift = expand_bift(build_bift(topo, bfer_placements([5], 4)))
        assert bift == {5: {(0, 1): (LOCAL, 0b1)}}

    def test_star_center_has_distinct_single_bit_fbms(self):
        topo = build_topology(
            [(0, "core"), (1, "edge"), (2, "edge"), (3, "edge")],
            [(0, 1, 1), (0, 2, 1), (0, 3, 1)],
        )
        bift = expand_bift(build_bift(topo, bfer_placements(topo.edge_routers, 8)))
        fbms = [fbm for _, fbm in bift[0].values()]
        assert sorted(fbms) == [0b001, 0b010, 0b100]

    def test_keys_are_the_given_placements(self):
        # ten BFERs at BSL 4 over three SIs, placed out of router-id order
        routers = [(0, "core")] + [(i, "edge") for i in range(1, 11)]
        topo = build_topology(routers, [(0, i, 1) for i in range(1, 11)])
        placements = {
            1: (2, 2), 2: (2, 1), 3: (1, 4), 4: (1, 3), 5: (1, 2),
            6: (1, 1), 7: (0, 4), 8: (0, 3), 9: (0, 2), 10: (0, 1),
        }
        bift = expand_bift(build_bift(topo, placements))
        assert set(bift) == set(topo.roles)
        for router, row in bift.items():
            assert set(row) == set(placements.values())
        for bfer, place in placements.items():
            assert bift[0][place][0] == bfer
            assert bift[bfer][place][0] == LOCAL


class TestEncapsulate:
    def test_or_of_member_bits(self):
        assert encapsulate_bier([(0, 1), (0, 3)]) == [BierHeader(0, 0b101)]

    def test_empty_egress_set(self):
        assert encapsulate_bier([]) == []

    def test_two_sis_give_two_copies(self):
        headers = encapsulate_bier([(1, 3), (0, 2)])
        assert headers == [BierHeader(0, 0b10), BierHeader(1, 0b100)]


class TestForward:
    def test_partition_at_transit(self):
        topo = line3()
        bift = build_bift(topo, bfer_placements(topo.edge_routers, 8))
        copies = forward_bier(bift, 0, 0b11, 1)
        assert sorted(copies) == [(0, 0b01), (2, 0b10)]

    def test_all_zero_bits(self):
        topo = line3()
        bift = build_bift(topo, bfer_placements(topo.edge_routers, 8))
        assert forward_bier(bift, 0, 0, 1) == []

    def test_local_bit_plus_downstream_bit(self):
        topo = line3()
        bift = build_bift(topo, bfer_placements(topo.edge_routers, 8))
        copies = forward_bier(bift, 0, 0b11, 0)
        assert copies == [(LOCAL, 0b01), (1, 0b10)]

    def test_missing_entry(self):
        topo = line3()
        bift = build_bift(topo, bfer_placements(topo.edge_routers, 8))
        with pytest.raises(MissingBiftEntry):
            forward_bier(bift, 0, 0b100, 1)

    def test_local_copy_with_several_bits(self):
        # a hand-built table in which router 0 holds bits 1 and 3 locally:
        # one LOCAL copy delivers its router once per bit it carries
        bift = {0: {0: {LOCAL: 0b101, 1: 0b010}},
                1: {0: {0: 0b101, LOCAL: 0b010}}}
        assert forward_bier(bift, 0, 0b111, 0) == [(LOCAL, 0b101), (1, 0b010)]
        assert sorted(flood_deliver(bift, 0, 0b111, 0, {})) == [0, 0, 1]

    # line 0 - 1 - 2: bit 2 (router 2) sent back to router 1 at router 1,
    # or bounced between routers 1 and 2; each flood starts a reach table,
    # or all of them share one, which a loop must leave without a landing
    # for the looping bit in any router's row
    @pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
    @pytest.mark.parametrize("row_1, row_2", [({0: 0b01, 1: 0b10}, {1: 0b01, LOCAL: 0b10}),
                                              ({0: 0b01, 2: 0b10}, {1: 0b11})],
                             ids=["self", "bounce"])
    def test_looping_fbm_raises_bift_loop(self, row_1, row_2, shared):
        reach = {}
        bift = {0: {0: {LOCAL: 0b01, 1: 0b10}},
                1: {0: row_1},
                2: {0: row_2}}
        raised = []

        def flood():
            for _ in range(2):
                try:
                    flood_deliver(bift, 0, 0b11, 0, reach if shared else {})
                except BiftLoop as exc:
                    raised.append(exc)

        worker = threading.Thread(target=flood, daemon=True)
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive(), "flood still running after 1 s"
        assert len(raised) == 2
        assert all(row[2] is None for row in reach.get(0, {}).values())

    # line 0 - 1 - 2 - 3: bit 2 (router 3) crosses routers 0 and 1, then
    # router 2 has no entry for it
    def test_missing_entry_mid_walk_records_nothing(self):
        bift = {0: {0: {LOCAL: 0b01, 1: 0b10}},
                1: {0: {0: 0b01, 2: 0b10}},
                2: {0: {1: 0b01}},
                3: {0: {2: 0b01, LOCAL: 0b10}}}
        reach = {}
        for _ in range(2):
            with pytest.raises(MissingBiftEntry, match="router 2: no BIFT entry for SI 0 bit 2"):
                flood_deliver(bift, 0, 0b10, 0, reach)
            assert not any(reach.values())
        # bit 1 lands on router 0 whatever the walk of bit 2 did; each row
        # runs to the highest bit its router's F-BMs hold
        assert flood_deliver(bift, 0, 0b01, 1, reach) == [0]
        assert reach == {0: {1: [None, 0, None], 0: [None, 0, None]}}

    # triangle 0 - 1 - 2, router 3 behind router 0: router 0's F-BMs toward
    # routers 1 and 2 both hold bit 2, so a multi-bit copy need not land
    # where its one-bit copies land.  A walk that crosses router 0 raises
    # and records nothing, also when router 0 sits mid-walk and both F-BMs
    # meet the one-bit copy (forwarding clears the first F-BM, so the copy
    # is still one); a walk that does not cross it is unaffected
    @pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
    @pytest.mark.parametrize("at, bits", [(0, 0b01), (0, 0b10), (0, 0b11), (3, 0b01),
                                          (3, 0b10)])
    def test_fbms_sharing_a_bit_raise(self, at, bits, shared):
        reach = {}
        bift = {0: {0: {1: 0b11, 2: 0b10}},
                1: {0: {LOCAL: 0b01, 2: 0b10}},
                2: {0: {1: 0b01, LOCAL: 0b10}},
                3: {0: {0: 0b11}}}
        for _ in range(2):
            with pytest.raises(MissingBiftEntry, match="router 0: the F-BM of SI 0 toward 2 "
                                                       "shares bit 2 with another F-BM"):
                flood_deliver(bift, 0, bits, at, reach if shared else {})
            assert not any(reach.values())
        assert flood_deliver(bift, 0, 0b11, 1, reach) == [1, 2]

    def test_empty_header_delivers_nothing(self):
        topo = line3()
        bift = build_bift(topo, bfer_placements(topo.edge_routers, 8))
        reach = {}
        assert flood_deliver(bift, 0, 0, 1, reach) == []
        assert not any(reach.values())


class TestBiftSize:
    def star20(self):
        routers = [(0, "core")] + [(i, "edge") for i in range(1, 21)]
        return build_topology(routers, [(0, i, 1) for i in range(1, 21)])

    def test_size_equals_bfer_count_everywhere(self):
        topo = self.star20()
        bift = expand_bift(build_bift(topo, bfer_placements(topo.edge_routers, 256)))
        assert all(len(bift[r]) == 20 for r in topo.roles)

    def test_group_churn_never_touches_the_table(self):
        topo = self.star20()
        placements = bfer_placements(topo.edge_routers, 256)
        before = expand_bift(build_bift(topo, placements))
        # a thousand groups' worth of encapsulations later, rebuild
        for g in range(1000):
            encapsulate_bier([id_to_si_bit(1 + g % 20, 256)])
        after = expand_bift(build_bift(topo, placements))
        assert before == after
        assert all(len(after[r]) == 20 for r in topo.roles)


class TestProperties:
    def test_bit_conservation_per_hop(self):
        rng = seeded(43)
        for _ in range(50):
            topo = random_topology(rng, rng.randint(1, 8))
            bsl = rng.choice([4, 8])
            ids = assign_bfr_ids(topo.edge_routers)
            bift = build_bift(topo, bfer_placements(topo.edge_routers, bsl))
            sis = sorted({id_to_si_bit(i, bsl)[0] for i in ids.values()})
            si = rng.choice(sis)
            valid_bits = []
            for bfr_id in ids.values():
                s, b = id_to_si_bit(bfr_id, bsl)
                if s == si:
                    valid_bits.append(b)
            bits = 0
            for b in valid_bits:
                if rng.random() < 0.6:
                    bits |= bit_mask(b)
            at = rng.choice(sorted(topo.roles))
            copies = forward_bier(bift, si, bits, at)
            combined = 0
            for _, copy in copies:
                assert combined & copy == 0   # pairwise disjoint
                combined |= copy
            assert combined == bits

    def test_equivalence_with_stateful_multicast(self):
        rng = seeded(53)
        for _ in range(30):
            topo = random_topology(rng, rng.randint(2, 8))
            edges = topo.edge_routers
            bsl = rng.choice([4, 8])
            ids = assign_bfr_ids(edges)
            bift = build_bift(topo, bfer_placements(edges, bsl))
            source = rng.choice(edges)
            members = set(rng.sample(edges, rng.randint(0, len(edges))))

            state = SgState()
            sg = SgKey(source, 1)
            for receiver in members:
                multicast.join(state, topo, sg, receiver)
            stateful = set(multicast.simulate_delivery(state, topo, sg))

            delivered = []
            for si, bits in encapsulate_bier([id_to_si_bit(ids[r], bsl) for r in members]):
                delivered.extend(flood_deliver(bift, si, bits, source, {}))
            assert set(delivered) == stateful == members
            assert len(delivered) == len(members)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=8), st.data())
def test_build_bift_matches_reference(seed, n, bsl, data):
    topo = random_topology(seeded(seed), n)
    # BFR-ids handed out in a drawn router order, often not router-id order
    order = data.draw(st.permutations(topo.edge_routers))
    placements = {r: id_to_si_bit(i, bsl) for i, r in enumerate(order, start=1)}
    bift = build_bift(topo, placements)
    assert expand_bift(bift) == reference_bift(topo, placements)


# single-homed routers' rows are built from their hub alone, and every
# other router reaches a single-homed BFER through its hub
@pytest.mark.parametrize("bsl", [1, 3, 256])
@pytest.mark.parametrize("name", STUB_HEAVY)
def test_build_bift_matches_reference_on_stub_heavy_topologies(name, bsl):
    topo = stub_heavy_topology(name)
    order = list(topo.edge_routers)
    seeded(bsl).shuffle(order)
    placements = {r: id_to_si_bit(i, bsl) for i, r in enumerate(order, start=1)}
    bift = build_bift(topo, placements)
    assert expand_bift(bift) == reference_bift(topo, placements)


# expand_bift hides an empty F-BM and two F-BMs that share a bit, so each
# (router, SI) row of build_bift is checked as stored: non-empty F-BMs,
# pairwise disjoint, whose OR is the SI's bits in use, each toward LOCAL
# or a neighbour
@pytest.mark.parametrize("bsl", [1, 3, 256])
@pytest.mark.parametrize("name", ("random",) + STUB_HEAVY)
def test_build_bift_rows_are_disjoint_fbms_toward_neighbours(name, bsl):
    rng = seeded(bsl)
    topos = ([random_topology(rng, rng.randint(1, 10)) for _ in range(20)] if name == "random"
             else [stub_heavy_topology(name)])
    for topo in topos:
        placements = bfer_placements(topo.edge_routers, bsl)
        in_use = {}
        for si, bit in placements.values():
            in_use[si] = in_use.get(si, 0) | bit_mask(bit)
        bift = build_bift(topo, placements)
        assert set(bift) == set(topo.roles)
        for router, row in bift.items():
            assert set(row) == set(in_use)
            for si, pairs in row.items():
                seen = 0
                for next_hop, fbm in pairs.items():
                    assert fbm != 0
                    assert seen & fbm == 0
                    seen |= fbm
                    assert next_hop == LOCAL or next_hop in topo.adj[router]
                assert seen == in_use[si]


def test_bit_positions_roundtrip():
    bits = bit_mask(1) | bit_mask(5) | bit_mask(8)
    assert bit_positions(bits) == [1, 5, 8]
