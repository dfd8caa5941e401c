import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MaterialisedFibs, mesh_entries, prefix_contains, random_topology, seeded
from routescale import unicast
from routescale.errors import InvalidPrefix, NoMapping, NoRoute, SimError, UnattachedSite
from routescale.harness import auto_providers
from routescale.topology import build_topology
from routescale.unicast import (
    Deliver,
    LabelTables,
    MAX_SITES,
    Packet,
    Prefix,
    PrefixTable,
    Send,
    UnicastPlane,
    establish_lsp,
    host_address,
    make_site,
    provider_prefix,
    site_prefix,
)


def line3():
    return build_topology([(0, "edge"), (1, "core"), (2, "edge")], [(0, 1, 1), (1, 2, 1)])


def plane_with_sites(topo, attachments):
    plane = UnicastPlane(topo, auto_providers(topo))
    for site_id, edge in attachments:
        plane.add_site(make_site(site_id, edge))
    return plane


class TestPrefix:
    def test_rejects_bits_beyond_length(self):
        with pytest.raises(InvalidPrefix):
            Prefix(0x0000_0001, 8)

    def test_ids_outside_the_address_plan(self):
        for bad in (lambda: Prefix(0, 33), lambda: site_prefix(MAX_SITES),
                    lambda: provider_prefix(-1)):
            with pytest.raises(InvalidPrefix):
                bad()

    def test_default_route_matches_everything(self):
        assert prefix_contains(Prefix(0, 0), 0xDEAD_BEEF)

    def test_containment(self):
        p = Prefix(0x0A00_0000, 8)
        assert prefix_contains(p, 0x0A12_3456)
        assert not prefix_contains(p, 0x0B00_0000)


def brute_force_lpm(entries, addr):
    best = None
    for prefix, action in entries:
        if prefix_contains(prefix, addr) and (best is None or prefix.length > best[0].length):
            best = (prefix, action)
    return None if best is None else best[1]


@st.composite
def prefix_sets(draw):
    n = draw(st.integers(min_value=0, max_value=64))
    entries = {}
    for i in range(n):
        length = draw(st.integers(min_value=0, max_value=32))
        value = draw(st.integers(min_value=0, max_value=2**32 - 1))
        mask = ((1 << length) - 1) << (32 - length) if length else 0
        entries[Prefix(value & mask, length)] = i
    return list(entries.items())


class TestLongestPrefixMatch:
    @settings(max_examples=200, deadline=None)
    @given(prefix_sets(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_lpm_matches_brute_force_scan(self, entries, addr):
        table = PrefixTable()
        for prefix, action in entries:
            table.add(prefix, action)
        expected = brute_force_lpm(entries, addr)
        if expected is None:
            with pytest.raises(NoRoute):
                table.lookup(addr)
        else:
            assert table.lookup(addr) == expected

    def test_duplicate_prefix_rejected(self):
        table = PrefixTable()
        table.add(Prefix(0, 8), "a")
        with pytest.raises(InvalidPrefix):
            table.add(Prefix(0, 8), "b")


def y_topology():
    return build_topology(
        [(0, "edge"), (1, "core"), (2, "core"), (3, "edge"), (4, "edge")],
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1)],
    )


class TestFlatFib:
    def test_zero_sites_one_provider(self):
        topo = build_topology([(0, "edge"), (1, "core")], [(0, 1, 1)])
        plane = plane_with_sites(topo, [])
        assert plane.flat_fib_size() == 1

    def test_core_entry_count_is_sites_plus_providers(self):
        topo = y_topology()
        assert len(auto_providers(topo)) == 3
        plane = plane_with_sites(topo, [(i, [0, 3, 4][i % 3]) for i in range(100)])
        assert plane.flat_fib_size() == 103

    def test_adding_one_site_increments_every_router_by_one(self):
        topo = line3()
        plane = plane_with_sites(topo, [(0, 0), (1, 2)])
        before = plane.flat_fib_size()
        plane.add_site(make_site(2, 2))
        assert plane.flat_fib_size() == before + 1

    def test_site_on_non_edge_router_rejected(self):
        with pytest.raises(UnattachedSite):
            plane_with_sites(line3(), [(0, 1)])


class TestMapEncapTables:
    def test_core_fib_holds_only_locators(self):
        topo = y_topology()
        plane = plane_with_sites(topo, [(i, [0, 3, 4][i % 3]) for i in range(100)])
        assert plane.encap_fib_size() == 3
        assert [plane.mapping_entries(r) for r in range(5)] == [100, 0, 0, 100, 100]

    def test_zero_sites(self):
        topo = line3()
        plane = plane_with_sites(topo, [])
        assert all(plane.mapping_entries(r) == 0 for r in topo.roles)
        assert plane.encap_fib_size() == 2


class TestForwarding:
    def test_deliver_at_destination_edge(self):
        plane = plane_with_sites(line3(), [(0, 2)])
        addr = host_address(site_prefix(0))
        for mode in ("flat", "mapencap", "mpls"):
            assert plane.forward(mode, Packet(addr), 2) == Deliver(0)

    def test_mapencap_trace_encap_core_decap(self):
        topo = line3()
        plane = plane_with_sites(topo, [(0, 2)])
        addr = host_address(site_prefix(0))

        d0 = plane.forward("mapencap", Packet(addr), 0)
        assert isinstance(d0, Send) and d0.next_hop == 1
        assert d0.packet.outer is not None

        inner_lookups = plane.lookup_counts("flat")[1]
        d1 = plane.forward("mapencap", d0.packet, 1)
        assert isinstance(d1, Send) and d1.next_hop == 2
        assert d1.packet.outer == d0.packet.outer
        # core lookup touched the locator-only FIB, never the flat one
        assert plane.lookup_counts("flat")[1] == inner_lookups
        assert plane.lookup_counts("mapencap")[1] == 1

        assert plane.forward("mapencap", d1.packet, 2) == Deliver(0)

        site, path = plane.deliver("mapencap", 0, addr)
        assert (site, path) == (0, [0, 1, 2])

    def test_mpls_transit_makes_zero_prefix_lookups(self):
        topo = line3()
        plane = plane_with_sites(topo, [(0, 2)])
        addr = host_address(site_prefix(0))
        site, path = plane.deliver("mpls", 0, addr)
        assert (site, path) == (0, [0, 1, 2])
        assert plane.lookup_counts("mpls")[1] == 0
        assert plane.lookup_counts("flat")[1] == 0
        assert plane.lookup_counts("mapencap")[1] == 0

    def test_unregistered_destination(self):
        plane = plane_with_sites(line3(), [(0, 2)])
        bogus = host_address(site_prefix(55))
        with pytest.raises(NoRoute):
            plane.deliver("flat", 0, bogus)
        with pytest.raises(NoRoute):
            plane.deliver("mapencap", 0, bogus)

    def test_mapencap_core_cannot_originate(self):
        plane = plane_with_sites(line3(), [(0, 2)])
        with pytest.raises(NoMapping):
            plane.forward("mapencap", Packet(host_address(site_prefix(0))), 1)


class TestLsp:
    def test_ingress_equals_egress(self):
        topo = line3()
        labels = LabelTables(list(topo.roles))
        establish_lsp(topo, labels, 0, 0)
        assert labels.fec[0][0] == (None, None)
        assert all(not ilm for ilm in labels.ilm.values())

    def test_line_lsp_push_swap_pop(self):
        topo = line3()
        labels = LabelTables(list(topo.roles))
        establish_lsp(topo, labels, 0, 2)
        push, nh = labels.fec[0][2]
        assert nh == 1
        swap = labels.ilm[1][push]
        assert swap[0] == "swap" and swap[2] == 2
        assert labels.ilm[2][swap[1]] == ("pop", None, None)
        # transit in-label entries = path length - 1
        assert sum(len(t) for t in labels.ilm.values()) == 2

    def test_idempotent(self):
        topo = line3()
        labels = LabelTables(list(topo.roles))
        establish_lsp(topo, labels, 0, 2)
        snapshot = ({r: dict(t) for r, t in labels.ilm.items()},
                    {r: dict(t) for r, t in labels.fec.items()})
        establish_lsp(topo, labels, 0, 2)
        assert snapshot == ({r: dict(t) for r, t in labels.ilm.items()},
                            {r: dict(t) for r, t in labels.fec.items()})


class TestLabelCounts:
    def test_first_mpls_forward_builds_the_mesh(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2:])
            return establish_lsp(*args)

        monkeypatch.setattr(unicast, "establish_lsp", counting)
        topo = y_topology()
        plane = plane_with_sites(topo, [(0, 4)])
        assert [plane.label_entries(r) for r in topo.roles] == [5, 4, 6, 5, 5]
        assert calls == []
        site, path = plane.deliver("mpls", 0, host_address(site_prefix(0)))
        assert (site, path) == (0, [0, 1, 2, 4])
        assert calls == [(i, e) for i in (0, 3, 4) for e in (0, 3, 4)]
        assert [mesh_entries(plane.labels, r) for r in topo.roles] == [5, 4, 6, 5, 5]
        plane.deliver("mpls", 3, host_address(site_prefix(0)))
        assert len(calls) == 9

    def test_line_counts_by_hand(self):
        # edges 0 and 2: each holds 2 FEC bindings and the pop label of
        # the other's LSP; the core swaps for both directions
        topo = line3()
        plane = UnicastPlane(topo, auto_providers(topo))
        assert [plane.label_entries(r) for r in (0, 1, 2)] == [3, 2, 3]

    def test_equal_cost_ties_follow_the_lowest_id(self):
        # 0-1-3 and 0-2-3 tie: both LSPs between the edges 0 and 3 take
        # router 1, and router 2 holds no label
        topo = build_topology(
            [(0, "edge"), (1, "core"), (2, "core"), (3, "edge")],
            [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)],
        )
        plane = UnicastPlane(topo, auto_providers(topo))
        assert [plane.label_entries(r) for r in (0, 1, 2, 3)] == [3, 2, 0, 3]
        assert [mesh_entries(plane.labels, r) for r in (0, 1, 2, 3)] == [3, 2, 0, 3]


class TestDeliveryEquivalence:
    def test_all_modes_deliver_to_the_same_site(self):
        rng = seeded(23)
        for _ in range(25):
            topo = random_topology(rng, rng.randint(2, 8), n_edges=rng.randint(1, 2))
            plane = UnicastPlane(topo, auto_providers(topo))
            n_sites = rng.randint(1, 6)
            for site_id in range(n_sites):
                plane.add_site(make_site(site_id, rng.choice(topo.edge_routers)))
            for site_id in range(n_sites):
                addr = host_address(site_prefix(site_id))
                for src in topo.roles:
                    expected, _ = plane.deliver("flat", src, addr)
                    if src in topo.edge_routers or plane._local_site(src, addr):
                        assert plane.deliver("mapencap", src, addr)[0] == expected
                        assert plane.deliver("mpls", src, addr)[0] == expected
                    assert expected == site_id


def outcome(fibs, mode, packet, at):
    """A forwarding decision, or the type of error it raised."""
    try:
        return fibs.forward(mode, packet, at)
    except SimError as exc:
        return type(exc)


@st.composite
def planes(draw):
    """A random topology with auto providers and random site attachments,
    as a plane and as its materialised per-router tables."""
    # max_cost 1 gives unit costs, whose equal-cost ties are dense
    topo = random_topology(seeded(draw(st.integers(0, 2**32 - 1))),
                           draw(st.integers(min_value=1, max_value=8)),
                           max_cost=draw(st.sampled_from([1, 3])))
    providers = auto_providers(topo)
    edges = draw(st.lists(st.sampled_from(topo.edge_routers), max_size=8))
    sites = [make_site(i, edge) for i, edge in enumerate(edges)]
    plane = UnicastPlane(topo, providers)
    for site in sites:
        plane.add_site(site)
    return plane, MaterialisedFibs(topo, providers, sites), providers, len(sites)


class TestDerivedTables:
    @settings(max_examples=100, deadline=None)
    @given(planes())
    def test_sizes_decisions_and_lookups_match_materialised_tables(self, drawn):
        plane, oracle, providers, n_sites = drawn
        topo = plane.topo
        for r in topo.roles:
            assert plane.flat_fib_size() == oracle.flat_fib_size(r)
            assert plane.encap_fib_size() == oracle.encap_fib_size(r)
            assert plane.mapping_entries(r) == oracle.mapping_entries(r)
            assert plane.label_entries(r) == mesh_entries(oracle.labels, r)
        # every site, one unregistered site, every locator
        addrs = [host_address(site_prefix(i)) for i in range(n_sites + 1)]
        addrs += [host_address(p.locator_prefix) for p in providers]
        for mode in ("flat", "mapencap", "mpls"):
            for src in topo.roles:
                for addr in addrs:
                    packet, at = Packet(addr), src
                    for _ in range(len(topo) + 2):
                        decision = outcome(plane, mode, packet, at)
                        assert decision == outcome(oracle, mode, packet, at)
                        assert plane.lookup_counts(mode) == oracle.lookups[mode]
                        if not isinstance(decision, Send):
                            break
                        packet, at = decision.packet, decision.next_hop
