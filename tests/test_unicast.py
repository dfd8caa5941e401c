import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    STUB_HEAVY,
    Deliver,
    MaterialisedFibs,
    NoLabelBinding,
    NoMapping,
    NoRoute,
    Packet,
    Prefix,
    Send,
    edge_providers,
    host_address,
    lsp_mesh,
    make_site,
    mesh_entries,
    path_to,
    prefix_contains,
    provider_prefix,
    random_topology,
    seeded,
    site_prefix,
    stub_heavy_topology,
)
from routescale.errors import InvalidPrefix, SimError, UnattachedSite
from routescale.topology import EDGE, build_topology
from routescale.unicast import (
    LabelTables,
    MAX_SITES,
    PrefixTable,
    UnicastPlane,
    establish_lsp,
)


def line3():
    return build_topology([(0, "edge"), (1, "core"), (2, "edge")], [(0, 1, 1), (1, 2, 1)])


def plane_with_sites(topo, attachments):
    plane = UnicastPlane(topo, len(topo.edge_routers))
    for site_id, edge in attachments:
        plane.add_site(site_id, edge)
    return plane


def fibs_with_sites(topo, attachments):
    """The materialised tables of :func:`plane_with_sites`'s plane."""
    sites = [make_site(site_id, edge) for site_id, edge in attachments]
    return MaterialisedFibs(topo, edge_providers(topo), sites)


class TestPrefix:
    def test_rejects_bits_beyond_length(self):
        with pytest.raises(InvalidPrefix):
            Prefix(0x0000_0001, 8)

    def test_ids_outside_the_address_plan(self):
        for bad in (lambda: Prefix(0, 33), lambda: plane_with_sites(line3(), [(MAX_SITES, 0)]),
                    lambda: provider_prefix(-1)):
            with pytest.raises(InvalidPrefix):
                bad()

    def test_default_route_matches_everything(self):
        assert prefix_contains(Prefix(0, 0), 0xDEAD_BEEF)

    def test_containment(self):
        p = Prefix(0x0A00_0000, 8)
        assert prefix_contains(p, 0x0A12_3456)
        assert not prefix_contains(p, 0x0B00_0000)


class TestPrefixTable:
    def test_duplicate_prefix_rejected(self):
        table = PrefixTable()
        table.add(0x8000_0000, "a")
        with pytest.raises(InvalidPrefix, match=r"^duplicate prefix 0x80000000/24$"):
            table.add(0x8000_0000, "b")
        assert table == {0x8000_0000: "a"}


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
        assert len(topo.edge_routers) == 3
        plane = plane_with_sites(topo, [(i, [0, 3, 4][i % 3]) for i in range(100)])
        assert plane.flat_fib_size() == 103

    def test_adding_one_site_increments_every_router_by_one(self):
        topo = line3()
        plane = plane_with_sites(topo, [(0, 0), (1, 2)])
        before = plane.flat_fib_size()
        plane.add_site(2, 2)
        assert plane.flat_fib_size() == before + 1

    def test_site_on_non_edge_router_rejected(self):
        with pytest.raises(UnattachedSite):
            plane_with_sites(line3(), [(0, 1)])


def reference_add_site_error(topo, accepted, site_id, edge):
    """The error class an ``add_site`` of ``site_id`` at ``edge`` raises
    given the ``{site id: edge}`` already accepted, or None: the range
    check of the site's prefix first, then the router's role, then the
    duplicate."""
    try:
        site = make_site(site_id, edge)
    except InvalidPrefix:
        return InvalidPrefix
    if topo.roles.get(edge) != EDGE:
        return UnattachedSite
    if site.site_id in accepted:
        return InvalidPrefix
    return None


@st.composite
def site_sequences(draw):
    """A fresh random or stub-heavy topology and ``(site id, router)``
    calls on it: repeated ids, ids at both ends of the range and just
    outside it, and edge, core and unknown routers."""
    if draw(st.booleans()):
        topo = random_topology(seeded(draw(st.integers(0, 2**32 - 1))),
                               draw(st.integers(min_value=1, max_value=8)))
    else:
        topo = stub_heavy_topology(draw(st.sampled_from(STUB_HEAVY)))
    routers = sorted(topo.roles)
    site_ids = st.one_of(st.integers(0, 4), st.sampled_from([-1, MAX_SITES - 1, MAX_SITES]))
    targets = st.one_of(st.sampled_from(topo.edge_routers), st.sampled_from(routers),
                        st.sampled_from([-1, routers[-1] + 1]))
    return topo, draw(st.lists(st.tuples(site_ids, targets), max_size=10))


class TestIdentifierTable:
    def test_messages(self):
        plane = plane_with_sites(line3(), [(0, 0)])
        with pytest.raises(InvalidPrefix, match=r"^site id -1 out of range$"):
            plane.add_site(-1, 0)
        with pytest.raises(UnattachedSite, match=r"^site 1 attached to non-edge router 1$"):
            plane.add_site(1, 1)
        with pytest.raises(InvalidPrefix, match=r"^duplicate prefix 0x80000000/24$"):
            plane.add_site(0, 2)

    @settings(max_examples=100, deadline=None)
    @given(site_sequences())
    def test_table_holds_each_accepted_site_edge(self, drawn):
        topo, calls = drawn
        providers = edge_providers(topo)
        plane = UnicastPlane(topo, len(providers))
        accepted = {}       # site id -> edge
        for site_id, edge in calls:
            expected = reference_add_site_error(topo, accepted, site_id, edge)
            try:
                plane.add_site(site_id, edge)
            except SimError as exc:
                # a rejected call leaves the table as it was: checked below
                assert type(exc) is expected
            else:
                assert expected is None
                accepted[site_id] = edge
            assert plane.identifiers == {site_prefix(i).value: e for i, e in accepted.items()}
            fibs = MaterialisedFibs(topo, providers,
                                    [make_site(i, e) for i, e in accepted.items()])
            for r in topo.roles:
                assert plane.flat_fib_size() == fibs.flat_fib_size(r)
                assert plane.mapping_entries(r) == fibs.mapping_entries(r)


class TestMapEncapTables:
    def test_core_fib_holds_only_locators(self):
        topo = y_topology()
        plane = plane_with_sites(topo, [(i, [0, 3, 4][i % 3]) for i in range(100)])
        assert plane.n_providers == 3
        assert [plane.mapping_entries(r) for r in range(5)] == [100, 0, 0, 100, 100]

    def test_zero_sites(self):
        topo = line3()
        plane = plane_with_sites(topo, [])
        assert all(plane.mapping_entries(r) == 0 for r in topo.roles)
        assert plane.n_providers == 2


class TestForwarding:
    """The materialised tables' forwarder, which criterion 6 walks."""

    def test_deliver_at_destination_edge(self):
        fibs = fibs_with_sites(line3(), [(0, 2)])
        addr = host_address(site_prefix(0))
        for mode in ("flat", "mapencap", "mpls"):
            assert fibs.forward(mode, Packet(addr), 2) == Deliver(0)

    def test_mapencap_trace_encap_core_decap(self):
        fibs = fibs_with_sites(line3(), [(0, 2)])
        addr = host_address(site_prefix(0))

        d0 = fibs.forward("mapencap", Packet(addr), 0)
        assert isinstance(d0, Send) and d0.next_hop == 1
        assert d0.packet.outer is not None

        inner_lookups = fibs.lookups["flat"][1]
        d1 = fibs.forward("mapencap", d0.packet, 1)
        assert isinstance(d1, Send) and d1.next_hop == 2
        assert d1.packet.outer == d0.packet.outer
        # core lookup touched the locator-only FIB, never the flat one
        assert fibs.lookups["flat"][1] == inner_lookups
        assert fibs.lookups["mapencap"][1] == 1

        assert fibs.forward("mapencap", d1.packet, 2) == Deliver(0)

        site, path = fibs.deliver("mapencap", 0, addr)
        assert (site, path) == (0, [0, 1, 2])

    def test_mpls_transit_makes_zero_prefix_lookups(self):
        fibs = fibs_with_sites(line3(), [(0, 2)])
        addr = host_address(site_prefix(0))
        site, path = fibs.deliver("mpls", 0, addr)
        assert (site, path) == (0, [0, 1, 2])
        assert fibs.lookups["mpls"] == {0: 1, 1: 0, 2: 0}
        assert fibs.lookups["flat"][1] == 0
        assert fibs.lookups["mapencap"][1] == 0

    def test_unregistered_destination(self):
        fibs = fibs_with_sites(line3(), [(0, 2)])
        bogus = host_address(site_prefix(55))
        for mode in ("flat", "mapencap", "mpls"):
            with pytest.raises(NoRoute):
                fibs.deliver(mode, 0, bogus)

    def test_mapencap_core_cannot_originate(self):
        fibs = fibs_with_sites(line3(), [(0, 2)])
        with pytest.raises(NoMapping):
            fibs.forward("mapencap", Packet(host_address(site_prefix(0))), 1)


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
    def test_y_counts_by_hand(self):
        # edges 0, 3 and 4 each hold 3 FEC bindings; router 2 swaps for
        # the four LSPs between 0 and {3, 4} and pops none
        topo = y_topology()
        plane = plane_with_sites(topo, [(0, 4)])
        assert [plane.label_entries(r) for r in topo.roles] == [5, 4, 6, 5, 5]
        mesh = lsp_mesh(topo)
        assert [mesh_entries(mesh, r) for r in topo.roles] == [5, 4, 6, 5, 5]

    def test_line_counts_by_hand(self):
        # edges 0 and 2: each holds 2 FEC bindings and the pop label of
        # the other's LSP; the core swaps for both directions
        topo = line3()
        plane = UnicastPlane(topo, len(topo.edge_routers))
        assert [plane.label_entries(r) for r in (0, 1, 2)] == [3, 2, 3]

    def test_equal_cost_ties_follow_the_lowest_id(self):
        # 0-1-3 and 0-2-3 tie: both LSPs between the edges 0 and 3 take
        # router 1, and router 2 holds no label
        topo = build_topology(
            [(0, "edge"), (1, "core"), (2, "core"), (3, "edge")],
            [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)],
        )
        plane = UnicastPlane(topo, len(topo.edge_routers))
        assert [plane.label_entries(r) for r in (0, 1, 2, 3)] == [3, 2, 0, 3]
        assert [mesh_entries(lsp_mesh(topo), r) for r in (0, 1, 2, 3)] == [3, 2, 0, 3]

    # one tree walk per hub serves each single-homed egress of that hub
    @pytest.mark.parametrize("name", STUB_HEAVY)
    def test_stub_heavy_counts_match_the_mesh(self, name):
        topo = stub_heavy_topology(name)
        plane = UnicastPlane(topo, len(topo.edge_routers))
        counts = {r: plane.label_entries(r) for r in topo.roles}
        mesh = lsp_mesh(topo)
        assert counts == {r: mesh_entries(mesh, r) for r in topo.roles}


def walk(fibs, mode, src, addr):
    """``(site, path, {router: lookups made})`` of one delivery over the
    materialised tables, or the type of the error it raised."""
    before = dict(fibs.lookups[mode])
    try:
        site, path = fibs.deliver(mode, src, addr)
    except SimError as exc:
        return type(exc)
    made = {r: n - before[r] for r, n in fibs.lookups[mode].items() if n != before[r]}
    return site, path, made


@st.composite
def planes(draw):
    """A random topology with one provider per edge router and random
    site attachments, as a plane and as its materialised per-router
    tables."""
    # max_cost 1 gives unit costs, whose equal-cost ties are dense
    topo = random_topology(seeded(draw(st.integers(0, 2**32 - 1))),
                           draw(st.integers(min_value=1, max_value=8)),
                           max_cost=draw(st.sampled_from([1, 3])))
    providers = edge_providers(topo)
    edges = draw(st.lists(st.sampled_from(topo.edge_routers), max_size=8))
    sites = [make_site(i, edge) for i, edge in enumerate(edges)]
    plane = UnicastPlane(topo, len(providers))
    for site in sites:
        plane.add_site(site.site_id, site.attached_edge)
    return plane, MaterialisedFibs(topo, providers, sites), providers, sites


def check_against_the_reference(plane, fibs, providers, sites, unrouted_from):
    """Sizes match the materialised tables at every router, a walk from
    every router reaches each site, and one unregistered site and every
    locator are unrouted as inner destinations from each router of
    ``unrouted_from``."""
    topo = plane.topo
    for r in topo.roles:
        assert plane.flat_fib_size() == fibs.flat_fib_size(r)
        assert plane.n_providers == fibs.encap_fib_size(r)
        assert plane.mapping_entries(r) == fibs.mapping_entries(r)
        assert plane.label_entries(r) == fibs.label_entries(r)
    unrouted = [host_address(site_prefix(len(sites)))]
    unrouted += [host_address(provider_prefix(p.provider_id)) for p in providers]
    no_ingress = {"flat": NoRoute, "mapencap": NoMapping, "mpls": NoLabelBinding}
    for mode in ("flat", "mapencap", "mpls"):
        for src in topo.roles:
            # only flat forwards an inner address from a core router
            ingress = mode == "flat" or topo.roles[src] == "edge"
            for site in sites:
                outcome = walk(fibs, mode, src, host_address(site.identifier_prefix))
                if not ingress:
                    assert outcome is no_ingress[mode]
                    continue
                path = path_to(topo, src, site.attached_edge)
                # a FIB lookup at every hop in flat; in map-and-encap
                # at every hop once encapsulated; in MPLS only the
                # ingress classification, none at transit
                if mode == "flat":
                    made = dict.fromkeys(path, 1)
                elif len(path) == 1:
                    made = {}
                elif mode == "mapencap":
                    made = dict.fromkeys(path, 1)
                else:
                    made = {src: 1}
                assert outcome == (site.site_id, path, made)
            if src not in unrouted_from:
                continue
            for addr in unrouted:
                outcome = walk(fibs, mode, src, addr)
                assert outcome is (NoRoute if ingress else no_ingress[mode])


class TestDerivedTables:
    @settings(max_examples=100, deadline=None)
    @given(planes())
    def test_sizes_match_and_every_walk_reaches_its_site(self, drawn):
        plane, fibs, providers, sites = drawn
        check_against_the_reference(plane, fibs, providers, sites, plane.topo.roles)

    def test_star_200_past_the_old_cap(self):
        # 199 providers, ids 0 to 198: more than /8 locators under 0/1
        # could number; the locator walks start at the hub and at the edge
        # routers of the lowest and highest ids
        topo = stub_heavy_topology("star 200")
        providers = edge_providers(topo)
        assert len(providers) == 199
        sites = [make_site(i, edge) for i, edge in enumerate([1, 2, 100, 199, 199, 57])]
        plane = UnicastPlane(topo, len(providers))
        for site in sites:
            plane.add_site(site.site_id, site.attached_edge)
        assert plane.flat_fib_size() == 205 and plane.n_providers == 199
        fibs = MaterialisedFibs(topo, providers, sites)
        check_against_the_reference(plane, fibs, providers, sites, [0, 1, 199])
