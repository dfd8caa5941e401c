"""Shared test helpers: brute-force oracles and random topology builder."""

import json
import random
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from routescale import bier, multicast, workload
from routescale.bier import LOCAL, bit_mask
from routescale.errors import (
    DeliveryMismatch,
    InvalidParams,
    InvalidPrefix,
    MissingBiftEntry,
    NoState,
    RpfFailure,
    SimError,
)
from routescale.generators import gen_topology
from routescale.harness import DELIVERY_HEADER, STATE_HEADER, SimState
from routescale.multicast import SgKey, SgState, join
from routescale.topology import EDGE, build_topology
from routescale.unicast import (
    IDENTIFIER_BASE,
    MAX_PROVIDERS,
    MAX_SITES,
    PROVIDER_PREFIX_LEN,
    SITE_PREFIX_LEN,
    LabelTables,
    establish_lsp,
)
from routescale.workload import (
    ADD_GROUP,
    ADD_SITE,
    JOIN,
    KINDS,
    LEAVE,
    Event,
    Schedule,
    generate,
)


class DeliveryRow(NamedTuple):
    """One delivery.csv row: ``mode`` delivered one copy to each of
    ``receivers``, the group's membership, and no other."""

    tick: int
    group: int
    mode: str
    receivers: frozenset


def expand_report(report):
    """``run``'s delivery snapshots as one ``DeliveryRow`` per group and
    mode: in record order, then each record's group order, then its mode
    order."""
    return [DeliveryRow(record.tick, group, mode, receivers)
            for record in report
            for group, receivers in record.groups
            for mode in record.modes]


def state_rows(snapshot):
    """A ``StateSnapshot`` as state.csv's rows, without the tick: one
    ``(router, role, fib, mapping, labels, sg, bift)`` per router row,
    its role's unicast counts put after the role."""
    return [(router, role, *snapshot.roles[role], *rest)
            for router, role, *rest in snapshot.rows]


def reference_emit_csv(snapshots, report):
    """The text of state.csv and delivery.csv, formatted one row at a
    time, with the expanded delivery rows sorted by (tick, group, mode)."""
    state = [STATE_HEADER]
    for snap in snapshots:
        for row in state_rows(snap):
            state.append(",".join(map(str, (snap.tick, *row))))
    delivery = [DELIVERY_HEADER]
    for row in sorted(expand_report(report), key=lambda r: (r.tick, r.group, r.mode)):
        members = "|".join(str(r) for r in sorted(row.receivers))
        delivery.append(f"{row.tick},{row.group},{row.mode},1,{members},{members}")
    return "\n".join(state) + "\n", "\n".join(delivery) + "\n"


def path_to(topo, source, dest):
    """Router sequence from ``source`` to ``dest`` following next hops.

    Every hop reads the table toward ``dest``, so the path is a function
    of (router, dest) only and merges consistently across sources.
    """
    topo.require(source)
    hops = topo.toward(dest)
    path = [source]
    cur = source
    while cur != dest:
        cur = hops[cur]
        path.append(cur)
        if len(path) > len(topo.roles):
            raise AssertionError("next-hop loop detected")
    return path


@dataclass(frozen=True)
class Prefix:
    """Bit pattern of ``length`` leading bits in a 32-bit space: the
    reference tables' prefix, which longest-prefix matching reads."""

    value: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= 32:
            raise InvalidPrefix(f"prefix length {self.length} out of range")
        if self.value & ~self.mask() & 0xFFFF_FFFF:
            raise InvalidPrefix("prefix has bits set beyond its length")

    def mask(self):
        return ((1 << self.length) - 1) << (32 - self.length) if self.length else 0


def prefix_contains(prefix, addr):
    return (addr & prefix.mask()) == prefix.value


def brute_force_lpm(entries, addr):
    """The action of the longest of ``(prefix, action)`` entries that
    contains ``addr``, by a scan of every entry; None when none does."""
    best = None
    for prefix, action in entries:
        if prefix_contains(prefix, addr) and (best is None or prefix.length > best[0].length):
            best = (prefix, action)
    return None if best is None else best[1]


def lsp_mesh(topo):
    """The per-pair LSP mesh: one ``establish_lsp`` per ordered pair of
    edge routers, ingress-major in router-id order."""
    labels = LabelTables(list(topo.roles))
    for ingress in topo.edge_routers:
        for egress in topo.edge_routers:
            establish_lsp(topo, labels, ingress, egress)
    return labels


def mesh_entries(labels, router):
    """Entries of ``router`` in a ``LabelTables``: its in-labels plus its
    FEC bindings."""
    return len(labels.ilm[router]) + len(labels.fec[router])


def sg_total(state):
    """(S,G) entries of an ``SgState`` over all trees."""
    return sum(len(tree) for tree in state.trees.values())


def oif_set(entry):
    """The oifs of a stored (S,G) entry as a frozenset: a set of two or
    more oifs, or one oif held bare."""
    return frozenset(entry) if isinstance(entry, set) else frozenset((entry,))


def sg_entry(oifs):
    """The stored form of an (S,G) entry with the oifs ``oifs``: its one
    oif bare, or a set of two or more."""
    return next(iter(oifs)) if len(oifs) == 1 else set(oifs)


def sg_as_dict(state):
    """Plain-data view of an ``SgState``'s trees, ``{sg: {router:
    frozenset(oifs)}}``, for structural equality checks."""
    return {
        sg: {router: oif_set(entry) for router, entry in tree.items()}
        for sg, tree in state.trees.items()
    }


def brute_min_cost(topo, source, dest):
    """Exhaustive simple-path search; independent of the Dijkstra code path."""
    if source == dest:
        return 0
    best = [None]

    def walk(at, cost, seen):
        if best[0] is not None and cost >= best[0]:
            return
        if at == dest:
            best[0] = cost
            return
        for nbr, c in topo.adj[at].items():
            if nbr not in seen:
                walk(nbr, cost + c, seen | {nbr})

    walk(source, 0, {source})
    return best[0]


def enumerate_min_paths(topo, source, dest):
    """All minimum-cost simple paths (for tie-break checks)."""
    target = brute_min_cost(topo, source, dest)
    out = []

    def walk(at, cost, path):
        if cost > target:
            return
        if at == dest:
            if cost == target:
                out.append(list(path))
            return
        for nbr, c in topo.adj[at].items():
            if nbr not in path:
                path.append(nbr)
                walk(nbr, cost + c, path)
                path.pop()

    walk(source, 0, [source])
    return out


_ALL_PAIRS = weakref.WeakKeyDictionary()      # Topology -> all_pairs_costs(topo)


def all_pairs_costs(topo):
    """``{a: {b: minimum path cost}}`` over every pair of routers, by
    Floyd-Warshall over ``topo.adj``; cached per Topology (they are
    immutable).  Reads no table of :class:`Topology`."""
    cached = _ALL_PAIRS.get(topo)
    if cached is not None:
        return cached
    inf = float("inf")
    cost = {a: {b: 0 if a == b else topo.adj[a].get(b, inf) for b in topo.roles}
            for a in topo.roles}
    for k in topo.roles:
        via = cost[k]
        for row in cost.values():
            to_k = row[k]
            for b, rest in via.items():
                if to_k + rest < row[b]:
                    row[b] = to_k + rest
    _ALL_PAIRS[topo] = cost
    return cost


def scan_next_hop(topo, at, dest):
    """Per-call neighbor scan: the first neighbor, in id order, whose cost
    plus its own distance to ``dest`` equals the distance from ``at``.

    Reads distances from :func:`all_pairs_costs`, never a table of the
    Topology that :meth:`Topology.next_hop` reads.
    """
    if at == dest:
        return at
    cost = all_pairs_costs(topo)
    total = cost[at][dest]
    for nbr in sorted(topo.adj[at]):
        if topo.adj[at][nbr] + cost[nbr][dest] == total:
            return nbr
    raise AssertionError(f"no next hop from {at} toward {dest}")


def reference_sg_tree(topo, source, members):
    """The (S,G) tree of ``members``, ``{router: frozenset(oifs)}``, as
    ``sg_as_dict`` shows one tree: each member's reverse path, walked hop
    by hop with :func:`scan_next_hop`, never a table of the Topology,
    adds each router's downstream neighbour, and ``LOCAL`` at the member
    itself.  Each hop is strictly nearer the source, so every walk ends
    there.  No members, no tree: ``{}``."""
    oifs = {}
    for member in members:
        cur, downstream = member, multicast.LOCAL
        while True:
            oifs.setdefault(cur, set()).add(downstream)
            if cur == source:
                break
            cur, downstream = scan_next_hop(topo, cur, source), cur
    return {router: frozenset(out) for router, out in oifs.items()}


def rebuild_from_membership(topo, groups, membership):
    """From-scratch state for the given membership (order-independence oracle).

    ``groups`` maps group id -> source edge; ``membership`` maps group id
    -> iterable of receiver edge routers.
    """
    state = SgState()
    for group in sorted(groups):
        sg = SgKey(groups[group], group)
        for receiver in sorted(membership.get(group, ())):
            join(state, topo, sg, receiver)
    return state


def expand_bift(bift):
    """A BIFT as ``{router: {(si, bit): (next hop, F-BM)}}``, one entry per
    bit of each ``(next hop, F-BM)`` pair of ``build_bift``'s rows."""
    return {router: {(si, bit): (next_hop, fbm)
                     for si, pairs in row.items()
                     for next_hop, fbm in pairs.items()
                     for bit in bit_positions(fbm)}
            for router, row in bift.items()}


def bit_positions(bits):
    """Ascending 1-based positions set in ``bits``."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return out


def scan_forward_bier(bift, si, bits, at):
    """Bit-by-bit BIER forwarding: tests every position up to the highest
    set bit, one lookup in the expanded BIFT per set bit still in the
    working copy; ``(next hop, bits)`` copies.  A bit with no entry raises
    MissingBiftEntry, as in ``forward_bier``."""
    row = expand_bift(bift).get(at, {})
    copies = []
    working = bits
    bit = 1
    while working:
        if working & bit_mask(bit):
            entry = row.get((si, bit))
            if entry is None:
                raise MissingBiftEntry(f"router {at}: no BIFT entry for SI {si} bit {bit}")
            next_hop, fbm = entry
            copies.append((next_hop, working & fbm))
            working &= ~fbm
        bit += 1
    return copies


def scan_flood_deliver(bift, si, bits, at):
    """``flood_deliver`` over :func:`scan_forward_bier`, bit by bit at the
    BFERs too: one BFER per delivered bit."""
    delivered = []
    stack = [(at, bits)]
    while stack:
        router, bits = stack.pop()
        for next_hop, copy in scan_forward_bier(bift, si, bits, router):
            if next_hop == LOCAL:
                for bit in range(1, copy.bit_length() + 1):
                    if copy & bit_mask(bit):
                        delivered.append(router)
            else:
                stack.append((next_hop, copy))
    return delivered


def reference_bift(topo, placements):
    """Every router's BIFT built one BFER at a time, with next hops from
    :func:`scan_next_hop` (never the table ``build_bift`` reads): LOCAL at
    the BFER itself, and each F-BM the OR of the same-SI bits routed via
    the same next hop."""
    hop_of = {router: {} for router in topo.roles}    # router -> (si, bit) -> next hop
    fbm_of = {router: {} for router in topo.roles}    # router -> (si, next hop) -> F-BM
    for bfer, (si, bit) in placements.items():
        for router in topo.roles:
            nh = LOCAL if router == bfer else scan_next_hop(topo, router, bfer)
            hop_of[router][(si, bit)] = nh
            fbm_of[router][(si, nh)] = fbm_of[router].get((si, nh), 0) | bit_mask(bit)
    return {router: {place: (nh, fbm_of[router][(place[0], nh)]) for place, nh in hops.items()}
            for router, hops in hop_of.items()}


def sorted_simulate_delivery(state, topo, sg):
    """(S,G) replication visiting each router's outgoing interfaces in
    sorted order, with the NoState and RPF checks of ``simulate_delivery``;
    a router's RPF neighbour comes from :func:`scan_next_hop`, and the
    source has none."""
    delivered = []
    tree = state.trees.get(sg, {})
    if sg.source_edge not in tree:
        return delivered
    stack = [(sg.source_edge, multicast.LOCAL)]
    while stack:
        at, arrived_from = stack.pop()
        if at not in tree:
            raise NoState(f"router {at} has no state for {sg}")
        rpf = (multicast.LOCAL if at == sg.source_edge
               else scan_next_hop(topo, at, sg.source_edge))
        if rpf != arrived_from:
            raise RpfFailure(f"router {at}: {sg} arrived from {arrived_from}")
        for oif in sorted(oif_set(tree[at]), key=str):
            if oif == multicast.LOCAL:
                delivered.append(at)
            else:
                stack.append((oif, at))
    return delivered


class BierHeader(NamedTuple):
    """One BIER packet's header: a Set Identifier and its bitstring, in
    which bit k is integer bit (k-1)."""

    si: int
    bits: int


def encapsulate_bier(positions):
    """BFIR encapsulation of the egress set's ``(si, bit)`` positions:
    one header per Set Identifier in use, in SI order.  The reference for
    the bitstrings ``SimState`` keeps by join and leave."""
    per_si = {}
    for si, bit in positions:
        per_si[si] = per_si.get(si, 0) | bit_mask(bit)
    return [BierHeader(si, per_si[si]) for si in sorted(per_si)]


def full_probe(sim, tick):
    """Re-forward one packet per active group per multicast mode of a
    ``SimState``, whatever changed since its last probe; a mismatch raises
    DeliveryMismatch.  Never reads or writes the record ``sim.probe``
    patches, and encapsulates each group's BIER headers from its
    membership, placing each member's bit from its own BFR-id assignment,
    not from ``sim.bitstrings`` or ``sim.bit_of``; each flood starts a
    reach table of its own, never reading ``sim.reach``."""
    bit_of = bfer_placements(sim.topo.edge_routers, sim.scenario.bsl)
    rows = []

    def check(group, mode, delivered, expected):
        if frozenset(delivered) != expected or len(delivered) != len(expected):
            raise DeliveryMismatch(tick, group, mode, delivered, expected)
        rows.append(DeliveryRow(tick, group, mode, expected))

    for group in sorted(sim.groups):
        expected = frozenset(sim.membership[group])
        source = sim.groups[group].source_edge
        if sim.sg_state is not None:
            sg = SgKey(source, group)
            delivered = multicast.simulate_delivery(sim.sg_state, sim.topo, sg)
            check(group, "stateful", delivered, expected)
        if sim.bift is not None:
            delivered = []
            for si, bits in encapsulate_bier([bit_of[r] for r in expected]):
                if sim.scenario.fault == "bier_drop_lowest_bit":
                    bits &= bits - 1
                delivered += bier.flood_deliver(sim.bift, si, bits, source, {})
            check(group, "bier", delivered, expected)
    return rows


def tick_by_tick(sim, events, interval):
    """Replay ``events`` into ``sim`` one tick at a time, from tick 0 to
    the last event's tick, yielding each snapshot tick (a multiple of
    ``interval``, or the last tick) once every event up to it is
    applied.  Costs O(ticks + events)."""
    last = events[-1].tick if events else 0
    i = 0
    for tick in range(last + 1):
        while i < len(events) and events[i].tick == tick:
            sim.apply(events[i])
            i += 1
        if tick % interval == 0 or tick == last:
            yield tick


def reference_run(scenario, seed=None):
    """``harness.run`` stepping every tick: the same schedule, from
    ``workload.generate`` as looked up at the call, and a snapshot and a
    probe at each tick ``tick_by_tick`` yields."""
    params = scenario.workload if seed is None else replace(scenario.workload, seed=seed)
    events = workload.generate(scenario.topology, params).events
    sim = SimState(scenario)
    snapshots = []
    report = []
    for tick in tick_by_tick(sim, events, scenario.snapshot_interval):
        snapshots.append(sim.snapshot(tick))
        report.append(sim.probe(tick))
    return snapshots, report


def assert_rows_match_schedule(scenario, report):
    """Each delivery row's receivers are its group's membership, replayed
    from the scenario's schedule alone up to the row's tick."""
    events = iter(generate(scenario.topology, scenario.workload).events)
    event = next(events, None)
    members = {}    # group -> receivers after every event up to ``tick``
    for row in sorted(report, key=lambda r: r.tick):
        while event is not None and event.tick <= row.tick:
            group, *rest = event.args
            if event.kind == ADD_GROUP:
                members.setdefault(group, set())
            elif event.kind == JOIN:
                members[group].add(rest[0])
            elif event.kind == LEAVE:
                members[group].remove(rest[0])
            event = next(events, None)
        assert row.receivers == members[row.group], row


def bfer_placements(edge_routers, bsl):
    """``{router: (si, bit)}`` for BFR-ids assigned in router-id order."""
    return {r: bier.id_to_si_bit(i, bsl)
            for r, i in bier.assign_bfr_ids(edge_routers).items()}


def full_snapshot(sim):
    """Every router's state counts of a ``SimState``, as ``state_rows``
    expands a snapshot, each read from its source at this call; never
    reads the rows or role counts ``sim.snapshot`` keeps."""
    bift = expand_bift(sim.bift) if sim.bift is not None else None
    rows = []
    for router in sorted(sim.topo.roles):
        rows.append((
            router,
            sim.topo.roles[router],
            sim.unicast.flat_fib_size() if "flat" in sim.modes else 0,
            sim.unicast.mapping_entries(router) if "mapencap" in sim.modes else 0,
            sim.unicast.label_entries(router) if "mpls" in sim.modes else 0,
            sim.sg_state.count(router) if sim.sg_state is not None else 0,
            len(bift[router]) if bift is not None else 0,
        ))
    return rows


# the generator draws from random.Random, seeded with the workload seed
RNG_ALGORITHM = "python-random-mt19937"


def schedule_to_text(schedule):
    """A schedule in the fixture format: an ``# rng`` line naming the
    generator's RNG, then one ``tick kind args...`` line per event."""
    lines = [f"# rng {RNG_ALGORITHM}"]
    for ev in schedule.events:
        lines.append(" ".join([str(ev.tick), ev.kind, *map(str, ev.args)]))
    return "\n".join(lines) + "\n"


def schedule_from_text(text):
    """Parse :func:`schedule_to_text` output back into a ``Schedule``; an
    ``# rng`` line naming another RNG is refused."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# rng ") and line[len("# rng "):] != RNG_ALGORITHM:
                raise InvalidParams(f"schedule drawn from another RNG: {line!r}")
            continue
        tick, kind, *args = line.split()
        if kind not in KINDS:
            raise InvalidParams(f"unknown event kind {kind!r}")
        events.append(Event(int(tick), kind, tuple(int(a) for a in args)))
    return Schedule(events)


def reference_generate(topo, params):
    """``workload.generate`` drawing every pick with ``rng.choice`` and
    re-sorting the joinable groups, the leavable groups and the chosen
    group's candidate receivers at every churn step (no parameter
    validation)."""
    edges = topo.edge_routers
    rng = random.Random(params.seed)
    events = []
    tick = 0

    for site_id in range(params.n_sites):
        events.append(Event(tick, ADD_SITE, (site_id, rng.choice(edges))))
        tick += 1

    membership = {}     # group -> set of receiver edges
    for group in range(params.n_groups):
        events.append(Event(tick, ADD_GROUP, (group, rng.choice(edges))))
        tick += 1
        membership[group] = set()
        for receiver in rng.sample(edges, rng.randint(params.members_min, params.members_max)):
            events.append(Event(tick, JOIN, (group, receiver)))
            tick += 1
            membership[group].add(receiver)

    for _ in range(params.churn_events):
        joinable = sorted(g for g, m in membership.items() if len(m) < len(edges))
        leavable = sorted(g for g, m in membership.items() if m)
        choices = (["join"] if joinable else []) + (["leave"] if leavable else [])
        if not choices:
            break
        if rng.choice(choices) == "join":
            group = rng.choice(joinable)
            receiver = rng.choice(sorted(set(edges) - membership[group]))
            events.append(Event(tick, JOIN, (group, receiver)))
            membership[group].add(receiver)
        else:
            group = rng.choice(leavable)
            receiver = rng.choice(sorted(membership[group]))
            events.append(Event(tick, LEAVE, (group, receiver)))
            membership[group].remove(receiver)
        tick += 1

    return Schedule(events)


def provider_prefix(provider_id):
    """Deterministic /16 locator prefix under 0/1 for a provider id."""
    if not 0 <= provider_id < MAX_PROVIDERS:
        raise InvalidPrefix(f"provider id {provider_id} out of range")
    return Prefix(provider_id << (32 - PROVIDER_PREFIX_LEN), PROVIDER_PREFIX_LEN)


@dataclass(frozen=True)
class Provider:
    """A provider of the reference tables: its id, which fixes its
    locator, and the routers it owns."""

    provider_id: int
    owned_routers: frozenset


def edge_providers(topo):
    """One provider per edge router, ids in edge order, each owning its
    edge alone: the providers a scenario's ``"auto"`` counts, anchored
    where ``MaterialisedFibs`` anchors any provider with an edge."""
    return [Provider(i, frozenset({edge})) for i, edge in enumerate(topo.edge_routers)]


def edge_provider_section(topo):
    """A scenario's explicit ``providers`` list that counts what
    ``"auto"`` counts: one provider per edge router, ids in edge order,
    provider 0 also owning every core router."""
    section = [{"id": i, "routers": [edge]} for i, edge in enumerate(topo.edge_routers)]
    section[0]["routers"] += [r for r in sorted(topo.roles) if topo.roles[r] != EDGE]
    return section


def site_prefix(site_id):
    """Deterministic /24 identifier prefix for a site id."""
    if not 0 <= site_id < MAX_SITES:
        raise InvalidPrefix(f"site id {site_id} out of range")
    return Prefix(IDENTIFIER_BASE | (site_id << 8), SITE_PREFIX_LEN)


@dataclass(frozen=True)
class EndSite:
    """A site of the reference tables: its id, its identifier prefix and
    the edge router it is attached to."""

    site_id: int
    identifier_prefix: Prefix
    attached_edge: int


def make_site(site_id, attached_edge):
    return EndSite(site_id, site_prefix(site_id), attached_edge)


def host_address(prefix):
    """A concrete destination address inside ``prefix``."""
    return prefix.value | 1


@dataclass(frozen=True)
class Packet:
    """Inner destination plus optional outer locator header or MPLS label."""

    dst: int
    outer: int = None
    label: int = None


@dataclass(frozen=True)
class Deliver:
    site_id: int


@dataclass(frozen=True)
class Send:
    next_hop: int
    packet: Packet


class NoRoute(SimError):
    """No table entry matches a packet's address."""


class NoMapping(SimError):
    """A map-and-encap packet with no outer header at a router that is not
    an ingress edge."""


class NoLabelBinding(SimError):
    """An unlabelled MPLS packet at a router that is not an ingress edge,
    or a label the router holds no entry for."""


class MaterialisedFibs:
    """Reference unicast plane that stores every router's tables and
    forwards packets hop by hop over them.

    Each router has a prefix table of every locator and site prefix with
    a ``("local",)`` or ``("send", next hop)`` action (flat FIB) and one
    of the locators only (map-and-encap FIB).  Each edge router has a
    mapping table (site prefix -> locator) and a FEC table (site prefix
    -> egress router), and every router its entries of the per-pair LSP
    mesh.  Lookups are brute-force longest-prefix matches, counted per
    router and mode at each consultation of a per-router FIB, so the
    sizes that :class:`UnicastPlane` derives can be checked against
    these tables and walks over them can check where each lookup happens.
    """

    def __init__(self, topo, providers, sites):
        self.topo = topo
        routers = list(topo.roles)
        self.flat = {r: {} for r in routers}
        self.encap = {r: {} for r in routers}
        self.mapping = {e: {} for e in topo.edge_routers}
        self.fec = {e: {} for e in topo.edge_routers}
        self.local_sites = {r: [] for r in routers}
        self.lookups = {m: dict.fromkeys(routers, 0) for m in ("flat", "mapencap", "mpls")}

        def action(r, egress):
            return ("local",) if r == egress else ("send", topo.next_hop(r, egress))

        locator_of = {}
        for p in providers:
            edges = sorted(r for r in p.owned_routers if topo.roles[r] == EDGE)
            # the provider's edge router if it has one, else its lowest-id
            # router: locator traffic terminates there
            anchor = edges[0] if edges else min(p.owned_routers)
            locator = provider_prefix(p.provider_id)
            locator_of.update((e, locator) for e in edges)
            for r in routers:
                self.flat[r][locator] = action(r, anchor)
                self.encap[r][locator] = action(r, anchor)
        for site in sites:
            self.local_sites[site.attached_edge].append(site)
            for r in routers:
                self.flat[r][site.identifier_prefix] = action(r, site.attached_edge)
            for e in topo.edge_routers:
                self.mapping[e][site.identifier_prefix] = locator_of[site.attached_edge]
                self.fec[e][site.identifier_prefix] = site.attached_edge
        self.labels = lsp_mesh(topo)

    def flat_fib_size(self, router):
        return len(self.flat[router])

    def encap_fib_size(self, router):
        return len(self.encap[router])

    def mapping_entries(self, router):
        return len(self.mapping[router]) if router in self.mapping else 0

    def label_entries(self, router):
        return mesh_entries(self.labels, router)

    @staticmethod
    def _match(table, addr):
        action = brute_force_lpm(table.items(), addr)
        if action is None:
            raise NoRoute(f"no matching prefix for {addr:#010x}")
        return action

    def _lookup(self, mode, tables, at, addr):
        self.lookups[mode][at] += 1
        return self._match(tables[at], addr)

    def _local_site(self, at, addr):
        for site in self.local_sites[at]:
            if prefix_contains(site.identifier_prefix, addr):
                return site
        return None

    def _deliver_here(self, at, addr):
        site = self._local_site(at, addr)
        if site is None:
            raise NoRoute(f"{addr:#010x} not attached at router {at}")
        return Deliver(site.site_id)

    def forward(self, mode, packet, at):
        if mode == "flat":
            action = self._lookup("flat", self.flat, at, packet.dst)
            if action[0] == "local":
                return self._deliver_here(at, packet.dst)
            return Send(action[1], packet)
        if mode == "mapencap":
            if packet.outer is None:
                if self._local_site(at, packet.dst) is not None:
                    return self._deliver_here(at, packet.dst)
                if self.topo.roles[at] != EDGE:
                    raise NoMapping(f"router {at} is not an ingress edge")
                locator = self._match(self.mapping[at], packet.dst)
                packet = replace(packet, outer=host_address(locator))
            action = self._lookup("mapencap", self.encap, at, packet.outer)
            if action[0] == "local":
                return self._deliver_here(at, packet.dst)
            return Send(action[1], packet)
        if mode == "mpls":
            if packet.label is None:
                if self._local_site(at, packet.dst) is not None:
                    return self._deliver_here(at, packet.dst)
                if self.topo.roles[at] != EDGE:
                    raise NoLabelBinding(f"router {at} is not an MPLS ingress")
                egress = self._lookup("mpls", self.fec, at, packet.dst)
                push, next_hop = self.labels.fec[at][egress]
                return Send(next_hop, replace(packet, label=push))
            entry = self.labels.ilm[at].get(packet.label)
            if entry is None:
                raise NoLabelBinding(f"router {at} has no binding for label {packet.label}")
            op, out_label, next_hop = entry
            if op == "swap":
                return Send(next_hop, replace(packet, label=out_label))
            return self._deliver_here(at, packet.dst)
        raise ValueError(f"unknown unicast mode {mode!r}")

    def deliver(self, mode, src, addr):
        """Forward hop by hop until delivery; returns (site_id, router path)."""
        packet = Packet(addr)
        at = src
        path = [src]
        for _ in range(len(self.topo.roles) + 2):
            decision = self.forward(mode, packet, at)
            if isinstance(decision, Deliver):
                return decision.site_id, path
            at = decision.next_hop
            packet = decision.packet
            path.append(at)
        raise NoRoute(f"packet to {addr:#010x} looped in mode {mode}")


def random_topology(rng, n, max_cost=3, extra_links=None, n_edges=None):
    """Random connected topology: spanning tree plus a few chords."""
    if extra_links is None:
        extra_links = rng.randint(0, n)
    links = []
    present = set()
    for i in range(1, n):
        j = rng.randrange(i)
        links.append((j, i, rng.randint(1, max_cost)))
        present.add((j, i))
    for _ in range(extra_links):
        if n < 2:
            break
        a, b = rng.sample(range(n), 2)
        key = (min(a, b), max(a, b))
        if key in present:
            continue
        present.add(key)
        links.append((key[0], key[1], rng.randint(1, max_cost)))
    if n_edges is None:
        n_edges = rng.randint(1, n)
    edge_set = set(rng.sample(range(n), n_edges))
    routers = [(i, "edge" if i in edge_set else "core") for i in range(n)]
    return build_topology(routers, links)


def seeded(seed):
    return random.Random(seed)


# topologies on which most routers are single-homed: every edge router of
# fat-edge and star hangs off one core router; on line 3 both edges hang
# off the core; "edge hub" is 0(edge)-1(edge)-2(core)-3(edge), where edge
# 0 is single-homed to edge 1; "weighted fat-edge 30" varies link costs;
# "stub costs" is the stub_costs scenario's topology: stubs on links of
# cost 1 to 3, single-homed core routers, edge routers that are hubs, a
# pendant pair of routers with two links each and equal-cost ties
STUB_HEAVY = ("fat-edge 3", "fat-edge 4", "fat-edge 5", "fat-edge 12", "fat-edge 60",
              "star 2", "star 3", "star 40", "line 3", "edge hub", "weighted fat-edge 30",
              "stub costs")
STUB_COSTS = Path(__file__).resolve().parent.parent / "scenarios" / "topologies" / "stub_costs.json"


def stub_heavy_topology(name):
    """A fresh Topology (cold caches) for a name in ``STUB_HEAVY``."""
    if name == "edge hub":
        return build_topology([(0, EDGE), (1, EDGE), (2, "core"), (3, EDGE)],
                              [(0, 1, 2), (1, 2, 1), (2, 3, 3)])
    if name == "stub costs":
        spec = json.loads(STUB_COSTS.read_text())["topology"]
        return build_topology(spec["routers"], spec["links"])
    *weighted, kind, size = name.split()
    spec = gen_topology(kind, int(size))
    links = spec["links"]
    if weighted:
        links = [(a, b, 1 + (a * 7 + b) % 3) for a, b, _ in links]
    return build_topology(spec["routers"], links)
