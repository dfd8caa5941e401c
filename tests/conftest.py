"""Shared test helpers: brute-force oracles and random topology builder."""

import random
from dataclasses import dataclass, replace
from typing import NamedTuple

from routescale import bier, multicast
from routescale.bier import LOCAL, BierHeader, bit_mask
from routescale.errors import (
    DeliveryMismatch,
    InvalidParams,
    MissingBiftEntry,
    NoState,
    RpfFailure,
    SimError,
)
from routescale.generators import gen_topology
from routescale.harness import DELIVERY_HEADER, STATE_HEADER, StateSnapshot
from routescale.multicast import SgKey, SgState, join
from routescale.topology import EDGE, build_topology
from routescale.unicast import LabelTables, establish_lsp
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


def reference_emit_csv(snapshots, report):
    """The text of state.csv and delivery.csv, formatted one row at a
    time, with the expanded delivery rows sorted by (tick, group, mode)."""
    state = [STATE_HEADER]
    for snap in snapshots:
        for row in snap.rows:
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


def sg_as_dict(state):
    """Plain-data view of an ``SgState``'s trees, ``{sg: {router: (iif,
    oifs)}}``, for structural equality checks."""
    return {
        sg: {router: (e.iif, frozenset(e.oifs)) for router, e in tree.items()}
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


def scan_next_hop(topo, at, dest):
    """Per-call neighbor scan: the first neighbor, in id order, whose cost
    plus its own distance to ``dest`` equals the distance from ``at``.

    Reads distances from ``at`` and from each neighbor, never the table
    toward ``dest`` that :meth:`Topology.next_hop` reads.
    """
    if at == dest:
        return at
    total = topo.distances(at)[dest]
    for nbr in sorted(topo.adj[at]):
        if topo.adj[at][nbr] + topo.distances(nbr)[dest] == total:
            return nbr
    raise AssertionError(f"no next hop from {at} toward {dest}")


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
    occupied slot of ``build_bift``'s per-SI slot tuples."""
    return {router: {(si, bit): entry
                     for si, slots in row.items()
                     for bit, entry in enumerate(slots) if entry is not None}
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
    working copy; ``(next hop, bits)`` copies.  An entry whose F-BM lacks
    its own bit raises MissingBiftEntry, as in ``forward_bier``."""
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
            if not fbm & bit_mask(bit):
                raise MissingBiftEntry(
                    f"router {at}: the BIFT entry for SI {si} bit {bit} has an F-BM "
                    f"without bit {bit}")
            copies.append((next_hop, working & fbm))
            working &= ~fbm
        bit += 1
    return copies


def scan_flood_deliver(bift, header, at):
    """``flood_deliver`` over :func:`scan_forward_bier`, bit by bit at the
    BFERs too: one BFER per delivered bit."""
    delivered = []
    stack = [(at, header.bits)]
    while stack:
        router, bits = stack.pop()
        for next_hop, copy in scan_forward_bier(bift, header.si, bits, router):
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


def sorted_simulate_delivery(state, sg):
    """(S,G) replication visiting each router's outgoing interfaces in
    sorted order, with the NoState and RPF checks of ``simulate_delivery``."""
    delivered = []
    tree = state.trees.get(sg, {})
    if sg.source_edge not in tree:
        return delivered
    stack = [(sg.source_edge, multicast.LOCAL)]
    while stack:
        at, arrived_from = stack.pop()
        if at not in tree:
            raise NoState(f"router {at} has no state for {sg}")
        if tree[at].iif != arrived_from:
            raise RpfFailure(f"router {at}: {sg} arrived from {arrived_from}")
        for oif in sorted(tree[at].oifs, key=str):
            if oif == multicast.LOCAL:
                delivered.append(at)
            else:
                stack.append((oif, at))
    return delivered


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
    not from ``sim.bitstrings`` or ``sim.bit_of``."""
    bit_of = bfer_placements(sim.topo.edge_routers, sim.scenario.bsl)
    rows = []

    def check(group, mode, delivered_list, expected):
        delivered = frozenset(delivered_list)
        if delivered != expected or len(delivered_list) != len(delivered):
            raise DeliveryMismatch(tick, group, mode, delivered, expected)
        rows.append(DeliveryRow(tick, group, mode, expected))

    for group in sorted(sim.groups):
        expected = frozenset(sim.membership[group])
        if sim.sg_state is not None:
            sg = SgKey(sim.groups[group], group)
            check(group, "stateful", multicast.simulate_delivery(sim.sg_state, sg), expected)
        if sim.bift is not None:
            delivered_list = []
            for header in encapsulate_bier([bit_of[r] for r in expected]):
                if sim.scenario.fault == "bier_drop_lowest_bit":
                    header = BierHeader(header.si, header.bits & (header.bits - 1))
                delivered_list.extend(bier.flood_deliver(sim.bift, header, sim.groups[group]))
            check(group, "bier", delivered_list, expected)
    return rows


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


def full_snapshot(sim, tick):
    """Every router's state counts of a ``SimState``, each read from its
    source at this call; never reads the rows ``sim.snapshot`` keeps."""
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
    return StateSnapshot(tick, rows)


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
    """``workload.generate`` re-sorting the joinable groups, the leavable
    groups and the chosen group's candidate receivers at every churn step
    (no parameter validation)."""
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
            locator_of.update((e, p.locator_prefix) for e in edges)
            for r in routers:
                self.flat[r][p.locator_prefix] = action(r, anchor)
                self.encap[r][p.locator_prefix] = action(r, anchor)
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
# 0 is single-homed to edge 1; "weighted fat-edge 30" varies link costs
STUB_HEAVY = ("fat-edge 3", "fat-edge 4", "fat-edge 5", "fat-edge 12", "fat-edge 60",
              "star 2", "star 3", "star 40", "line 3", "edge hub", "weighted fat-edge 30")


def stub_heavy_topology(name):
    """A fresh Topology (cold caches) for a name in ``STUB_HEAVY``."""
    if name == "edge hub":
        return build_topology([(0, EDGE), (1, EDGE), (2, "core"), (3, EDGE)],
                              [(0, 1, 2), (1, 2, 1), (2, 3, 3)])
    *weighted, kind, size = name.split()
    spec = gen_topology(kind, int(size))
    links = spec["links"]
    if weighted:
        links = [(a, b, 1 + (a * 7 + b) % 3) for a, b, _ in links]
    return build_topology(spec["routers"], links)
