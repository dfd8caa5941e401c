"""Unicast forwarding planes: flat prefix lookup, map-and-encap, MPLS.

All three modes share one provider/end-site address model over a 32-bit
prefix space.  End sites carry provider-independent identifier prefixes
(top bit set); providers carry aggregatable locator prefixes (top bit
clear), so the two namespaces never overlap.

Map-and-encap egress granularity is the destination site's attached edge
router.  To keep the core routable with exactly one FIB entry per
provider aggregate, each provider owns at most one edge router, whose
locator is the provider's own prefix.

MPLS label state is the per-pair LSP mesh, one LSP per ordered pair of
edge routers.  Its per-router entry counts are derived from the
next-hop trees; the mesh itself is built on the first MPLS forward.

Lookups are counted per router and mode, so the tests can assert the
MPLS zero-lookup rule at transit routers.
"""

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import (
    InvalidPrefix,
    NoLabelBinding,
    NoMapping,
    NoRoute,
    ScenarioError,
    UnattachedSite,
    UnknownRouter,
)
from .topology import EDGE

IDENTIFIER_BASE = 0x8000_0000     # identifier space: 128.0.0.0/1
SITE_PREFIX_LEN = 24
PROVIDER_PREFIX_LEN = 8
MAX_PROVIDERS = 1 << (PROVIDER_PREFIX_LEN - 1)    # /8 locators under 0/1
MAX_SITES = 1 << (SITE_PREFIX_LEN - 1)            # /24 identifiers under 1/1
FIRST_LABEL = 16


@dataclass(frozen=True, order=True)
class Prefix:
    """Bit pattern of ``length`` leading bits in a 32-bit space."""

    value: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= 32:
            raise InvalidPrefix(f"prefix length {self.length} out of range")
        mask = self.mask()
        if self.value & ~mask & 0xFFFF_FFFF:
            raise InvalidPrefix("prefix has bits set beyond its length")

    def mask(self):
        return ((1 << self.length) - 1) << (32 - self.length) if self.length else 0

    def __str__(self):
        return f"{self.value:#010x}/{self.length}"


def site_prefix(site_id):
    """Deterministic /24 identifier prefix for a site id."""
    if not 0 <= site_id < MAX_SITES:
        raise InvalidPrefix(f"site id {site_id} out of range")
    return Prefix(IDENTIFIER_BASE | (site_id << 8), SITE_PREFIX_LEN)


def provider_prefix(provider_id):
    """Deterministic /8 locator prefix for a provider id."""
    if not 0 <= provider_id < MAX_PROVIDERS:
        raise InvalidPrefix(f"provider id {provider_id} out of range")
    return Prefix(provider_id << 24, PROVIDER_PREFIX_LEN)


def host_address(prefix):
    """A concrete destination address inside ``prefix``."""
    return prefix.value | 1


@dataclass(frozen=True)
class EndSite:
    site_id: int
    identifier_prefix: Prefix
    attached_edge: int


def make_site(site_id, attached_edge):
    return EndSite(site_id, site_prefix(site_id), attached_edge)


@dataclass(frozen=True)
class Provider:
    provider_id: int
    locator_prefix: Prefix
    owned_routers: frozenset


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


class PrefixTable:
    """Longest-prefix-match table: one exact-match dict per prefix length,
    ``{length: {value: action}}`` with the longest length first, so the
    first dict holding an address's masked value gives the longest match."""

    __slots__ = ("_by_length", "_count")

    def __init__(self):
        self._by_length = {}
        self._count = 0

    def __len__(self):
        return self._count

    def add(self, prefix, action):
        table = self._by_length.get(prefix.length)
        if table is None:
            self._by_length[prefix.length] = table = {}
            self._by_length = dict(sorted(self._by_length.items(), reverse=True))
        if prefix.value in table:
            raise InvalidPrefix(f"duplicate prefix {prefix}")
        table[prefix.value] = action
        self._count += 1

    def lookup(self, addr):
        """Longest matching action for ``addr``; raises NoRoute on miss."""
        for length, table in self._by_length.items():
            value = addr >> (32 - length) << (32 - length)
            if value in table:
                return table[value]
        raise NoRoute(f"no matching prefix for {addr:#010x}")


class LabelTables:
    """Per-router incoming-label map plus per-ingress FEC bindings."""

    def __init__(self, routers):
        # in-label -> ("swap", out_label, next_hop) | ("pop", None, None)
        self.ilm = {r: {} for r in routers}
        # ingress -> {egress (FEC): (push_label or None, next_hop or None)}
        self.fec = {r: {} for r in routers}
        self._next_label = {r: FIRST_LABEL for r in routers}

    def alloc_label(self, router):
        label = self._next_label[router]
        self._next_label[router] = label + 1
        return label


def establish_lsp(topo, labels, ingress, egress):
    """Set up a label-switched path from ``ingress`` to ``egress``.

    Allocates fresh in-labels hop by hop along the deterministic shortest
    path; transit routers swap, the egress pops.  Idempotent per
    (ingress, egress) pair.
    """
    topo.require(ingress)
    topo.require(egress)
    if egress in labels.fec[ingress]:
        return
    if ingress == egress:
        labels.fec[ingress][egress] = (None, None)
        return
    path = [ingress]
    cur = ingress
    while cur != egress:
        cur = topo.next_hop(cur, egress)
        path.append(cur)
    in_labels = [labels.alloc_label(r) for r in path[1:]]
    labels.fec[ingress][egress] = (in_labels[0], path[1])
    for i, router in enumerate(path[1:-1], start=0):
        labels.ilm[router][in_labels[i]] = ("swap", in_labels[i + 1], path[i + 2])
    labels.ilm[egress][in_labels[-1]] = ("pop", None, None)


def check_providers(topo, providers):
    """Providers must partition the routers, each owning at least one
    router and at most one edge."""
    ids = set()
    owner = {}
    for p in providers:
        if p.provider_id in ids:
            raise ScenarioError(f"invalid providers: duplicate provider id {p.provider_id}")
        ids.add(p.provider_id)
        if not p.owned_routers:
            raise ScenarioError(f"invalid providers: provider {p.provider_id} owns no router")
        edges = [r for r in p.owned_routers if topo.roles.get(r) == EDGE]
        if len(edges) > 1:
            raise ScenarioError(
                f"invalid providers: provider {p.provider_id} owns {len(edges)} edge "
                "routers; at most one is supported (locator aggregates must follow topology)"
            )
        for r in p.owned_routers:
            if r not in topo.roles:
                raise ScenarioError(f"invalid providers: router {r} not in topology")
            if r in owner:
                raise ScenarioError(f"invalid providers: router {r} owned by two providers")
            owner[r] = p.provider_id
    if set(owner) != set(topo.roles):
        missing = sorted(set(topo.roles) - set(owner))
        raise ScenarioError(f"invalid providers: routers without a provider: {missing}")


class UnicastPlane:
    """Unicast state for the three modes, kept once per namespace.

    Every router's FIB action for a prefix is "deliver locally" at the
    prefix's egress router and the next hop toward that egress elsewhere,
    so the per-router FIBs are not stored: two shared tables map each
    prefix to its egress, and :meth:`Topology.next_hop` supplies the rest.
    Per-router FIB sizes are derived counts.  Lookups are counted per
    router and mode at each consultation of that router's FIB.

    The edge-to-edge LSP mesh (the label tables) is built on the first
    MPLS forward; label counts are derived from the next-hop trees
    without it.
    """

    def __init__(self, topo, providers):
        check_providers(topo, providers)
        self.topo = topo
        self.identifiers = PrefixTable()   # site prefix -> EndSite
        self.locators = PrefixTable()      # locator prefix -> anchor router
        self.edge_locator = {}             # edge router -> its provider's locator
        for p in providers:
            edges = [r for r in p.owned_routers if topo.roles[r] == EDGE]
            # anchor: the provider's edge router if it has one, else its
            # lowest-id owned router; locator traffic terminates there
            self.locators.add(p.locator_prefix, edges[0] if edges else min(p.owned_routers))
            if edges:
                self.edge_locator[edges[0]] = p.locator_prefix
        self._lookups = {mode: dict.fromkeys(topo.roles, 0)
                         for mode in ("flat", "mapencap", "mpls")}

    @cached_property
    def labels(self):
        """The per-pair LSP mesh, built on the first MPLS forward."""
        labels = LabelTables(list(self.topo.roles))
        for ingress in self.topo.edge_routers:
            for egress in self.topo.edge_routers:
                establish_lsp(self.topo, labels, ingress, egress)
        return labels

    @cached_property
    def _label_counts(self):
        # The LSP from ingress i to egress e follows toward(e), so it
        # passes router r exactly when i is in r's subtree of that tree,
        # and r holds an in-label for it unless r is i.  Every edge router
        # also holds one FEC binding per egress.
        topo = self.topo
        is_edge = {r: int(role == EDGE) for r, role in topo.roles.items()}
        counts = {r: len(topo.edge_routers) * edge for r, edge in is_edge.items()}
        for egress in topo.edge_routers:
            dist, hops = topo.distances(egress), topo.toward(egress)
            below = dict(is_edge)    # edge routers in each router's subtree
            # every parent is nearer the egress than its children, and the
            # distances are in settle order, so walking them backwards
            # completes a subtree's count before it is added to its parent
            for r in reversed(dist):
                if r != egress:
                    below[hops[r]] += below[r]
                counts[r] += below[r] - is_edge[r]
        return counts

    # -- site management ----------------------------------------------------

    def add_site(self, site):
        if self.topo.roles.get(site.attached_edge) != EDGE:
            raise UnattachedSite(
                f"site {site.site_id} attached to non-edge router {site.attached_edge}"
            )
        self.identifiers.add(site.identifier_prefix, site)

    def _local_site(self, router, addr):
        try:
            site = self.identifiers.lookup(addr)
        except NoRoute:
            return None
        return site if site.attached_edge == router else None

    # -- state counts -------------------------------------------------------

    def flat_fib_size(self):
        return len(self.locators) + len(self.identifiers)

    def encap_fib_size(self):
        return len(self.locators)

    def mapping_entries(self, router):
        return len(self.identifiers) if self.topo.roles[router] == EDGE else 0

    def label_entries(self, router):
        """Entries of ``router`` in :attr:`labels`, without building it."""
        return self._label_counts[router]

    def lookup_counts(self, mode):
        return dict(self._lookups[mode])

    # -- forwarding ---------------------------------------------------------

    def forward(self, mode, packet, at):
        if at not in self.topo.roles:
            raise UnknownRouter(f"router {at} not in topology")
        if mode == "flat":
            return self._forward_flat(packet, at)
        if mode == "mapencap":
            return self._forward_mapencap(packet, at)
        if mode == "mpls":
            return self._forward_mpls(packet, at)
        raise ValueError(f"unknown unicast mode {mode!r}")

    def _forward_flat(self, packet, at):
        self._lookups["flat"][at] += 1
        if packet.dst & IDENTIFIER_BASE:
            egress = self.identifiers.lookup(packet.dst).attached_edge
        else:
            egress = self.locators.lookup(packet.dst)
        if egress != at:
            return Send(self.topo.next_hop(at, egress), packet)
        site = self._local_site(at, packet.dst)
        if site is None:
            raise NoRoute(f"{packet.dst:#010x} not attached at router {at}")
        return Deliver(site.site_id)

    def _forward_mapencap(self, packet, at):
        if packet.outer is None:
            site = self._local_site(at, packet.dst)
            if site is not None:
                return Deliver(site.site_id)
            if self.topo.roles[at] != EDGE:
                raise NoMapping(f"router {at} is not an ingress edge")
            # the mapping: identifier -> site -> attached edge -> locator
            site = self.identifiers.lookup(packet.dst)
            packet = replace(packet, outer=host_address(self.edge_locator[site.attached_edge]))
        self._lookups["mapencap"][at] += 1
        anchor = self.locators.lookup(packet.outer)
        if anchor != at:
            return Send(self.topo.next_hop(at, anchor), packet)
        site = self._local_site(at, packet.dst)
        if site is None:
            raise NoRoute(f"{packet.dst:#010x} not attached at egress {at}")
        return Deliver(site.site_id)

    def _forward_mpls(self, packet, at):
        if packet.label is None:
            site = self._local_site(at, packet.dst)
            if site is not None:
                return Deliver(site.site_id)
            if self.topo.roles[at] != EDGE:
                raise NoLabelBinding(f"router {at} is not an MPLS ingress")
            self._lookups["mpls"][at] += 1
            egress = self.identifiers.lookup(packet.dst).attached_edge
            binding = self.labels.fec[at].get(egress)
            if binding is None:
                raise NoLabelBinding(f"router {at} has no LSP toward egress {egress}")
            push, next_hop = binding
            return Send(next_hop, replace(packet, label=push))
        entry = self.labels.ilm[at].get(packet.label)
        if entry is None:
            raise NoLabelBinding(f"router {at} has no binding for label {packet.label}")
        op, out_label, next_hop = entry
        if op == "swap":
            return Send(next_hop, replace(packet, label=out_label))
        site = self._local_site(at, packet.dst)
        if site is None:
            raise NoRoute(f"{packet.dst:#010x} not attached at LSP egress {at}")
        return Deliver(site.site_id)

    def deliver(self, mode, src, dst_addr):
        """Forward hop by hop until delivery; returns (site_id, router path)."""
        packet = Packet(dst_addr)
        at = src
        path = [src]
        for _ in range(len(self.topo) + 2):
            decision = self.forward(mode, packet, at)
            if isinstance(decision, Deliver):
                return decision.site_id, path
            at = decision.next_hop
            packet = decision.packet
            path.append(at)
        raise NoRoute(f"packet to {dst_addr:#010x} looped in mode {mode}")
