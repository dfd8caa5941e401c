"""Unicast state for three designs: flat prefix lookup, map-and-encap, MPLS.

The module keeps the state whose per-router sizes a run reports; it
forwards no packet.  All three modes share one provider/end-site
address plan over a 32-bit address space, held as ints.  End sites
carry provider-independent /24 identifiers under 1/1 (top bit set);
provider ``i`` carries the aggregatable /16 locator ``i << 16`` under
0/1 (top bit clear), so the two namespaces never overlap and a locator
is a function of the provider id alone.

A site is two ints, its id and its attached edge router: the identifier
table maps the site's /24 identifier to that edge, as a map-and-encap
mapping maps an identifier to its locator, and no per-site object is
built.  Map-and-encap egress granularity is the destination site's
attached edge router.  To keep the core routable with exactly one FIB
entry per provider aggregate, each provider owns at most one edge
router, whose locator is the provider's own prefix.

MPLS label state is the per-pair LSP mesh, one LSP per ordered pair of
edge routers.  Its per-router entry counts are derived from the
next-hop trees; no run builds the mesh (``establish_lsp`` sets up one
LSP of it, for the tests' reference tables).
"""

from functools import cached_property

from .errors import InvalidPrefix, ScenarioError, UnattachedSite
from .topology import EDGE

IDENTIFIER_BASE = 0x8000_0000     # identifier space: 128.0.0.0/1
SITE_PREFIX_LEN = 24
PROVIDER_PREFIX_LEN = 16
MAX_PROVIDERS = 1 << (PROVIDER_PREFIX_LEN - 1)    # /16 locators under 0/1
MAX_SITES = 1 << (SITE_PREFIX_LEN - 1)            # /24 identifiers under 1/1
FIRST_LABEL = 16


class PrefixTable(dict):
    """The site identifier table, ``{value: edge}``: one exact-match
    dict of /24 identifiers, each held at most once, to the attached
    edge router of its site."""

    __slots__ = ()

    def add(self, value, action):
        if value in self:
            raise InvalidPrefix(f"duplicate prefix {value:#010x}/{SITE_PREFIX_LEN}")
        self[value] = action


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


def check_edge_count(topo):
    """Every edge router needs a provider of its own, so the unicast
    modes refuse a topology of more edge routers than there are
    locators, whichever form the providers take."""
    n_edges = len(topo.edge_routers)
    if n_edges > MAX_PROVIDERS:
        raise ScenarioError(
            f"invalid providers: {n_edges} edge routers need {n_edges} providers, but "
            f"unicast modes support at most {MAX_PROVIDERS} (/16 locators under 0/1)"
        )


def check_providers(topo, providers):
    """``providers``, ``(id, routers)`` pairs, must partition the
    routers, each owning at least one router and at most one edge, and
    each id must name one of the MAX_PROVIDERS locators."""
    ids = set()
    owner = {}
    for pid, routers in providers:
        if not 0 <= pid < MAX_PROVIDERS:
            raise ScenarioError(
                f"invalid providers: provider id {pid} out of range "
                f"0..{MAX_PROVIDERS - 1} (/16 locators under 0/1)"
            )
        if pid in ids:
            raise ScenarioError(f"invalid providers: duplicate provider id {pid}")
        ids.add(pid)
        if not routers:
            raise ScenarioError(f"invalid providers: provider {pid} owns no router")
        edges = [r for r in routers if topo.roles.get(r) == EDGE]
        if len(edges) > 1:
            raise ScenarioError(
                f"invalid providers: provider {pid} owns {len(edges)} edge "
                "routers; at most one is supported (locator aggregates must follow topology)"
            )
        for r in routers:
            if r not in topo.roles:
                raise ScenarioError(f"invalid providers: router {r} not in topology")
            if r in owner:
                raise ScenarioError(f"invalid providers: router {r} owned by two providers")
            owner[r] = pid
    if set(owner) != set(topo.roles):
        missing = sorted(set(topo.roles) - set(owner))
        raise ScenarioError(f"invalid providers: routers without a provider: {missing}")


class UnicastPlane:
    """Unicast state for the three modes, kept once per namespace.

    Every router's FIB action for a prefix is "deliver locally" at the
    prefix's egress router and the next hop toward that egress elsewhere,
    so the per-router FIBs are not stored: one shared table holds the
    site identifiers (each site's /24 -> its attached edge router),
    ``n_providers`` counts the providers, one distinct locator each and
    so one entry of every router's map-and-encap FIB, and every
    per-router size is a count derived from the two.  No router reads
    which provider owns it, so the plane keeps the count alone.  Label
    counts are derived from the next-hop trees, one walk per hub,
    without building the LSP mesh.
    """

    def __init__(self, topo, n_providers):
        self.topo = topo
        self.n_providers = n_providers
        self.identifiers = PrefixTable()   # site identifier -> attached edge router

    @cached_property
    def _label_counts(self):
        """Router -> its entries in the per-pair LSP mesh.

        The LSP from ingress i to egress e follows toward(e), so it
        passes router r exactly when i is in r's subtree of that tree,
        and r holds an in-label for it unless r is i.  Every edge router
        also holds one FEC binding per egress.  A single-homed egress's
        tree is its hub's with the egress as the root above the hub
        (see Topology.hub): every other router's subtree is the same,
        the hub's loses the egress and the egress's holds every edge
        router.  So one walk per hub serves all of its stub egresses.
        A walk covers the transit routers only, the ones the root's cost
        table holds (see Topology.distances): a single-homed router is
        a leaf of every tree it is not the root of, so it passes no LSP,
        and each hub's single-homed edge routers are counted into its
        subtree.
        """
        topo = self.topo
        n_edges = len(topo.edge_routers)
        is_edge = {r: int(role == EDGE) for r, role in topo.roles.items()}
        counts = {r: n_edges * edge for r, edge in is_edge.items()}
        # edge routers at each transit router or single-homed on it
        leaves = {r: edge for r, edge in is_edge.items() if topo.hub(r) is None}
        trees = {}       # root walked -> number of egresses it serves
        for egress in topo.edge_routers:
            hub = topo.hub(egress)
            root = egress if hub is None else hub
            trees[root] = trees.get(root, 0) + 1
            if hub is not None:
                counts[hub] -= 1
                counts[egress] += n_edges - 1
                leaves[hub] += 1
        for root, copies in trees.items():
            dist, hops = topo.distances(root), topo.toward(root)
            below = leaves.copy()    # edge routers in each router's subtree
            # every parent is nearer the root than its children, and the
            # distances are in settle order, so walking them backwards
            # completes a subtree's count before it is added to its parent
            for r in reversed(dist):
                if r != root:
                    below[hops[r]] += below[r]
                counts[r] += copies * (below[r] - is_edge[r])
        return counts

    # -- site management ----------------------------------------------------

    def add_site(self, site_id, edge):
        """Register site ``site_id`` at edge router ``edge``: its /24
        identifier, ``IDENTIFIER_BASE | site_id << 8``, maps to ``edge``."""
        if not 0 <= site_id < MAX_SITES:
            raise InvalidPrefix(f"site id {site_id} out of range")
        if self.topo.roles.get(edge) != EDGE:
            raise UnattachedSite(f"site {site_id} attached to non-edge router {edge}")
        self.identifiers.add(IDENTIFIER_BASE | site_id << 8, edge)

    # -- state counts -------------------------------------------------------

    def flat_fib_size(self):
        return self.n_providers + len(self.identifiers)

    def mapping_entries(self, router):
        return len(self.identifiers) if self.topo.roles[router] == EDGE else 0

    def label_entries(self, router):
        """Entries of ``router`` in the per-pair LSP mesh (its in-labels,
        plus one FEC binding per egress at an edge router), without
        building the mesh."""
        return self._label_counts[router]
