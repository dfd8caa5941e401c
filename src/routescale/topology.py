"""Network graph model and deterministic shortest-path next hops.

Routers are non-negative integers tagged with a role ("core" or "edge").
Links are undirected with positive integer costs.  Equal-cost ties are
broken by picking the candidate next-hop neighbor with the smallest
router id, which makes every table derived downstream reproducible.
"""

import heapq

from .errors import (
    Disconnected,
    DuplicateLink,
    DuplicateRouter,
    InvalidLink,
    InvalidRouter,
    NoEdgeRouters,
    SelfLoop,
    UnknownRouter,
)

CORE = "core"
EDGE = "edge"


class Topology:
    """Validated, immutable network graph.

    Build via :func:`build_topology`.  One Dijkstra from a router gives
    every router's cost to it, in settle order, and every router's next
    hop toward it (:meth:`distances`, :meth:`toward`).  Both are computed
    lazily and cached on the instance, so every caller (label counts,
    provider ranks, BIFTs, multicast joins) reads the same table.  A
    router that is not single-homed (see :meth:`hub`) runs its own
    Dijkstra once; a single-homed router's tables are derived from its
    hub's, one hub Dijkstra serving all of the hub's single-homed
    neighbours.  The setup builders read hub tables only, so a
    single-homed router's tables are built only when a multicast join
    asks for them.
    """

    def __init__(self, roles, adjacency):
        self.roles = roles                # router id -> "core" | "edge"
        self.adj = adjacency              # router id -> {neighbor: cost}
        self.edge_routers = sorted(r for r, role in roles.items() if role == EDGE)
        self._dist = {}                   # source -> {dest: cost}, settle order
        self._toward = {}                 # dest -> {router: next hop}

    def require(self, router):
        if router not in self.roles:
            raise UnknownRouter(f"router {router} not in topology")

    def distances(self, source):
        """All-destination minimum path costs from ``source`` (Dijkstra).

        The dict is in settle order, so its costs never decrease as it is
        iterated.  Links are undirected, so the same pass records every
        router's next hop toward ``source`` (see :meth:`toward`): a router
        first reached from ``u`` takes ``u``, and one reached again at
        equal cost from a smaller ``u`` takes that instead.  Costs are
        positive, so every equal-cost neighbour settles, and relaxes the
        router, before the router itself settles.

        A *single-homed* router has one link, to a *hub* with more than
        one.  Its tables are exact functions of the hub's: every path to
        it passes through the hub, so every other router's cost is the
        hub's plus the link cost and its equal-cost neighbours are the
        same.  The heap settles routers in ``(cost, id)`` order, which a
        uniform shift keeps, so the stub's costs are ``{stub: 0}``
        followed by the hub's shifted costs in the hub's order, without
        the stub; its table is the hub's with ``hub -> stub`` and
        ``stub -> stub``.  The first query for a stub runs the hub's
        Dijkstra (or reads the hub's cached tables) and caches every
        single-homed neighbour of the hub; the hub's own tables are not
        kept.  Setup (BIFT, label counts, auto providers) asks only for
        hub and multi-link routers, so it caches their tables alone; a
        stub's are built at the first join that reads them.
        """
        self.require(source)
        cached = self._dist.get(source)
        if cached is not None:
            return cached
        hub = self.hub(source)
        if hub is None:
            self._dist[source], self._toward[source] = self._dijkstra(source)
            return self._dist[source]
        hub_dist = self._dist.get(hub)
        if hub_dist is None:
            hub_dist, hub_hop = self._dijkstra(hub)
        else:
            hub_hop = self._toward[hub]
        shifted = {}                      # link cost -> hub's costs plus it
        for stub, cost in self.adj[hub].items():
            if len(self.adj[stub]) != 1:
                continue
            costs = shifted.get(cost)
            if costs is None:
                costs = shifted[cost] = {r: d + cost for r, d in hub_dist.items()}
            dist = {stub: 0}
            dist.update(costs)
            dist[stub] = 0
            hop = hub_hop.copy()
            hop[hub] = stub
            hop[stub] = stub
            self._dist[stub] = dist
            self._toward[stub] = hop
        return self._dist[source]

    def hub(self, router):
        """The one neighbour of a single-homed ``router``, else None.

        A router is single-homed when it has one link and the router at
        the other end has more than one.  Every path to or from it passes
        through that hub, so its costs and next hops are the hub's plus
        one link: callers that only need those read the hub's tables.
        """
        nbrs = self.adj[router]
        if len(nbrs) == 1:
            (hub,) = nbrs
            if len(self.adj[hub]) > 1:
                return hub
        return None

    def _dijkstra(self, source):
        """One lazy-heap Dijkstra from ``source``: (costs in settle order,
        next-hop table toward ``source``), as :meth:`distances` describes."""
        dist = {}
        tentative = {source: 0}
        hop = {source: source}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in dist:
                continue
            dist[u] = d
            for v, cost in self.adj[u].items():
                nd = d + cost
                best = tentative.get(v)
                if best is None or nd < best:
                    tentative[v] = nd
                    hop[v] = u
                    heapq.heappush(heap, (nd, v))
                elif nd == best and u < hop[v]:
                    hop[v] = u
        return dist, hop

    def toward(self, dest):
        """Next-hop table toward ``dest``: router -> neighbor on a shortest path.

        Among neighbors ``n`` with ``cost(at, n) + dist(n) == dist(at)``
        the smallest router id wins; ``dest`` maps to itself.  The table
        is filled by :meth:`distances` of ``dest``, from its own Dijkstra
        or, for a single-homed ``dest``, from its hub's.
        """
        table = self._toward.get(dest)
        if table is None:
            self.distances(dest)
            table = self._toward[dest]
        return table

    def next_hop(self, at, dest):
        """Deterministic shortest-path neighbor from ``at`` toward ``dest``.

        Among neighbors on a minimum-cost path, the one with the smallest
        router id wins.  ``at == dest`` returns ``at``.
        """
        self.require(at)
        return self.toward(dest)[at]


def is_int(value):
    """True for an ``int`` that is not a ``bool``: a JSON file can also
    hold ``2.5``, ``true`` or ``"3"``, none of which is rounded or parsed."""
    return isinstance(value, int) and not isinstance(value, bool)


def build_topology(routers, links):
    """Validate a (routers, links) spec and return a :class:`Topology`.

    ``routers`` is an iterable of ``(id, role)``; ``links`` an iterable of
    ``(a, b, cost)`` undirected links with positive integer cost.  Ids
    and costs must be ``int`` values (see :func:`is_int`).
    """
    roles = {}
    for rid, role in routers:
        if not is_int(rid):
            raise InvalidRouter(f"router id {rid!r} must be an integer")
        if rid < 0:
            raise InvalidRouter(f"router id {rid} must be non-negative")
        if role not in (CORE, EDGE):
            raise InvalidRouter(f"router {rid}: unknown role {role!r}")
        if rid in roles:
            raise DuplicateRouter(f"router {rid} defined twice")
        roles[rid] = role
    if not roles:
        raise Disconnected("topology has no routers")
    if not any(role == EDGE for role in roles.values()):
        raise NoEdgeRouters("topology needs at least one edge-role router")

    adj = {rid: {} for rid in roles}
    for a, b, cost in links:
        if not (is_int(a) and is_int(b)):
            raise InvalidLink(f"link ({a!r},{b!r}) endpoints must be integer router ids")
        if not is_int(cost):
            raise InvalidLink(f"link ({a},{b}) cost must be an integer, got {cost!r}")
        if a == b:
            raise SelfLoop(f"self-loop at router {a}")
        if a not in roles or b not in roles:
            raise InvalidLink(f"link ({a},{b}) references unknown router")
        if cost <= 0:
            raise InvalidLink(f"link ({a},{b}) needs positive cost, got {cost}")
        if b in adj[a]:
            raise DuplicateLink(f"duplicate link between {a} and {b}")
        adj[a][b] = cost
        adj[b][a] = cost

    # connectivity check (BFS from the smallest id)
    start = min(roles)
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    if len(seen) != len(roles):
        missing = sorted(set(roles) - seen)
        raise Disconnected(f"routers unreachable from {start}: {missing}")

    return Topology(roles, adj)


def shortest_paths(topo, source):
    """Next-hop table for ``source``: destination -> neighbor next hop.

    The source maps to itself.
    """
    topo.require(source)
    return {dest: topo.toward(dest)[source] for dest in topo.roles}
