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
    its cost to itself and to every transit router, in settle order, and
    every router's next hop toward it (:meth:`distances`).  Both tables
    are computed lazily and cached on the instance, so every caller
    (label counts, BIFTs, multicast joins, prunes and RPF checks) reads
    the same table.  One rule covers single-homed routers (see
    :meth:`hub`); every other router is a transit router.  No Dijkstra
    settles a single-homed router other than its source, so no cost
    table holds one: its cost is its hub's plus the link, and its next
    hop is its hub.  The next-hop table toward one is its hub's with two
    entries changed (:meth:`toward`), so it costs a copy, not a
    Dijkstra.  The setup builders read hub tables only, so a
    single-homed router's next-hop table is built at the first multicast
    join that reads it, and its cost table only if :meth:`distances` is
    asked for it.
    """

    def __init__(self, roles, adjacency):
        self.roles = roles                # router id -> "core" | "edge"
        self.adj = adjacency              # router id -> {neighbor: cost}
        self.edge_routers = sorted(r for r, role in roles.items() if role == EDGE)
        self._hub = {}                    # single-homed router -> its hub (see hub)
        for r, nbrs in adjacency.items():
            if len(nbrs) == 1:
                (hub,) = nbrs
                if len(adjacency[hub]) > 1:
                    self._hub[r] = hub
        # the links a Dijkstra relaxes: every link but those into a
        # single-homed router, which only a hub's own links hold
        self._transit_adj = dict(adjacency)
        for hub in set(self._hub.values()):
            self._transit_adj[hub] = {v: cost for v, cost in adjacency[hub].items()
                                      if v not in self._hub}
        self._dist = {}                   # source -> {dest: cost}, settle order
        self._toward = {}                 # dest -> {router: next hop}

    def require(self, router):
        if router not in self.roles:
            raise UnknownRouter(f"router {router} not in topology")

    def distances(self, source):
        """Minimum path costs from ``source`` to itself and to every
        transit router: one cached lazy-heap Dijkstra.

        A transit router is one that is not single-homed (see :meth:`hub`).
        No shortest path passes through a single-homed router, so the
        heap never holds one other than ``source``, and the cost table
        holds none other: a single-homed router's cost is its hub's plus
        the link to it.  The dict is in settle order, so its costs never
        decrease as it is iterated.  Links are undirected, so the same
        pass records every transit router's next hop toward ``source``
        (see :meth:`toward`): a router first reached from ``u`` takes
        ``u``, and one reached again at equal cost from a smaller ``u``
        takes that instead.  Costs are positive, so every equal-cost
        neighbour settles, and relaxes the router, before the router
        itself settles.  The next-hop table is complete: it starts as
        every single-homed router's hub.
        """
        cached = self._dist.get(source)
        if cached is not None:
            return cached
        self.require(source)
        dist = {}
        tentative = {source: 0}
        hop = self._hub.copy()
        hop[source] = source
        heap = [(0, source)]
        links = self._transit_adj
        while heap:
            d, u = heapq.heappop(heap)
            if u in dist:
                continue
            dist[u] = d
            for v, cost in links[u].items():
                nd = d + cost
                best = tentative.get(v)
                if best is None or nd < best:
                    tentative[v] = nd
                    hop[v] = u
                    heapq.heappush(heap, (nd, v))
                elif nd == best and u < hop[v]:
                    hop[v] = u
        self._dist[source] = dist
        self._toward[source] = hop
        return dist

    def hub(self, router):
        """The one neighbour of a single-homed ``router``, else None.

        A router is single-homed when it has one link and the router at
        the other end has more than one.  Every path to or from it passes
        through that hub, so its costs are the hub's plus the link cost
        and its next hops are the hub's but at the hub: :meth:`toward`
        builds its table from the hub's, :meth:`distances` keeps no cost
        for it, and the setup builders read the hub's tables in its place.
        """
        return self._hub.get(router)

    def toward(self, dest):
        """Next-hop table toward ``dest``: router -> neighbor on a shortest path.

        Among neighbors ``n`` with ``cost(at, n) + dist(n) == dist(at)``
        the smallest router id wins; ``dest`` maps to itself.  The table
        is filled by :meth:`distances` of ``dest``.  For a single-homed
        ``dest`` every path to it ends with its hub's link, so its table
        is a copy of the hub's with ``hub -> dest`` and ``dest -> dest``:
        it runs no Dijkstra and builds no cost table.
        """
        table = self._toward.get(dest)
        if table is not None:
            return table
        self.require(dest)
        hub = self.hub(dest)
        if hub is None:
            self.distances(dest)
            return self._toward[dest]
        table = self._toward[dest] = self.toward(hub).copy()
        table[hub] = table[dest] = dest
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
