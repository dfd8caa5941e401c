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

    Build via :func:`build_topology`.  Next hops come from one table per
    destination, :meth:`toward`: a single Dijkstra from the destination
    gives every router's next hop toward it.  Distances and tables are
    computed lazily and cached on the instance, so every caller (unicast
    FIBs, the LSP mesh, BIFTs, multicast joins) reads the same table.
    """

    def __init__(self, roles, adjacency):
        self.roles = roles                # router id -> "core" | "edge"
        self.adj = adjacency              # router id -> {neighbor: cost}
        self.edge_routers = sorted(r for r, role in roles.items() if role == EDGE)
        self._dist = {}                   # source -> {dest: cost}
        self._toward = {}                 # dest -> {router: next hop}

    def __len__(self):
        return len(self.roles)

    def require(self, router):
        if router not in self.roles:
            raise UnknownRouter(f"router {router} not in topology")

    def distances(self, source):
        """All-destination minimum path costs from ``source`` (Dijkstra)."""
        self.require(source)
        cached = self._dist.get(source)
        if cached is not None:
            return cached
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for v, cost in self.adj[u].items():
                nd = d + cost
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        self._dist[source] = dist
        return dist

    def toward(self, dest):
        """Next-hop table toward ``dest``: router -> neighbor on a shortest path.

        Links are undirected, so one Dijkstra from ``dest`` gives every
        router's remaining cost.  Among neighbors ``n`` with
        ``cost(at, n) + dist(n) == dist(at)`` the smallest router id wins;
        ``dest`` maps to itself.
        """
        table = self._toward.get(dest)
        if table is not None:
            return table
        dist = self.distances(dest)
        table = {}
        for at, nbrs in self.adj.items():
            if at == dest:
                table[at] = at
            else:
                remaining = dist[at]
                table[at] = min(n for n, cost in nbrs.items()
                                if cost + dist[n] == remaining)
        self._toward[dest] = table
        return table

    def next_hop(self, at, dest):
        """Deterministic shortest-path neighbor from ``at`` toward ``dest``.

        Among neighbors on a minimum-cost path, the one with the smallest
        router id wins.  ``at == dest`` returns ``at``.
        """
        self.require(at)
        return self.toward(dest)[at]


def build_topology(routers, links):
    """Validate a (routers, links) spec and return a :class:`Topology`.

    ``routers`` is an iterable of ``(id, role)``; ``links`` an iterable of
    ``(a, b, cost)`` undirected links with positive integer cost.
    """
    roles = {}
    for rid, role in routers:
        rid = int(rid)
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
        a, b, cost = int(a), int(b), int(cost)
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
