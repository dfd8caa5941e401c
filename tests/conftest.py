"""Shared test helpers: brute-force oracles and random topology builder."""

import random

from routescale.multicast import SgKey, SgState, join
from routescale.topology import build_topology


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
