"""Distances and next hops against networkx on random topologies."""

import heapq
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_topology, scan_next_hop, seeded
from routescale import topology

nx = pytest.importorskip("networkx")


def to_networkx(topo):
    graph = nx.Graph()
    graph.add_nodes_from(topo.roles)
    for a, nbrs in topo.adj.items():
        for b, cost in nbrs.items():
            graph.add_edge(a, b, weight=cost)
    return graph


def tables(topo, first):
    """dest -> (distances in iteration order, next-hop table), reaching each
    destination's Dijkstra first through ``first``."""
    out = {}
    for dest in topo.roles:
        if first == "toward":
            hops = dict(topo.toward(dest))
        elif first == "next_hop":
            hops = {at: topo.next_hop(at, dest) for at in topo.roles}
        else:
            topo.distances(dest)
            hops = dict(topo.toward(dest))
        out[dest] = (list(topo.distances(dest).items()), hops)
    return out


# max_cost 1 makes every link cost 1, so equal-cost ties are dense
@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.sampled_from([1, 3]))
def test_distances_and_next_hops_match_networkx(seed, n, max_cost):
    # a fresh Topology (empty caches) per access order
    by_order = {first: tables(random_topology(seeded(seed), n, max_cost=max_cost), first)
                for first in ("toward", "next_hop", "distances")}
    assert by_order["toward"] == by_order["next_hop"] == by_order["distances"]

    topo = random_topology(seeded(seed), n, max_cost=max_cost)
    graph = to_networkx(topo)
    for src in topo.roles:
        dist = topo.distances(src)
        assert dist == nx.single_source_dijkstra_path_length(graph, src)
        costs = list(dist.values())
        assert costs == sorted(costs), "distances must iterate in settle order"
    for dest in topo.roles:
        assert dict(topo.toward(dest)) == by_order["distances"][dest][1]
        for at in topo.roles:
            hop = topo.next_hop(at, dest)
            assert hop == scan_next_hop(topo, at, dest)
            if at == dest:
                assert hop == at
            else:
                paths = nx.all_shortest_paths(graph, at, dest, weight="weight")
                assert hop == min(path[1] for path in paths)


def test_toward_after_distances_runs_no_second_dijkstra(monkeypatch):
    pops = []

    def counting_heappop(heap):
        pops.append(heap)
        return heapq.heappop(heap)

    monkeypatch.setattr(topology, "heapq",
                        SimpleNamespace(heappop=counting_heappop, heappush=heapq.heappush))
    for seed in range(20):
        topo = random_topology(seeded(seed), 8, max_cost=seed % 3 + 1)
        for dest in topo.roles:
            before = len(pops)
            topo.distances(dest)
            assert len(pops) > before
        runs = len(pops)
        for dest in topo.roles:
            assert topo.toward(dest) is topo.toward(dest)
            for at in topo.roles:
                topo.next_hop(at, dest)
        assert len(pops) == runs
