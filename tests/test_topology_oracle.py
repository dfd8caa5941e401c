"""Distances and next hops against networkx on random topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_topology, scan_next_hop, seeded

nx = pytest.importorskip("networkx")


def to_networkx(topo):
    graph = nx.Graph()
    graph.add_nodes_from(topo.roles)
    for a, nbrs in topo.adj.items():
        for b, cost in nbrs.items():
            graph.add_edge(a, b, weight=cost)
    return graph


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10))
def test_distances_and_next_hops_match_networkx(seed, n):
    topo = random_topology(seeded(seed), n)
    graph = to_networkx(topo)
    for src in topo.roles:
        assert topo.distances(src) == nx.single_source_dijkstra_path_length(graph, src)
    for dest in topo.roles:
        for at in topo.roles:
            hop = topo.next_hop(at, dest)
            assert hop == scan_next_hop(topo, at, dest)
            if at == dest:
                assert hop == at
            else:
                paths = nx.all_shortest_paths(graph, at, dest, weight="weight")
                assert hop == min(path[1] for path in paths)
