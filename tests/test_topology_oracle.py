"""Distances and next hops against networkx on random topologies."""

import heapq
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MaterialisedFibs,
    Provider,
    STUB_HEAVY,
    edge_providers,
    random_topology,
    scan_next_hop,
    seeded,
    stub_heavy_topology,
)
from routescale import harness, topology, workload
from routescale.errors import DeliveryMismatch, InvalidLink, ScenarioError
from routescale.generators import gen_topology
from routescale.harness import SimState, build_scenario, load_scenario, run

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
        check_cost_table(topo, src, nx.single_source_dijkstra_path_length(graph, src))
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


def single_homed(topo):
    """Routers with one link, to a router with more than one."""
    return {r for r, nbrs in topo.adj.items()
            if len(nbrs) == 1 and len(topo.adj[next(iter(nbrs))]) > 1}


def check_cost_table(topo, source, lengths):
    """``topo.distances(source)`` against ``lengths``, every router's
    minimum cost to ``source``: the source and the transit routers in
    (cost, id) order, a lazy-heap Dijkstra's settle order, and every
    single-homed router at its hub's cost plus the link to it."""
    dist = topo.distances(source)
    stubs = single_homed(topo) - {source}
    assert list(dist.items()) == sorted(((r, c) for r, c in lengths.items() if r not in stubs),
                                        key=lambda kv: (kv[1], kv[0]))
    for stub in stubs:
        ((hub, link),) = topo.adj[stub].items()
        assert dist[hub] + link == lengths[stub]


def generated(kind, size):
    spec = gen_topology(kind, size)
    return topology.build_topology(spec["routers"], spec["links"])


def expected_dijkstra_runs(topo, order):
    """Heap Dijkstras that querying ``toward`` in ``order`` runs on a
    fresh Topology.  A router with one link to a router with several is
    single-homed, and its query reaches that hub's Dijkstra; every other
    router's reaches its own.  Each distinct router reached runs one."""
    degree = {r: len(nbrs) for r, nbrs in topo.adj.items()}
    reached = set()
    for router in order:
        hub = next(iter(topo.adj[router]), None)
        reached.add(hub if degree[router] == 1 and degree[hub] > 1 else router)
    return len(reached)


@pytest.fixture
def dijkstra_runs(monkeypatch):
    """A list that gains one element per heap Dijkstra run: each run pops
    exactly one cost-0 entry, its source (link costs are positive).  The
    patched ``topology.heapq`` lists every router popped in ``popped``."""
    runs = []
    popped = []

    def counting_heappop(heap):
        item = heapq.heappop(heap)
        popped.append(item[1])
        if item[0] == 0:
            runs.append(item[1])
        return item

    monkeypatch.setattr(topology, "heapq", SimpleNamespace(
        heappop=counting_heappop, heappush=heapq.heappush, popped=popped))
    return runs


def test_toward_after_distances_runs_no_second_dijkstra(dijkstra_runs):
    for seed in range(20):
        rng = seeded(seed)
        topo = random_topology(rng, 8, max_cost=seed % 3 + 1)
        order = sorted(topo.roles)
        rng.shuffle(order)
        before = len(dijkstra_runs)
        for dest in order:
            topo.toward(dest)
        assert len(dijkstra_runs) - before == expected_dijkstra_runs(topo, order)
        runs = len(dijkstra_runs)
        for dest in topo.roles:
            assert topo.toward(dest) is topo.toward(dest)
            if topo.hub(dest) is None:
                topo.distances(dest)
            for at in topo.roles:
                topo.next_hop(at, dest)
        assert len(dijkstra_runs) == runs


@pytest.mark.parametrize("kind, size, runs", [
    *[("fat-edge", n, max(1, n // 5)) for n in (3, 4, 5, 9, 10, 11, 24, 60, 120)],
    *[("star", n, 1) for n in (2, 3, 10, 200)],
])
def test_edge_routers_of_fat_edge_and_star_run_one_dijkstra_per_hub(dijkstra_runs, kind,
                                                                     size, runs):
    topo = generated(kind, size)
    for edge in topo.edge_routers:
        topo.toward(edge)
    assert len(dijkstra_runs) == runs
    # the hubs' cost tables were cached by the same Dijkstras
    for source in list(dijkstra_runs):
        topo.distances(source)
    assert len(dijkstra_runs) == runs


@pytest.mark.parametrize("kind, size", [("fat-edge", 5), ("fat-edge", 100), ("star", 10)])
def test_toward_a_stub_then_distances_of_its_hub_run_one_dijkstra(dijkstra_runs, kind, size):
    topo = generated(kind, size)
    stub = topo.edge_routers[-1]
    hub = topo.hub(stub)
    assert hub is not None
    topo.toward(stub)
    topo.distances(hub)
    assert dijkstra_runs == [hub]


# no shortest path crosses a single-homed router, so a hub's Dijkstra
# neither settles nor stores the routers that hang off it
@pytest.mark.parametrize("name", ["fat-edge 120", "star 40", "weighted fat-edge 30"])
def test_a_hubs_dijkstra_pops_transit_routers_only(dijkstra_runs, name):
    topo = stub_heavy_topology(name)
    stubs = single_homed(topo)
    transit = set(topo.roles) - stubs
    hubs = sorted({next(iter(topo.adj[stub])) for stub in stubs})
    for hub in hubs:
        assert len(topo.distances(hub)) == len(transit)
    assert dijkstra_runs == hubs
    assert set(topology.heapq.popped) <= transit


@st.composite
def stub_heavy_topologies(draw):
    kind = draw(st.sampled_from(["random", "star", "fat-edge", "line"]))
    if kind == "random":
        return random_topology(seeded(draw(st.integers(min_value=0, max_value=2**32 - 1))),
                               draw(st.integers(min_value=1, max_value=12)),
                               max_cost=draw(st.sampled_from([1, 3])))
    if kind == "star":
        return generated("star", draw(st.integers(min_value=2, max_value=20)))
    if kind == "fat-edge":
        return generated("fat-edge", draw(st.integers(min_value=2, max_value=60)))
    return generated("line", 2)


# random_topology's spanning trees have many pendant routers; on star and
# fat-edge every edge router is single-homed; line 2 has two routers with
# one link each, neither single-homed
@settings(max_examples=150, deadline=None)
@given(stub_heavy_topologies(), st.data())
def test_every_router_in_any_order_matches_a_from_scratch_dijkstra(topo, data):
    graph = to_networkx(topo)
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
    order = data.draw(st.permutations(sorted(topo.roles)))
    toward_first = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    for dest, first in zip(order, toward_first):
        if first:
            topo.toward(dest)
        hops = topo.toward(dest)
        to_dest = lengths[dest]
        check_cost_table(topo, dest, to_dest)
        assert hops == {at: at if at == dest else
                        min(n for n, cost in topo.adj[at].items()
                            if cost + to_dest[n] == to_dest[at])
                        for at in topo.roles}
    for dest in topo.roles:
        for at in topo.roles:
            assert topo.next_hop(at, dest) == scan_next_hop(topo, at, dest)


ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads"


# site_growth (fat-edge 120, unicast modes), snapshot_probe (fat-edge 100,
# every mode) and BIER alone on fat-edge 200: the BIFT and the label
# counts read hub tables only
@pytest.mark.parametrize("scenario, n_core", [
    (WORKLOADS / "site_growth.json", 24),
    (WORKLOADS / "snapshot_probe.json", 20),
    ({"topology": {"kind": "fat-edge", "size": 200}, "modes": ["bier"],
      "workload": {"seed": 1, "n_groups": 10, "members_min": 2, "members_max": 40,
                   "churn_events": 50}}, 40),
])
def test_setup_builds_no_table_for_a_single_homed_router(dijkstra_runs, scenario, n_core):
    if isinstance(scenario, Path):
        scenario = load_scenario(scenario)
    else:
        scenario = build_scenario(scenario)
    SimState(scenario)
    topo = scenario.topology
    stubs = single_homed(topo)
    assert len(stubs) == len(topo.roles) - n_core
    assert not stubs & set(topo._toward)
    assert not stubs & set(topo._dist)
    assert len(dijkstra_runs) == n_core


SCENARIO_FILES = sorted(path for folder in ("scenarios", "bench/workloads", "tests/fixtures")
                        for path in (ROOT / folder).glob("*.json"))
# scenario files whose run is refused, and the error that refuses it
REFUSED = {
    "empty_provider_scenario.json": ScenarioError,
    "fault_scenario.json": DeliveryMismatch,
    "fractional_cost_scenario.json": InvalidLink,
}


# a single-homed router's next hops come from its hub's table (toward),
# so a run never needs its cost table
@pytest.mark.parametrize("path", SCENARIO_FILES,
                         ids=[str(p.relative_to(ROOT)) for p in SCENARIO_FILES])
def test_a_run_never_asks_for_the_distances_of_a_single_homed_router(monkeypatch, path):
    distances = topology.Topology.distances
    asked = []       # single-homed routers passed to distances

    def checked(topo, source):
        if topo.hub(source) is not None:
            asked.append(source)
        return distances(topo, source)

    monkeypatch.setattr(topology.Topology, "distances", checked)
    refused = REFUSED.get(path.name)
    with pytest.raises(refused) if refused else nullcontext():
        run(load_scenario(path))
    assert asked == []


def test_a_snapshot_probe_run_caches_hub_tables_and_the_group_sources_next_hops():
    scenario = load_scenario(WORKLOADS / "snapshot_probe.json")
    run(scenario, 13)
    topo = scenario.topology
    stubs = single_homed(topo)
    events = workload.generate(topo, replace(scenario.workload, seed=13)).events
    sources = {ev.args[1] for ev in events if ev.kind == workload.ADD_GROUP} & stubs
    assert len(sources) == 32
    assert stubs & set(topo._toward) == sources
    assert not stubs & set(topo._dist)
    assert (len(topo._toward), len(topo._dist)) == (52, 20)


# a single-homed edge's cost to a router is its hub's plus the link to it;
# the partition that gives each core router its nearest edge is a valid
# explicit list that counts what "auto" counts, and anchors the same
# reference tables as one provider per edge alone
@pytest.mark.parametrize("name", STUB_HEAVY)
def test_auto_providers_match_networkx_nearest_edge(name):
    topo = stub_heavy_topology(name)
    graph = to_networkx(topo)
    expected = {e: {e} for e in topo.edge_routers}
    for router in topo.roles:
        if router in expected:
            continue
        lengths = nx.single_source_dijkstra_path_length(graph, router)
        expected[min(topo.edge_routers, key=lambda e: (lengths[e], e))].add(router)
    section = [{"id": i, "routers": sorted(expected[e])} for i, e in enumerate(topo.edge_routers)]
    assert (harness._build_providers(section, topo) == harness._build_providers("auto", topo)
            == len(topo.edge_routers))
    nearest = MaterialisedFibs(
        topo, [Provider(i, frozenset(expected[e])) for i, e in enumerate(topo.edge_routers)], [])
    alone = MaterialisedFibs(topo, edge_providers(topo), [])
    assert (nearest.flat, nearest.encap) == (alone.flat, alone.encap)
