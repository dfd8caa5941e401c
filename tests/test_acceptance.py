"""Acceptance suite: one test per criterion, exact tolerances, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on stdout.
"""

import random
from pathlib import Path

from conftest import (
    MaterialisedFibs,
    Provider,
    assert_rows_match_schedule,
    encapsulate_bier,
    expand_report,
    host_address,
    make_site,
    path_to,
    random_topology,
    rebuild_from_membership,
    sg_as_dict,
    state_rows,
)
from routescale import bier, multicast
from routescale.bier import assign_bfr_ids, build_bift, flood_deliver, id_to_si_bit
from routescale.cli import cli_main
from routescale.harness import build_scenario, run
from routescale.multicast import SgKey, SgState
from routescale.topology import build_topology
from routescale.unicast import UnicastPlane


def _passed(n, name):
    print(f"[acceptance] criterion {n} ({name}): PASS")


def star50():
    """50 routers: hub 0 (core), edges 1..20, extra core leaves 21..49."""
    routers = [(0, "core")]
    routers += [(i, "edge") for i in range(1, 21)]
    routers += [(i, "core") for i in range(21, 50)]
    links = [(0, i, 1) for i in range(1, 50)]
    return {"routers": routers, "links": links}


def criterion2_topology():
    """3 edge routers behind a shared 3-router core chain."""
    return build_topology(
        [(0, "edge"), (1, "core"), (2, "core"), (3, "core"), (4, "edge"), (5, "edge")],
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1)],
    )


def criterion2_providers():
    return [
        Provider(0, frozenset({0, 1})),
        Provider(1, frozenset({2, 4})),
        Provider(2, frozenset({3, 5})),
    ]


def test_criterion_1_bift_invariance_vs_sg_growth():
    topo_spec = star50()
    results = {}
    for n_groups in (10, 100, 1000):
        scenario = build_scenario({
            "topology": topo_spec,
            "workload": {"seed": 404, "n_groups": n_groups,
                         "members_min": 2, "members_max": 2},
            "modes": ["stateful_mcast", "bier"],
            "bsl": 256,
            "snapshot_interval": max(1, n_groups),
        })
        snapshots, report = run(scenario)
        for snap in snapshots:
            for _router, _role, _fib, _mapping, _labels, _sg, bift_n in state_rows(snap):
                assert bift_n == 20
        final = snapshots[-1]
        results[n_groups] = max(
            sg for _r, role, _f, _m, _l, sg, _b in state_rows(final) if role == "core")
    assert results[1000] >= 10 * results[100]
    assert results[100] > results[10]
    _passed(1, "BIFT invariance law")


def test_criterion_2_mapencap_core_fib_law():
    topo = criterion2_topology()
    providers = criterion2_providers()
    edges = topo.edge_routers
    for n_sites in (10, 100, 1000):
        sites = [make_site(i, edges[i % 3]) for i in range(n_sites)]
        plane = UnicastPlane(topo, len(providers))
        for site in sites:
            plane.add_site(site.site_id, site.attached_edge)
        fibs = MaterialisedFibs(topo, providers, sites)
        # every router's FIB, the core routers' included
        for r in topo.roles:
            assert fibs.encap_fib_size(r) == plane.n_providers == 3
            assert fibs.flat_fib_size(r) == plane.flat_fib_size() == 3 + n_sites
    _passed(2, "map-and-encap core-FIB law")


def test_criterion_3_exactly_one_copy():
    rng = random.Random(1003)
    checked = 0
    while checked < 1000:
        topo = random_topology(rng, rng.randint(1, 8))
        bsl = rng.choice([4, 8])
        ids = assign_bfr_ids(topo.edge_routers)
        placements = {bfer: id_to_si_bit(i, bsl) for bfer, i in ids.items()}
        bift = build_bift(topo, placements)
        sis = sorted({si for si, _ in placements.values()})
        si = rng.choice(sis)
        expected = []
        bits = 0
        for bfer, (s, bit) in placements.items():
            if s == si and rng.random() < 0.6:
                bits |= bier.bit_mask(bit)
                expected.append(bfer)
        at = rng.choice(sorted(topo.roles))
        delivered = flood_deliver(bift, si, bits, at, {})
        assert sorted(delivered) == sorted(expected)   # multiset equality
        checked += 1
    _passed(3, "exactly-one-copy delivery")


def test_criterion_4_mode_delivery_equivalence():
    rng = random.Random(1004)
    for _ in range(200):
        topo = random_topology(rng, rng.randint(2, 12))
        scenario = build_scenario({
            "topology": {"routers": [[r, topo.roles[r]] for r in sorted(topo.roles)],
                         "links": [[a, b, c] for a in sorted(topo.adj)
                                   for b, c in sorted(topo.adj[a].items()) if a < b]},
            "workload": {"seed": rng.randrange(10**6),
                         "n_groups": rng.randint(1, 4),
                         "members_min": 1,
                         "members_max": min(3, len(topo.edge_routers)),
                         "churn_events": rng.randint(0, 25)},
            "modes": ["stateful_mcast", "bier"],
            "bsl": rng.choice([4, 8]),
            "snapshot_interval": 7,
        })
        _snapshots, report = run(scenario)   # raises on any mismatch
        rows = expand_report(report)
        assert_rows_match_schedule(scenario, rows)
        assert {row.mode for row in rows} == {"stateful", "bier"}
    _passed(4, "stateful/BIER/membership delivery equivalence")


def test_criterion_5_si_partitioning():
    routers = [(0, "core")] + [(i, "edge") for i in range(1, 11)]
    topo = build_topology(routers, [(0, i, 1) for i in range(1, 11)])
    ids = assign_bfr_ids(topo.edge_routers)
    placements = {r: id_to_si_bit(i, 4) for r, i in ids.items()}
    assert {si for si, _ in placements.values()} == {0, 1, 2}
    headers = encapsulate_bier(placements.values())
    assert len(headers) == 3
    bift = build_bift(topo, placements)
    delivered = []
    for si, bits in headers:
        delivered.extend(flood_deliver(bift, si, bits, 1, {}))
    assert sorted(delivered) == list(range(1, 11))
    _passed(5, "SI partitioning")


def test_criterion_6_mpls_zero_lookup_rule():
    topo = criterion2_topology()
    providers = criterion2_providers()
    edges = topo.edge_routers
    cores = [r for r, role in topo.roles.items() if role == "core"]
    sites = [make_site(i, edges[i % 3]) for i in range(100)]
    plane = UnicastPlane(topo, len(providers))
    for site in sites:
        plane.add_site(site.site_id, site.attached_edge)
    fibs = MaterialisedFibs(topo, providers, sites)
    # the tables walked below hold, router by router, the state the CSV reports
    for r in topo.roles:
        assert fibs.flat_fib_size(r) == plane.flat_fib_size()
        assert fibs.encap_fib_size(r) == plane.n_providers
        assert fibs.mapping_entries(r) == plane.mapping_entries(r)
        assert fibs.label_entries(r) == plane.label_entries(r)
    transited = set()
    for ingress in edges:
        for site in sites:
            delivered, path = fibs.deliver("mpls", ingress, host_address(site.identifier_prefix))
            assert delivered == site.site_id
            assert path == path_to(topo, ingress, site.attached_edge)
            transited.update(path[1:-1])
    assert transited == set(cores)
    for core in cores:
        assert fibs.lookups["mpls"][core] == 0
        assert fibs.lookups["flat"][core] == 0
        assert fibs.lookups["mapencap"][core] == 0
    _passed(6, "MPLS zero-lookup rule at transit routers")


def test_criterion_7_join_leave_reversibility():
    rng = random.Random(1007)
    for _ in range(500):
        topo = random_topology(rng, rng.randint(2, 8))
        edges = topo.edge_routers
        groups = {g: rng.choice(edges) for g in range(rng.randint(1, 2))}
        state = SgState()
        membership = {g: set() for g in groups}
        for _ in range(rng.randint(0, 15)):
            g = rng.choice(sorted(groups))
            sg = SgKey(groups[g], g)
            if membership[g] and rng.random() < 0.45:
                receiver = rng.choice(sorted(membership[g]))
                multicast.leave(state, topo, sg, receiver)
                membership[g].remove(receiver)
            else:
                receiver = rng.choice(edges)
                multicast.join(state, topo, sg, receiver)
                membership[g].add(receiver)
        rebuilt = rebuild_from_membership(topo, groups, membership)
        assert sg_as_dict(state) == sg_as_dict(rebuilt)
    _passed(7, "join/leave reversibility")


def test_criterion_8_determinism(tmp_path):
    scenario_path = str(Path(__file__).parent.parent / "scenarios" / "example.json")
    for name in ("first", "second"):
        rc = cli_main(["run", "--scenario", scenario_path, "--out", str(tmp_path / name)])
        assert rc == 0
    for csv in ("state.csv", "delivery.csv"):
        a = (tmp_path / "first" / csv).read_bytes()
        b = (tmp_path / "second" / csv).read_bytes()
        assert a == b
    _passed(8, "byte-identical CSVs for identical (scenario, seed)")
