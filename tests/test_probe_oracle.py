"""Both multicast probe paths against their bit-by-bit and sorted references,
and the incremental harness probe against a full re-probe."""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    STUB_HEAVY,
    expand_report,
    full_probe,
    random_topology,
    scan_flood_deliver,
    scan_forward_bier,
    seeded,
    sorted_simulate_delivery,
    stub_heavy_topology,
    tick_by_tick,
)
from routescale import multicast, workload
from routescale.bier import (
    _row,
    assign_bfr_ids,
    bit_mask,
    build_bift,
    flood_deliver,
    forward_bier,
    id_to_si_bit,
)
from routescale.errors import DeliveryMismatch, MissingBiftEntry
from routescale.harness import Scenario, SimState, load_scenario, run
from routescale.multicast import SgKey, SgState
from routescale.workload import Event

FAULT_SCENARIO = Path(__file__).parent / "fixtures" / "fault_scenario.json"


def outcome(fn, *args):
    """A probe's result, or the message of the MissingBiftEntry it raised."""
    try:
        return "ok", fn(*args)
    except MissingBiftEntry as exc:
        return "missing", str(exc)


def as_multiset(result):
    kind, value = result
    return (kind, Counter(value)) if kind == "ok" else result


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=8), st.data())
def test_bier_forwarding_matches_bit_by_bit_scan(seed, n, bsl, data):
    topo = random_topology(seeded(seed), n)
    ids = assign_bfr_ids(topo.edge_routers)
    bift = build_bift(topo, {r: id_to_si_bit(i, bsl) for r, i in ids.items()})
    owned = {}    # si -> bits some BFER holds
    for bfr_id in ids.values():
        si, bit = id_to_si_bit(bfr_id, bsl)
        owned[si] = owned.get(si, 0) | bit_mask(bit)
    # one SI past the last in use, and two positions past the BSL, hold
    # bits no BFER owns
    si = data.draw(st.integers(min_value=0, max_value=max(owned) + 1))
    bits = data.draw(st.integers(min_value=0, max_value=2 ** (bsl + 2) - 1))
    if data.draw(st.booleans()):
        bits &= owned.get(si, 0)
    at = data.draw(st.sampled_from(sorted(topo.roles)))

    # the same copies: forward_bier emits them in F-BM order, the scan in
    # the order of their lowest bits
    assert (as_multiset(outcome(forward_bier, bift, si, bits, at))
            == as_multiset(outcome(scan_forward_bier, bift, si, bits, at)))
    assert (as_multiset(outcome(flood_deliver, bift, si, bits, at, {}))
            == as_multiset(outcome(scan_flood_deliver, bift, si, bits, at)))


def check_shared_reach(topo, bsl, data):
    """Floods from drawn ingresses, with drawn headers and SIs, all sharing
    one reach table: each delivers what a bit-by-bit scan delivers and
    what a flood with a fresh table delivers, in that flood's order; every
    row runs to the highest bit its router's F-BMs hold, and every landing
    in it is a one-bit scan's BFER; an SI holds at most routers x BFERs
    landings.  Every router's BIFT passes the check a row is made under."""
    ids = assign_bfr_ids(topo.edge_routers)
    bift = build_bift(topo, {r: id_to_si_bit(i, bsl) for r, i in ids.items()})
    owned = {}    # si -> bits some BFER holds
    for bfr_id in ids.values():
        si, bit = id_to_si_bit(bfr_id, bsl)
        owned[si] = owned.get(si, 0) | bit_mask(bit)
    # as in the single-flood scan test: some bits and one SI no BFER owns
    floods = data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(topo.roles)), st.integers(min_value=0, max_value=max(owned) + 1),
        st.integers(min_value=0, max_value=2 ** (bsl + 2) - 1), st.booleans()),
        min_size=1, max_size=12))
    reach = {}
    for at, si, bits, owned_only in floods:
        if owned_only:
            bits &= owned.get(si, 0)
        shared = outcome(flood_deliver, bift, si, bits, at, reach)
        assert as_multiset(shared) == as_multiset(outcome(scan_flood_deliver, bift, si, bits, at))
        assert shared == outcome(flood_deliver, bift, si, bits, at, {})
    for si, rows in reach.items():
        landings = [(router, bit, bfer) for router, row in rows.items()
                    for bit, bfer in enumerate(row) if bfer is not None]
        assert len(landings) <= len(bift) * owned.get(si, 0).bit_count()
        for router, row in rows.items():
            assert len(row) == held(bift[router][si]).bit_length() + 1
        for router, bit, bfer in landings:
            assert scan_flood_deliver(bift, si, bit_mask(bit), router) == [bfer]
    for router, row in bift.items():
        for si, pairs in row.items():
            assert _row(bift, si, router) == [None] * (held(pairs).bit_length() + 1)


def held(pairs):
    """The OR of a BIFT row's F-BMs."""
    bits = 0
    for fbm in pairs.values():
        bits |= fbm
    return bits


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.sampled_from([1, 3, 8]), st.data())
def test_shared_reach_table_matches_bit_by_bit_scan(seed, n, bsl, data):
    check_shared_reach(random_topology(seeded(seed), n), bsl, data)


@pytest.mark.parametrize("bsl", [1, 3, 8])
@pytest.mark.parametrize("name", STUB_HEAVY)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_shared_reach_table_on_stub_heavy_topologies(name, bsl, data):
    check_shared_reach(stub_heavy_topology(name), bsl, data)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.data())
def test_sg_replication_matches_sorted_reference(seed, n, data):
    rng = seeded(seed)
    topo = random_topology(rng, n)
    edges = topo.edge_routers
    sgs = [SgKey(rng.choice(edges), group) for group in (1, 2)]
    members = {sg: set() for sg in sgs}
    state = SgState()
    ops = data.draw(st.lists(st.tuples(st.sampled_from(sgs), st.sampled_from(edges),
                                       st.booleans()), max_size=30))
    for sg, edge, joining in ops:
        if joining:
            multicast.join(state, topo, sg, edge)
            members[sg].add(edge)
        elif edge in members[sg]:
            multicast.leave(state, topo, sg, edge)
            members[sg].discard(edge)
        for probed in sgs:
            delivered = multicast.simulate_delivery(state, topo, probed)
            assert Counter(delivered) == Counter(sorted_simulate_delivery(state, topo, probed))
            assert Counter(delivered) == Counter(members[probed])


def probe_outcome(probe, sim, tick):
    """A harness probe's rows, or where its DeliveryMismatch was raised."""
    try:
        return "ok", probe(sim, tick)
    except DeliveryMismatch as exc:
        return "mismatch", (exc.tick, exc.group, exc.mode)


def incremental_probe(sim, tick):
    """``SimState.probe``'s record as rows, in ``full_probe``'s order."""
    return expand_report([sim.probe(tick)])


OPS = ("add_group", "join", "leave")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=8), st.sampled_from([None, "bier_drop_lowest_bit"]),
       st.data())
def test_incremental_probe_matches_full_probe(seed, n, bsl, fault, data):
    topo = random_topology(seeded(seed), n)
    edges = topo.edge_routers
    scenario = Scenario(topo, [], workload.Params(), ("stateful_mcast", "bier"), bsl, 1, fault)
    sim = SimState(scenario)
    ops = data.draw(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2),
                                       st.integers(0, len(edges) - 1)),
                             max_size=30))
    for tick, (op, group, pick) in enumerate(ops):
        members = sorted(sim.membership.get(group, ()))
        if group not in sim.groups:
            events = [(workload.ADD_GROUP, (group, edges[pick]))]
        elif op == "add_group":
            events = [(workload.ADD_GROUP, (group, sim.groups[group].source_edge))]
        elif op == "join":
            # may re-join a current member
            events = [(workload.JOIN, (group, edges[pick]))]
        elif op == "leave" and members:
            events = [(workload.LEAVE, (group, members[pick % len(members)]))]
        else:
            continue
        for kind, args in events:
            sim.apply(Event(tick, kind, args))
            assert probe_outcome(incremental_probe, sim, tick) == probe_outcome(
                full_probe, sim, tick)


def test_fault_fixture_aborts_where_a_full_probe_does():
    scenario = load_scenario(FAULT_SCENARIO)
    with pytest.raises(DeliveryMismatch) as excinfo:
        run(scenario)
    aborted = ("mismatch", (excinfo.value.tick, excinfo.value.group, excinfo.value.mode))
    # the same replay, stepping every tick, with a full re-probe at every snapshot
    sim = SimState(scenario)
    events = workload.generate(scenario.topology, scenario.workload).events
    for tick in tick_by_tick(sim, events, scenario.snapshot_interval):
        outcome = probe_outcome(full_probe, sim, tick)
        if outcome[0] == "mismatch":
            break
    assert outcome == aborted
