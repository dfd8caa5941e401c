"""Both multicast probe paths against their bit-by-bit and sorted references."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_topology,
    scan_flood_deliver,
    scan_forward_bier,
    seeded,
    sorted_simulate_delivery,
)
from routescale import multicast
from routescale.bier import (
    BierHeader,
    assign_bfr_ids,
    bit_mask,
    build_bift,
    flood_deliver,
    forward_bier,
    id_to_si_bit,
)
from routescale.errors import MissingBiftEntry
from routescale.multicast import SgKey, SgState


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
    bift = build_bift(topo, ids, bsl)
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
    header = BierHeader(si, bits)
    at = data.draw(st.sampled_from(sorted(topo.roles)))

    assert outcome(forward_bier, bift, header, at) == outcome(scan_forward_bier, bift, header, at)
    assert (as_multiset(outcome(flood_deliver, bift, header, at))
            == as_multiset(outcome(scan_flood_deliver, bift, header, at)))


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
            delivered = multicast.simulate_delivery(state, probed)
            assert Counter(delivered) == Counter(sorted_simulate_delivery(state, probed))
            assert Counter(delivered) == Counter(members[probed])
