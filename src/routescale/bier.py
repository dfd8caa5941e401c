"""BIER data plane: BFR-id assignment, BIFT construction, bitstring forwarding.

Every edge router is both an ingress (BFIR) and an egress (BFER); core
routers are pure transit BFRs.  The BFIR encapsulates a group's egress
set as one bitstring per Set Identifier (RFC 8279 section 4), so a
header is a function of the receivers alone.  A run computes each
BFER's placement ``(SI, bit)`` once, from its BFR-id and the BSL.  The
BIFT is derived solely from the topology and those placements.
Logically it holds one entry per BFER, ``(SI, bit) -> (next hop,
F-BM)``, where the F-BM is the OR of all same-SI bits routed via that
next hop.  It is stored as ``{router: {SI: slots}}``: ``slots[bit]`` is
the entry for that bit position (slot 0 and positions no BFER holds are
None), and every slot that shares a next hop holds the same ``(next
hop, F-BM)`` pair, so a router stores one pair per next hop in each SI.
Forwarding partitions a packet's bitstring by next hop, so each BFER
receives exactly one copy.

``BierHeader`` exists only at encapsulation: a flood reads its SI once,
and every copy inside it is a ``(next hop, bits)`` pair of plain ints
within that SI.
"""

from typing import NamedTuple

from .errors import BiftLoop, MissingBiftEntry, NoEdgeRouters

LOCAL = "local"

DEFAULT_BSL = 256


class BierHeader(NamedTuple):
    si: int
    bits: int        # bit k of the bitstring is integer bit (k-1)


def bit_mask(position):
    """Integer mask for 1-based bitstring position ``position``."""
    return 1 << (position - 1)


def assign_bfr_ids(edge_routers):
    """Dense BFR-ids 1..N in ascending router-id order."""
    edges = sorted(edge_routers)
    if not edges:
        raise NoEdgeRouters("BIER domain needs at least one edge router")
    return {router: i for i, router in enumerate(edges, start=1)}


def id_to_si_bit(bfr_id, bsl):
    """Set Identifier and 1-based bit position for a BFR-id."""
    si, bit = divmod(bfr_id - 1, bsl)
    return si, bit + 1


def build_bift(topo, placements):
    """Every router's BIFT from the unicast shortest-path topology and the
    BFER placements ``{router: (si, bit)}``; the next hop is LOCAL at the
    BFER itself.  Returns ``{router: {si: slots}}``, the compact form the
    module docstring describes.

    A pure function of (topology, placements): group churn never touches it.
    """
    for bfer in placements:
        topo.require(bfer)
    width = {}     # si -> highest bit position in use
    for si, bit in placements.values():
        width[si] = max(width.get(si, 0), bit)
    bift = {}
    for router in topo.roles:
        # group same-SI bits by next hop to form the F-BMs
        fbms = {}      # (si, next_hop) -> fbm
        hop_of = {}    # (si, bit) -> next_hop
        for bfer, (si, bit) in placements.items():
            nh = LOCAL if router == bfer else topo.next_hop(router, bfer)
            hop_of[(si, bit)] = nh
            fbms[(si, nh)] = fbms.get((si, nh), 0) | bit_mask(bit)
        pairs = {key: (key[1], fbm) for key, fbm in fbms.items()}
        slots = {si: [None] * (w + 1) for si, w in width.items()}
        for (si, bit), nh in hop_of.items():
            slots[si][bit] = pairs[(si, nh)]
        bift[router] = {si: tuple(row) for si, row in slots.items()}
    return bift


def encapsulate_bier(positions):
    """BFIR encapsulation of the egress set's ``(si, bit)`` positions:
    one header per Set Identifier in use."""
    per_si = {}
    for si, bit in positions:
        per_si[si] = per_si.get(si, 0) | bit_mask(bit)
    return [BierHeader(si, per_si[si]) for si in sorted(per_si)]


def forward_bier(bift, si, bits, at):
    """Partition bitstring ``bits`` of Set Identifier ``si`` by next hop;
    returns one ``(next hop, bits)`` copy per next hop, in the same SI.

    RFC 8279 section 6.5: take the lowest set bit of the working copy,
    look up its entry, emit ``working & F-BM`` toward the entry's next
    hop and clear the F-BM from the working copy.  One lookup per copy,
    bits in ascending order, no two copies share a bit and their OR
    equals the input.  An entry whose F-BM lacks its own bit would never
    clear that bit, so it raises MissingBiftEntry like an absent one.
    """
    try:
        slots = bift[at][si]
    except KeyError:
        slots = ()
    copies = []
    working = bits
    while working:
        low = working & -working
        bit = low.bit_length()
        entry = slots[bit] if bit < len(slots) else None
        if entry is None:
            raise MissingBiftEntry(f"router {at}: no BIFT entry for SI {si} bit {bit}")
        next_hop, fbm = entry
        if not fbm & low:
            raise MissingBiftEntry(
                f"router {at}: the BIFT entry for SI {si} bit {bit} has an F-BM "
                f"without bit {bit}")
        copies.append((next_hop, working & fbm))
        working &= ~fbm
    return copies


def flood_deliver(bift, header, at):
    """Inject ``header`` at router ``at`` and forward until every copy
    terminates; list of BFERs, one per delivered bit.

    The header's SI is read once; the copies in flight are ``(router,
    bits)`` ints.  The returned list is a multiset: the exactly-one-copy
    property means it has one element per set bit of the injected header,
    the router that delivered that bit.

    Each bit follows one path through a loop-free table, visiting each
    router at most once, and every ``forward_bier`` call after the
    injection carries at least one bit.  So a flood that needs more than
    ``popcount(bits) * len(bift)`` further calls has met a loop, and
    raises BiftLoop.
    """
    si = header.si
    budget = header.bits.bit_count() * len(bift)
    delivered = []
    stack = [(at, header.bits)]
    for _ in range(budget + 1):
        if not stack:
            return delivered
        router, bits = stack.pop()
        for next_hop, copy in forward_bier(bift, si, bits, router):
            if next_hop == LOCAL:
                if copy & (copy - 1):
                    delivered.extend([router] * copy.bit_count())
                else:       # one bit, as in every copy a built BIFT delivers
                    delivered.append(router)
            else:
                stack.append((next_hop, copy))
    if stack:
        raise BiftLoop(f"SI {si} flood from router {at} looped: more than "
                       f"{budget} forwarding steps after the injection")
    return delivered
