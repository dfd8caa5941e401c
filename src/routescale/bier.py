"""BIER data plane: BFR-id assignment, BIFT construction, bitstring forwarding.

Every edge router is both an ingress (BFIR) and an egress (BFER); core
routers are pure transit BFRs.  The BFIR encapsulates a group's egress
set as one bitstring per Set Identifier (RFC 8279 section 4), so a
header is a function of the receivers alone.  A run computes each
BFER's placement ``(SI, bit)`` once, from its BFR-id and the BSL.  The
BIFT is derived solely from the topology and those placements.
Logically it holds one entry per BFER, ``(SI, bit) -> (next hop,
F-BM)``, where the F-BM is the OR of all same-SI bits routed via that
next hop; every entry that shares a next hop carries the same F-BM
(RFC 8279 section 6.4).  So it is stored as one F-BM per (SI, next
hop), ``{router: {SI: {next hop: F-BM}}}``, and a router's state is
bounded by its neighbours and the SIs, not by the BFER count.
Forwarding partitions a packet's bitstring by next hop, so each BFER
receives exactly one copy.

The harness keeps each group's bitstrings as the BFIR's state, setting
and clearing bits as receivers join and leave, and sends one packet per
Set Identifier: a flood takes its SI and bitstring as plain ints, and
every copy inside it is a ``(next hop, bits)`` pair within that SI.

Where a bit lands depends only on the BIFT, and a multi-bit copy's
bits land where their one-bit copies land once no two F-BMs of a router
and SI share a bit.  A flood keeps those landings in a *reach table*,
``{si: {router: row}}``, where a row is a list indexed by bit position,
up to the highest bit the router's F-BMs in that SI hold, holding the
BFER each bit lands on (None until known).  It depends on the BIFT
alone, so every flood over one BIFT may share it, and no other flood
state is needed.  A flood looks each set bit up in its ingress's row; a
miss forwards that one bit hop by hop, so no flood forwards a multi-bit
copy, and a table forwards each (SI, router, bit) at most once.  A
router gets a row only after its F-BMs in that SI pass the disjointness
check, so the property is checked, at replay and never at build time.
The table holds at most one landing per router and BFER.
"""

from .errors import BiftLoop, MissingBiftEntry, NoEdgeRouters

LOCAL = "local"

DEFAULT_BSL = 256


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
    BFER itself.  Returns ``{router: {si: {next hop: F-BM}}}``, the form
    the module docstring describes.

    RFC 8279 section 6 derives the BIFT from the unicast next hops; only
    hub tables are read (see ``Topology.hub``).  A single-homed router
    sends every bit but its own to its hub, so its row in an SI is
    ``{LOCAL: own, hub: the rest}`` (no hub pair when the rest is 0), and
    its row in an SI it holds no bit in is one ``{hub: bits}`` dict,
    shared by every single-homed router of that hub.  Any other router's
    next hop toward a single-homed BFER is the BFER itself at its hub,
    and elsewhere its next hop toward that hub, so it calls ``next_hop``
    once per hub and per multi-link BFER.

    A pure function of (topology, placements): group churn never touches it.
    """
    for bfer in placements:
        topo.require(bfer)
    full = {}      # si -> every bit in use
    behind = {}    # hub or multi-link BFER -> [(BFER, si, mask)] it reaches
    via = {}       # the same targets -> {si: OR of those masks}
    for bfer, (si, bit) in placements.items():
        mask = bit_mask(bit)
        full[si] = full.get(si, 0) | mask
        hub = topo.hub(bfer)
        target = bfer if hub is None else hub
        behind.setdefault(target, []).append((bfer, si, mask))
        bits = via.setdefault(target, {})
        bits[si] = bits.get(si, 0) | mask
    shared = {}    # (hub, si) -> the row sending every bit of si to the hub
    bift = {}
    for router in topo.roles:
        hub = topo.hub(router)
        if hub is not None:
            own_si, own_bit = placements.get(router, (None, None))
            row = {}
            for si, bits in full.items():
                if si == own_si:
                    own = bit_mask(own_bit)
                    row[si] = {LOCAL: own, hub: bits & ~own} if bits != own else {LOCAL: own}
                else:
                    row[si] = shared.setdefault((hub, si), {hub: bits})
            bift[router] = row
            continue
        # group same-SI bits by next hop to form the F-BMs
        row = {si: {} for si in full}
        for target, bits_of in via.items():
            if target == router:
                # its own bit, and its single-homed BFERs one link away
                for bfer, si, mask in behind[target]:
                    nh = LOCAL if bfer == router else bfer
                    row[si][nh] = row[si].get(nh, 0) | mask
                continue
            nh = topo.next_hop(router, target)
            for si, bits in bits_of.items():
                row[si][nh] = row[si].get(nh, 0) | bits
        bift[router] = row
    return bift


def forward_bier(bift, si, bits, at):
    """Partition bitstring ``bits`` of Set Identifier ``si`` by next hop;
    returns one ``(next hop, bits)`` copy per next hop, in the same SI.

    RFC 8279 section 6.5: for each F-BM that meets the working copy, emit
    ``working & F-BM`` toward its next hop and clear the F-BM from the
    working copy.  No two copies share a bit, so a one-bit input yields
    exactly one copy, and their OR equals the input.  A bit no F-BM holds
    is left over and raises MissingBiftEntry, naming the lowest such bit.
    """
    try:
        pairs = bift[at][si]
    except KeyError:
        pairs = {}
    copies = []
    working = bits
    for next_hop, fbm in pairs.items():
        copy = working & fbm
        if copy:
            copies.append((next_hop, copy))
            working ^= copy
    if working:
        raise MissingBiftEntry(
            f"router {at}: no BIFT entry for SI {si} bit {(working & -working).bit_length()}")
    return copies


def flood_deliver(bift, si, bits, at, reach):
    """Inject a packet carrying bitstring ``bits`` of Set Identifier
    ``si`` at router ``at`` and forward until every copy terminates;
    list of BFERs, one per delivered bit.

    Bit k of the bitstring is integer bit (k-1).  The returned list is a
    multiset: the exactly-one-copy property means it has one element per
    set bit of ``bits``, the router that delivered that bit, here in
    ascending bit order.

    ``reach`` is the reach table (see the module docstring) for ``bift``,
    read and extended in place.  Each set bit is looked up in the row of
    ``at``; on a miss that one bit is walked hop by hop (``_walk``).  No
    multi-bit copy is forwarded: every row passed ``_row``'s disjointness
    check, so each bit of a multi-bit copy would land where its one-bit copy
    lands, and the list is what a hop-by-hop flood delivers.
    """
    known = reach.setdefault(si, {})
    row = known.get(at, ())
    delivered = []
    while bits:
        low = bits & -bits
        bit = low.bit_length()
        bfer = row[bit] if bit < len(row) else None
        if bfer is None:
            bfer = _walk(bift, si, bit, at, known)
            row = known[at]
        delivered.append(bfer)
        bits ^= low
    return delivered


def _walk(bift, si, bit, at, known):
    """The BFER a one-bit copy of position ``bit`` of ``si`` at router
    ``at`` lands on, forwarded by ``forward_bier`` hop by hop until it is
    delivered or meets a router whose row in ``known`` holds that bit's
    landing.  Then every router it was forwarded at gets a row, checked
    by ``_row`` the first time, and that landing.  A walk that raises
    records no landing.

    A bit follows one path through a loop-free table, visiting each
    router at most once, so a walk that needs more than ``len(bift)``
    calls has met a loop, and raises BiftLoop.
    """
    mask = bit_mask(bit)
    path = []
    router = at
    for _ in range(len(bift)):
        path.append(router)
        # one copy, even over a faulty BIFT: forwarding clears each F-BM it meets
        [(next_hop, _)] = forward_bier(bift, si, mask, router)
        if next_hop == LOCAL:
            bfer = router
            break
        router = next_hop
        row = known.get(router, ())
        bfer = row[bit] if bit < len(row) else None
        if bfer is not None:
            break
    else:
        raise BiftLoop(f"SI {si} copy of bit {bit} from router {at} "
                       f"looped: more than {len(bift)} forwarding steps")
    rows = [known.get(router) or _row(bift, si, router) for router in path]
    for router, row in zip(path, rows):
        row[bit] = bfer
        known[router] = row
    return bfer


def _row(bift, si, router):
    """A reach row for ``router`` in ``si``: one landing BFER per bit
    position up to the highest bit its F-BMs hold, None until a walk
    records one.

    A multi-bit copy's bits land where their one-bit copies land only if
    no two of the router's F-BMs in ``si`` share a bit.  The row is handed
    out only after they pass that check; two F-BMs that share a bit raise
    MissingBiftEntry.  Every row a flood reads was made here.
    """
    seen = 0
    for next_hop, fbm in bift[router][si].items():
        both = seen & fbm
        if both:
            raise MissingBiftEntry(
                f"router {router}: the F-BM of SI {si} toward {next_hop} shares bit "
                f"{(both & -both).bit_length()} with another F-BM")
        seen |= fbm
    return [None] * (seen.bit_length() + 1)
