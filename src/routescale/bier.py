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

The harness keeps each group's bitstrings as the BFIR's state, setting
and clearing bits as receivers join and leave, and sends one packet per
Set Identifier: a flood takes its SI and bitstring as plain ints, and
every copy inside it is a ``(next hop, bits)`` pair within that SI.

Where a bit lands depends only on the BIFT, and a multi-bit copy's
bits land where their one-bit copies land once every F-BM holds only
bits that its own slot routes to the same next hop.  A flood keeps those
landings in a *reach table*, ``{si: {router: row}}``, where a row is a
list aligned with the router's BIFT slots in that SI, holding the BFER
each bit position lands on (None until known).  It depends on the BIFT
alone, so every flood over one BIFT may share it, and no other flood
state is needed.  A flood looks each set bit up in its ingress's row; a
miss forwards that one bit hop by hop, so no flood forwards a multi-bit
copy, and a table forwards each (SI, router, bit) at most once.  A
router gets a row only after its slots in that SI pass the F-BM check,
so the property is checked, at replay and never at build time.  The
table holds at most one landing per router and BFER.
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
    BFER itself.  Returns ``{router: {si: slots}}``, the compact form the
    module docstring describes.

    RFC 8279 section 6 derives the BIFT from the unicast next hops; only
    hub tables are read (see ``Topology.hub``).  A single-homed router
    sends every bit but its own to its hub, so its row is one F-BM per
    SI, and the slots of an SI it holds no bit in are shared by every
    single-homed router of that hub.  Any other router's next hop toward
    a single-homed BFER is the BFER itself at its hub, and elsewhere its
    next hop toward that hub, so it calls ``next_hop`` once per hub and
    per multi-link BFER.  Its slots are filled by walking each F-BM's
    set bits.

    A pure function of (topology, placements): group churn never touches it.
    """
    for bfer in placements:
        topo.require(bfer)
    width = {}     # si -> highest bit position in use
    full = {}      # si -> every bit in use
    behind = {}    # hub or multi-link BFER -> [(BFER, si, mask)] it reaches
    via = {}       # the same targets -> {si: OR of those masks}
    for bfer, (si, bit) in placements.items():
        mask = bit_mask(bit)
        width[si] = max(width.get(si, 0), bit)
        full[si] = full.get(si, 0) | mask
        hub = topo.hub(bfer)
        target = bfer if hub is None else hub
        behind.setdefault(target, []).append((bfer, si, mask))
        bits = via.setdefault(target, {})
        bits[si] = bits.get(si, 0) | mask
    # slot 0 and the positions no BFER holds
    unused = {si: [0] + [b for b in range(1, w + 1) if not full[si] & bit_mask(b)]
              for si, w in width.items()}

    def spread(si, pair):
        """Slots of ``si`` holding ``pair`` at every position in use."""
        row = [pair] * (width[si] + 1)
        for b in unused[si]:
            row[b] = None
        return row

    shared = {}    # (hub, si) -> slots sending every bit of si to the hub
    bift = {}
    for router in topo.roles:
        hub = topo.hub(router)
        if hub is not None:
            own_si, own_bit = placements.get(router, (None, None))
            row = {}
            for si in width:
                if si == own_si:
                    own = bit_mask(own_bit)
                    # (hub, 0) lands only on own_bit when the SI holds no other bit
                    slots = spread(si, (hub, full[si] & ~own))
                    slots[own_bit] = (LOCAL, own)
                    row[si] = tuple(slots)
                else:
                    slots = shared.get((hub, si))
                    if slots is None:
                        slots = shared[(hub, si)] = tuple(spread(si, (hub, full[si])))
                    row[si] = slots
            bift[router] = row
            continue
        # group same-SI bits by next hop to form the F-BMs
        fbms = {}      # (si, next_hop) -> fbm
        for target, bits_of in via.items():
            if target == router:
                # its own bit, and its single-homed BFERs one link away
                for bfer, si, mask in behind[target]:
                    nh = LOCAL if bfer == router else bfer
                    fbms[(si, nh)] = fbms.get((si, nh), 0) | mask
                continue
            nh = topo.next_hop(router, target)
            for si, bits in bits_of.items():
                fbms[(si, nh)] = fbms.get((si, nh), 0) | bits
        slots = {si: [None] * (w + 1) for si, w in width.items()}
        for (si, nh), fbm in fbms.items():
            pair = (nh, fbm)
            row = slots[si]
            while fbm:
                low = fbm & -fbm
                row[low.bit_length()] = pair
                fbm ^= low
        bift[router] = {si: tuple(row) for si, row in slots.items()}
    return bift


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
    multi-bit copy is forwarded: every row passed ``_row``'s F-BM check,
    so each bit of a multi-bit copy would land where its one-bit copy
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
    """A reach row for ``router`` in ``si``: one landing BFER per slot of
    its BIFT, None until a walk records one.

    A multi-bit copy's bits land where their one-bit copies land only if
    every F-BM holds just bits that their own slots route to the same next
    hop.  The row is handed out only after ``router``'s slots pass that
    check; an F-BM holding a bit routed elsewhere, or held by no slot,
    raises MissingBiftEntry.  Every row a flood reads was made here.
    """
    slots = bift[router][si]
    routed = {}     # next hop -> OR of the bits whose slot names it
    mask = 1
    for entry in slots[1:]:
        if entry is not None:
            routed[entry[0]] = routed.get(entry[0], 0) | mask
        mask <<= 1
    for bit, entry in enumerate(slots[1:], start=1):
        if entry is not None:
            next_hop, fbm = entry
            stray = fbm & ~routed[next_hop]
            if stray:
                raise MissingBiftEntry(
                    f"router {router}: the BIFT entry for SI {si} bit {bit} has an F-BM "
                    f"with bit {(stray & -stray).bit_length()}, which its own slot "
                    f"does not route to {next_hop}")
    return [None] * len(slots)
