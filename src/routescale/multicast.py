"""Stateful source-specific multicast: join/prune driven (S,G) state.

Joins walk the reverse shortest path from the receiver's edge router
toward the source's edge router, installing at each router an (S,G)
entry that is its outgoing interfaces: downstream neighbours and/or
``LOCAL`` for local delivery.  Most entries hold one oif, and such an
entry holds it bare (the router id, or ``LOCAL``); a ``set`` is made
only at the second oif, so each size has one form.  An entry stores no
incoming interface.  As in PIM-SM, a router's RPF neighbour toward the
source is read from the unicast next-hop table, ``topo.toward(source)``,
not kept as join state, so joins, prunes and the delivery walk's RPF
check all read the one table.  Because next hops are a deterministic
function of (router, destination), join paths from different receivers
merge into one consistent tree.  A tree is only ever written and read
as a whole, one (S,G) at a time, so the state is stored tree-first:
each join, prune or delivery walk reads one dict.
"""

from typing import NamedTuple

from .errors import NoState, NotJoined, RpfFailure

LOCAL = "local"           # oif meaning local delivery


class SgKey(NamedTuple):
    """(S,G) of a source-specific group; hashed and ordered as a tuple."""

    source_edge: int
    group: int


class SgState:
    """(S,G) trees, ``trees[sg] = {router: oif or set of >= 2 oifs}``,
    and each router's entry count, ``counts[router]``: the number of
    trees that hold it.

    ``join`` and ``leave`` keep both; an entry is deleted when its last
    oif is, goes back to bare when one oif is left in its set, and a
    tree whose last entry is deleted is dropped.
    ``changed`` collects every router where an entry was created or
    deleted, the only writes that change a router's count; its reader
    clears it.
    """

    def __init__(self):
        self.trees = {}              # SgKey -> {router: oif or set of >= 2 oifs}
        self.counts = {}             # router -> entries
        self.changed = set()

    def count(self, router):
        return self.counts.get(router, 0)


def join(state, topo, sg, receiver_edge):
    """Graft ``receiver_edge`` onto the (S,G) tree.

    Walks from the receiver toward the source edge through the next-hop
    table toward the source, ``topo.toward``, read once per join.  The
    walk stops at the first router that already has an entry: a router
    holds an entry only while the branch above it, up to the source, is
    in place.  Idempotent.
    """
    topo.require(receiver_edge)
    source = sg.source_edge
    toward = topo.toward(source)            # UnknownRouter for an unknown source
    tree = state.trees.get(sg)
    if tree is None:
        tree = state.trees[sg] = {}
    counts = state.counts
    changed = state.changed
    cur = receiver_edge
    downstream = LOCAL
    while True:
        oifs = tree.get(cur)
        if oifs is not None:
            if oifs.__class__ is set:
                oifs.add(downstream)
            elif oifs != downstream:
                tree[cur] = {oifs, downstream}
            return state
        tree[cur] = downstream
        counts[cur] = counts.get(cur, 0) + 1
        changed.add(cur)
        if cur == source:
            return state
        downstream = cur
        cur = toward[cur]


def leave(state, topo, sg, receiver_edge):
    """Prune ``receiver_edge`` from the (S,G) tree.

    Removes local delivery at the receiver edge and propagates the prune
    upstream, through the next-hop table toward the source, as long as
    entries run out of outgoing interfaces; it stops at the source.  An
    upstream router without an entry raises NoState.
    """
    topo.require(receiver_edge)
    tree = state.trees.get(sg, {})
    oifs = tree.get(receiver_edge)
    if oifs is None or (LOCAL not in oifs if oifs.__class__ is set else oifs != LOCAL):
        raise NotJoined(f"{sg} has no local receiver at router {receiver_edge}")
    source = sg.source_edge
    toward = topo.toward(source)
    cur = receiver_edge
    oif = LOCAL
    while True:
        if oifs.__class__ is set:
            oifs.discard(oif)
            if len(oifs) == 1:
                tree[cur] = oifs.pop()
            return state
        if oifs != oif:
            return state
        del tree[cur]
        state.counts[cur] -= 1
        state.changed.add(cur)
        if not tree:
            del state.trees[sg]
        if cur == source:
            return state
        oif = cur
        cur = toward[cur]
        oifs = tree.get(cur)
        if oifs is None:
            raise NoState(f"router {cur} has no state for {sg}, upstream of router {oif}")


def simulate_delivery(state, topo, sg):
    """Edge routers receiving a local copy when the source injects one packet.

    The source edge replicates to its oifs, and so does each router a
    copy reaches.  A copy sent from ``at`` to router ``oif`` must find an
    entry there (else NoState) and must come from ``oif``'s RPF
    neighbour, ``topo.toward(source)[oif]`` (the RPF check; else
    RpfFailure).  The source has no RPF neighbour, so a copy sent to it
    always fails the check; and since a router's RPF neighbour is one
    hop nearer the source, a walk around an oif cycle fails it too.  The
    list is a multiset in no particular order: one element per local
    copy, so a duplicate delivery shows as a repeated router.
    """
    delivered = []
    source = sg.source_edge
    tree = state.trees.get(sg)
    if tree is None or source not in tree:
        return delivered
    toward = topo.toward(source)
    stack = [source]
    while stack:
        at = stack.pop()
        oifs = tree[at]
        if oifs.__class__ is set:
            if LOCAL in oifs:
                delivered.append(at)
            for oif in oifs:
                if oif in tree:
                    if toward[oif] != at or oif == source:
                        expected = "none at the source" if oif == source else toward[oif]
                        raise RpfFailure(
                            f"router {oif}: {sg} arrived from {at}, expected {expected}")
                    stack.append(oif)
                elif oif != LOCAL:
                    raise NoState(f"router {oif} has no state for {sg}")
        elif oifs == LOCAL:
            delivered.append(at)
        elif oifs in tree:
            if toward[oifs] != at or oifs == source:
                expected = "none at the source" if oifs == source else toward[oifs]
                raise RpfFailure(f"router {oifs}: {sg} arrived from {at}, expected {expected}")
            stack.append(oifs)
        else:
            raise NoState(f"router {oifs} has no state for {sg}")
    return delivered
