"""Stateful source-specific multicast: join/prune driven (S,G) state.

Joins walk the reverse shortest path from the receiver's edge router
toward the source's edge router, installing per-router (S,G) entries of
{incoming interface, outgoing interface set}.  Because next hops are a
deterministic function of (router, destination), join paths from
different receivers merge into one consistent tree.  A tree is only
ever written and read as a whole, one (S,G) at a time, so the state is
stored tree-first: each join, prune or delivery walk reads one dict.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import NoState, NotJoined, RpfFailure

LOCAL = "local"           # iif at the source edge; oif meaning local delivery


class SgKey(NamedTuple):
    """(S,G) of a source-specific group; hashed and ordered as a tuple."""

    source_edge: int
    group: int


@dataclass(slots=True)
class SgEntry:
    iif: object                      # upstream neighbor RouterId, or LOCAL
    oifs: set = field(default_factory=set)   # neighbor ids and/or LOCAL


class SgState:
    """(S,G) trees, ``trees[sg] = {router: SgEntry}``, and each router's
    entry count, ``counts[router]``: the number of trees that hold it.

    ``join`` and ``leave`` keep both; a tree whose last entry is deleted
    is dropped.  ``changed`` collects every router where an entry was
    created or deleted, the only writes that change a router's count;
    its reader clears it.
    """

    def __init__(self):
        self.trees = {}              # SgKey -> {router: SgEntry}
        self.counts = {}             # router -> entries
        self.changed = set()

    def count(self, router):
        return self.counts.get(router, 0)


def join(state, topo, sg, receiver_edge):
    """Graft ``receiver_edge`` onto the (S,G) tree.

    Walks from the receiver toward the source edge; stops as soon as a
    router already has the required downstream interface (the tree above
    is already in place).  Idempotent.  The next-hop table toward the
    source, ``topo.toward``, is read once per join.
    """
    topo.require(receiver_edge)
    source = sg.source_edge
    toward = topo.toward(source)            # UnknownRouter for an unknown source
    tree = state.trees.get(sg)
    if tree is None:
        tree = state.trees[sg] = {}
    counts = state.counts
    cur = receiver_edge
    downstream = LOCAL
    while True:
        entry = tree.get(cur)
        if entry is None:
            entry = tree[cur] = SgEntry(LOCAL if cur == source else toward[cur])
            counts[cur] = counts.get(cur, 0) + 1
            state.changed.add(cur)
        elif downstream in entry.oifs:
            return state
        entry.oifs.add(downstream)
        if cur == source:
            return state
        downstream = cur
        cur = entry.iif


def leave(state, topo, sg, receiver_edge):
    """Prune ``receiver_edge`` from the (S,G) tree.

    Removes local delivery at the receiver edge and propagates the prune
    upstream as long as entries run out of outgoing interfaces.  An
    upstream router without an entry raises NoState.
    """
    topo.require(receiver_edge)
    tree = state.trees.get(sg, {})
    entry = tree.get(receiver_edge)
    if entry is None or LOCAL not in entry.oifs:
        raise NotJoined(f"{sg} has no local receiver at router {receiver_edge}")
    cur = receiver_edge
    oif = LOCAL
    while True:
        entry.oifs.discard(oif)
        if entry.oifs:
            return state
        del tree[cur]
        state.counts[cur] -= 1
        state.changed.add(cur)
        if not tree:
            del state.trees[sg]
        if entry.iif == LOCAL:
            return state
        oif = cur
        cur = entry.iif
        entry = tree.get(cur)
        if entry is None:
            raise NoState(f"router {cur} has no state for {sg}, upstream of router {oif}")


def simulate_delivery(state, sg):
    """Edge routers receiving a local copy when the source injects one packet.

    Each router a copy reaches must hold an entry (else NoState), and the
    copy must arrive on that entry's incoming interface, LOCAL at the
    source edge (the RPF check; else RpfFailure).  The list is a multiset
    in no particular order: one element per local copy, so a duplicate
    delivery shows as a repeated router.
    """
    delivered = []
    tree = state.trees.get(sg)
    if tree is None or sg.source_edge not in tree:
        return delivered
    stack = [(sg.source_edge, LOCAL)]
    while stack:
        at, arrived_from = stack.pop()
        entry = tree.get(at)
        if entry is None:
            raise NoState(f"router {at} has no state for {sg}")
        if entry.iif != arrived_from:
            raise RpfFailure(
                f"router {at}: {sg} arrived from {arrived_from}, expected {entry.iif}")
        for oif in entry.oifs:
            if oif == LOCAL:
                delivered.append(at)
            else:
                stack.append((oif, at))
    return delivered
