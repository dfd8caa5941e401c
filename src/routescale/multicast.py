"""Stateful source-specific multicast: join/prune driven (S,G) state.

Joins walk the reverse shortest path from the receiver's edge router
toward the source's edge router, installing per-router (S,G) entries of
{incoming interface, outgoing interface set}.  Because next hops are a
deterministic function of (router, destination), join paths from
different receivers merge into one consistent tree.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import NoState, NotJoined, RpfFailure

LOCAL = "local"           # iif at the source edge; oif meaning local delivery


class SgKey(NamedTuple):
    """(S,G) of a source-specific group; hashed and ordered as a tuple."""

    source_edge: int
    group: int


@dataclass
class SgEntry:
    iif: object                      # upstream neighbor RouterId, or LOCAL
    oifs: set = field(default_factory=set)   # neighbor ids and/or LOCAL


class SgState:
    """Per-router map SgKey -> SgEntry.

    ``changed`` collects every router where an entry was created or
    deleted, the only writes that change a router's entry count; its
    reader clears it.
    """

    def __init__(self):
        self.entries = {}            # router -> {SgKey: SgEntry}
        self.changed = set()

    def entry(self, router, sg):
        return self.entries.get(router, {}).get(sg)

    def _install(self, router, sg, iif):
        table = self.entries.setdefault(router, {})
        entry = table.get(sg)
        if entry is None:
            entry = table[sg] = SgEntry(iif)
            self.changed.add(router)
        return entry

    def _delete(self, router, sg):
        table = self.entries[router]
        del table[sg]
        self.changed.add(router)
        if not table:
            del self.entries[router]

    def count(self, router):
        return len(self.entries.get(router, {}))


def join(state, topo, sg, receiver_edge):
    """Graft ``receiver_edge`` onto the (S,G) tree.

    Walks from the receiver toward the source edge; stops as soon as a
    router already has the required downstream interface (the tree above
    is already in place).  Idempotent.  The next-hop table toward the
    source, ``topo.toward``, is read once per join.
    """
    topo.require(receiver_edge)
    toward = topo.toward(sg.source_edge)    # UnknownRouter for an unknown source
    cur = receiver_edge
    downstream = LOCAL
    while True:
        iif = LOCAL if cur == sg.source_edge else toward[cur]
        entry = state._install(cur, sg, iif)
        if downstream in entry.oifs:
            return state
        entry.oifs.add(downstream)
        if iif == LOCAL:
            return state
        downstream = cur
        cur = iif


def leave(state, topo, sg, receiver_edge):
    """Prune ``receiver_edge`` from the (S,G) tree.

    Removes local delivery at the receiver edge and propagates the prune
    upstream as long as entries run out of outgoing interfaces.
    """
    topo.require(receiver_edge)
    entry = state.entry(receiver_edge, sg)
    if entry is None or LOCAL not in entry.oifs:
        raise NotJoined(f"{sg} has no local receiver at router {receiver_edge}")
    cur = receiver_edge
    oif = LOCAL
    while True:
        entry.oifs.discard(oif)
        if entry.oifs:
            return state
        state._delete(cur, sg)
        if entry.iif == LOCAL:
            return state
        oif = cur
        cur = entry.iif
        entry = state.entry(cur, sg)


def forward_multicast(state, sg, at, arrived_from):
    """Replicate at one router: returns the entry's outgoing interfaces.

    ``arrived_from`` must equal the entry's incoming interface (RPF
    check); LOCAL means the packet was injected by the source.  The
    returned set is the entry's own, not a copy: callers must not
    modify it.
    """
    entry = state.entry(at, sg)
    if entry is None:
        raise NoState(f"router {at} has no state for {sg}")
    if arrived_from != entry.iif:
        raise RpfFailure(
            f"router {at}: {sg} arrived from {arrived_from}, expected {entry.iif}"
        )
    return entry.oifs


def simulate_delivery(state, sg):
    """Edge routers receiving a local copy when the source injects one packet.

    The list is a multiset in no particular order: one element per local
    copy, so a duplicate delivery shows as a repeated router.
    """
    delivered = []
    if state.entry(sg.source_edge, sg) is None:
        return delivered
    stack = [(sg.source_edge, LOCAL)]
    while stack:
        at, arrived_from = stack.pop()
        for oif in forward_multicast(state, sg, at, arrived_from):
            if oif == LOCAL:
                delivered.append(at)
            else:
                stack.append((oif, at))
    return delivered
