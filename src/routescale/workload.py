"""Deterministic workload generator: end-site growth and group churn.

A schedule is an ordered list of events, one per tick: event ``i``
happens at tick ``i``, so an ``Event`` is its kind and its arguments,
with no tick of its own.  Generation is fully determined by (seed,
params, topology), drawing from Python's ``random.Random`` (Mersenne
Twister) seeded with ``params.seed``.  Each uniform pick from a list (a
site's edge router, a group's source, the join-or-leave coin, a churned
group and its receiver) reads ``rng.getrandbits`` the way
``Random.choice`` does on Python 3.10 to 3.13, so it draws the index
``choice`` would, with fewer calls; the coin is a pick from the kinds
possible, which still draws when only one is.  A site's edge and every
churn draw are made inline, reading the same stream with the same calls
and widths.  A group's initial members still come from ``rng.sample``
and ``rng.randint``.

Sites come first, so site ``i`` is event ``i``: its id is its tick.
Every ``Event`` is built by ``tuple.__new__``, which makes the same
named tuple as ``Event(...)`` without running its Python-level
``__new__``.

A group is kept as its members' sorted positions in the edge router
list, nothing more: a join's receiver, the k-th edge router outside the
group in id order, is found by a forward scan over the members, so
memory grows with the members, not with groups times edge routers.
"""

import bisect
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParams
from .topology import is_int

ADD_SITE = "add_site"          # args: site_id, edge_router
ADD_GROUP = "add_group"        # args: group, source_edge
JOIN = "join"                  # args: group, receiver_edge
LEAVE = "leave"                # args: group, receiver_edge

KINDS = (ADD_SITE, ADD_GROUP, JOIN, LEAVE)


class Event(NamedTuple):
    kind: str
    args: tuple


@dataclass(frozen=True)
class Params:
    seed: int = 0
    n_sites: int = 0
    n_groups: int = 0
    members_min: int = 1
    members_max: int = 1
    churn_events: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not is_int(value):
                raise InvalidParams(f"workload {name} must be an integer, got {value!r}")
        if min(self.n_sites, self.n_groups, self.churn_events) < 0:
            raise InvalidParams("counts must be non-negative")
        if self.n_groups > 0 and not 1 <= self.members_min <= self.members_max:
            raise InvalidParams("need 1 <= members_min <= members_max")


@dataclass
class Schedule:
    events: list


def check_members_max(topo, params):
    """Nothing if a group of ``members_max`` receivers fits on the edge
    routers of ``topo``, or there is no group; else InvalidParams."""
    n_edges = len(topo.edge_routers)
    if params.n_groups > 0 and params.members_max > n_edges:
        raise InvalidParams(f"members_max {params.members_max} exceeds {n_edges} edge routers")


def generate(topo, params):
    """Deterministic schedule: site growth, group setup, then churn.

    Sources and receivers are drawn uniformly from the edge routers.
    Every Leave matches a live Join by construction.  The schedule is
    complete at return; a caller may consume its event list.
    """
    check_members_max(topo, params)
    edges = topo.edge_routers
    rng = random.Random(params.seed)
    getrandbits = rng.getrandbits
    # Event's own __new__ is Python code; the tuple's builds the same event
    new = tuple.__new__

    def below(n):
        """A uniform int in [0, n), n > 0, drawn as ``rng.choice`` draws
        its index (``Random._randbelow_with_getrandbits``)."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    events = []
    append = events.append

    # site i is event i, at tick i.  Its edge is drawn inline, as
    # below(n_edges) draws it
    n_edges = len(edges)
    width = n_edges.bit_length()
    for site_id in range(params.n_sites):
        r = getrandbits(width)
        while r >= n_edges:
            r = getrandbits(width)
        append(new(Event, (ADD_SITE, (site_id, edges[r]))))

    members = {}        # group -> sorted positions in edges of its receivers
    for group in range(params.n_groups):
        append(new(Event, (ADD_GROUP, (group, edges[below(n_edges)]))))
        # sample picks positions of a range as it picks the edges at them
        picked = rng.sample(range(n_edges), rng.randint(params.members_min, params.members_max))
        for i in picked:
            append(new(Event, (JOIN, (group, edges[i]))))
        members[group] = sorted(picked)

    # groups that can take a join / a leave, kept sorted as membership
    # changes so that each draw sees the same sequence as a fresh sort
    joinable = [g for g in range(params.n_groups) if len(members[g]) < n_edges]
    leavable = [g for g in range(params.n_groups) if members[g]]
    for _ in range(params.churn_events):
        # the coin is a choice from ["join", "leave"], or from the one
        # kind left, which still draws: below(1) reads 1-bit values
        # until one is 0.  Every draw is below() written inline
        if joinable and leavable:
            r = getrandbits(2)
            while r >= 2:
                r = getrandbits(2)
            join = r == 0
        elif joinable or leavable:
            while getrandbits(1):
                pass
            join = bool(joinable)
        else:
            break
        if join:
            n = len(joinable)
            width = n.bit_length()
            r = getrandbits(width)
            while r >= n:
                r = getrandbits(width)
            group = joinable[r]
            pos = members[group]
            n = n_edges - len(pos)
            width = n.bit_length()
            k = getrandbits(width)
            while k >= n:
                k = getrandbits(width)
            # the k-th position outside the group: each member at or
            # below the candidate pushes it one position up, and the
            # members passed are those before it
            i = k
            for p in pos:
                if p > i:
                    break
                i += 1
            pos.insert(i - k, i)
            append(new(Event, (JOIN, (group, edges[i]))))
            # n edges were outside the group before this join
            if n == 1:
                joinable.remove(group)
            if n == n_edges:
                bisect.insort(leavable, group)
        else:
            n = len(leavable)
            width = n.bit_length()
            r = getrandbits(width)
            while r >= n:
                r = getrandbits(width)
            group = leavable[r]
            pos = members[group]
            n = len(pos)
            width = n.bit_length()
            r = getrandbits(width)
            while r >= n:
                r = getrandbits(width)
            append(new(Event, (LEAVE, (group, edges[pos.pop(r)]))))
            # the group had n members before this leave
            if n == 1:
                leavable.remove(group)
            if n == n_edges:
                bisect.insort(joinable, group)

    return Schedule(events)
