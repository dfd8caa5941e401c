"""Deterministic workload generator: end-site growth and group churn.

A schedule is an ordered list of integer-tick events, one per tick.
Generation is fully determined by (seed, params, topology), drawing
from Python's ``random.Random`` (Mersenne Twister) seeded with
``params.seed``.  Each uniform pick from a list (a site's edge router,
a group's source, the join-or-leave coin, a churned group and its
receiver) reads ``rng.getrandbits`` the way ``Random.choice`` does on
Python 3.10 to 3.13, so it draws the index ``choice`` would, with fewer
calls; the coin is a pick from the kinds possible, which still draws
when only one is.  A group's initial members still come from
``rng.sample`` and ``rng.randint``.

A group is kept as its members' sorted positions in the edge router
list, nothing more: a join's receiver, the k-th edge router outside the
group in id order, is found from the members by bisection, so memory
grows with the members, not with groups times edge routers.
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
    tick: int
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

    def below(n):
        """A uniform int in [0, n), n > 0, drawn as ``rng.choice`` draws
        its index (``Random._randbelow_with_getrandbits``)."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    events = []
    tick = 0

    n_edges = len(edges)
    for site_id in range(params.n_sites):
        events.append(Event(tick, ADD_SITE, (site_id, edges[below(n_edges)])))
        tick += 1

    members = {}        # group -> sorted positions in edges of its receivers
    for group in range(params.n_groups):
        events.append(Event(tick, ADD_GROUP, (group, edges[below(n_edges)])))
        tick += 1
        # sample picks positions of a range as it picks the edges at them
        picked = rng.sample(range(n_edges), rng.randint(params.members_min, params.members_max))
        for i in picked:
            events.append(Event(tick, JOIN, (group, edges[i])))
            tick += 1
        members[group] = sorted(picked)

    # groups that can take a join / a leave, kept sorted as membership
    # changes so that each draw sees the same sequence as a fresh sort
    joinable = [g for g in range(params.n_groups) if len(members[g]) < n_edges]
    leavable = [g for g in range(params.n_groups) if members[g]]
    for _ in range(params.churn_events):
        # the coin is a choice from ["join", "leave"], or from the one
        # kind left, which still draws
        if joinable and leavable:
            join = below(2) == 0
        elif joinable or leavable:
            below(1)
            join = bool(joinable)
        else:
            break
        if join:
            group = joinable[below(len(joinable))]
            pos = members[group]
            k = below(n_edges - len(pos))
            # the k-th position outside the group is k plus the number of
            # members j with pos[j] - j, the outsiders before pos[j], <= k
            j = bisect.bisect_right(range(len(pos)), k, key=lambda i: pos[i] - i)
            pos.insert(j, k + j)
            events.append(Event(tick, JOIN, (group, edges[k + j])))
            if len(pos) == n_edges:
                joinable.remove(group)
            if len(pos) == 1:
                bisect.insort(leavable, group)
        else:
            group = leavable[below(len(leavable))]
            pos = members[group]
            events.append(Event(tick, LEAVE, (group, edges[pos.pop(below(len(pos)))])))
            if not pos:
                leavable.remove(group)
            if len(pos) == n_edges - 1:
                bisect.insort(joinable, group)
        tick += 1

    return Schedule(events)

