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


def generate(topo, params):
    """Deterministic schedule: site growth, group setup, then churn.

    Sources and receivers are drawn uniformly from the edge routers.
    Every Leave matches a live Join by construction.
    """
    edges = topo.edge_routers
    if params.n_groups > 0 and params.members_max > len(edges):
        raise InvalidParams(
            f"members_max {params.members_max} exceeds {len(edges)} edge routers"
        )

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

    members = {}        # group -> sorted receiver edges
    outside = {}        # group -> sorted edges not receiving
    for group in range(params.n_groups):
        events.append(Event(tick, ADD_GROUP, (group, edges[below(n_edges)])))
        tick += 1
        receivers = rng.sample(edges, rng.randint(params.members_min, params.members_max))
        for receiver in receivers:
            events.append(Event(tick, JOIN, (group, receiver)))
            tick += 1
        members[group] = sorted(receivers)
        outside[group] = sorted(set(edges) - set(receivers))

    # groups that can take a join / a leave, kept sorted as membership
    # changes so that each draw sees the same sequence as a fresh sort
    joinable = [g for g in sorted(members) if outside[g]]
    leavable = [g for g in sorted(members) if members[g]]
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
            candidates = outside[group]
            receiver = candidates[below(len(candidates))]
            events.append(Event(tick, JOIN, (group, receiver)))
            _move(receiver, candidates, members[group])
            if not candidates:
                joinable.remove(group)
            if len(members[group]) == 1:
                bisect.insort(leavable, group)
        else:
            group = leavable[below(len(leavable))]
            candidates = members[group]
            receiver = candidates[below(len(candidates))]
            events.append(Event(tick, LEAVE, (group, receiver)))
            _move(receiver, candidates, outside[group])
            if not candidates:
                leavable.remove(group)
            if len(outside[group]) == 1:
                bisect.insort(joinable, group)
        tick += 1

    return Schedule(events)


def _move(item, source, dest):
    """Move ``item`` from sorted list ``source`` into sorted list ``dest``."""
    source.remove(item)
    bisect.insort(dest, item)
