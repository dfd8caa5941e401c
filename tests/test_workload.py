import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_topology,
    reference_generate,
    schedule_from_text,
    schedule_to_text,
    seeded,
)
from routescale import workload
from routescale.errors import InvalidParams, ScenarioError
from routescale.generators import gen_topology
from routescale.harness import build_scenario, load_scenario
from routescale.topology import build_topology
from routescale.workload import Params, generate

FIXTURES = Path(__file__).parent / "fixtures"
BENCH_WORKLOADS = sorted((Path(__file__).parent.parent / "bench" / "workloads").glob("*.json"))


def line3():
    return build_topology([(0, "edge"), (1, "core"), (2, "edge")], [(0, 1, 1), (1, 2, 1)])


class TestGenerate:
    def test_empty_params_give_empty_schedule(self):
        schedule = generate(line3(), Params(seed=1))
        assert schedule.events == []

    def test_same_seed_is_byte_identical(self):
        params = Params(seed=1, n_sites=3, n_groups=4, members_min=1,
                        members_max=2, churn_events=20)
        a = generate(line3(), params)
        b = generate(line3(), params)
        assert schedule_to_text(a) == schedule_to_text(b)

    def test_setup_phase_event_counts(self):
        params = Params(seed=5, n_groups=10, members_min=2, members_max=2)
        schedule = generate(line3(), params)
        kinds = [e.kind for e in schedule.events]
        assert kinds.count(workload.ADD_GROUP) == 10
        assert kinds.count(workload.JOIN) == 20
        assert len(schedule.events) == 30

    def test_members_max_must_fit_edge_count(self):
        with pytest.raises(InvalidParams):
            generate(line3(), Params(seed=1, n_groups=1, members_min=1, members_max=5))

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidParams):
            generate(line3(), Params(seed=1, n_sites=-1))

    def test_unknown_param_key_rejected(self):
        # a scenario's workload section is the one way to name a param
        with pytest.raises(ScenarioError, match=re.escape("unknown workload keys: ['bogus']")):
            build_scenario({"topology": {"kind": "line", "size": 3},
                            "workload": {"seed": 1, "bogus": 2}})


class TestWellFormedness:
    def test_every_leave_matches_a_live_join(self):
        rng = seeded(61)
        for _ in range(30):
            topo = random_topology(rng, rng.randint(2, 8))
            params = Params(seed=rng.randrange(10**6),
                            n_groups=rng.randint(0, 4),
                            members_min=1,
                            members_max=min(3, len(topo.edge_routers)),
                            churn_events=rng.randint(0, 30))
            schedule = generate(topo, params)
            membership = {}
            for ev in schedule.events:
                if ev.kind == workload.ADD_GROUP:
                    membership[ev.args[0]] = set()
                elif ev.kind == workload.JOIN:
                    group, receiver = ev.args
                    assert receiver not in membership[group]
                    membership[group].add(receiver)
                elif ev.kind == workload.LEAVE:
                    group, receiver = ev.args
                    assert receiver in membership[group]
                    membership[group].remove(receiver)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.data())
def test_generate_matches_resorting_reference(seed, n, data):
    topo = random_topology(seeded(seed), n)
    n_edges = len(topo.edge_routers)
    # members_max up to every edge, so full groups leave the joinable
    # list and emptied groups the leavable one
    members_max = data.draw(st.integers(min_value=1, max_value=n_edges))
    params = Params(seed=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
                    n_sites=data.draw(st.integers(min_value=0, max_value=5)),
                    n_groups=data.draw(st.integers(min_value=0, max_value=4)),
                    members_min=data.draw(st.integers(min_value=1, max_value=members_max)),
                    members_max=members_max,
                    churn_events=data.draw(st.integers(min_value=0, max_value=80)))
    assert generate(topo, params).events == reference_generate(topo, params).events


# an event holds no tick: event i is at tick i, so run and the state
# oracles read a tick from an index, and a site event's id is its tick
@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.data())
def test_event_i_is_at_tick_i_and_a_site_id_is_its_tick(seed, n, data):
    topo = random_topology(seeded(seed), n)
    members_max = data.draw(st.integers(min_value=1, max_value=len(topo.edge_routers)))
    params = Params(seed=data.draw(st.integers(min_value=0, max_value=2**32 - 1)),
                    n_sites=data.draw(st.integers(min_value=0, max_value=300)),
                    n_groups=data.draw(st.integers(min_value=0, max_value=4)),
                    members_min=data.draw(st.integers(min_value=1, max_value=members_max)),
                    members_max=members_max,
                    churn_events=data.draw(st.integers(min_value=0, max_value=40)))
    events = generate(topo, params).events
    assert all(event._fields == ("kind", "args") for event in events)
    sites = [tick for tick, event in enumerate(events) if event.kind == workload.ADD_SITE]
    assert sites == list(range(params.n_sites))
    assert all(events[tick].args[0] == tick for tick in sites)


# 800 edge routers and groups of up to 100 members: member lists far
# longer than the ladder's, most of each group's positions outside it
FAT_EDGE_1000_GROUPS = {
    "topology": {"kind": "fat-edge", "size": 1000},
    "workload": {"seed": 1, "n_groups": 40, "members_min": 2, "members_max": 100,
                 "churn_events": 400},
    "modes": ["stateful_mcast"],
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 13, 21])
@pytest.mark.parametrize("source", BENCH_WORKLOADS + [FAT_EDGE_1000_GROUPS],
                         ids=lambda source: getattr(source, "stem", "fat_edge_1000_groups"))
def test_generate_matches_resorting_reference_on_benchmark_workloads(source, seed):
    # the ladder's lists (44 to 96 edge routers, up to 120 groups) are
    # longer than any the hypothesis test above draws from
    scenario = build_scenario(source) if isinstance(source, dict) else load_scenario(source)
    params = replace(scenario.workload, seed=seed)
    assert generate(scenario.topology, params).events == reference_generate(
        scenario.topology, params).events


def churn_kinds(topo, events, members):
    """The kinds a one-group schedule's churn could draw, one set per
    churn event, read from the membership before it; the group starts
    with ``members`` receivers."""
    n_edges = len(topo.edge_routers)
    receivers = set()
    kinds = []
    for i, event in enumerate(events):
        if i > members:      # past add_group and the initial joins
            kinds.append(frozenset(
                ({workload.JOIN} if len(receivers) < n_edges else set())
                | ({workload.LEAVE} if receivers else set())))
        if event.kind == workload.JOIN:
            receivers.add(event.args[1])
        elif event.kind == workload.LEAVE:
            receivers.remove(event.args[1])
    return kinds


# a group as large as the edge set can only leave, and once it is empty
# it can only join: the coin then draws from one kind, reading 1-bit
# values until one is 0, so a coin that read a single bit would shift
# every later draw
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["line 3", "star 4"])
def test_one_kind_left_coin_matches_resorting_reference(name, seed):
    kind, size = name.split()
    spec = gen_topology(kind, int(size))
    topo = build_topology(spec["routers"], spec["links"])
    n_edges = len(topo.edge_routers)
    params = Params(seed=seed, n_groups=1, members_min=n_edges, members_max=n_edges,
                    churn_events=60)
    events = generate(topo, params).events
    assert events == reference_generate(topo, params).events
    kinds = churn_kinds(topo, events, n_edges)
    assert len(kinds) == params.churn_events
    assert kinds[0] == {workload.LEAVE}
    assert {workload.JOIN} in kinds


class TestTextFormat:
    def test_round_trip(self):
        params = Params(seed=2, n_sites=2, n_groups=2, members_min=1,
                        members_max=2, churn_events=8)
        schedule = generate(line3(), params)
        assert schedule_from_text(schedule_to_text(schedule)) == schedule

    def test_other_rng_rejected(self):
        with pytest.raises(InvalidParams):
            schedule_from_text("# rng python-random-pcg64\n0 add_site 0 0\n")

    def test_frozen_fixture_regression(self):
        params = Params(seed=1, n_sites=2, n_groups=2, members_min=1,
                        members_max=2, churn_events=6)
        schedule = generate(line3(), params)
        expected = (FIXTURES / "schedule_line3_seed1.txt").read_text()
        assert schedule_to_text(schedule) == expected
        # each of its lines' ticks is the line's index among the events
        assert schedule_from_text(expected) == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParams):
            schedule_from_text("0 teleport 1 2\n")

    @pytest.mark.parametrize("text", ["1 add_site 0 0\n", "0 add_site 0 0\n0 add_site 1 0\n",
                                      "0 add_site 0 0\n2 add_site 1 0\n"])
    def test_tick_other_than_the_event_index_rejected(self, text):
        with pytest.raises(InvalidParams, match="event [01] at tick [012]"):
            schedule_from_text(text)
