import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DeliveryRow,
    assert_rows_match_schedule,
    bfer_placements,
    encapsulate_bier,
    expand_bift,
    expand_report,
    full_probe,
    full_snapshot,
    random_topology,
    reference_emit_csv,
    seeded,
    sg_as_dict,
)
from routescale import bier, harness, multicast, unicast, workload
from routescale.errors import DeliveryMismatch, ScenarioError, SimError
from routescale.harness import (
    MODES,
    DeliverySnapshot,
    Scenario,
    SimState,
    StateSnapshot,
    auto_providers,
    build_scenario,
    emit_csv,
    load_scenario,
    run,
)
from routescale.topology import build_topology
from routescale.unicast import MAX_SITES
from routescale.workload import Event

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLE_SCENARIO = Path(__file__).parent.parent / "scenarios" / "example.json"


def small_config(**overrides):
    config = {
        "topology": {"kind": "line", "size": 3},
        "workload": {"seed": 1, "n_sites": 2, "n_groups": 2,
                     "members_min": 1, "members_max": 2, "churn_events": 6},
        "bsl": 8,
        "snapshot_interval": 5,
    }
    config.update(overrides)
    return config


class TestScenarioLoading:
    def test_example_scenario_loads(self):
        scenario = load_scenario(EXAMPLE_SCENARIO)
        assert len(scenario.topology.roles) == 12

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario(small_config(frobnicate=1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario(small_config(modes=["flat", "warp"]))

    def test_repeated_mode_rejected(self):
        with pytest.raises(ScenarioError, match="more than once"):
            build_scenario(small_config(modes=["bier", "flat", "bier"]))

    def test_empty_mode_list_rejected(self):
        with pytest.raises(ScenarioError, match="no mode"):
            build_scenario(small_config(modes=[]))

    def test_missing_topology_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario({"workload": {}})

    def test_members_max_checked_against_edges(self):
        with pytest.raises(ScenarioError):
            build_scenario(small_config(
                workload={"seed": 1, "n_groups": 1, "members_min": 1, "members_max": 9}))

    def test_explicit_providers(self):
        config = small_config(providers=[
            {"id": 0, "routers": [0, 1]},
            {"id": 1, "routers": [2]},
        ])
        scenario = build_scenario(config)
        assert {p.provider_id for p in scenario.providers} == {0, 1}

    def test_provider_with_two_edges_rejected(self):
        config = small_config(providers=[{"id": 0, "routers": [0, 1, 2]}])
        with pytest.raises(ScenarioError):
            build_scenario(config)

    def test_provider_without_routers_rejected(self):
        # a provider's locator is anchored at one of its routers
        config = small_config(modes=["flat"], providers=[
            {"id": 0, "routers": [0, 1]},
            {"id": 1, "routers": [2]},
            {"id": 2, "routers": []},
        ])
        with pytest.raises(ScenarioError, match="provider 2 owns no router"):
            build_scenario(config)


class TestProviderValidation:
    """Providers exist for the unicast modes only; /8 locators cap them at 128."""

    def star200(self, modes):
        return small_config(topology={"kind": "star", "size": 200}, modes=modes, bsl=64,
                            workload={"seed": 3, "n_groups": 4, "members_min": 2,
                                      "members_max": 80, "churn_events": 40})

    def test_bier_only_beyond_the_limit_builds(self):
        scenario = build_scenario(self.star200(["bier"]))
        assert scenario.providers == []
        sim = SimState(scenario)
        # 199 BFERs at BSL 64 span four Set Identifiers
        assert {si for si, _ in sim.bit_of.values()} == {0, 1, 2, 3}

    def test_unicast_mode_beyond_the_limit_rejected(self):
        with pytest.raises(ScenarioError, match="at most 128"):
            build_scenario(self.star200(["flat", "bier"]))

    def test_explicit_provider_id_out_of_range_rejected(self):
        config = small_config(providers=[{"id": 0, "routers": [0, 1]},
                                         {"id": 128, "routers": [2]}])
        with pytest.raises(ScenarioError, match="out of range"):
            build_scenario(config)

    def test_provider_entry_without_id_rejected(self):
        with pytest.raises(ScenarioError, match="missing key"):
            build_scenario(small_config(providers=[{"routers": [0, 1, 2]}]))

    def test_providers_ignored_without_unicast_modes(self):
        config = small_config(modes=["bier"], providers=[{"id": 0, "routers": [0, 1, 2]}])
        assert build_scenario(config).providers == []


class TestSiteIdValidation:
    """Unicast modes give each site a /24 identifier under 1/1: 2**23 sites."""

    def config(self, modes, n_sites):
        return small_config(modes=modes, workload={"seed": 1, "n_sites": n_sites})

    def test_unicast_mode_beyond_the_limit_rejected(self):
        with pytest.raises(ScenarioError, match="/24"):
            build_scenario(self.config(["flat", "bier"], MAX_SITES + 1))

    def test_unicast_mode_at_the_limit_builds(self):
        assert build_scenario(self.config(["mpls"], MAX_SITES)).workload.n_sites == MAX_SITES

    def test_bier_only_unconstrained(self):
        scenario = build_scenario(self.config(["stateful_mcast", "bier"], MAX_SITES + 1))
        assert scenario.workload.n_sites == MAX_SITES + 1


class TestAutoProviders:
    def test_partition_with_one_edge_each(self):
        topo = build_topology(
            [(0, "edge"), (1, "core"), (2, "core"), (3, "edge")],
            [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        )
        providers = auto_providers(topo)
        owned = [set(p.owned_routers) for p in providers]
        assert owned == [{0, 1}, {2, 3}]


class TestRun:
    def test_empty_schedule_single_snapshot(self):
        scenario = build_scenario(small_config(workload={"seed": 1}))
        snapshots, report = run(scenario)
        assert len(snapshots) == 1 and snapshots[0].tick == 0
        assert len(report) == 1 and report[0].tick == 0
        assert expand_report(report) == []
        for _, _, _, _, _, sg, bift_n in snapshots[0].rows:
            assert sg == 0
            assert bift_n == len(scenario.topology.edge_routers)

    def test_all_delivery_rows_match(self):
        scenario = build_scenario(small_config())
        snapshots, report = run(scenario)
        rows = expand_report(report)
        assert rows
        assert_rows_match_schedule(scenario, rows)

    def test_report_covers_every_active_group_at_every_probe(self):
        scenario = build_scenario(small_config(modes=["stateful_mcast", "bier"]))
        snapshots, report = run(scenario)
        rows = expand_report(report)
        ticks = [s.tick for s in snapshots]
        active_from = {}   # group -> add tick
        schedule = workload.generate(scenario.topology, scenario.workload)
        for ev in schedule.events:
            if ev.kind == workload.ADD_GROUP:
                active_from[ev.args[0]] = ev.tick
        for tick in ticks:
            expected_groups = {g for g, t0 in active_from.items() if t0 <= tick}
            for mode in ("stateful", "bier"):
                got = {r.group for r in rows if r.tick == tick and r.mode == mode}
                assert got == expected_groups

    def test_fault_injection_aborts_with_context(self):
        scenario = load_scenario(FIXTURES / "fault_scenario.json")
        with pytest.raises(DeliveryMismatch) as excinfo:
            run(scenario)
        assert excinfo.value.mode == "bier"

    def test_add_site_differential_counts(self):
        scenario = build_scenario(small_config(workload={"seed": 1}))
        sim = SimState(scenario)
        before = sim.snapshot(0)
        sim.apply(Event(0, workload.ADD_SITE, (0, 0)))
        after = sim.snapshot(1)
        for b, a in zip(before.rows, after.rows):
            assert a[2] == b[2] + 1          # flat FIB grew by one everywhere
        # mapencap FIB unchanged: still |providers| at every router
        assert sim.unicast.encap_fib_size() == 2

    def test_setup_builds_no_lsp_in_any_mode_combination(self, monkeypatch):
        calls = []
        monkeypatch.setattr(unicast, "establish_lsp", lambda *args: calls.append(args))
        for n in range(1, len(MODES) + 1):
            for modes in itertools.combinations(MODES, n):
                sim = SimState(build_scenario(small_config(modes=list(modes))))
                assert calls == [], modes
                labels = [row[4] for row in sim.snapshot(0).rows]
                if "mpls" in modes:
                    assert labels == [3, 2, 3], modes
                else:
                    assert labels == [0, 0, 0], modes

    def test_add_group_and_joins_leave_bift_unchanged(self):
        scenario = build_scenario(small_config(workload={"seed": 1}))
        sim = SimState(scenario)
        bift_before = {r: len(expand_bift(sim.bift)[r]) for r in scenario.topology.roles}
        sim.apply(Event(0, workload.ADD_GROUP, (7, 0)))
        sim.apply(Event(1, workload.JOIN, (7, 2)))
        sim.apply(Event(2, workload.JOIN, (7, 0)))
        assert {r: len(expand_bift(sim.bift)[r]) for r in scenario.topology.roles} == bift_before
        holding = {r for r in scenario.topology.roles if sim.sg_state.count(r)}
        assert len(holding) >= 2

    def test_probe_leaves_sg_state_unchanged(self):
        # a probe replicates over each entry's own oif set, not a copy
        scenario = build_scenario(small_config(
            topology={"kind": "fat-edge", "size": 12}, modes=["stateful_mcast"],
            workload={"seed": 3, "n_groups": 3, "members_min": 1, "members_max": 4,
                      "churn_events": 40}))
        sim = SimState(scenario)
        for event in workload.generate(scenario.topology, scenario.workload).events:
            sim.apply(event)
            before = sg_as_dict(sim.sg_state)
            sim.probe(event.tick)
            assert sg_as_dict(sim.sg_state) == before

    def test_unknown_event_kind_rejected(self):
        sim = SimState(build_scenario(small_config(workload={"seed": 1})))
        for kind, args in (("teleport", ()), ("teleport", (7, 0)), ("remove_group", (7,))):
            with pytest.raises(SimError, match="unknown event kind"):
                sim.apply(Event(0, kind, args))

    def test_event_on_unknown_group_rejected(self):
        sim = SimState(build_scenario(small_config(workload={"seed": 1})))
        for kind, args in ((workload.JOIN, (7, 0)), (workload.LEAVE, (7, 0))):
            with pytest.raises(SimError, match="unknown group 7"):
                sim.apply(Event(0, kind, args))
        assert sim.groups == {} and sim.membership == {}

    @pytest.mark.parametrize("modes, mode", [(["bier"], "bier"),
                                             (["stateful_mcast"], "stateful")])
    def test_join_of_non_edge_router_rejected(self, modes, mode):
        # line3: routers 0 and 2 are edges, router 1 is core
        sim = SimState(build_scenario(small_config(modes=modes, workload={"seed": 1})))
        sim.apply(Event(0, workload.ADD_GROUP, (7, 0)))
        for router in (1, 99):
            with pytest.raises(SimError, match=f"non-edge router {router}"):
                sim.apply(Event(1, workload.JOIN, (7, router)))
        assert sim.membership[7] == set()
        assert expand_report([sim.probe(1)]) == [DeliveryRow(1, 7, mode, frozenset())]

    @pytest.mark.parametrize("modes", [["bier"], ["stateful_mcast"]])
    def test_add_group_with_non_edge_source_rejected(self, modes):
        # line3: routers 0 and 2 are edges, router 1 is core
        sim = SimState(build_scenario(small_config(modes=modes, workload={"seed": 1})))
        for router in (1, 99):
            with pytest.raises(SimError, match=f"non-edge router {router}"):
                sim.apply(Event(0, workload.ADD_GROUP, (7, router)))
        assert sim.groups == {} and sim.membership == {}
        with pytest.raises(SimError, match="unknown group 7"):
            sim.apply(Event(1, workload.JOIN, (7, 2)))
        assert expand_report([sim.probe(1)]) == []

    def test_join_then_leave_restores_membership(self):
        scenario = build_scenario(small_config(workload={"seed": 1}))
        sim = SimState(scenario)
        sim.apply(Event(0, workload.ADD_GROUP, (7, 0)))
        before = {g: set(m) for g, m in sim.membership.items()}
        sim.apply(Event(1, workload.JOIN, (7, 2)))
        sim.apply(Event(2, workload.LEAVE, (7, 2)))
        assert {g: set(m) for g, m in sim.membership.items()} == before


class TestBierFloodReuse:
    """A re-probed group floods only the BIER packets whose header changed."""

    # BFR-ids follow router ids: at BSL 4, edges 1-4 are SI 0, 5-8 SI 1
    # and 9-10 SI 2
    def sim(self):
        routers = [(0, "core")] + [(i, "edge") for i in range(1, 11)]
        topo = build_topology(routers, [(0, i, 1) for i in range(1, 11)])
        return SimState(Scenario(topo, [], workload.Params(), ("bier",), 4, 1))

    def count_floods(self, monkeypatch):
        headers = []
        original = bier.flood_deliver

        def counting(bift, header, at, reach=None):
            headers.append((header.si, header.bits))
            return original(bift, header, at, reach)

        monkeypatch.setattr(bier, "flood_deliver", counting)
        return headers

    def probe(self, sim, tick, headers):
        """The ``(si, bits)`` headers ``sim.probe`` flooded; its rows must
        equal a full re-probe's."""
        expected = full_probe(sim, tick)
        headers.clear()
        assert expand_report([sim.probe(tick)]) == expected
        return list(headers)

    def apply(self, sim, tick, *events):
        for kind, args in events:
            sim.apply(Event(tick, kind, args))

    def test_change_on_one_si_refloods_one_header(self, monkeypatch):
        sim = self.sim()
        headers = self.count_floods(monkeypatch)
        self.apply(sim, 0, (workload.ADD_GROUP, (1, 1)),
                   *[(workload.JOIN, (1, r)) for r in (2, 6, 10)])
        assert self.probe(sim, 0, headers) == [(0, 0b10), (1, 0b10), (2, 0b10)]
        self.apply(sim, 1, (workload.JOIN, (1, 7)))
        assert self.probe(sim, 1, headers) == [(1, 0b110)]
        self.apply(sim, 2, (workload.LEAVE, (1, 10)), (workload.JOIN, (1, 9)))
        assert self.probe(sim, 2, headers) == [(2, 0b01)]
        assert self.probe(sim, 3, headers) == []

    def test_group_readded_at_another_source_rejected(self, monkeypatch):
        # a group's source is fixed for its lifetime, so its floods stay valid
        sim = self.sim()
        headers = self.count_floods(monkeypatch)
        self.apply(sim, 0, (workload.ADD_GROUP, (1, 1)),
                   *[(workload.JOIN, (1, r)) for r in (2, 6, 10)])
        assert len(self.probe(sim, 0, headers)) == 3
        with pytest.raises(SimError, match="re-added with a different source"):
            sim.apply(Event(1, workload.ADD_GROUP, (1, 5)))
        assert sim.groups[1] == 1
        assert self.probe(sim, 1, headers) == []



class TestPatchedRecord:
    """``probe`` patches the last record: it re-probes only the groups that
    had an event since, and never modifies a record it returned."""

    # line 3: routers 0 and 2 are edges, router 1 is core
    def sim(self, fault=None):
        topo = build_topology([(0, "edge"), (1, "core"), (2, "edge")], [(0, 1, 1), (1, 2, 1)])
        return SimState(Scenario(topo, [], workload.Params(), ("stateful_mcast", "bier"),
                                 8, 1, fault))

    def count_probes(self, monkeypatch):
        """The group of each (S,G) probe, one per re-probed group."""
        probed = []
        original = multicast.simulate_delivery

        def counting(state, sg):
            probed.append(sg.group)
            return original(state, sg)

        monkeypatch.setattr(multicast, "simulate_delivery", counting)
        return probed

    def apply(self, sim, tick, *events):
        for kind, args in events:
            sim.apply(Event(tick, kind, args))

    def fail_mid_record(self, monkeypatch):
        """A probe that verifies group 0 and then raises on group 1, before
        group 2 is reached; returns the sim and its probe counter."""
        sim = self.sim("bier_drop_lowest_bit")
        probed = self.count_probes(monkeypatch)
        # the fault clears the only bit of group 1's header; groups 0 and 2
        # have no member, so no header to clear
        self.apply(sim, 0, (workload.ADD_GROUP, (0, 0)), (workload.ADD_GROUP, (1, 0)),
                   (workload.JOIN, (1, 2)), (workload.ADD_GROUP, (2, 2)))
        with pytest.raises(DeliveryMismatch) as excinfo:
            sim.probe(0)
        assert (excinfo.value.tick, excinfo.value.group, excinfo.value.mode) == (0, 1, "bier")
        assert probed == [0, 1]
        self.apply(sim, 1, (workload.LEAVE, (1, 2)))
        probed.clear()
        return sim, probed

    def test_mismatch_keeps_the_pairs_verified_before_it(self, monkeypatch):
        sim, _ = self.fail_mid_record(monkeypatch)
        record = sim.probe(1)
        assert record.groups == [(0, frozenset()), (1, frozenset()), (2, frozenset())]
        assert expand_report([record]) == full_probe(sim, 1)

    def test_after_a_mismatch_only_the_failing_and_stale_groups_are_reprobed(self, monkeypatch):
        sim, probed = self.fail_mid_record(monkeypatch)
        sim.probe(1)
        assert probed == [1, 2]
        sim.probe(2)
        assert probed == [1, 2]

    def test_rejected_event_on_unknown_group_repeats_the_record(self, monkeypatch):
        sim = self.sim()
        self.apply(sim, 0, (workload.ADD_GROUP, (3, 0)), (workload.JOIN, (3, 2)))
        first = sim.probe(0)
        probed = self.count_probes(monkeypatch)
        for kind, args in [(workload.JOIN, (1, 2)), (workload.LEAVE, (5, 2))]:
            with pytest.raises(SimError, match="unknown group"):
                sim.apply(Event(1, kind, args))
        with pytest.raises(SimError, match="non-edge router 1"):
            sim.apply(Event(1, workload.ADD_GROUP, (1, 1)))
        second = sim.probe(1)
        assert second.groups == first.groups == [(3, frozenset({2}))]
        assert probed == []

    def test_a_returned_record_is_never_modified(self):
        sim = self.sim()
        self.apply(sim, 0, (workload.ADD_GROUP, (3, 0)), (workload.JOIN, (3, 2)))
        first = sim.probe(0)
        held = list(first.groups)
        # group 1 sorts before group 3, so group 3 moves in the next record
        self.apply(sim, 1, (workload.ADD_GROUP, (1, 2)), (workload.JOIN, (1, 0)),
                   (workload.LEAVE, (3, 2)))
        second = sim.probe(1)
        self.apply(sim, 2, (workload.JOIN, (3, 0)), (workload.LEAVE, (1, 0)))
        third = sim.probe(2)
        assert first.groups == held == [(3, frozenset({2}))]
        assert second.groups == [(1, frozenset({0})), (3, frozenset())]
        assert third.groups == [(1, frozenset()), (3, frozenset({0}))]


# the events the property draws: "add_group" may re-add a group with
# another source and "join" may re-join a member; "core" joins a core or
# unknown router, "outsider" leaves a non-member and "unknown" joins a
# group no event adds, each of which is rejected
BFIR_OPS = ("add_group", "join", "leave", "core", "outsider", "unknown")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=8), st.data())
def test_bfir_bitstrings_match_an_encapsulation_of_the_membership(seed, n, bsl, data):
    topo = random_topology(seeded(seed), n)
    edges = topo.edge_routers
    not_edges = sorted(set(topo.roles) - set(edges)) + [n]
    placements = bfer_placements(edges, bsl)
    sim = SimState(Scenario(topo, [], workload.Params(), ("stateful_mcast", "bier"), bsl, 1))
    ops = data.draw(st.lists(st.tuples(st.sampled_from(BFIR_OPS), st.integers(0, 2),
                                       st.integers(0, len(edges))),
                             max_size=40))
    for tick, (op, group, pick) in enumerate(ops):
        known = group in sim.groups
        members = sorted(sim.membership.get(group, ()))
        outsiders = [e for e in edges if e not in members] or not_edges
        if op == "add_group":
            source = edges[pick % len(edges)]
            event = (workload.ADD_GROUP, (group, source))
            rejected = known and sim.groups[group] != source
        elif op == "join":
            event = (workload.JOIN, (group, edges[pick % len(edges)]))
            rejected = not known
        elif op == "leave" and members:
            event = (workload.LEAVE, (group, members[pick % len(members)]))
            rejected = False
        elif op == "core":
            event = (workload.JOIN, (group, not_edges[pick % len(not_edges)]))
            rejected = True
        elif op == "unknown":
            event = (workload.JOIN, (group + 3, edges[pick % len(edges)]))
            rejected = True
        else:       # "outsider", or "leave" of a group with no member
            event = (workload.LEAVE, (group, outsiders[pick % len(outsiders)]))
            rejected = True
        if rejected:
            with pytest.raises(SimError):
                sim.apply(Event(tick, *event))
        else:
            sim.apply(Event(tick, *event))
        assert sim.bitstrings.keys() == sim.membership.keys()
        for g, receivers in sim.membership.items():
            headers = encapsulate_bier([placements[r] for r in receivers])
            assert sim.bitstrings[g] == {h.si: h.bits for h in headers}


WORKLOADS = Path(__file__).parent.parent / "bench" / "workloads"


# the BIFT is fixed for the run, so a one-bit copy's landing BFER is
# recorded the first time it is forwarded from a router and never
# forwarded from there again
@pytest.mark.parametrize("name", ["group_churn", "snapshot_probe"])
def test_run_forwards_each_one_bit_copy_once(monkeypatch, name):
    one_bit = []
    calls = []
    original = bier.forward_bier

    def counting(bift, si, bits, at):
        calls.append(bits)
        if bits and not bits & (bits - 1):
            one_bit.append((si, at, bits))
        return original(bift, si, bits, at)

    monkeypatch.setattr(bier, "forward_bier", counting)
    run(load_scenario(WORKLOADS / f"{name}.json"), seed=13)
    assert one_bit, "no one-bit copy was forwarded"
    assert len(calls) > len(one_bit), "no multi-bit copy was forwarded"
    assert len(set(one_bit)) == len(one_bit)


# the state column each mode reports, as an index into a state row
# (router, role, fib, mapping, labels, sg, bift), and the name its
# delivery rows carry
MODE_COLUMN = {"flat": 2, "mapencap": 3, "mpls": 4, "stateful_mcast": 5, "bier": 6}
PROBE_NAME = {"stateful_mcast": "stateful", "bier": "bier"}
LAW_SCENARIOS = [WORKLOADS / f"{name}.json"
                 for name in ("group_churn", "site_growth", "snapshot_probe")] + [
    Path(__file__).parent.parent / "scenarios" / f"{name}.json"
    for name in ("example", "every_tick", "bier_wide", "fat_edge_bier")]


# a mode's state and probes read nothing of another mode's, so a run with
# that mode alone reproduces its column and its delivery records
@pytest.mark.parametrize("path", LAW_SCENARIOS, ids=lambda path: path.stem)
def test_single_mode_runs_reproduce_the_all_mode_run(path):
    scenario = load_scenario(path)
    snapshots, report = run(scenario, seed=13)
    for mode in scenario.modes:
        alone, alone_report = run(load_scenario(path, modes=[mode]), seed=13)
        column = MODE_COLUMN[mode]
        assert [snap.tick for snap in alone] == [snap.tick for snap in snapshots], mode
        for snap, mine in zip(snapshots, alone):
            columns, mine_columns = list(zip(*snap.rows)), list(zip(*mine.rows))
            assert mine_columns[:2] == columns[:2], (mode, snap.tick)
            assert mine_columns[column] == columns[column], (mode, snap.tick)
            assert not any(any(counts) for i, counts in enumerate(mine_columns)
                           if i >= 2 and i != column), (mode, snap.tick)
        name = PROBE_NAME.get(mode)
        assert {record.modes for record in alone_report} == {(name,) if name else ()}
        if name is not None:
            assert [(r.tick, r.groups) for r in alone_report] == [
                (r.tick, r.groups) for r in report]


SNAPSHOT_OPS = ("add_site", "add_group", "join", "leave", "snapshot")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=8), st.data())
def test_incremental_snapshot_matches_full_snapshot(seed, n, bsl, data):
    topo = random_topology(seeded(seed), n)
    edges = topo.edge_routers
    scenario = Scenario(topo, auto_providers(topo), workload.Params(), MODES, bsl, 1)
    sim = SimState(scenario)
    ops = data.draw(st.lists(st.tuples(st.sampled_from(SNAPSHOT_OPS), st.integers(0, 2),
                                       st.integers(0, len(edges) - 1)),
                             max_size=40))
    taken = []      # (snapshot, a copy of its rows when it was taken)
    n_sites = 0
    for tick, (op, group, pick) in enumerate(ops + [("snapshot", 0, 0)]):
        members = sorted(sim.membership.get(group, ()))
        if op == "snapshot":
            snap = sim.snapshot(tick)
            assert snap.rows == full_snapshot(sim, tick).rows
            taken.append((snap, list(snap.rows)))
            continue
        if op == "add_site":
            events = [(workload.ADD_SITE, (n_sites, edges[pick]))]
            n_sites += 1
        elif group not in sim.groups:
            events = [(workload.ADD_GROUP, (group, edges[pick]))]
        elif op == "join":
            # may re-join a current member
            events = [(workload.JOIN, (group, edges[pick]))]
        elif op == "leave" and members:
            events = [(workload.LEAVE, (group, members[pick % len(members)]))]
        else:
            continue
        for kind, args in events:
            sim.apply(Event(tick, kind, args))
    # later events never reach an earlier snapshot
    for snap, rows in taken:
        assert snap.rows == rows


class TestCsv:
    def test_zero_snapshots_header_only(self, tmp_path):
        state_path, delivery_path = emit_csv([], [], tmp_path)
        assert state_path.read_text() == harness.STATE_HEADER + "\n"
        assert delivery_path.read_text() == harness.DELIVERY_HEADER + "\n"

    def test_row_count_arithmetic(self, tmp_path):
        snaps = [
            StateSnapshot(0, [(r, "edge", 0, 0, 0, 0, 0) for r in range(3)]),
            StateSnapshot(10, [(r, "edge", 1, 0, 0, 0, 0) for r in range(3)]),
        ]
        state_path, _ = emit_csv(snaps, [], tmp_path)
        lines = state_path.read_text().splitlines()
        assert len(lines) == 1 + 6

    def test_delivery_row_order_and_format(self, tmp_path):
        # modes in probe order, not name order; group 1 keeps its receivers
        # from tick 0 to tick 10 but gains a mode, group 3 joins at tick 10
        report = [
            DeliverySnapshot(0, ("bier",), [(1, frozenset())]),
            DeliverySnapshot(10, ("stateful", "bier"),
                             [(1, frozenset()), (3, frozenset({2, 0}))]),
        ]
        _, delivery_path = emit_csv([], report, tmp_path)
        assert delivery_path.read_text().splitlines()[1:] == [
            "0,1,bier,1,,",
            "10,1,bier,1,,",
            "10,1,stateful,1,,",
            "10,3,bier,1,0|2,0|2",
            "10,3,stateful,1,0|2,0|2",
        ]
        assert delivery_path.read_text() == reference_emit_csv([], report)[1]

    def test_same_seed_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            scenario = load_scenario(EXAMPLE_SCENARIO)
            snapshots, report = run(scenario)
            outs.append(emit_csv(snapshots, report, tmp_path / name))
        assert outs[0][0].read_bytes() == outs[1][0].read_bytes()
        assert outs[0][1].read_bytes() == outs[1][1].read_bytes()

    def test_seed_override_changes_schedule(self):
        scenario = load_scenario(EXAMPLE_SCENARIO)
        params = scenario.workload
        schedules = [workload.generate(scenario.topology, replace(params, seed=seed)).events
                     for seed in (1, 2)]
        assert schedules[0] != schedules[1]
        # overriding with the scenario's own seed changes nothing
        assert run(scenario, seed=params.seed) == run(scenario)
        assert run(scenario, seed=1) != run(scenario, seed=2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=8),
       modes=st.sets(st.sampled_from(MODES), min_size=1).map(
           lambda chosen: tuple(m for m in MODES if m in chosen)),
       bsl=st.integers(min_value=1, max_value=8), interval=st.integers(min_value=1, max_value=4),
       n_sites=st.integers(min_value=0, max_value=4), n_groups=st.integers(min_value=0, max_value=3),
       members_max=st.integers(min_value=1, max_value=4),
       churn=st.integers(min_value=0, max_value=20))
@example(seed=1, n=6, modes=MODES, bsl=2, interval=1, n_sites=3, n_groups=3, members_max=3,
         churn=20)
@example(seed=2, n=6, modes=("stateful_mcast",), bsl=2, interval=2, n_sites=0, n_groups=3,
         members_max=3, churn=20)
@example(seed=3, n=6, modes=("bier",), bsl=2, interval=3, n_sites=0, n_groups=3,
         members_max=3, churn=20)
@example(seed=4, n=6, modes=MODES, bsl=2, interval=1, n_sites=3, n_groups=0, members_max=1,
         churn=0)
def test_emit_csv_matches_reference_writer(seed, n, modes, bsl, interval, n_sites, n_groups,
                                           members_max, churn):
    topo = random_topology(seeded(seed), n)
    params = workload.Params(seed=seed, n_sites=n_sites, n_groups=n_groups,
                             members_max=min(members_max, len(topo.edge_routers)),
                             churn_events=churn)
    scenario = Scenario(topo, auto_providers(topo), params, modes, bsl, interval)
    snapshots, report = run(scenario)
    with tempfile.TemporaryDirectory() as out:
        got = tuple(path.read_bytes() for path in emit_csv(snapshots, report, out))
    assert got == tuple(text.encode() for text in reference_emit_csv(snapshots, report))
