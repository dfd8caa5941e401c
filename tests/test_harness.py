import copy
import gc
import itertools
import json
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    RUN_FILES,
    DeliveryRow,
    assert_rows_match_schedule,
    bfer_placements,
    edge_provider_section,
    encapsulate_bier,
    expand_bift,
    expand_report,
    full_probe,
    full_snapshot,
    random_topology,
    reference_emit_csv,
    reference_run,
    seeded,
    state_rows,
)
from routescale import bier, harness, multicast, unicast, workload
from routescale.errors import (
    DeliveryMismatch,
    InvalidParams,
    ScenarioError,
    SimError,
    UnattachedSite,
)
from routescale.harness import (
    MODES,
    DeliverySnapshot,
    Scenario,
    SimState,
    StateSnapshot,
    build_scenario,
    collector_paused,
    emit_csv,
    load_scenario,
    run,
)
from routescale.multicast import SgKey
from routescale.topology import build_topology
from routescale.unicast import MAX_SITES
from routescale.workload import Event, Schedule

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

    def test_modes_not_a_list_rejected(self):
        # a string would otherwise be read as one mode per character
        with pytest.raises(ScenarioError, match="modes must be a list of mode names, got 'bier'"):
            build_scenario(small_config(modes="bier"))

    @pytest.mark.parametrize("config", [[1, 2], "line", None])
    def test_scenario_not_an_object_rejected(self, config):
        with pytest.raises(ScenarioError, match="must be a JSON object"):
            build_scenario(config)

    # a section of the wrong JSON type is named: "abc" was read as three
    # unknown workload params, and a list or an int raised a TypeError
    @pytest.mark.parametrize("section, value, message", [
        ("workload", "abc", "workload must be a JSON object, got 'abc'"),
        ("workload", [1, 2], "workload must be a JSON object, got [1, 2]"),
        ("workload", None, "workload must be a JSON object, got None"),
        ("topology", [1, 2], "topology must be a JSON object, got [1, 2]"),
        ("topology", 5, "topology must be a JSON object, got 5"),
        ("providers", 5, 'providers must be "auto" or a list of provider objects, got 5'),
        ("providers", "manual",
         "providers must be \"auto\" or a list of provider objects, got 'manual'"),
        ("providers", [5], "providers entry must be a JSON object, got 5"),
    ])
    def test_section_of_the_wrong_type_rejected(self, section, value, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            build_scenario(small_config(**{section: value}))

    # a field of the wrong JSON type inside a section is named too: a
    # number for a list raised "'int' object is not iterable", and a
    # number for a file name "unsupported operand type(s) for /"
    @pytest.mark.parametrize("section, value, message", [
        ("providers", [{"id": 0, "routers": 5}],
         "provider 0 routers must be a list of router ids, got 5"),
        ("providers", [{"id": 0, "routers": "012"}],
         "provider 0 routers must be a list of router ids, got '012'"),
        ("topology", {"routers": 5, "links": []},
         "topology routers must be a list of [id, role] lists, got 5"),
        ("topology", {"routers": [[0, "edge"]], "links": 5},
         "topology links must be a list of [a, b, cost] lists, got 5"),
        ("topology", {"routers": [5], "links": []},
         "each of topology routers must be a list [id, role], got 5"),
        ("topology", {"routers": [[0, "edge"], [1, "edge"]], "links": [[0, 1]]},
         "each of topology links must be a list [a, b, cost], got [0, 1]"),
        ("topology", {"file": 5}, "topology file must be a path string, got 5"),
    ])
    def test_field_of_the_wrong_type_rejected(self, section, value, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            build_scenario(small_config(**{section: value}))

    # every JSON object rejects a key outside its shape and names a missing
    # one: the first five of these ran, ignoring the key
    @pytest.mark.parametrize("section, value, message", [
        ("topology", {"kind": "grid", "size": 4, "cost": 3}, "unknown topology keys: ['cost']"),
        ("topology", {"file": "topo.json", "kind": "star", "size": 9},
         "unknown topology keys: ['kind', 'size']"),
        ("topology", {"routers": [[0, "edge"], [1, "edge"]], "links": [[0, 1, 1]], "size": 50},
         "unknown topology keys: ['size']"),
        ("topology", {"kind": "line", "size": 3, "links": 5}, "unknown topology keys: ['links']"),
        ("providers", [{"id": 0, "routers": [0, 1], "edge": 9}, {"id": 1, "routers": [2]}],
         "unknown providers entry keys: ['edge']"),
        ("workload", {"seed": 1, "bogus": 2}, "unknown workload keys: ['bogus']"),
        ("topology", {"kind": "grid"}, "topology section missing key 'size'"),
        ("topology", {"links": []}, "topology section missing key 'routers'"),
        ("providers", [{"routers": [0, 1, 2]}], "providers entry section missing key 'id'"),
        ("providers", [{"id": 0}], "providers entry section missing key 'routers'"),
    ])
    def test_key_outside_the_shape_rejected(self, section, value, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            build_scenario(small_config(**{section: value}))

    # a topology file holds an inline form: it cannot name another file
    @pytest.mark.parametrize("content, message", [
        ({"file": "topo.json"}, "keys: ['file']"),
        ({"topology": {"kind": "line", "size": 3, "bsl": 8}}, "keys: ['bsl']"),
        ({"topology": {"kind": "line"}}, "section missing key 'size'"),
    ])
    def test_topology_file_outside_the_inline_forms_rejected(self, tmp_path, content, message):
        (tmp_path / "topo.json").write_text(json.dumps(content))
        with pytest.raises(ScenarioError, match=re.escape(
                f"topology in {tmp_path / 'topo.json'}")) as excinfo:
            build_scenario(small_config(topology={"file": "topo.json"}), base_dir=tmp_path)
        assert message in str(excinfo.value)

    # an input file that cannot be read or parsed is a ScenarioError naming it
    @pytest.mark.parametrize("content", [None, b"{", b"\xff\xfe",
                                         b'{"kind": "line", "size": ' + b"1" * 4301 + b"}"],
                             ids=["missing", "invalid JSON", "not UTF-8", "4301 digits"])
    def test_unreadable_topology_file_rejected(self, tmp_path, content):
        if content is not None:
            (tmp_path / "topo.json").write_bytes(content)
        with pytest.raises(ScenarioError, match=re.escape(
                f"cannot read topology file {tmp_path / 'topo.json'}: ")):
            build_scenario(small_config(topology={"file": "topo.json"}), base_dir=tmp_path)

    @pytest.mark.parametrize("content", [None, b"{", b"\xff\xfe",
                                         b'{"topology": {"kind": "line", "size": 3}, "bsl": '
                                         + b"1" * 4301 + b"}"],
                             ids=["missing", "invalid JSON", "not UTF-8", "4301 digits"])
    def test_unreadable_scenario_file_rejected(self, tmp_path, content):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ScenarioError, match=re.escape(f"cannot read scenario {path}: ")):
            load_scenario(path)

    @pytest.mark.parametrize("content", [[1, 2], {"topology": "line"}])
    def test_topology_file_of_the_wrong_type_rejected(self, tmp_path, content):
        (tmp_path / "topo.json").write_text(json.dumps(content))
        config = small_config(topology={"file": "topo.json"})
        with pytest.raises(ScenarioError, match=re.escape(
                f"topology in {tmp_path / 'topo.json'} must be a JSON object")):
            build_scenario(config, base_dir=tmp_path)

    def test_missing_topology_rejected(self):
        with pytest.raises(ScenarioError, match="scenario section missing key 'topology'"):
            build_scenario({"workload": {}})

    def test_members_max_checked_against_edges(self):
        # line 3 has two edge routers; scenario loading and the generator
        # raise the one message
        params = {"seed": 1, "n_groups": 1, "members_min": 1, "members_max": 9}
        message = "members_max 9 exceeds 2 edge routers"
        with pytest.raises(InvalidParams, match=message):
            build_scenario(small_config(workload=params))
        topo = build_scenario(small_config()).topology
        with pytest.raises(InvalidParams, match=message):
            workload.generate(topo, workload.Params(**params))

    def test_explicit_providers(self):
        config = small_config(providers=[
            {"id": 0, "routers": [0, 1]},
            {"id": 1, "routers": [2]},
        ])
        scenario = build_scenario(config)
        assert scenario.n_providers == 2

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
    """Providers exist for the unicast modes only; /16 locators under 0/1
    cap them at 32,768, one per edge router at most."""

    def star200(self, modes):
        return small_config(topology={"kind": "star", "size": 200}, modes=modes, bsl=64,
                            workload={"seed": 3, "n_groups": 4, "members_min": 2,
                                      "members_max": 80, "churn_events": 40})

    def star(self, size, modes):
        return small_config(topology={"kind": "star", "size": size}, modes=modes,
                            workload={"seed": 1})

    def test_bier_only_builds_no_providers(self):
        scenario = build_scenario(self.star200(["bier"]))
        assert scenario.n_providers == 0
        sim = SimState(scenario)
        # 199 BFERs at BSL 64 span four Set Identifiers
        assert {si for si, _ in sim.bit_of.values()} == {0, 1, 2, 3}

    def test_unicast_mode_beyond_the_limit_rejected(self):
        with pytest.raises(ScenarioError, match="32769 edge routers .* at most 32768"):
            build_scenario(self.star(32770, ["flat", "bier"]))
        # one edge router fewer: a provider for each, ids 0 to 32767
        assert build_scenario(self.star(32769, ["flat"])).n_providers == 32768

    def test_explicit_provider_id_out_of_range_rejected(self):
        def config(pid):
            return small_config(providers=[{"id": 0, "routers": [0, 1]},
                                           {"id": pid, "routers": [2]}])

        for pid in (32768, -1):
            with pytest.raises(ScenarioError, match=f"provider id {pid} out of range 0..32767"):
                build_scenario(config(pid))
        assert build_scenario(config(32767)).n_providers == 2

    def test_provider_entry_without_id_rejected(self):
        with pytest.raises(ScenarioError, match="missing key"):
            build_scenario(small_config(providers=[{"routers": [0, 1, 2]}]))

    def test_providers_ignored_without_unicast_modes(self):
        config = small_config(modes=["bier"], providers=[{"id": 0, "routers": [0, 1, 2]}])
        assert build_scenario(config).n_providers == 0

    # a run reads the provider count only: one explicit provider per edge
    # writes what "auto" writes, whichever provider owns the core routers,
    # and one more provider, owning a core router alone, adds one entry to
    # every router's flat FIB and moves nothing else
    @pytest.mark.parametrize("name", ["example", "stub_costs"])
    def test_provider_ownership_never_reaches_the_csvs(self, tmp_path, name):
        path = EXAMPLE_SCENARIO.parent / f"{name}.json"
        config = json.loads(path.read_text())

        def csvs(providers, out):
            scenario = build_scenario({**config, "providers": providers}, base_dir=path.parent)
            return [p.read_text().splitlines() for p in emit_csv(*run(scenario), tmp_path / out)]

        state, delivery = csvs("auto", "auto")
        section = edge_provider_section(load_scenario(path).topology)
        assert csvs(section, "explicit") == [state, delivery]
        core = section[0]["routers"].pop()
        section.append({"id": len(section), "routers": [core]})
        more_state, more_delivery = csvs(section, "more")
        assert more_delivery == delivery
        assert more_state[0] == state[0] == harness.STATE_HEADER
        assert len(more_state) == len(state) > 1
        for line, more in zip(state[1:], more_state[1:]):
            row, more = line.split(","), more.split(",")
            assert int(more[3]) == int(row[3]) + 1
            assert more[:3] + more[4:] == row[:3] + row[4:]


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
    # "auto" counts one provider per edge; the explicit partition that
    # gives each core router to its nearest edge is valid and counts the
    # same, and one provider owning both edges is refused
    def test_partition_with_one_edge_each(self):
        line4 = {"routers": [[0, "edge"], [1, "core"], [2, "core"], [3, "edge"]],
                 "links": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]}

        def count(providers):
            return build_scenario(small_config(topology=line4, providers=providers)).n_providers

        assert count("auto") == 2
        assert count([{"id": 0, "routers": [0, 1]}, {"id": 1, "routers": [2, 3]}]) == 2
        with pytest.raises(ScenarioError, match="provider 0 owns 2 edge routers"):
            count([{"id": 0, "routers": [0, 1, 2, 3]}])


class TestRun:
    def test_empty_schedule_single_snapshot(self):
        scenario = build_scenario(small_config(workload={"seed": 1}))
        snapshots, report = run(scenario)
        assert len(snapshots) == 1 and snapshots[0].tick == 0
        assert len(report) == 1 and report[0].tick == 0
        assert expand_report(report) == []
        for _, _, _, _, _, sg, bift_n in state_rows(snapshots[0]):
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
        for b, a in zip(state_rows(before), state_rows(after)):
            assert a[2] == b[2] + 1          # flat FIB grew by one everywhere
        # mapencap FIB unchanged: still |providers| at every router
        assert sim.unicast.n_providers == 2

    # line3: router 1 is core and router 99 is unknown; SimState.apply
    # checks the role once, with or without a unicast mode
    @pytest.mark.parametrize("modes", [["flat"], ["mapencap", "mpls"], ["stateful_mcast", "bier"]])
    def test_add_site_on_non_edge_router_rejected(self, modes):
        sim = SimState(build_scenario(small_config(modes=modes, workload={"seed": 1})))
        before = sim.snapshot(0)
        for router in (1, 99):
            with pytest.raises(UnattachedSite) as excinfo:
                sim.apply(Event(1, workload.ADD_SITE, (4, router)))
            assert str(excinfo.value) == f"site 4 attached to non-edge router {router}"
        assert not isinstance(excinfo.value, ScenarioError)     # exit code 2
        assert state_rows(sim.snapshot(1)) == state_rows(before)

    def test_unicast_columns_read_once_per_role(self, monkeypatch):
        # fat-edge 12: two core routers and ten edge routers
        scenario = build_scenario(small_config(topology={"kind": "fat-edge", "size": 12},
                                               providers="auto", workload={"seed": 1}))
        roles = scenario.topology.roles
        calls = []
        original = unicast.UnicastPlane.mapping_entries

        def counted(plane, router):
            calls.append(roles[router])
            return original(plane, router)

        monkeypatch.setattr(unicast.UnicastPlane, "mapping_entries", counted)
        sim = SimState(scenario)
        assert sorted(calls) == ["core", "edge"]
        calls.clear()
        sim.snapshot(0)
        assert calls == []
        for tick, site in enumerate((0, 1, 2), start=1):
            sim.apply(Event(tick, workload.ADD_SITE, (site, scenario.topology.edge_routers[0])))
            sim.snapshot(tick)
            assert sorted(calls) == ["core", "edge"]
            calls.clear()
            # no site added since: the columns are not read again
            sim.snapshot(tick)
            assert calls == []

    def test_setup_builds_no_lsp_in_any_mode_combination(self, monkeypatch):
        calls = []
        monkeypatch.setattr(unicast, "establish_lsp", lambda *args: calls.append(args))
        for n in range(1, len(MODES) + 1):
            for modes in itertools.combinations(MODES, n):
                sim = SimState(build_scenario(small_config(modes=list(modes))))
                assert calls == [], modes
                labels = [row[4] for row in state_rows(sim.snapshot(0))]
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
        # a probe replicates over each entry as stored, not a copy: a bare
        # oif stays bare and a set keeps its oifs
        scenario = build_scenario(small_config(
            topology={"kind": "fat-edge", "size": 12}, modes=["stateful_mcast"],
            workload={"seed": 3, "n_groups": 3, "members_min": 1, "members_max": 4,
                      "churn_events": 40}))
        sim = SimState(scenario)
        for event in workload.generate(scenario.topology, scenario.workload).events:
            sim.apply(event)
            before = copy.deepcopy(sim.sg_state.trees)
            sim.probe(event.tick)
            assert sim.sg_state.trees == before

    def test_run_keeps_no_applied_event(self, monkeypatch):
        # each event is dropped from the schedule once applied, so by the
        # end of the run the schedule generate returned holds none
        schedules = []
        generate = workload.generate

        def keep(topo, params):
            schedules.append(generate(topo, params))
            return schedules[-1]

        monkeypatch.setattr(workload, "generate", keep)
        scenario = build_scenario(small_config(modes=["stateful_mcast", "bier"]))
        snapshots, _ = run(scenario)
        (schedule,) = schedules
        assert snapshots[-1].tick == len(generate(scenario.topology, scenario.workload).events) - 1
        assert schedule.events == []

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


def snapshot_ticks(last, interval):
    """The ticks ``run`` snapshots for a schedule ending at ``last``."""
    return sorted(set(range(0, last + 1, interval)) | {last})


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=8),
       modes=st.sets(st.sampled_from(MODES), min_size=1).map(
           lambda chosen: tuple(m for m in MODES if m in chosen)),
       bsl=st.integers(min_value=1, max_value=8), interval=st.integers(min_value=1, max_value=60),
       n_sites=st.integers(min_value=0, max_value=4), n_groups=st.integers(min_value=0, max_value=3),
       members_max=st.integers(min_value=1, max_value=4),
       churn=st.integers(min_value=0, max_value=20))
@example(seed=5, n=6, modes=MODES, bsl=2, interval=1, n_sites=2, n_groups=2, members_max=2,
         churn=10)
@example(seed=6, n=6, modes=MODES, bsl=2, interval=10**6, n_sites=2, n_groups=2, members_max=2,
         churn=10)
def test_run_matches_tick_by_tick_reference(seed, n, modes, bsl, interval, n_sites, n_groups,
                                            members_max, churn):
    # intervals run from every tick to past the last tick (at most 39)
    topo = random_topology(seeded(seed), n)
    params = workload.Params(seed=seed, n_sites=n_sites, n_groups=n_groups,
                             members_max=min(members_max, len(topo.edge_routers)),
                             churn_events=churn)
    scenario = Scenario(topo, len(topo.edge_routers), params, modes, bsl, interval)
    snapshots, report = run(scenario)
    assert (snapshots, report) == reference_run(scenario)
    last = len(workload.generate(topo, params).events) - 1
    assert [snap.tick for snap in snapshots] == snapshot_ticks(max(last, 0), interval)
    assert [record.tick for record in report] == [snap.tick for snap in snapshots]


# schedules generate never makes: ticks without an event, several events
# at one tick, and no event at all; line 3's edge routers are 0 and 2
HAND_BUILT = {
    "gaps and shared ticks": [
        Event(0, workload.ADD_SITE, (0, 0)), Event(0, workload.ADD_GROUP, (0, 0)),
        Event(4, workload.JOIN, (0, 2)), Event(4, workload.ADD_SITE, (1, 2)),
        Event(4, workload.ADD_GROUP, (1, 2)), Event(5, workload.JOIN, (1, 0)),
        Event(11, workload.LEAVE, (0, 2)), Event(11, workload.JOIN, (0, 0)),
    ],
    "first event late": [Event(7, workload.ADD_GROUP, (0, 2)), Event(7, workload.JOIN, (0, 0)),
                         Event(9, workload.LEAVE, (0, 0))],
    "one tick": [Event(0, workload.ADD_GROUP, (0, 0)), Event(0, workload.JOIN, (0, 2)),
                 Event(0, workload.JOIN, (0, 0))],
    "empty": [],
}


@pytest.mark.parametrize("interval", [1, 2, 3, 5, 11, 12, 100])
@pytest.mark.parametrize("name", HAND_BUILT)
def test_run_matches_tick_by_tick_reference_on_hand_built_schedules(monkeypatch, name, interval):
    events = HAND_BUILT[name]
    monkeypatch.setattr(workload, "generate", lambda topo, params: Schedule(list(events)))
    scenario = build_scenario(small_config(snapshot_interval=interval))
    snapshots, report = run(scenario)
    assert (snapshots, report) == reference_run(scenario)
    last = events[-1].tick if events else 0
    assert [snap.tick for snap in snapshots] == snapshot_ticks(last, interval)
    # each record holds the membership after every event up to its tick
    for record in report:
        members = {}
        for event in events:
            if event.tick > record.tick:
                break
            group, *rest = event.args
            if event.kind == workload.ADD_GROUP:
                members[group] = set()
            elif event.kind == workload.JOIN:
                members[group].add(rest[0])
            elif event.kind == workload.LEAVE:
                members[group].discard(rest[0])
        assert record.groups == [(g, frozenset(members[g])) for g in sorted(members)]


class TestBierFloodReuse:
    """A re-probed group floods every Set Identifier it has a bitstring in,
    and a bit that already landed from its ingress is not forwarded again."""

    # BFR-ids follow router ids: at BSL 4, edges 1-4 are SI 0, 5-8 SI 1
    # and 9-10 SI 2
    def sim(self):
        routers = [(0, "core")] + [(i, "edge") for i in range(1, 11)]
        topo = build_topology(routers, [(0, i, 1) for i in range(1, 11)])
        return SimState(Scenario(topo, [], workload.Params(), ("bier",), 4, 1))

    def count_calls(self, monkeypatch):
        """The ``(si, bits)`` of each flood and the ``(si, router, bits)``
        of each ``forward_bier`` call, appended as they are made."""
        floods, forwarded = [], []
        flood, forward = bier.flood_deliver, bier.forward_bier

        def counting_flood(bift, si, bits, at, reach):
            floods.append((si, bits))
            return flood(bift, si, bits, at, reach)

        def counting_forward(bift, si, bits, at):
            forwarded.append((si, at, bits))
            return forward(bift, si, bits, at)

        monkeypatch.setattr(bier, "flood_deliver", counting_flood)
        monkeypatch.setattr(bier, "forward_bier", counting_forward)
        return floods, forwarded

    def probe(self, sim, tick, calls):
        """``sim.probe``'s record, whose rows must equal a full re-probe's,
        and the floods and forwards it made."""
        expected = full_probe(sim, tick)
        for made in calls:
            made.clear()
        record = sim.probe(tick)
        assert expand_report([record]) == expected
        return record, *map(list, calls)

    def apply(self, sim, tick, *events):
        for kind, args in events:
            sim.apply(Event(tick, kind, args))

    def joined(self, monkeypatch):
        """Group 1 sourced at edge 1 with a member in each SI, probed once."""
        sim = self.sim()
        calls = self.count_calls(monkeypatch)
        self.apply(sim, 0, (workload.ADD_GROUP, (1, 1)),
                   *[(workload.JOIN, (1, r)) for r in (2, 6, 10)])
        record, floods, _ = self.probe(sim, 0, calls)
        assert floods == [(0, 0b10), (1, 0b10), (2, 0b10)]
        return sim, calls, record

    def test_reprobe_floods_every_si_of_a_stale_group(self, monkeypatch):
        sim, calls, _ = self.joined(monkeypatch)
        self.apply(sim, 1, (workload.JOIN, (1, 7)))
        _, floods, forwarded = self.probe(sim, 1, calls)
        assert floods == [(0, 0b10), (1, 0b110), (2, 0b10)]
        # only edge 7's bit is new: it is walked from the ingress to edge 7
        assert forwarded == [(1, 1, 0b100), (1, 0, 0b100), (1, 7, 0b100)]
        self.apply(sim, 2, (workload.LEAVE, (1, 10)), (workload.JOIN, (1, 9)))
        _, floods, _ = self.probe(sim, 2, calls)
        assert floods == [(0, 0b10), (1, 0b110), (2, 0b01)]
        # no event since: the group is not re-probed
        assert self.probe(sim, 3, calls)[1:] == ([], [])

    def test_bit_landed_from_the_ingress_is_not_forwarded_again(self, monkeypatch):
        sim, calls, _ = self.joined(monkeypatch)
        self.apply(sim, 1, (workload.LEAVE, (1, 6)))
        self.apply(sim, 2, (workload.JOIN, (1, 6)))
        _, floods, forwarded = self.probe(sim, 2, calls)
        assert floods == [(0, 0b10), (1, 0b10), (2, 0b10)]
        assert forwarded == []

    def test_group_readded_at_another_source_rejected(self, monkeypatch):
        # a group's source is fixed for its lifetime, so its bits land
        # where they landed before
        sim, calls, first = self.joined(monkeypatch)
        with pytest.raises(SimError, match="re-added with a different source"):
            sim.apply(Event(1, workload.ADD_GROUP, (1, 5)))
        assert sim.groups[1] == SgKey(1, 1)
        second, floods, forwarded = self.probe(sim, 1, calls)
        assert second.groups == first.groups == [(1, frozenset({2, 6, 10}))]
        assert floods == [(0, 0b10), (1, 0b10), (2, 0b10)]
        assert forwarded == []


# a probe or a full re-probe that gets two copies for one member names
# both in its mismatch
@pytest.mark.parametrize("owner, name, mode", [(multicast, "simulate_delivery", "stateful"),
                                               (bier, "flood_deliver", "bier")],
                         ids=["stateful", "bier"])
def test_duplicated_copy_is_named_in_the_mismatch(monkeypatch, owner, name, mode):
    # line 3: routers 0 and 2 are edges, router 1 is core
    sim = SimState(build_scenario(small_config(modes=["stateful_mcast", "bier"])))
    sim.apply(Event(0, workload.ADD_GROUP, (0, 0)))
    sim.apply(Event(0, workload.JOIN, (0, 2)))
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: original(*args) * 2)
    for probe in (sim.probe, lambda tick: full_probe(sim, tick)):
        with pytest.raises(DeliveryMismatch) as excinfo:
            probe(0)
        assert str(excinfo.value) == (f"delivery mismatch at tick 0, group 0, mode {mode}: "
                                      "delivered [2, 2], expected [2]")


def test_stateful_mismatch_raises_before_the_group_is_flooded(monkeypatch):
    # line 3: group 0, sourced at 0, delivers in both modes; group 1,
    # sourced at 2, fails in stateful, the first mode probed
    sim = SimState(build_scenario(small_config(modes=["stateful_mcast", "bier"])))
    for group, source, receiver in ((0, 0, 2), (1, 2, 0)):
        sim.apply(Event(0, workload.ADD_GROUP, (group, source)))
        sim.apply(Event(0, workload.JOIN, (group, receiver)))
    deliver, flood = multicast.simulate_delivery, bier.flood_deliver
    ingresses = []

    def counting_flood(bift, si, bits, ingress, reach):
        ingresses.append(ingress)
        return flood(bift, si, bits, ingress, reach)

    monkeypatch.setattr(multicast, "simulate_delivery",
                        lambda state, topo, sg: [] if sg.group == 1 else deliver(state, topo, sg))
    monkeypatch.setattr(bier, "flood_deliver", counting_flood)
    with pytest.raises(DeliveryMismatch) as excinfo:
        sim.probe(0)
    assert (excinfo.value.group, excinfo.value.mode) == (1, "stateful")
    assert ingresses == [0]


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

        def counting(state, topo, sg):
            probed.append(sg.group)
            return original(state, topo, sg)

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
            rejected = known and sim.groups[group].source_edge != source
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


# the BIFT is fixed for the run, so a bit's landing BFER is recorded the
# first time it is forwarded from a router, and every flood reads the
# landings of its ingress's row: a run forwards one-bit copies only, each
# (SI, router, bit) once, one per landing its reach table holds
@pytest.mark.parametrize("name, landings", [("group_churn", 4787), ("snapshot_probe", 2105)])
def test_run_forwards_each_one_bit_copy_once(monkeypatch, name, landings):
    forwarded = []
    tables = []
    forward, flood = bier.forward_bier, bier.flood_deliver

    def counting_forward(bift, si, bits, at):
        forwarded.append((si, at, bits))
        return forward(bift, si, bits, at)

    def keeping_reach(bift, si, bits, at, reach):
        if all(reach is not table for table in tables):
            tables.append(reach)
        return flood(bift, si, bits, at, reach)

    monkeypatch.setattr(bier, "forward_bier", counting_forward)
    monkeypatch.setattr(bier, "flood_deliver", keeping_reach)
    run(load_scenario(WORKLOADS / f"{name}.json"), seed=13)
    assert all(bits.bit_count() == 1 for _, _, bits in forwarded)
    assert len(set(forwarded)) == len(forwarded)
    [reach] = tables
    recorded = sum(bfer is not None for rows in reach.values()
                   for row in rows.values() for bfer in row)
    assert len(forwarded) == recorded == landings


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
            columns, mine_columns = list(zip(*state_rows(snap))), list(zip(*state_rows(mine)))
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
    # without a unicast mode, (S,G) state or BIFT, the row keeps a 0 there
    chosen = data.draw(st.sets(st.sampled_from(MODES), min_size=1))
    modes = tuple(m for m in MODES if m in chosen)
    scenario = Scenario(topo, len(topo.edge_routers), workload.Params(), modes, bsl, 1)
    sim = SimState(scenario)
    ops = data.draw(st.lists(st.tuples(st.sampled_from(SNAPSHOT_OPS), st.integers(0, 2),
                                       st.integers(0, len(edges) - 1)),
                             max_size=40))
    taken = []      # (snapshot, its expanded rows when it was taken)
    n_sites = 0
    for tick, (op, group, pick) in enumerate(ops + [("snapshot", 0, 0)]):
        members = sorted(sim.membership.get(group, ()))
        if op == "snapshot":
            snap = sim.snapshot(tick)
            rows = state_rows(snap)
            assert rows == full_snapshot(sim)
            taken.append((snap, rows))
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
        assert state_rows(snap) == rows


class TestCsv:
    def test_zero_snapshots_header_only(self, tmp_path):
        state_path, delivery_path = emit_csv([], [], tmp_path)
        assert state_path.read_text() == harness.STATE_HEADER + "\n"
        assert delivery_path.read_text() == harness.DELIVERY_HEADER + "\n"

    def test_row_count_arithmetic(self, tmp_path):
        snaps = [
            StateSnapshot(0, {"edge": (0, 0)}, [(r, "edge", 0, 0, 0) for r in range(3)]),
            StateSnapshot(10, {"edge": (1, 0)}, [(r, "edge", 0, 0, 0) for r in range(3)]),
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
    scenario = Scenario(topo, len(topo.edge_routers), params, modes, bsl, interval)
    assert_writes_reference_csv(*run(scenario))


def assert_writes_reference_csv(snapshots, report):
    with tempfile.TemporaryDirectory() as out:
        got = tuple(path.read_bytes() for path in emit_csv(snapshots, report, out))
    assert got == tuple(text.encode() for text in reference_emit_csv(snapshots, report))


def fat_edge_12_sim(**overrides):
    """A ``SimState`` in every mode over fat-edge 12: routers 0 and 1 are
    core, 2 to 11 edge."""
    return SimState(build_scenario(small_config(
        topology={"kind": "fat-edge", "size": 12}, providers="auto", **overrides)))


def sites_between_sg_changes():
    """Snapshots of a replay in which a site is added before every
    snapshot, and most ticks also join or leave group 0."""
    sim = fat_edge_12_sim()
    edges = sim.topo.edge_routers
    snapshots = []
    for tick in range(12):
        sim.apply(Event(tick, workload.ADD_SITE, (tick, edges[tick % len(edges)])))
        if tick == 0:
            sim.apply(Event(tick, workload.ADD_GROUP, (0, edges[0])))
        elif tick % 4 == 3:
            sim.apply(Event(tick, workload.LEAVE, (0, edges[tick - 2])))
        elif tick % 4:
            sim.apply(Event(tick, workload.JOIN, (0, edges[tick % len(edges)])))
        snapshots.append(sim.snapshot(tick))
    return snapshots


ROLES = {"core": (4, 0), "edge": (4, 2)}
ROWS = [(0, "core", 3, 1, 2), (1, "edge", 2, 0, 2), (2, "edge", 2, 1, 2)]
SG_ROW = (2, "edge", 2, 5, 2)       # ROWS[2] after a join
# hand-built snapshot sequences for the writer's cases that a replay
# reaches rarely or never; a list of rows or a role dict that a case
# repeats is the same object, as a replay shares it, and every snapshot
# lists the same routers in the same order, as a replay's do
WRITER_CASES = {
    "site_before_every_snapshot": sites_between_sg_changes,
    "new_role_dict_same_rows": lambda: [
        StateSnapshot(0, ROLES, ROWS),
        StateSnapshot(1, {"core": (5, 0), "edge": (5, 2)}, ROWS),
        StateSnapshot(2, {"core": (5, 0), "edge": (5, 2)}, list(ROWS)),
        StateSnapshot(3, {"edge": (6, 2), "core": (6, 1)}, list(ROWS)),
    ],
    "same_role_dict_new_rows": lambda: [
        StateSnapshot(0, ROLES, ROWS),
        StateSnapshot(1, ROLES, [ROWS[0], (1, "edge", 2, 7, 2), ROWS[2]]),
        StateSnapshot(2, ROLES, [(0, "core", 3, 1, 2), (1, "edge", 2, 7, 2), ROWS[2]]),
    ],
    # a generated schedule adds every site before its first group
    "new_rows_then_new_role_dict": lambda: [
        StateSnapshot(0, ROLES, ROWS),
        StateSnapshot(1, ROLES, ROWS[:2] + [SG_ROW]),
        StateSnapshot(2, {"core": (5, 0), "edge": (5, 2)}, ROWS[:2] + [SG_ROW]),
    ],
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_emit_csv_matches_reference_writer_on_explicit_cases(case):
    assert_writes_reference_csv(WRITER_CASES[case](), [])


class TestSnapshotCost:
    """A snapshot costs what changed: a site addition makes one new role
    dict and rebuilds no router row."""

    def test_site_addition_rebuilds_no_router_row(self):
        sim = fat_edge_12_sim(workload={"seed": 1})
        edges = sim.topo.edge_routers
        sim.apply(Event(0, workload.ADD_GROUP, (0, edges[0])))
        sim.apply(Event(1, workload.JOIN, (0, edges[1])))
        before = sim.snapshot(1)
        for tick, site in enumerate((0, 1, 2), start=2):
            sim.apply(Event(tick, workload.ADD_SITE, (site, edges[site])))
            after = sim.snapshot(tick)
            assert after.roles is not before.roles
            assert after.roles != before.roles
            assert len(after.rows) == len(before.rows) == 12
            assert all(a is b for a, b in zip(after.rows, before.rows))
            before = after

    def test_every_snapshot_lists_each_router_once_in_router_order(self):
        # emit_csv formats each router's ``router,role,`` from the first
        # snapshot only
        scenario = build_scenario(small_config(
            topology={"kind": "fat-edge", "size": 12}, providers="auto", snapshot_interval=1,
            workload={"seed": 2, "n_sites": 5, "n_groups": 3, "members_min": 1,
                      "members_max": 4, "churn_events": 20}))
        snapshots, _ = run(scenario)
        roles = scenario.topology.roles
        heads = [(router, roles[router]) for router in sorted(roles)]
        assert len(snapshots) > 3
        assert all([row[:2] for row in snap.rows] == heads for snap in snapshots)

    def test_rows_built_are_routers_plus_sg_count_changes(self):
        scenario = build_scenario(small_config(
            topology={"kind": "fat-edge", "size": 12}, providers="auto", snapshot_interval=1,
            workload={"seed": 1, "n_sites": 20, "n_groups": 4, "members_min": 2,
                      "members_max": 5, "churn_events": 30}))
        snapshots, _ = run(scenario)
        sg_changes = sum(
            row[5] != prev_row[5]
            for prev, snap in itertools.pairwise(snapshots)
            for row, prev_row in zip(state_rows(snap), state_rows(prev)))
        distinct = {id(row) for snap in snapshots for row in snap.rows}
        assert sg_changes > 0
        assert len(distinct) <= len(scenario.topology.roles) + sg_changes
        # one role dict per site added: site 0 is added at tick 0, before
        # the first snapshot, and every later one at its own tick
        assert len({id(snap.roles) for snap in snapshots}) == 20


# a site is counted, not stored: 100,000 sites leave the state no bigger
# (8 MiB while each site's /24 identifier was a dict entry)
def test_sites_hold_no_state_of_their_own():
    scenario = build_scenario(small_config(
        topology={"kind": "fat-edge", "size": 120}, modes=["flat", "mapencap", "mpls"],
        workload={"seed": 1, "n_sites": 100_000}))
    sim = SimState(scenario)
    edges = sim.topo.edge_routers
    sim.apply(Event(0, workload.ADD_SITE, (0, edges[0])))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for site in range(1, 100_000):
            sim.apply(Event(site, workload.ADD_SITE, (site, edges[site % len(edges)])))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.unicast.flat_fib_size() == scenario.n_providers + 100_000
    assert after - before < 64 * 1024


# -- the paused collector ----------------------------------------------------


def test_both_folders_have_scenarios_to_replay_for_cycles():
    assert {path.parent.name for path in RUN_FILES} == {"scenarios", "workloads"}


# a run pauses the collector because nothing it builds forms a reference
# cycle: with the collector off, reference counting must free every object
# a run drops, so a collection afterwards finds nothing unreachable
@pytest.mark.parametrize("path", RUN_FILES, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_a_run_leaves_no_cycle_for_the_collector(tmp_path, path):
    gc.collect()
    with collector_paused():
        emit_csv(*run(load_scenario(path)), tmp_path)
        assert gc.collect() == 0


def test_an_aborted_run_leaves_no_cycle_for_the_collector():
    gc.collect()
    with collector_paused():
        try:
            run(load_scenario(FIXTURES / "fault_scenario.json"))
        except DeliveryMismatch:
            pass
        else:
            pytest.fail("the fault fixture ran to the end")
        assert gc.collect() == 0


@pytest.fixture(params=[True, False], ids=["caller on", "caller off"])
def caller_setting(request):
    """The collector switched on or off as a caller might have it, and
    put back as it was after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_collector_paused_restores_after_a_return(caller_setting, tmp_path):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() is caller_setting
    emit_csv(*run(load_scenario(EXAMPLE_SCENARIO)), tmp_path)
    assert gc.isenabled() is caller_setting


def test_collector_paused_restores_after_a_delivery_mismatch(caller_setting):
    scenario = load_scenario(FIXTURES / "fault_scenario.json")
    with pytest.raises(DeliveryMismatch):
        run(scenario)
    assert gc.isenabled() is caller_setting


def test_collector_paused_restores_after_a_scenario_error(caller_setting):
    with pytest.raises(ScenarioError):
        load_scenario(FIXTURES / "fractional_cost_scenario.json")
    assert gc.isenabled() is caller_setting


def test_collector_paused_nests_as_the_cli_nests_it(caller_setting, tmp_path):
    # an inner scope leaves the collector off for the outer one
    with collector_paused():
        scenario = load_scenario(EXAMPLE_SCENARIO)
        assert not gc.isenabled()
        snapshots, report = run(scenario)
        assert not gc.isenabled()
        emit_csv(snapshots, report, tmp_path)
        assert not gc.isenabled()
    assert gc.isenabled() is caller_setting


def test_load_run_and_write_each_pause_the_collector(monkeypatch, tmp_path):
    seen = {}

    def spy(name, func):
        def call(*args, **kwargs):
            seen[name] = gc.isenabled()
            return func(*args, **kwargs)
        return call

    class Report(list):
        def __iter__(self):
            seen["emit_csv"] = gc.isenabled()
            return super().__iter__()

    monkeypatch.setattr(harness, "build_scenario", spy("load_scenario", build_scenario))
    monkeypatch.setattr(workload, "generate", spy("run", workload.generate))
    assert gc.isenabled()
    snapshots, report = run(load_scenario(EXAMPLE_SCENARIO))
    emit_csv(snapshots, Report(report), tmp_path)
    assert seen == {"load_scenario": False, "run": False, "emit_csv": False}
    assert gc.isenabled()
