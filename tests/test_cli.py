import gc
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_provider_section
from routescale import errors, harness, unicast, workload
from routescale.cli import cli_main
from routescale.generators import KINDS, gen_topology
from routescale.unicast import MAX_SITES

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLE_SCENARIO = str(Path(__file__).parent.parent / "scenarios" / "example.json")
BIER_WIDE_SCENARIO = str(Path(__file__).parent.parent / "scenarios" / "bier_wide.json")
BROKEN_TOPOLOGY = "broken_topology.json"
# 200,000 nested arrays: deeper than the JSON parser recurses
DEEP_TOPOLOGY = "deep_topology.json"
DEEP_NESTING = "[" * 200_000
# a topology file whose {"topology": ...} wrapper holds two keys beside it
WRAPPED_TOPOLOGY = "wrapped_topology.json"


class TestValidate:
    def test_example_scenario_ok(self, capsys):
        assert cli_main(["validate", "--scenario", EXAMPLE_SCENARIO]) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_file_is_validation_failure(self, capsys):
        assert cli_main(["validate", "--scenario", "/no/such/file.json"]) == 1
        assert capsys.readouterr().err

    def test_broken_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"topology": {"kind": "line", "size": 3}, "bsl": 0}))
        assert cli_main(["validate", "--scenario", str(bad)]) == 1

    def test_value_of_the_wrong_type(self, tmp_path, capsys):
        for bsl in ("eight", None):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"topology": {"kind": "line", "size": 3}, "bsl": bsl}))
            assert cli_main(["validate", "--scenario", str(bad)]) == 1
            assert "malformed scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "must be a JSON object, got [1, 2]"),
        ({"topology": {"kind": "line", "size": 3}, "modes": "bier"},
         "modes must be a list of mode names, got 'bier'"),
        ({"topology": {"kind": "line", "size": 3}, "workload": "abc"},
         "workload must be a JSON object, got 'abc'"),
        ({"topology": {"kind": "line", "size": 3}, "workload": [1, 2]},
         "workload must be a JSON object, got [1, 2]"),
        ({"topology": [1, 2]}, "topology must be a JSON object, got [1, 2]"),
        ({"topology": {"kind": "line", "size": 3}, "providers": 5},
         'providers must be "auto" or a list of provider objects, got 5'),
        ({"topology": {"kind": "line", "size": 3}, "providers": [5]},
         "providers entry must be a JSON object, got 5"),
        ({"topology": {"kind": "line", "size": 3}, "providers": [{"id": 0, "routers": 5}]},
         "provider 0 routers must be a list of router ids, got 5"),
        ({"topology": {"routers": 5, "links": []}},
         "topology routers must be a list of [id, role] lists, got 5"),
        ({"topology": {"routers": [[0, "edge"]], "links": [[0, 1]]}},
         "each of topology links must be a list [a, b, cost], got [0, 1]"),
        ({"topology": {"file": 5}}, "topology file must be a path string, got 5"),
        ({"topology": {"kind": ["line"], "size": 3}}, "unknown topology kind ['line']"),
        # line 3 has two edge routers
        ({"topology": {"kind": "line", "size": 3}, "workload": {"n_groups": 1, "members_max": 3}},
         "members_max 3 exceeds 2 edge routers"),
        # each JSON object rejects a key outside its shape
        ({"topology": {"kind": "grid", "size": 4, "cost": 3}}, "unknown topology keys: ['cost']"),
        ({"topology": {"file": "topo.json", "kind": "star", "size": 9}},
         "unknown topology keys: ['kind', 'size']"),
        ({"topology": {"routers": [[0, "edge"], [1, "edge"]], "links": [[0, 1, 1]], "size": 50}},
         "unknown topology keys: ['size']"),
        ({"topology": {"kind": "line", "size": 3}, "modes": ["flat"],
          "providers": [{"id": 0, "routers": [0, 1], "edge": 9}, {"id": 1, "routers": [2]}]},
         "unknown providers entry keys: ['edge']"),
        ({"topology": {"kind": "line", "size": 3, "links": 5}},
         "unknown topology keys: ['links']"),
        ({"topology": {"file": WRAPPED_TOPOLOGY}, "modes": ["bier"]},
         f"{WRAPPED_TOPOLOGY} keys: ['links', 'zz']"),
        # an input file that cannot be read or parsed (BROKEN_TOPOLOGY holds invalid JSON)
        pytest.param(b"\xff\xfe", "cannot read scenario", id="not UTF-8"),
        pytest.param(b'{"topology": {"kind": "line", "size": 3}, "bsl": ' + b"1" * 4301 + b"}",
                     "cannot read scenario", id="4301 digits"),
        ({"topology": {"file": BROKEN_TOPOLOGY}}, "cannot read topology file"),
        pytest.param(DEEP_NESTING.encode(), "bad.json: maximum recursion depth",
                     id="nested 200,000 deep"),
        ({"topology": {"file": DEEP_TOPOLOGY}}, f"{DEEP_TOPOLOGY}: maximum recursion depth"),
        ({"topology": {"file": "missing.json"}}, "cannot read topology file"),
    ])
    def test_malformed_scenario_shape(self, tmp_path, capsys, config, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        (tmp_path / BROKEN_TOPOLOGY).write_text('{"topology": ')
        (tmp_path / DEEP_TOPOLOGY).write_text(DEEP_NESTING)
        (tmp_path / WRAPPED_TOPOLOGY).write_text(json.dumps(
            {"topology": {"kind": "line", "size": 3}, "links": 5, "zz": 1}))
        runs = [["validate"], ["run", "--out", str(tmp_path / "out")]]
        if isinstance(config, list):
            # --modes replaces a scenario's modes, which a list does not have
            runs.append(["run", "--out", str(tmp_path / "out"), "--modes", "bier"])
        for argv in runs:
            assert cli_main([*argv, "--scenario", str(bad)]) == 1, argv
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, argv

    def test_link_to_undefined_router(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"topology": {"routers": [[0, "edge"]], "links": [[0, 5, 1]]}}))
        assert cli_main(["validate", "--scenario", str(bad)]) == 1
        assert "validation failure" in capsys.readouterr().err

    def test_fractional_link_cost_fixture(self, capsys):
        scenario = str(FIXTURES / "fractional_cost_scenario.json")
        assert cli_main(["validate", "--scenario", scenario]) == 1
        assert "cost must be an integer, got 1.5" in capsys.readouterr().err

    def test_empty_provider_fixture(self, tmp_path, capsys):
        scenario = str(FIXTURES / "empty_provider_scenario.json")
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli_main([*argv, "--scenario", scenario]) == 1, argv
            assert "provider 2 owns no router" in capsys.readouterr().err

    def test_too_many_sites_for_unicast(self, tmp_path, capsys):
        config = json.loads(Path(EXAMPLE_SCENARIO).read_text())
        config["workload"]["n_sites"] = MAX_SITES + 1
        scenario = tmp_path / "many_sites.json"
        scenario.write_text(json.dumps(config))
        assert cli_main(["validate", "--scenario", str(scenario)]) == 1
        assert "/24" in capsys.readouterr().err

    def write_fault_scenario(self, tmp_path, **overrides):
        config = json.loads((FIXTURES / "fault_scenario.json").read_text())
        config.update(overrides)
        scenario = tmp_path / "fault.json"
        scenario.write_text(json.dumps(config))
        return str(scenario)

    def test_unknown_fault(self, tmp_path, capsys):
        scenario = self.write_fault_scenario(tmp_path, fault="no_such_fault")
        assert cli_main(["validate", "--scenario", scenario]) == 1
        assert "no_such_fault" in capsys.readouterr().err

    def test_fault_needs_its_mode(self, tmp_path, capsys):
        scenario = self.write_fault_scenario(tmp_path, modes=["stateful_mcast"])
        assert cli_main(["validate", "--scenario", scenario]) == 1
        assert "'bier'" in capsys.readouterr().err
        assert cli_main(["run", "--scenario", scenario, "--out", str(tmp_path / "out")]) == 1


# workload values that a scenario must reject when it loads, not when it runs
BAD_WORKLOADS = [
    {"churn_events": "5"},
    {"n_groups": 1.5},
    {"seed": None},
    {"n_sites": True},
    {"members_min": 3, "members_max": 2},
    {"members_min": 0},
    {"n_sites": -1},
    {"n_groups": -1},
    {"churn_events": -1},
]


@pytest.mark.parametrize("overrides", BAD_WORKLOADS,
                         ids=lambda d: ",".join(f"{k}={v!r}" for k, v in d.items()))
def test_bad_workload_value_exits_1(tmp_path, capsys, overrides):
    scenario = tmp_path / "bad_workload.json"
    scenario.write_text(json.dumps({
        "topology": {"kind": "star", "size": 5},
        "workload": {"seed": 1, "n_groups": 2, "members_min": 1, "members_max": 2,
                     "churn_events": 5, **overrides},
        "modes": ["bier"],
        "bsl": 8,
    }))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main([*argv, "--scenario", str(scenario)]) == 1, argv
        assert "validation failure" in capsys.readouterr().err


# scenario numbers that must be ints: a fraction, a bool or a string is
# rejected when the scenario loads, never truncated or parsed
TWO_EDGES = {"routers": [[0, "edge"], [1, "edge"]], "links": [[0, 1, 1]]}
BAD_NUMBERS = [
    {"bsl": 32.9},
    {"bsl": True},
    {"snapshot_interval": True},
    {"snapshot_interval": 2.5},
    {"topology": {"kind": "star", "size": 5.0}},
    {"topology": {"kind": "star", "size": "5"}},
    {"topology": {**TWO_EDGES, "routers": [[0, "edge"], [1.0, "edge"]]}},
    {"topology": {**TWO_EDGES, "routers": [[0, "edge"], [True, "edge"]]}},
    {"topology": {**TWO_EDGES, "links": [[0, 1, 2.5]]}},
    {"topology": {**TWO_EDGES, "links": [[0, 1, True]]}},
    {"topology": {**TWO_EDGES, "links": [[0, "1", 1]]}},
    {"providers": [{"id": 0.0, "routers": [0]}, {"id": 1, "routers": [1]}]},
    {"providers": [{"id": 0, "routers": [0]}, {"id": True, "routers": [1]}]},
    {"providers": [{"id": 0, "routers": [0]}, {"id": 1, "routers": ["1"]}]},
    {"providers": [{"id": 0, "routers": [0]}, {"id": 1, "routers": [1.0]}]},
]


def write_two_edge_scenario(tmp_path, **overrides):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "topology": TWO_EDGES,
        "providers": [{"id": 0, "routers": [0]}, {"id": 1, "routers": [1]}],
        "workload": {"seed": 1, "n_sites": 2, "n_groups": 1, "members_min": 1,
                     "members_max": 2, "churn_events": 2},
        "modes": ["flat", "bier"],
        "bsl": 8,
        "snapshot_interval": 1,
        **overrides,
    }))
    return str(scenario)


def test_two_edge_scenario_is_valid(tmp_path):
    assert cli_main(["validate", "--scenario", write_two_edge_scenario(tmp_path)]) == 0


@pytest.mark.parametrize("overrides", BAD_NUMBERS,
                         ids=lambda d: ",".join(f"{k}={v!r}" for k, v in d.items()))
def test_non_integer_number_exits_1(tmp_path, capsys, overrides):
    scenario = write_two_edge_scenario(tmp_path, **overrides)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main([*argv, "--scenario", scenario]) == 1, argv
        err = capsys.readouterr().err
        assert "validation failure" in err and "integer" in err, err


# scenario sections without a key they need
MISSING_KEYS = [
    {"topology": {"kind": "grid"}},
    {"topology": {"routers": TWO_EDGES["routers"]}},
]


@pytest.mark.parametrize("overrides", MISSING_KEYS,
                         ids=lambda d: ",".join(f"{k}={v!r}" for k, v in d.items()))
def test_missing_key_exits_1(tmp_path, capsys, overrides):
    scenario = write_two_edge_scenario(tmp_path, **overrides)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main([*argv, "--scenario", scenario]) == 1, argv
        err = capsys.readouterr().err
        assert "validation failure" in err and "missing key" in err, err


# a valid scenario with an inline topology, explicit providers and every mode
INLINE_SCENARIO = {
    "topology": {"routers": [[0, "edge"], [1, "core"], [2, "edge"]],
                 "links": [[0, 1, 1], [1, 2, 2]]},
    "providers": [{"id": 0, "routers": [0, 1]}, {"id": 1, "routers": [2]}],
    "workload": {"seed": 1, "n_sites": 2, "n_groups": 1, "members_min": 1,
                 "members_max": 2, "churn_events": 2},
    "modes": list(harness.MODES),
    "bsl": 8,
    "snapshot_interval": 1,
}
# JSON values of six types; an edit puts one where a value of another type was
SWAPS = (True, 1.5, "x", None, [], {})


def containers(value, path=()):
    """Yield ``(path, container)`` for ``value`` and each JSON object or
    array in it, ``path`` being the keys and indices that lead to it."""
    if isinstance(value, (dict, list)):
        yield path, value
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from containers(item, (*path, key))


def edited(config, path, key, value):
    """A copy of ``config`` whose container at ``path`` holds ``value`` at ``key``."""
    config = json.loads(json.dumps(config))
    container = config
    for step in path:
        container = container[step]
    container[key] = value
    return config


def test_every_edit_outside_the_shape_exits_1(tmp_path, capsys):
    """One unknown key in any JSON object, or one value swapped for a
    value of another JSON type anywhere below the root, fails validation
    with exit 1: an unknown key is named, and no exception escapes."""
    scenario = tmp_path / "scenario.json"

    def validate(config):
        scenario.write_text(json.dumps(config))
        return cli_main(["validate", "--scenario", str(scenario)]), capsys.readouterr().err

    accepted = []
    n_edits = 0
    for base in (json.loads(Path(EXAMPLE_SCENARIO).read_text()), INLINE_SCENARIO):
        assert validate(base)[0] == 0
        for path, container in containers(base):
            if isinstance(container, dict):
                n_edits += 1
                rc, err = validate(edited(base, path, "zz_unknown", 1))
                if rc != 1 or "zz_unknown" not in err:
                    accepted.append((path, "zz_unknown", rc, err))
            for key, value in (container.items() if isinstance(container, dict)
                               else enumerate(container)):
                for swap in SWAPS:
                    if type(swap) is type(value):
                        continue
                    n_edits += 1
                    rc, err = validate(edited(base, path, key, swap))
                    if rc != 1 or not err.startswith("validation failure"):
                        accepted.append(((*path, key), swap, rc, err))
    assert n_edits > 300 and accepted == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*harness.SECTIONS, *(f"workload.{key}" for key in
                                              workload.Params.__dataclass_fields__)]),
       JSON_VALUES)
def test_any_json_value_in_any_section_is_accepted_or_a_scenario_error(where, value):
    """Whatever JSON value a section or workload key holds, the scenario
    is built or refused with a ScenarioError; no other exception leaves
    ``build_scenario``."""
    config = json.loads(json.dumps(INLINE_SCENARIO))
    section, _, key = where.partition(".")
    if key:
        config[section][key] = value
    else:
        config[section] = value
    try:
        harness.build_scenario(config)
    except errors.ScenarioError:
        pass


# the classes whose failures exit with code 1; every other SimError exits 2
EXIT_1 = {
    "ScenarioError", "TopologyError", "DuplicateRouter", "InvalidRouter",
    "DuplicateLink", "InvalidLink", "SelfLoop", "Disconnected", "NoEdgeRouters",
    "InvalidPrefix", "InvalidParams",
}


def test_exit_code_follows_the_error_class(monkeypatch, tmp_path, capsys):
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SimError)]
    assert {c.__name__ for c in classes if issubclass(c, errors.ScenarioError)} == EXIT_1
    for cls in classes:
        if cls is errors.DeliveryMismatch:
            exc = cls(0, 0, "bier", frozenset(), frozenset())
        else:
            exc = cls("injected")

        def fail(*_args, exc=exc):
            raise exc

        monkeypatch.setattr(harness, "load_scenario", fail)
        want = 1 if cls.__name__ in EXIT_1 else 2
        for argv in (["validate"], ["run", "--out", str(tmp_path)]):
            assert cli_main([*argv, "--scenario", EXAMPLE_SCENARIO]) == want, (cls, argv)
            assert str(exc) in capsys.readouterr().err


def test_run_checks_the_providers_once(monkeypatch, tmp_path, capsys):
    # "auto" is one provider per edge router, valid by construction, so
    # only an explicit list has a partition to check
    explicit = tmp_path / "explicit.json"
    config = json.loads(Path(EXAMPLE_SCENARIO).read_text())
    config["providers"] = edge_provider_section(harness.load_scenario(EXAMPLE_SCENARIO).topology)
    explicit.write_text(json.dumps(config))
    calls = []
    check = unicast.check_providers

    def counting(*args):
        calls.append(args)
        return check(*args)

    # harness imports the name, so a call through either module is counted
    monkeypatch.setattr(harness, "check_providers", counting)
    monkeypatch.setattr(unicast, "check_providers", counting)
    assert cli_main(["run", "--scenario", EXAMPLE_SCENARIO, "--out", str(tmp_path / "a")]) == 0
    assert calls == []
    assert cli_main(["run", "--scenario", str(explicit), "--out", str(tmp_path / "b")]) == 0
    assert len(calls) == 1


class TestRun:
    def test_run_writes_both_csvs(self, tmp_path, capsys):
        rc = cli_main(["run", "--scenario", EXAMPLE_SCENARIO, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "state.csv").exists()
        assert (tmp_path / "delivery.csv").exists()

    @pytest.mark.parametrize("scenario", [EXAMPLE_SCENARIO, BIER_WIDE_SCENARIO])
    def test_printed_counts_match_the_csvs(self, tmp_path, capsys, scenario):
        assert cli_main(["run", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        match = re.search(r"\((\d+) snapshots\).*\((\d+) delivery rows\)",
                          capsys.readouterr().out)
        n_snapshots, n_rows = int(match[1]), int(match[2])
        delivery = (tmp_path / "delivery.csv").read_text().splitlines()[1:]
        assert n_rows == len(delivery) > 0
        state = (tmp_path / "state.csv").read_text().splitlines()[1:]
        assert n_snapshots == len({line.split(",")[0] for line in state}) > 1

    def test_broken_delivery_exits_2(self, tmp_path, capsys):
        rc = cli_main(["run", "--scenario", str(FIXTURES / "fault_scenario.json"),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "delivery failure" in capsys.readouterr().err

    def test_mode_subset(self, tmp_path):
        rc = cli_main(["run", "--scenario", EXAMPLE_SCENARIO,
                       "--out", str(tmp_path), "--modes", "bier,stateful_mcast"])
        assert rc == 0
        header, first = (tmp_path / "state.csv").read_text().splitlines()[:2]
        # unicast columns all zero when those modes are off
        assert first.split(",")[3:6] == ["0", "0", "0"]

    def test_unknown_mode_exits_1(self, tmp_path, capsys):
        rc = cli_main(["run", "--scenario", EXAMPLE_SCENARIO,
                       "--out", str(tmp_path), "--modes", "warp"])
        assert rc == 1

    @pytest.mark.parametrize("modes, message", [("bier,bier", "more than once"),
                                                ("bier, flat,bier", "more than once"),
                                                (",", "no mode"), ("", "no mode")])
    def test_repeated_or_no_mode_exits_1(self, tmp_path, capsys, modes, message):
        rc = cli_main(["run", "--scenario", EXAMPLE_SCENARIO,
                       "--out", str(tmp_path), "--modes", modes])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "state.csv").exists()

    def test_bier_only_star_200_runs(self, tmp_path):
        assert cli_main(["run", "--scenario", BIER_WIDE_SCENARIO, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "delivery.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[3] == "1" for row in rows)

    def test_modes_override_is_validated(self, tmp_path, capsys):
        # beyond 32,768 edge routers a unicast mode has too few /16 locators
        assert cli_main(["gen-topology", "--kind", "star", "--size", "32770",
                         "--out", str(tmp_path / "star.json")]) == 0
        scenario = tmp_path / "wide.json"
        scenario.write_text(json.dumps({"topology": {"file": "star.json"},
                                        "modes": ["stateful_mcast"]}))
        capsys.readouterr()
        rc = cli_main(["run", "--scenario", str(scenario),
                       "--out", str(tmp_path / "a"), "--modes", "flat,stateful_mcast"])
        assert rc == 1
        assert "at most 32768" in capsys.readouterr().err
        # and dropping the unicast modes lifts the limit
        wide_unicast = tmp_path / "wide_unicast.json"
        wide_unicast.write_text(json.dumps({"topology": {"file": "star.json"},
                                            "modes": ["flat", "stateful_mcast"]}))
        assert cli_main(["validate", "--scenario", str(wide_unicast)]) == 1
        assert "at most 32768" in capsys.readouterr().err
        assert cli_main(["run", "--scenario", str(wide_unicast),
                         "--out", str(tmp_path / "b"), "--modes", "stateful_mcast"]) == 0

    def test_seed_override_is_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert cli_main(["run", "--scenario", EXAMPLE_SCENARIO,
                             "--out", str(tmp_path / name), "--seed", "7"]) == 0
        assert ((tmp_path / "a" / "state.csv").read_bytes()
                == (tmp_path / "b" / "state.csv").read_bytes())


@pytest.mark.parametrize("scenario, rc", [(EXAMPLE_SCENARIO, 0),
                                          (str(FIXTURES / "fault_scenario.json"), 2),
                                          (str(FIXTURES / "empty_provider_scenario.json"), 1)],
                         ids=["written", "delivery failure", "validation failure"])
@pytest.mark.parametrize("enabled", [True, False], ids=["caller on", "caller off"])
def test_run_restores_the_collector_setting(tmp_path, capsys, scenario, rc, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli_main(["run", "--scenario", scenario, "--out", str(tmp_path)]) == rc
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


class TestGenTopology:
    def test_line_size_3(self, tmp_path):
        out = tmp_path / "topo.json"
        assert cli_main(["gen-topology", "--kind", "line", "--size", "3",
                         "--out", str(out)]) == 0
        topo = json.loads(out.read_text())["topology"]
        assert len(topo["routers"]) == 3
        assert len(topo["links"]) == 2

    def test_generated_file_usable_in_scenario(self, tmp_path):
        topo_file = tmp_path / "topo.json"
        cli_main(["gen-topology", "--kind", "star", "--size", "5", "--out", str(topo_file)])
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "topology": {"file": "topo.json"},
            "workload": {"seed": 1, "n_groups": 2, "members_min": 1, "members_max": 2},
            "modes": ["stateful_mcast", "bier"],
            "bsl": 8,
        }))
        assert cli_main(["validate", "--scenario", str(scenario)]) == 0
        assert cli_main(["run", "--scenario", str(scenario),
                         "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("kind", [["line"], {"kind": "line"}, None],
                             ids=["list", "dict", "None"])
    def test_kind_that_is_not_a_string_is_unknown(self, kind):
        with pytest.raises(errors.InvalidParams, match="unknown topology kind") as excinfo:
            gen_topology(kind, 3)
        assert str(KINDS) in str(excinfo.value)

    def test_usage_error_exits_1(self, capsys):
        assert cli_main(["gen-topology", "--kind", "moebius", "--size", "3",
                         "--out", "/tmp/x"]) == 1
        assert capsys.readouterr().err
