"""Every function in the ``routescale`` package is reached by a scenario run.

``validate`` and ``run`` replay every scenario file of the repository,
in-process and under ``sys.setprofile``.  Each ``def`` in the package
must be called by one of them, or be on ``ALLOWLIST`` with the reason
no run calls it.  Code that no run reaches adds nothing to the state
counts the simulator reports; it is deleted, moved next to the test
that uses it, or given a scenario that reaches it.
"""

import ast
import sys
from pathlib import Path

import pytest

import routescale
from routescale.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(routescale.__file__).resolve().parent
SCENARIO_DIRS = ("scenarios", "bench/workloads", "tests/fixtures")

ERROR_ONLY = "runs only on an error"
WRAPPED = "bench/layers.py wraps it, and has no way yet to skip a missing name"
UNICAST_FORWARD = ("the unicast forward path, which no run sends a packet on yet "
                   "(ROADMAP: a unicast probe)")

# "module.qualified.name" -> why no scenario run calls it
ALLOWLIST = {
    "cli._Parser.error": ERROR_ONLY,
    "unicast.Prefix.__str__": ERROR_ONLY,
    "cli.main": "the console-script entry; the runs here call cli_main",
    "topology.shortest_paths": WRAPPED,
    "topology.Topology.__len__": UNICAST_FORWARD,
    "unicast.host_address": UNICAST_FORWARD,
    "unicast.PrefixTable.lookup": UNICAST_FORWARD,
    "unicast.LabelTables.__init__": UNICAST_FORWARD,
    "unicast.LabelTables.alloc_label": UNICAST_FORWARD,
    "unicast.establish_lsp": UNICAST_FORWARD,
    "unicast.UnicastPlane.labels": UNICAST_FORWARD,
    "unicast.UnicastPlane._local_site": UNICAST_FORWARD,
    "unicast.UnicastPlane.lookup_counts": UNICAST_FORWARD,
    "unicast.UnicastPlane.forward": UNICAST_FORWARD,
    "unicast.UnicastPlane._forward_flat": UNICAST_FORWARD,
    "unicast.UnicastPlane._forward_mapencap": UNICAST_FORWARD,
    "unicast.UnicastPlane._forward_mpls": UNICAST_FORWARD,
    "unicast.UnicastPlane.deliver": UNICAST_FORWARD,
    "unicast.UnicastPlane.encap_fib_size": (
        "the encap_fib state column to come (ROADMAP); acceptance criterion 2 "
        "reads it"),
}


def package_defs():
    """``{(file, first line, name): "module.qualified.name"}`` for every
    ``def`` in the package.

    Python 3.10's code objects carry no qualified name, and a decorated
    function's code starts at its first decorator, so a code object is
    matched to its ``def`` by file, first line and bare name.
    """
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(path, first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, f"{path.stem}.")
    return defs


def scenario_files():
    files = sorted(f for d in SCENARIO_DIRS for f in (ROOT / d).rglob("*.json"))
    assert files, f"no scenario files under {SCENARIO_DIRS}"
    return files


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """``(names of the package defs called, {file: (validate's exit code,
    run's exit code)})`` over every scenario file."""
    out = tmp_path_factory.mktemp("reachability")
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = {}
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, path in enumerate(scenario_files()):
            codes[path] = (
                cli_main(["validate", "--scenario", str(path)]),
                cli_main(["run", "--scenario", str(path), "--out", str(out / str(i))]),
            )
    finally:
        sys.setprofile(previous)
    defs = package_defs()
    reached = set()
    for code in called:
        key = (Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name)
        if key in defs:
            reached.add(defs[key])
    return reached, codes


def test_scenarios_and_workloads_run_cleanly(replay):
    # a run that stops early would hide every function after the failure
    _, codes = replay
    for path, pair in codes.items():
        if not path.is_relative_to(ROOT / "tests"):
            assert pair == (0, 0), path


def test_every_def_is_reached_or_allowlisted(replay):
    reached, _ = replay
    unreached = sorted(set(package_defs().values()) - reached - set(ALLOWLIST))
    assert not unreached, (
        f"no scenario run calls {unreached}: delete them, move them next to the "
        "test that uses them, or add them to ALLOWLIST with a reason")


def test_no_allowlisted_def_is_reached(replay):
    reached, _ = replay
    listed = sorted(reached & set(ALLOWLIST))
    assert not listed, f"a scenario run calls {listed}: take them off ALLOWLIST"


def test_every_allowlist_entry_names_a_def():
    missing = sorted(set(ALLOWLIST) - set(package_defs().values()))
    assert not missing, f"ALLOWLIST names no such function: {missing}"
