"""Every function and class in the ``routescale`` package is reached by a
scenario run.

``validate`` and ``run`` replay every scenario file of the repository,
in-process and under ``sys.setprofile``.  Each ``def`` in the package
must be called by one of them, and each class must be named by a called
``def`` or be the base of a class that is; anything else is on
``ALLOWLIST`` with the reason no run reaches it.  Code that no run
reaches adds nothing to the state counts the simulator reports; it is
deleted, moved next to the test that uses it, or given a scenario that
reaches it.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import routescale
from routescale import unicast
from routescale.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(routescale.__file__).resolve().parent
SCENARIO_DIRS = ("scenarios", "bench/workloads", "tests/fixtures")

ERROR_ONLY = "runs only on an error"
WRAPPED = "bench/layers.py wraps it, and has no way yet to skip a missing name"
LSP_MESH = ("bench/layers.py wraps establish_lsp, and has no way yet to skip a "
            "missing name; the label tables are what it fills")

# "module.qualified.name" -> why no scenario run reaches it
ALLOWLIST = {
    "cli._Parser.error": ERROR_ONLY,
    "cli.main": "the console-script entry; the runs here call cli_main",
    "errors.InvalidPrefix": "raised by unicast.PrefixTable.add alone, which no run calls",
    "errors.RpfFailure": "built by multicast._copy_error alone, " + ERROR_ONLY,
    "multicast._copy_error": ERROR_ONLY,
    "topology.shortest_paths": WRAPPED,
    "unicast.PrefixTable": WRAPPED,
    "unicast.PrefixTable.add": WRAPPED,
    "unicast.establish_lsp": LSP_MESH,
    "unicast.LabelTables": LSP_MESH,
    "unicast.LabelTables.__init__": LSP_MESH,
    "unicast.LabelTables.alloc_label": LSP_MESH,
}


def package_names():
    """``({(file, first line, name): "module.qualified.name"} for every
    def, {"module.qualified.name": (bare name, base names)} for every
    class)`` in the package.

    Python 3.10's code objects carry no qualified name, and a decorated
    function's code starts at its first decorator, so a code object is
    matched to its ``def`` by file, first line and bare name.
    """
    defs = {}
    classes = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(path, first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                bases = {b.id for b in child.bases if isinstance(b, ast.Name)}
                classes[prefix + child.name] = (child.name, bases)
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, f"{path.stem}.")
    return defs, classes


def reached_classes(classes, names):
    """The package classes whose bare names are in ``names`` (the
    ``co_names`` of the code that ran), and every package base class of
    those, transitively: an ``except`` on a base class catches its
    subclasses' instances."""
    by_name = {}
    for qualified, (name, _) in classes.items():
        by_name.setdefault(name, set()).add(qualified)
    reached = set()
    todo = [name for name in names if name in by_name]
    while todo:
        for qualified in by_name[todo.pop()] - reached:
            reached.add(qualified)
            todo.extend(base for base in classes[qualified][1] if base in by_name)
    return reached


def scenario_files():
    files = sorted(f for d in SCENARIO_DIRS for f in (ROOT / d).rglob("*.json"))
    assert files, f"no scenario files under {SCENARIO_DIRS}"
    return files


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """``(names of the package defs called and classes named,
    {file: (validate's exit code, run's exit code)})`` over every
    scenario file."""
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
    defs, classes = package_names()
    reached = set()
    names = set()
    for code in called:
        path = Path(code.co_filename).resolve()
        if path.parent != PACKAGE:
            continue
        # comprehensions and lambdas are code of their own before
        # Python 3.12, so their names count with the def around them
        names.update(code.co_names)
        key = (path, code.co_firstlineno, code.co_name)
        if key in defs:
            reached.add(defs[key])
    return reached | reached_classes(classes, names), codes


def all_names():
    defs, classes = package_names()
    return set(defs.values()) | set(classes)


def test_scenarios_and_workloads_run_cleanly(replay):
    # a run that stops early would hide every function after the failure
    _, codes = replay
    for path, pair in codes.items():
        if not path.is_relative_to(ROOT / "tests"):
            assert pair == (0, 0), path


def test_every_def_and_class_is_reached_or_allowlisted(replay):
    reached, _ = replay
    unreached = sorted(all_names() - reached - set(ALLOWLIST))
    assert not unreached, (
        f"no scenario run reaches {unreached}: delete them, move them next to the "
        "test that uses them, or add them to ALLOWLIST with a reason")


def test_no_allowlisted_def_is_reached(replay):
    reached, _ = replay
    listed = sorted(reached & set(ALLOWLIST))
    assert not listed, f"a scenario run reaches {listed}: take them off ALLOWLIST"


def test_every_allowlist_entry_names_a_def_or_class():
    missing = sorted(set(ALLOWLIST) - all_names())
    assert not missing, f"ALLOWLIST names no such function or class: {missing}"


def test_bench_wraps_names_that_exist(monkeypatch):
    # bench/layers.py wraps package names by attribute; a deleted one
    # would otherwise fail only the traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    layers = importlib.import_module("layers")
    original = unicast.UnicastPlane.__init__
    tracer = layers.Tracer()
    try:
        layers.install_all(tracer)
        assert unicast.UnicastPlane.__init__ is not original
    finally:
        tracer.close()
    assert unicast.UnicastPlane.__init__ is original
