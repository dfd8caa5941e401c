"""state.csv's cells against closed forms derived from the scenario and
the reference schedule, not from the state the run keeps."""

import json
from dataclasses import replace
from itertools import groupby, zip_longest
from operator import itemgetter
from pathlib import Path

import pytest

from conftest import (
    RUN_FILES,
    edge_provider_section,
    reference_multicast_cells,
    reference_unicast_cells,
)
from routescale.harness import build_scenario, emit_csv, load_scenario, run

SCENARIOS = Path(__file__).parent.parent / "scenarios"
# None replays the file's own seed
SEEDS = (None, 2, 13)
# the benchmark's workloads and the scenarios small enough for a tree per
# group per snapshot from scan_next_hop's all-pairs costs (about 1 s for
# fat_edge_bier's 1,000 routers)
MULTICAST_FILES = [path for path in RUN_FILES if path.parent.name == "workloads"
                   or path.stem in ("example", "every_tick", "stub_costs", "grid_bier",
                                    "fat_edge_bier")]


def unicast_cells(state_path):
    """``{tick: {role: {(fib, mapping), ...}}}`` read from a state.csv."""
    cells = {}
    with open(state_path) as rows:
        next(rows)
        for row in rows:
            tick, _, role, fib, mapping, _ = row.split(",", 5)
            cells.setdefault(int(tick), {}).setdefault(role, set()).add((int(fib), int(mapping)))
    return cells


def multicast_cells(state_path):
    """Yields ``(tick, {router: (sg, bift)})`` from a state.csv, one per
    snapshot, in file order."""
    with open(state_path) as rows:
        next(rows)
        for tick, snapshot in groupby((row.split(",") for row in rows), key=itemgetter(0)):
            yield int(tick), {int(row[1]): (int(row[6]), int(row[7])) for row in snapshot}


def check_unicast_cells(config, scenario, seed, out):
    params = scenario.workload if seed is None else replace(scenario.workload, seed=seed)
    expected = reference_unicast_cells(config, scenario.topology, params)
    state_path, _ = emit_csv(*run(scenario, seed), out)
    assert unicast_cells(state_path) == {
        tick: {role: {counts} for role, counts in roles.items()}
        for tick, roles in expected.items()}


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed {seed}")
@pytest.mark.parametrize("path", RUN_FILES, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_fib_and_mapping_cells_count_distinct_identifiers(tmp_path, path, seed):
    check_unicast_cells(json.loads(path.read_text()), load_scenario(path), seed, tmp_path)


# an explicit list counts its entries: one provider per edge router and
# one more that owns a core router alone
@pytest.mark.parametrize("name", ["example", "stub_costs"])
def test_an_explicit_provider_list_counts_its_entries(tmp_path, name):
    path = SCENARIOS / f"{name}.json"
    config = json.loads(path.read_text())
    section = edge_provider_section(load_scenario(path).topology)
    core = section[0]["routers"].pop()
    section.append({"id": len(section), "routers": [core]})
    config["providers"] = section
    check_unicast_cells(config, build_scenario(config, base_dir=path.parent), None, tmp_path)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed {seed}")
@pytest.mark.parametrize("path", MULTICAST_FILES,
                         ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_sg_and_bift_cells_count_reverse_path_trees_and_bfers(tmp_path, path, seed):
    scenario = load_scenario(path)
    params = scenario.workload if seed is None else replace(scenario.workload, seed=seed)
    expected = reference_multicast_cells(json.loads(path.read_text()), scenario.topology, params)
    state_path, _ = emit_csv(*run(scenario, seed), tmp_path)
    for got, want in zip_longest(multicast_cells(state_path), expected):
        assert got == want
