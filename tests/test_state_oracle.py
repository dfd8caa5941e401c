"""state.csv's cells against closed forms derived from the scenario and
the reference schedule, not from the state the run keeps."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import RUN_FILES, edge_provider_section, reference_unicast_cells
from routescale.harness import build_scenario, emit_csv, load_scenario, run

SCENARIOS = Path(__file__).parent.parent / "scenarios"
# None replays the file's own seed
SEEDS = (None, 2, 13)


def unicast_cells(state_path):
    """``{tick: {role: {(fib, mapping), ...}}}`` read from a state.csv."""
    cells = {}
    with open(state_path) as rows:
        next(rows)
        for row in rows:
            tick, _, role, fib, mapping, _ = row.split(",", 5)
            cells.setdefault(int(tick), {}).setdefault(role, set()).add((int(fib), int(mapping)))
    return cells


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
