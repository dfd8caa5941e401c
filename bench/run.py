"""routescale benchmark: replay one workload in fresh processes, one at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a new ``bench/replay.py`` process (cold distance cache, own
peak RSS) making the calls ``routescale run`` makes.  Runs repeat, one
after another, while the next is expected to end within ``--seconds``
(at least MIN_RUNS attempts).  A run fails if it exits non-zero, if its
CSVs break a state or delivery law, or if their sha256 differs from the
hash pinned in hashes.json for this workload and seed (for an unpinned
seed: from the first run's).

``--trace 0`` prints the end-to-end metrics as medians over the
untraced runs.
``--trace 1`` adds one traced run and prints the per-layer metrics from
it, plus the tracing overhead against the untraced runs.  Every metric
is printed by name with its unit; the last line is one JSON object.
"""

import argparse
import csv
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("site_growth", "group_churn", "snapshot_probe")
MIN_RUNS = 3
LIMIT_S = 150           # start no run that would end later than this
CHILD_TIMEOUT_S = 120
# calibration loop time that defines the reference host speed
REFERENCE_CALIBRATION_S = 0.0025


class RunFailed(Exception):
    pass


def scenario_path(workload):
    return BENCH / "workloads" / f"{workload}.json"


def pinned_hashes():
    return json.loads((BENCH / "hashes.json").read_text())


def replay(scenario, seed, out_dir, trace_file=None):
    """One run in a fresh process; returns its JSON record or raises RunFailed."""
    cmd = [sys.executable, str(BENCH / "replay.py"), str(scenario), str(seed), str(out_dir)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"run exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RunFailed(f"exit {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_csvs(out_dir):
    """Laws every seed's output obeys, whatever its hash; returns errors."""
    errors = []
    with open(Path(out_dir) / "delivery.csv", newline="") as f:
        for row in csv.DictReader(f):
            if row["ok"] != "1" or row["delivered"] != row["expected"]:
                errors.append(f"delivery mismatch at tick {row['tick']} group {row['group']}")
    ticks = {}
    with open(Path(out_dir) / "state.csv", newline="") as f:
        for row in csv.DictReader(f):
            ticks.setdefault(row["tick"], []).append(row)
    routers = None
    for tick, rows in ticks.items():
        ids = [r["router"] for r in rows]
        if routers is None:
            routers = ids
        elif ids != routers:
            errors.append(f"tick {tick}: router rows differ from the first snapshot")
        # every router holds one flat entry per site and locator; BIFT
        # size depends only on the BFER set; mapping sits at edges only
        for column in ("fib", "bift"):
            if len({r[column] for r in rows}) != 1:
                errors.append(f"tick {tick}: {column} differs between routers")
        if len({r["mapping"] for r in rows if r["role"] == "edge"}) != 1 or any(
                r["mapping"] != "0" for r in rows if r["role"] != "edge"):
            errors.append(f"tick {tick}: mapping not uniform at edges and 0 at core")
    return errors[:5]


def end_to_end(run):
    """End-to-end metrics of one untraced run: name -> (value, unit).

    Times are scaled to the host speed at which the calibration loop
    takes REFERENCE_CALIBRATION_S; see NOTES.md, "Steadiness".
    """
    scale = REFERENCE_CALIBRATION_S / run["calibration_s"]
    return {
        "wall_s": (run["wall_s"] * scale, "s"),
        "setup_s": ((run["load_s"] + run["simstate_s"]) * scale, "s"),
        "events_per_s": (run["events"] / (run["replay_s"] * scale), "1/s"),
        "peak_rss_mib": (run["peak_rss_kib"] / 1024, "MiB"),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def bench(workload, scenario, seed, seconds, trace, pinned=None, out=print):
    """Run one workload; prints metric lines and returns the result object.

    ``pinned`` is the expected CSV sha256 for (workload, seed), or None.
    """
    out_dir = BUILD / "out" / workload
    attempted = failed = 0
    reference = pinned
    runs = []
    lawful = set()
    traced = None
    start = time.perf_counter()

    def attempt(trace_file=None):
        """One run; a run that completes with wrong output still has timings."""
        nonlocal attempted, failed, reference
        attempted += 1
        try:
            run = replay(scenario, seed, out_dir, trace_file)
        except RunFailed as exc:
            failed += 1
            out(f"run {attempted} failed: {exc}")
            return None
        # identical bytes obey the same laws: check each distinct output once
        errors = [] if run["sha256"] in lawful else check_csvs(out_dir)
        if not errors:
            lawful.add(run["sha256"])
        if reference is None:
            reference = run["sha256"]
        if run["sha256"] != reference:
            errors.append(f"csv sha256 {run['sha256']} != expected {reference}")
        if errors:
            failed += 1
            out(f"run {attempted} failed: {'; '.join(errors)}")
        return run

    if trace:
        traced = attempt(BUILD / "trace" / f"{workload}-seed{seed}.json")
    last = 0.0      # duration of the previous run: predicts the next one
    while True:
        ends = time.perf_counter() - start + last
        if ends > seconds and attempted >= MIN_RUNS or ends > LIMIT_S:
            break
        t = time.perf_counter()
        run = attempt()
        last = time.perf_counter() - t
        if run is not None:
            runs.append(run)

    out(f"workload {workload} seed {seed}: {attempted} runs, {failed} failed; "
        f"csv sha256 {reference} ({'pinned' if pinned else 'unpinned seed: first run'})")
    out(f"failed_run_share {failed / attempted:.4f} ratio ({failed} of {attempted} runs)")
    metrics = {}
    if runs:
        walls = [r["wall_s"] for r in runs]
        q1, q3 = _quartiles(walls)
        out(f"unscaled wall time {statistics.median(walls):.6g} s (median of {len(runs)} "
            f"runs, q1 {q1:.6g}, q3 {q3:.6g})")
        per_run = [end_to_end(r) for r in runs]
        for name, (_, unit) in per_run[0].items():
            values = [m[name][0] for m in per_run]
            median = statistics.median(values)
            q1, q3 = _quartiles(values)
            out(f"{name} {median:.6g} {unit} (median of {len(values)} runs, "
                f"q1 {q1:.6g}, q3 {q3:.6g})")
            metrics[name] = {"value": median, "unit": unit}
    if trace:
        untraced, metrics = metrics, {}
        if traced is not None and runs:
            layer = dict(traced["layers"])
            layer["trace.overhead_ratio"] = (
                end_to_end(traced)["wall_s"][0] / untraced["wall_s"]["value"], "ratio")
            for name, (value, unit) in layer.items():
                out(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
                metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "routescale").is_dir():
        print(f"no routescale source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pinned = pinned_hashes().get(args.workload, {}).get(str(args.seed))
    result = bench(args.workload, scenario_path(args.workload), args.seed,
                   args.seconds, args.trace, pinned)
    if not result["metrics"]:
        print("no successful run to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
