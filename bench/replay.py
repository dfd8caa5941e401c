"""One benchmark run in a fresh process: the calls ``routescale run`` makes.

    python3 bench/replay.py SCENARIO SEED OUT_DIR [TRACE_FILE]

Runs ``harness.load_scenario`` -> ``harness.run(scenario, seed)`` ->
``harness.emit_csv`` with a cold ``Topology`` distance cache, as a CLI
run does, and prints one JSON object: host timings, the host's speed
just before and after (``calibrate``), the event count, this process's
peak RSS and the sha256 over state.csv + delivery.csv.
With TRACE_FILE every layer is traced, the per-layer metrics are added
and the spans are written to TRACE_FILE after the run.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from routescale import harness  # noqa: E402

import layers  # noqa: E402

CSV_NAMES = ("state.csv", "delivery.csv")


def csv_sha256(out_dir):
    digest = hashlib.sha256()
    for name in CSV_NAMES:
        digest.update((Path(out_dir) / name).read_bytes())
    return digest.hexdigest()


def _kernel():
    table = {}
    for i in range(20000):
        table[i % 1000] = table.get(i % 1000, 0) + i


def calibrate(samples=15):
    """Fastest of a few runs of a fixed pure-Python loop: the host's speed now."""
    best = float("inf")
    for _ in range(samples):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def replay(scenario_path, seed, out_dir, trace_file=None):
    tracer = layers.Tracer()
    if trace_file:
        layers.install_all(tracer)
    else:
        layers.install_setup_timer(tracer)
    before = calibrate()
    try:
        t0 = time.perf_counter()
        scenario = harness.load_scenario(scenario_path)
        t1 = time.perf_counter()
        snapshots, report = harness.run(scenario, seed)
        t2 = time.perf_counter()
        harness.emit_csv(snapshots, report, out_dir)
        t3 = time.perf_counter()
    finally:
        tracer.close()
    after = calibrate()
    (simstate_s,) = tracer.durations("harness.SimState")
    result = {
        "wall_s": t3 - t0,
        "load_s": t1 - t0,
        "simstate_s": simstate_s,
        "replay_s": t2 - t1 - simstate_s,
        "calibration_s": (before + after) / 2,
        "events": tracer.counts["events"],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sha256": csv_sha256(out_dir),
    }
    if trace_file:
        result["layers"] = layers.layer_metrics(tracer)
        tracer.dump(Path(trace_file))
    return result


def main(argv):
    scenario_path, seed, out_dir = argv[0], int(argv[1]), argv[2]
    trace_file = argv[3] if len(argv) > 3 else None
    print(json.dumps(replay(scenario_path, seed, out_dir, trace_file)))


if __name__ == "__main__":
    main(sys.argv[1:])
