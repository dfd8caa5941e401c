"""Pin the CSV sha256 of every workload for seeds 0-31 and its default seed.

    python3 bench/pin.py

Replays each (workload, seed) once, one process at a time, and rewrites
hashes.json.  Use it only in a change that alters the CSVs on purpose,
and say so in that change.  A run whose CSVs break a state or delivery
law is reported and not pinned.
"""

import json
import sys

import run

SEEDS = range(32)


def main():
    hashes = {}
    status = 0
    for workload in run.WORKLOADS:
        out_dir = run.BUILD / "out" / workload
        default = json.loads(run.scenario_path(workload).read_text())["workload"]["seed"]
        pinned = hashes[workload] = {}
        for seed in sorted({default, *SEEDS}):
            record = run.replay(run.scenario_path(workload), seed, out_dir)
            errors = run.check_csvs(out_dir)
            if errors:
                print(f"{workload} seed {seed}: not pinned: {errors}", file=sys.stderr)
                status = 1
                continue
            pinned[str(seed)] = record["sha256"]
            print(f"{workload} seed {seed}: {record['sha256']}")
    (run.BENCH / "hashes.json").write_text(json.dumps(hashes, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
