"""Self-test of the benchmark at toy sizes.

    python3 bench/test_bench.py        (or: python3 -m pytest bench)

Checks that every metric BENCHMARK.json names is printed with its unit,
that hash mismatches and tampered CSVs count as failed runs, that the
tracer's self times add up, and that the benchmark refuses to run
without the routescale source.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402

TOY = {
    "topology": {"kind": "fat-edge", "size": 12},
    "providers": "auto",
    "workload": {"seed": 3, "n_sites": 20, "n_groups": 6, "members_min": 1,
                 "members_max": 4, "churn_events": 30},
    "modes": ["flat", "mapencap", "mpls", "stateful_mcast", "bier"],
    "bsl": 4,
    "snapshot_interval": 5,
}
SELFTEST = run.BUILD / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_scenario():
    SELFTEST.mkdir(parents=True, exist_ok=True)
    path = SELFTEST / "toy.json"
    path.write_text(json.dumps(TOY))
    return path


def bench_toy(trace=0, pinned=None, seed=3):
    lines = []
    result = run.bench("toy", toy_scenario(), seed, 0, trace, pinned, out=lines.append)
    return result, lines


def printed(lines, name, unit):
    pattern = re.compile(rf"^{re.escape(name)} \S+ {re.escape(unit)}(\s|$)")
    return any(pattern.match(line) for line in lines)


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, section):
        result, lines = bench_toy(trace)
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], run.MIN_RUNS)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[section]})
        for metric in SPEC[section]:
            self.assertTrue(printed(lines, metric["name"], metric["unit"]), metric)
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        self.assertTrue(printed(lines, "failed_run_share", "ratio"))
        return result

    def test_end_to_end(self):
        result = self.check(0, "end_to_end")
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_per_layer(self):
        result = self.check(1, "per_layer")
        self.assertGreater(result["metrics"]["topology.next_hop.calls"]["value"], 0)
        self.assertGreater(result["metrics"]["bier.copies"]["value"], 0)

    def test_tracing_leaves_csvs_unchanged(self):
        out_dir = SELFTEST / "trace_out"
        plain = replay.replay(toy_scenario(), 3, out_dir)
        traced = replay.replay(toy_scenario(), 3, out_dir, SELFTEST / "trace.json")
        self.assertEqual(plain["sha256"], traced["sha256"])
        doc = json.loads((SELFTEST / "trace.json").read_text())
        self.assertTrue(doc["spans"] and doc["hot"])


class FailuresCounted(unittest.TestCase):
    def test_hash_mismatch(self):
        result, lines = bench_toy(pinned="0" * 64)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn(f"failed_run_share 1.0000 ratio ({result['failed']} of "
                      f"{result['attempted']} runs)", lines)

    def test_other_seed_hash_is_a_mismatch(self):
        seed4 = replay.replay(toy_scenario(), 4, SELFTEST / "seed4")["sha256"]
        result, _ = bench_toy(seed=3, pinned=seed4)
        self.assertEqual(result["failed"], result["attempted"])

    def tampered(self, edit):
        """run.replay whose emitted CSVs are edited before they are hashed."""
        real = run.replay

        def wrapped(scenario, seed, out_dir, trace_file=None):
            record = real(scenario, seed, out_dir, trace_file)
            for name in replay.CSV_NAMES:
                path = Path(out_dir) / name
                path.write_text(edit(name, path.read_text()))
            record["sha256"] = replay.csv_sha256(out_dir)
            return record
        return wrapped

    def test_tampered_count_keeps_laws_but_fails_hash(self):
        pinned = replay.replay(toy_scenario(), 3, SELFTEST / "seed3")["sha256"]

        def edit(name, text):
            # one more flat FIB entry at every router keeps every law
            if name != "state.csv":
                return text
            rows = [line.split(",") for line in text.splitlines()]
            for row in rows[1:]:
                row[3] = str(int(row[3]) + 1)
            return "\n".join(",".join(r) for r in rows) + "\n"

        with mock.patch.object(run, "replay", self.tampered(edit)):
            result, lines = bench_toy(pinned=pinned)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("csv sha256" in line for line in lines))

    def test_tampered_delivery_breaks_law(self):
        def edit(name, text):
            if name != "delivery.csv":
                return text
            header, first, *rest = text.splitlines()
            cells = first.split(",")
            cells[3] = "0"
            return "\n".join([header, ",".join(cells), *rest]) + "\n"

        with mock.patch.object(run, "replay", self.tampered(edit)):
            result, lines = bench_toy()
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("delivery mismatch" in line for line in lines))


class TracerSelfTime(unittest.TestCase):
    def test_self_time_and_hot_aggregation(self):
        calls = []
        ns = SimpleNamespace()
        ns.hot = lambda: calls.append(1)

        def outer():
            for _ in range(5):
                ns.hot()
        ns.outer = outer
        tracer = layers.Tracer()
        tracer.wrap(ns, "outer", "outer")
        tracer.wrap(ns, "hot", "hot", hot=True, count=("hits", lambda a, r: 1))
        ns.outer()
        ns.outer()
        tracer.close()
        self.assertEqual(len(calls), 10)
        self.assertIs(ns.outer, outer)
        self.assertEqual([s[1] for s in tracer.spans], [None, None])
        self.assertEqual(sorted(tracer.hot), [(0, "hot"), (1, "hot")])
        self.assertEqual(tracer.counts["hits"], 10)
        totals = tracer.layer_totals()
        self.assertEqual(totals["hot"][0], 10)
        hot_total = sum(row[1] for row in tracer.hot.values())
        span_total = sum(e - s for _, _, _, s, e, _ in tracer.spans)
        self.assertAlmostEqual(totals["outer"][1], span_total - hot_total, places=9)


class RefusesWithoutSource(unittest.TestCase):
    def test_bare_directory_exits_nonzero(self):
        bare = SELFTEST / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "group_churn",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
