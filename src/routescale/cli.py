"""Command-line interface: run / validate / gen-topology.

Exit codes: 0 success, 1 validation or usage failure, 2 delivery or
invariant failure during a run.
"""

import argparse
import json
import sys
from pathlib import Path

from . import errors, harness
from .generators import KINDS, gen_topology


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="routescale",
                     description="Routing-scalability simulator harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a scenario and emit CSVs")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the workload seed")
    p_run.add_argument("--modes", default=None,
                       help="comma-separated subset of modes to run")

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("--scenario", required=True)

    p_gen = sub.add_parser("gen-topology", help="write a generated topology file")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--size", required=True, type=int)
    p_gen.add_argument("--out", required=True)

    return parser


@harness.collector_paused()
def _run(args):
    """Load, replay and write the scenario of a ``run`` command; returns
    the line that reports what was written.

    One pause spans the three calls: with a pause of their own each, the
    collection deferred during the replay would walk the replay's whole
    heap before the writer starts.  The pause ends after this function
    has returned and dropped that heap, so the collection it deferred
    finds little left to walk.
    """
    modes = None
    if args.modes is not None:
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    scenario = harness.load_scenario(args.scenario, modes)
    snapshots, report = harness.run(scenario, seed=args.seed)
    state_path, delivery_path = harness.emit_csv(snapshots, report, args.out)
    n_rows = sum(len(record.modes) * len(record.groups) for record in report)
    return (f"wrote {state_path} ({len(snapshots)} snapshots) and "
            f"{delivery_path} ({n_rows} delivery rows)")


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0

    try:
        if args.command == "validate":
            harness.load_scenario(args.scenario)
            print(f"{args.scenario}: ok")
            return 0

        if args.command == "gen-topology":
            topo = gen_topology(args.kind, args.size)
            Path(args.out).write_text(json.dumps({"topology": topo}, indent=2) + "\n")
            print(f"wrote {args.out}: {len(topo['routers'])} routers, "
                  f"{len(topo['links'])} links")
            return 0

        print(_run(args))
        return 0
    except errors.DeliveryMismatch as exc:
        print(f"delivery failure: {exc}", file=sys.stderr)
        return 2
    except errors.ScenarioError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except errors.SimError as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
