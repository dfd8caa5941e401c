"""Per-layer timer for the benchmark: spans at harness->layer boundaries.

The tracer replaces public functions on the object their caller looks
them up on (a class attribute or a module attribute), so no file under
``src/`` changes.  A *span* target records one span per call, with the
id of the span that caused it.  A *hot* target is called ~10^6 times a
run (next hops, distances, trie inserts), so its calls are aggregated
as (calls, total time, self time) per parent span instead of one span
each.  Everything stays in memory until :meth:`Tracer.dump`.

A layer's self time is its duration minus the time of the spans and hot
calls nested directly inside it.
"""

import json
import math
import time

from routescale import bier, harness, multicast, topology, unicast, workload

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [id, parent id, name, start, end, self_s]
        self.hot = {}        # (parent span id, name) -> [calls, total_s, self_s]
        self.counts = {}     # counter name -> int
        self._stack = []     # open frames: [span id or None, child_s]
        self._restore = []

    # -- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr, name, hot=False, count=None):
        """Replace ``owner.attr`` with a timed wrapper.

        ``name`` is the layer name, or a function of the call's
        arguments that returns it.  ``count`` is an optional
        ``(counter name, function of (args, result) -> int)``.
        """
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        stack = self._stack
        counts = self.counts
        namer = name if callable(name) else (lambda _args, n=name: n)

        if hot:
            hot_table = self.hot

            def wrapper(*args, **kwargs):
                frame = [None, 0.0]
                stack.append(frame)
                start = _clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                    key = (parent, namer(args))
                    row = hot_table.get(key)
                    if row is None:
                        row = hot_table[key] = [0, 0.0, 0.0]
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - frame[1]
                if count is not None:
                    counts[count[0]] = counts.get(count[0], 0) + count[1](args, result)
                return result
        else:
            spans = self.spans

            def wrapper(*args, **kwargs):
                span_id = len(spans)
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                span = [span_id, parent, namer(args), 0.0, 0.0, 0.0]
                spans.append(span)
                frame = [span_id, 0.0]
                stack.append(frame)
                span[3] = start = _clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[4] = end = _clock()
                    stack.pop()
                    if stack:
                        stack[-1][1] += end - start
                    span[5] = end - start - frame[1]
                if count is not None:
                    counts[count[0]] = counts.get(count[0], 0) + count[1](args, result)
                return result

        setattr(owner, attr, wrapper)

    def close(self):
        """Put every wrapped function back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def durations(self, name):
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]

    def layer_totals(self):
        """name -> [calls, self_s] over spans and hot aggregates."""
        out = {}
        for _, _, name, _, _, self_s in self.spans:
            row = out.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += self_s
        for (_, name), (calls, _, self_s) in self.hot.items():
            row = out.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        return out

    def dump(self, path):
        """Write spans, hot aggregates and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e, "self_s": x}
                for i, p, n, s, e, x in self.spans
            ],
            "hot": [
                {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": x}
                for (p, n), (c, t, x) in self.hot.items()
            ],
            "counts": self.counts,
        }
        path.write_text(json.dumps(doc) + "\n")


def _events(_args, schedule):
    return len(schedule.events)


def install_setup_timer(tracer):
    """What an untraced run needs: the SimState span and the event count."""
    tracer.wrap(harness.SimState, "__init__", "harness.SimState")
    tracer.wrap(workload, "generate", "workload.generate", count=("events", _events))


def install_all(tracer):
    """Every layer named in bench/NOTES.md, at the harness->layer boundaries."""
    install_setup_timer(tracer)
    seen_sources = set()

    def dijkstra_runs(args, _result):
        # One Dijkstra per distinct (topology, source): the per-Topology
        # distance cache is unbounded, so each first query is its one miss.
        key = (id(args[0]), args[1])
        if key in seen_sources:
            return 0
        seen_sources.add(key)
        return 1

    tracer.wrap(harness, "build_scenario", "harness.build_scenario")
    tracer.wrap(harness.SimState, "apply",
                lambda args: f"harness.apply.{args[1].kind}")
    tracer.wrap(harness.SimState, "snapshot", "harness.snapshot")
    tracer.wrap(harness.SimState, "probe", "harness.probe")
    tracer.wrap(harness, "emit_csv", "harness.emit_csv")

    tracer.wrap(topology.Topology, "next_hop", "topology.next_hop", hot=True)
    tracer.wrap(topology.Topology, "distances", "topology.distances", hot=True,
                count=("topology.distances.dijkstra_runs", dijkstra_runs))
    tracer.wrap(topology, "shortest_paths", "topology.shortest_paths", hot=True)

    tracer.wrap(unicast.UnicastPlane, "__init__", "unicast.UnicastPlane")
    tracer.wrap(unicast, "establish_lsp", "unicast.establish_lsp", hot=True)
    tracer.wrap(unicast.UnicastPlane, "add_site", "unicast.add_site")
    tracer.wrap(unicast.PrefixTable, "add", "unicast.PrefixTable.add", hot=True)

    tracer.wrap(multicast, "join", "multicast.join")
    tracer.wrap(multicast, "leave", "multicast.leave")
    tracer.wrap(multicast, "simulate_delivery", "multicast.simulate_delivery")

    tracer.wrap(bier, "build_bift", "bier.build_bift")
    tracer.wrap(bier, "flood_deliver", "bier.flood_deliver")
    tracer.wrap(bier, "forward_bier", "bier.forward_bier", hot=True,
                count=("bier.copies", lambda _args, copies: len(copies)))


# Layers with one span per event also report p50/p99 span durations.
PER_EVENT = (
    "harness.apply.add_site", "harness.apply.add_group", "harness.apply.join",
    "harness.apply.leave", "harness.snapshot", "harness.probe",
    "unicast.add_site", "multicast.join", "multicast.leave",
    "multicast.simulate_delivery", "bier.flood_deliver",
)

LAYERS = (
    "topology.next_hop", "topology.distances", "topology.shortest_paths",
    "unicast.UnicastPlane", "unicast.establish_lsp", "unicast.add_site",
    "unicast.PrefixTable.add",
    "multicast.join", "multicast.leave", "multicast.simulate_delivery",
    "bier.build_bift", "bier.flood_deliver", "bier.forward_bier",
    "workload.generate",
    "harness.build_scenario", "harness.SimState", "harness.apply.add_site",
    "harness.apply.add_group", "harness.apply.join", "harness.apply.leave",
    "harness.snapshot", "harness.probe", "harness.emit_csv",
)

COUNTERS = ("topology.distances.dijkstra_runs", "bier.copies")


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def layer_metrics(tracer):
    """Per-layer metrics: name -> (value, unit)."""
    totals = tracer.layer_totals()
    out = {}
    for name in LAYERS:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        if name in PER_EVENT:
            durations = sorted(tracer.durations(name))
            out[f"{name}.p50_us"] = (_percentile(durations, 50) * 1e6, "us")
            out[f"{name}.p99_us"] = (_percentile(durations, 99) * 1e6, "us")
    for name in COUNTERS:
        out[name] = (tracer.counts.get(name, 0), "count")
    return out
