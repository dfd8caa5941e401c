"""Experiment runner: scenario loading, schedule replay, CSV emission.

A scenario bundles a topology, a provider count, workload parameters,
the set of forwarding modes to run, the BIER bitstring length, and a
snapshot interval.  Replaying the schedule records, at every snapshot,
each router's state counts and one delivery record: every active group
with the receivers its probe verified, for all multicast modes at once.
``emit_csv`` expands a record into one delivery row per group and mode.
The replay steps from event to event, not from tick to tick, and takes
each snapshot and probe before the first event past its tick.  A
group's (S,G) key is built once, when the group is added.

Both records cost what changed since the previous snapshot, not the
size of the network.  A state snapshot keeps the unicast counts, which
depend on a router's role only, once per role, and each router's own
counts in a row of its own (see ``StateSnapshot``).  The role counts
change only when a site is added, which makes one new role dict and
rebuilds no router row; the label and BIFT counts are fixed at
construction, and the (S,G) count changes only at routers where a join
or leave created or deleted an entry, so only those rows are rebuilt.
A delivery record is the previous one patched: only
the groups that had an event since are re-probed, in every multicast
mode, comparing the delivered receivers against the membership ground
truth, and every other group keeps the receiver set it last verified,
because nothing its packets read has changed since.

BIER is map-and-encap at the ingress: the BFIR keeps, per group, one
bitstring per Set Identifier, in which a join sets the receiver's bit
and a leave clears it (``SimState.bitstrings``), and transit routers
keep no per-group state.  A re-probe re-forwards the (S,G) packet and
the group's BIER packets, one per Set Identifier.  Every flood of the
run shares one reach table, which depends on the BIFT alone: a packet's
bits are looked up in its ingress's row, no multi-bit copy is
forwarded, and a one-bit copy is forwarded hop by hop once per (SI,
router, bit) in the run (see ``bier.flood_deliver``).  Any mismatch
aborts the run so scaling numbers are never reported from an incorrect
forwarding plane.

Writing the CSVs also costs what changed: a role's counts, a router's
row or a group's receivers shared with an earlier snapshot is formatted
once, and each snapshot's text is written to the file as soon as it is
formatted, so the writer holds no more than one snapshot's text.

Loading, replaying and writing run with CPython's cyclic garbage
collector paused (``collector_paused``).  Nothing they build forms a
reference cycle: topology tables, prefix tables, (S,G) entries, events,
snapshots and formatted lines are dicts, lists, sets and tuples of
ints, strings and each other, each owned from above and none pointing
back at an owner, so reference counting frees every object a run drops.
The collector would only re-walk the growing live heap, once every few
hundred container allocations, and find nothing to free.
"""

import gc
import json
import operator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import compress
from pathlib import Path
from typing import NamedTuple

from . import bier, multicast, workload
from .errors import DeliveryMismatch, ScenarioError, SimError, UnattachedSite
from .generators import gen_topology
from .multicast import SgKey, SgState
from .topology import EDGE, build_topology, is_int
from .unicast import MAX_SITES, UnicastPlane, check_edge_count, check_providers

MODES = ("flat", "mapencap", "mpls", "stateful_mcast", "bier")
UNICAST_MODES = ("flat", "mapencap", "mpls")
# fault injections for testing the abort path; each perturbs BIER headers
FAULTS = ("bier_drop_lowest_bit",)
# a scenario's keys; only topology is required
SECTIONS = ("topology", "providers", "workload", "modes", "bsl", "snapshot_interval", "fault")
PROVIDER_KEYS = ("id", "routers")
SNAPSHOT_INTERVAL = 10

STATE_HEADER = "tick,router,role,fib,mapping,labels,sg,bift"
DELIVERY_HEADER = "tick,group,mode,ok,delivered,expected"


@dataclass
class Scenario:
    topology: object
    n_providers: int
    workload: workload.Params
    modes: tuple = MODES
    bsl: int = bier.DEFAULT_BSL
    snapshot_interval: int = SNAPSHOT_INTERVAL
    fault: str = None


class StateSnapshot(NamedTuple):
    """Every router's state counts at ``tick``.

    The unicast counts depend on a router's role only, so they are kept
    once per role: ``roles`` maps each role to its ``(fib, mapping)``.
    ``rows`` holds each router's own counts, ``(router, role, labels,
    sg, bift)``, sorted by router.  state.csv's row for a router is its
    row with ``roles[role]`` put after the role.  Snapshots share the
    ``roles`` dict until a site is added, and each row until its counts
    change; neither is modified once returned.
    """

    tick: int
    roles: dict
    rows: list


class DeliverySnapshot(NamedTuple):
    """The probes verified at ``tick``: for each ``(group, receivers)``
    pair of ``groups``, in group order, every mode in ``modes`` delivered
    one copy to each of ``receivers``, the group's membership, and no
    other."""

    tick: int
    modes: tuple
    groups: list


@contextmanager
def collector_paused():
    """Turn CPython's cyclic garbage collector off for a ``with`` block,
    or for each call of a function it decorates, and restore the
    caller's setting on exit, also when an exception leaves it.

    The setting is process-wide: ``gc.disable`` stops automatic
    collection in every thread until it is restored.  Scopes nest: an
    inner scope finds the collector off and leaves it off.  Pausing is
    safe around a scenario's load, replay and CSV write because none of
    them forms a reference cycle (see the module docstring), so no
    garbage waits for a collection that does not run.  The young
    collection a scope defers runs once, at the first allocation with
    the collector back on, which is the scope's own exit, over what the
    scope leaves alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _expect(ok, value, name, what):
    """Nothing if ``ok``; else a ScenarioError: ``name`` must be ``what``."""
    if not ok:
        raise ScenarioError(f"malformed scenario: {name} must be {what}, got {value!r:.40}")


def _integer(value, name):
    """``value`` if it is an ``int`` (not a bool); else a ScenarioError."""
    _expect(is_int(value), value, name, "an integer")
    return value


def _object(value, name, keys=None, required=()):
    """``value`` if it is a dict (a JSON object) with no key outside
    ``keys`` (any key, if None) and every key of ``required``; else a
    ScenarioError naming ``name`` and the first rule broken."""
    _expect(isinstance(value, dict), value, name, "a JSON object")
    extra = set() if keys is None else set(value) - set(keys)
    if extra:
        raise ScenarioError(f"unknown {name} keys: {sorted(extra)}")
    for key in required:
        if key not in value:
            raise ScenarioError(f"{name} section missing key {key!r}")
    return value


def _rows(value, name, fields):
    """``value`` if it is a list of lists of one item per name in
    ``fields``; else a ScenarioError naming ``name``."""
    shape = f"[{', '.join(fields)}]"
    _expect(isinstance(value, (list, tuple)), value, name, f"a list of {shape} lists")
    for row in value:
        _expect(isinstance(row, (list, tuple)) and len(row) == len(fields),
                row, f"each of {name}", f"a list {shape}")
    return value


def _read_json(path, what):
    """The parsed JSON of file ``path``; a file that cannot be read,
    decoded or parsed, nested too deep for the parser included, is a
    ScenarioError naming ``what``."""
    try:
        return json.loads(path.read_text())
    except (OSError, RecursionError, ValueError) as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from None


def _build_topology_section(section, base_dir):
    """The topology of one of three forms: ``{"file"}``, a path from
    ``base_dir``; ``{"kind", "size"}``, a generated topology; or
    ``{"routers", "links"}``.  A topology file holds one of the two
    inline forms, bare or as ``{"topology": ...}``."""
    name = "topology"
    if "file" in _object(section, name):
        file = _object(section, name, ("file",))["file"]
        _expect(isinstance(file, str), file, "topology file", "a path string")
        path = Path(base_dir or ".") / file
        section = _read_json(path, "topology file")
        name = f"topology in {path}"
        if isinstance(section, dict) and "topology" in section:
            section = _object(section, name, ("topology",))["topology"]
    form = ("kind", "size") if "kind" in _object(section, name) else ("routers", "links")
    _object(section, name, form, form)
    if "kind" in section:
        spec = gen_topology(section["kind"], _integer(section["size"], "topology size"))
        return build_topology(spec["routers"], spec["links"])
    return build_topology(_rows(section["routers"], "topology routers", ("id", "role")),
                          _rows(section["links"], "topology links", ("a", "b", "cost")))


def _build_providers(section, topo):
    """The number of providers for the unicast modes, from ``"auto"`` or
    a list of ``{"id", "routers"}``.  A topology of more edge routers
    than the address plan has locators is refused first
    (``check_edge_count``).  ``"auto"`` is one provider per edge router;
    no state count reads which provider owns a core router, so none is
    assigned.  A list is checked as ``(id, routers)`` pairs by
    ``check_providers``."""
    check_edge_count(topo)
    if section == "auto":
        return len(topo.edge_routers)
    _expect(isinstance(section, list), section, "providers",
            '"auto" or a list of provider objects')
    providers = []
    for p in section:
        _object(p, "providers entry", PROVIDER_KEYS, PROVIDER_KEYS)
        pid = _integer(p["id"], "provider id")
        routers = p["routers"]
        _expect(isinstance(routers, (list, tuple)), routers, f"provider {pid} routers",
                "a list of router ids")
        routers = frozenset(_integer(r, f"provider {pid} router") for r in routers)
        providers.append((pid, routers))
    check_providers(topo, providers)
    return len(providers)


def build_scenario(config, base_dir=None):
    """Validate a scenario dict (parsed JSON) into a Scenario."""
    _object(config, "scenario", SECTIONS, ("topology",))
    topo = _build_topology_section(config["topology"], base_dir)

    modes = config.get("modes", MODES)
    _expect(isinstance(modes, (list, tuple)), modes, "modes", "a list of mode names")
    modes = tuple(modes)
    if not modes:
        raise ScenarioError(f"no mode enabled (choose from {MODES})")
    for m in modes:
        if m not in MODES:
            raise ScenarioError(f"unknown mode {m!r} (choose from {MODES})")
    if len(set(modes)) != len(modes):
        raise ScenarioError(f"mode listed more than once in {list(modes)}")
    unicast = any(m in UNICAST_MODES for m in modes)
    # providers exist only for the unicast modes
    n_providers = 0
    if unicast:
        n_providers = _build_providers(config.get("providers", "auto"), topo)

    params = workload.Params(**_object(config.get("workload", {}), "workload",
                                       workload.Params.__dataclass_fields__))
    # so do site prefixes: one /24 under 1/1 per site id 0..n_sites-1
    if unicast and params.n_sites > MAX_SITES:
        raise ScenarioError(
            f"n_sites {params.n_sites} exceeds {MAX_SITES}, the number of /24 site "
            "identifiers under 1/1 that unicast modes use"
        )
    bsl = _integer(config.get("bsl", bier.DEFAULT_BSL), "bsl")
    if bsl < 1:
        raise ScenarioError(f"bsl must be >= 1, got {bsl}")
    interval = _integer(config.get("snapshot_interval", SNAPSHOT_INTERVAL), "snapshot_interval")
    if interval < 1:
        raise ScenarioError(f"snapshot_interval must be >= 1, got {interval}")

    fault = config.get("fault")
    if fault is not None:
        if fault not in FAULTS:
            raise ScenarioError(f"unknown fault {fault!r} (choose from {FAULTS})")
        if "bier" not in modes:
            raise ScenarioError(f"fault {fault!r} needs mode 'bier', which is not enabled")

    workload.check_members_max(topo, params)
    return Scenario(topo, n_providers, params, modes, bsl, interval, fault)


@collector_paused()
def load_scenario(path, modes=None):
    """Read and validate a scenario file; ``modes`` replaces its modes."""
    path = Path(path)
    config = _read_json(path, "scenario")
    if modes is not None and isinstance(config, dict):
        config["modes"] = list(modes)
    return build_scenario(config, base_dir=path.parent)


class SimState:
    """Mutable system state a schedule is replayed against."""

    def __init__(self, scenario):
        self.scenario = scenario
        topo = scenario.topology
        self.topo = topo
        self.modes = scenario.modes
        self.unicast = (
            UnicastPlane(topo, scenario.n_providers)
            if any(m in UNICAST_MODES for m in scenario.modes) else None
        )
        self.sg_state = SgState() if "stateful_mcast" in scenario.modes else None
        self.groups = {}        # group -> its SgKey(source edge, group), built at add_group
        self.membership = {}    # group -> set of receiver edges
        # the BFIR's map-and-encap state: group -> {si: bits}, the bitstring
        # of its members in each Set Identifier, which a join sets and a
        # leave clears; an SI without a member has no entry, and without
        # BIER every group's dict stays empty
        self.bitstrings = {}
        # group -> its (group, receivers) pair in the last delivery record,
        # in group order; receivers is None until the group's first probe
        self._verified = {}
        # the groups with an event since _verified, rejected events and
        # groups never added included; a probe drops each one it has passed
        self._stale = set()
        # the reach table every flood shares: {si: {router: [BFER or None per bit]}}
        self.reach = {}
        if "bier" in scenario.modes:
            self.bit_of = {r: bier.id_to_si_bit(i, scenario.bsl)
                           for r, i in bier.assign_bfr_ids(topo.edge_routers).items()}
            self.bift = bier.build_bift(topo, self.bit_of)
        else:
            self.bift = None
        # the multicast modes a probe checks, by report name, in report order
        self.probe_modes = tuple(name for name, plane in (("stateful", self.sg_state),
                                                          ("bier", self.bift))
                                 if plane is not None)
        # the lowest router of each role: a router's role never changes,
        # and the unicast columns depend on the role only
        routers = sorted(topo.roles)
        self._role_router = {}
        for r in routers:
            self._role_router.setdefault(topo.roles[r], r)
        # role -> (fib, mapping), never modified; None after a site is
        # added, until the next snapshot builds it again
        self._roles = self._unicast_columns()
        n_bfers = len(self.bit_of) if self.bift is not None else 0
        # router -> its own row, (router, role, labels, sg, bift), in router
        # order; a row is replaced only when its (S,G) count may have
        # changed (see snapshot), and no (S,G) entry exists yet
        self._rows = {r: (
            r, topo.roles[r], self.unicast.label_entries(r) if "mpls" in self.modes else 0,
            0, n_bfers,
        ) for r in routers}

    def apply(self, event):
        kind, args = event.kind, event.args
        if kind not in workload.KINDS:
            raise SimError(f"unknown event kind {kind!r}")
        if kind == workload.ADD_SITE:
            site_id, edge = args
            # add_site checks the role itself; without a unicast mode no
            # table holds sites, but the event is checked the same way
            if self.unicast is not None:
                self.unicast.add_site(site_id, edge)
                self._roles = None
            elif self.topo.roles.get(edge) != EDGE:
                raise UnattachedSite(f"site {site_id} attached to non-edge router {edge}")
            return
        # every other event is on group args[0] and may change what its probe reads
        group = args[0]
        self._stale.add(group)
        if kind == workload.ADD_GROUP:
            group, source_edge = args
            if self.topo.roles.get(source_edge) != EDGE:
                raise SimError(f"add_group {group} sourced at non-edge router {source_edge}")
            sg = self.groups.setdefault(group, SgKey(source_edge, group))
            if sg.source_edge != source_edge:
                raise SimError(f"group {group} re-added with a different source")
            self.membership.setdefault(group, set())
            self.bitstrings.setdefault(group, {})
            return
        sg = self.groups.get(group)
        if sg is None:
            raise SimError(f"event references unknown group {group}")
        _, receiver = args
        if kind == workload.JOIN:
            if self.topo.roles.get(receiver) != EDGE:
                raise SimError(f"join of group {group} targets non-edge router {receiver}")
            self.membership[group].add(receiver)
            if self.bift is not None:
                si, bit = self.bit_of[receiver]
                bits = self.bitstrings[group]
                bits[si] = bits.get(si, 0) | bier.bit_mask(bit)
            if self.sg_state is not None:
                multicast.join(self.sg_state, self.topo, sg, receiver)
        else:
            if receiver not in self.membership[group]:
                raise SimError(f"leave for non-member edge {receiver} of group {group}")
            self.membership[group].discard(receiver)
            if self.bift is not None:
                si, bit = self.bit_of[receiver]
                bits = self.bitstrings[group]
                bits[si] &= ~bier.bit_mask(bit)
                if not bits[si]:
                    del bits[si]
            if self.sg_state is not None:
                multicast.leave(self.sg_state, self.topo, sg, receiver)

    # -- measurement ----------------------------------------------------

    def _unicast_columns(self):
        """role -> (fib, mapping): counts of the shared prefix tables that
        depend on a router's role only."""
        return {role: (
            self.unicast.flat_fib_size() if "flat" in self.modes else 0,
            self.unicast.mapping_entries(router) if "mapencap" in self.modes else 0,
        ) for role, router in self._role_router.items()}

    def snapshot(self, tick):
        """Every router's state counts at ``tick``, as a ``StateSnapshot``.

        Only what an event may have changed since the previous snapshot
        is re-read: the (S,G) count at each router where an entry was
        created or deleted, and, after a site was added, the unicast
        counts of each role, which makes a new role dict and leaves
        every router row as it was.  The label and BIFT counts never
        change after construction.  Rows and role dicts that did not
        change are shared with earlier snapshots; the returned list is
        never modified afterwards.
        """
        rows = self._rows
        if self.sg_state is not None:
            for router in self.sg_state.changed:
                _, role, labels, _, bift_n = rows[router]
                rows[router] = (router, role, labels, self.sg_state.count(router), bift_n)
            self.sg_state.changed.clear()
        if self._roles is None:
            self._roles = self._unicast_columns()
        return StateSnapshot(tick, self._roles, list(rows.values()))

    def probe(self, tick):
        """One ``DeliverySnapshot`` of every active group's verified
        receivers in every multicast mode; a mismatch raises
        DeliveryMismatch, so no record ever holds one.

        The record is the last one patched: a list of the pairs in
        ``_verified``, so a pair no event changed is shared with earlier
        records.  Each group that had an event since is checked against
        its membership in every multicast mode, in group order, so the
        mismatch raised is the one a probe of every group would raise
        first; it re-forwards the (S,G) packet and the group's BIER
        packets (see ``_probe_group``).  Any other group keeps the
        receiver set it last verified: only events on a group write its
        (S,G) entries and its bitstrings, and the BIFT never changes.  A
        group verified before a mismatch keeps its new pair; the failing
        group and those after it stay stale.
        """
        verified = self._verified
        if len(verified) != len(self.groups):
            # groups are never removed: a new group has no pair yet, and
            # is stale since its add_group
            verified = self._verified = {group: verified.get(group, (group, None))
                                         for group in sorted(self.groups)}
        for group in sorted(self._stale):
            if group in verified:   # else every event on it was rejected
                verified[group] = (group, self._probe_group(tick, group))
            self._stale.discard(group)
        return DeliverySnapshot(tick, self.probe_modes, list(verified.values()))

    def _probe_group(self, tick, group):
        """Probe ``group`` in each mode of ``probe_modes``, in report
        order; returns its membership, or raises DeliveryMismatch at the
        first mode that does not deliver one copy to each member and no
        other, before a later mode's packet is forwarded.

        The stateful mode injects one (S,G) packet at the source.  In the
        bier mode the BFIR sends one BIER packet per Set Identifier in
        ``self.bitstrings[group]``, in SI order, each carrying that SI's
        bits after the fault, if any.  Every SI is flooded through
        ``self.reach``: each set bit is looked up in the ingress's row,
        only a bit that no earlier flood of the run forwarded from that
        router is walked, one hop at a time, and no multi-bit copy is
        forwarded.
        """
        expected = frozenset(self.membership[group])
        sg = self.groups[group]
        for mode in self.probe_modes:
            if mode == "stateful":
                copies = multicast.simulate_delivery(self.sg_state, self.topo, sg)
            else:
                copies = []
                for si, bits in sorted(self.bitstrings[group].items()):
                    if self.scenario.fault == "bier_drop_lowest_bit":
                        bits &= bits - 1
                    copies += bier.flood_deliver(self.bift, si, bits, sg.source_edge, self.reach)
            if frozenset(copies) != expected or len(copies) != len(expected):
                raise DeliveryMismatch(tick, group, mode, copies, expected)
        return expected


@collector_paused()
def run(scenario, seed=None):
    """Replay the scenario's schedule; returns (state snapshots, delivery
    snapshots), one of each per snapshot tick, in tick order.

    Snapshot ticks are the multiples of ``snapshot_interval`` up to the
    last event's tick, and that tick (0 for an empty schedule).  Each
    sees every event up to its tick.  The loop walks the events, not the
    ticks: before the first event past a snapshot tick, that snapshot
    and its probe are taken, so a tick without an event costs nothing
    unless a snapshot falls on it.  Each event is dropped from the
    schedule once applied, so the schedule shrinks as the state grows.
    """
    params = scenario.workload
    if seed is not None:
        params = replace(params, seed=seed)
    events = workload.generate(scenario.topology, params).events
    events.reverse()        # popped from the end, in tick order
    last = events[0].tick if events else 0
    sim = SimState(scenario)
    interval = scenario.snapshot_interval
    snapshots = []
    report = []

    def record(tick):
        snapshots.append(sim.snapshot(tick))
        report.append(sim.probe(tick))

    apply = sim.apply
    pop = events.pop
    due = 0             # the next snapshot tick
    while events:
        event = pop()
        while due < event.tick:
            record(due)
            due += interval
        apply(event)
    # every earlier snapshot tick is before the last event's
    record(last)
    return snapshots, report


@collector_paused()
def emit_csv(snapshots, report, out_dir):
    """Write state.csv and delivery.csv from the snapshots ``run`` returns,
    which are in tick order.

    state.csv has one row per router per snapshot, in router order: the
    router's row with its role's ``(fib, mapping)`` put after the role.
    delivery.csv has one row per group and multicast mode per delivery
    snapshot, in group order and then mode name order.  Each snapshot's
    lines are joined into one string and written to the open file, so
    the writer holds one snapshot's text at a time, not the file's.

    Every snapshot of a run lists the same routers in the same order
    (``SimState.snapshot`` returns the values of one dict built in
    router order), so a router's ``router,role,`` is formatted once,
    from the first snapshot.  The rest of a state line is formatted
    again only when it changed: a router's ``labels,sg,bift`` when its
    row is a new object, its role's ``fib,mapping,`` when the role dict
    is.  A new role dict rebuilds every line from the parts at C speed;
    otherwise only a changed row's line is rebuilt.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state_path = out_dir / "state.csv"
    delivery_path = out_dir / "delivery.csv"

    # a row that no event changed is the same object as the row at its
    # position in the previous snapshot, and so is a role dict no site
    # changed (see SimState.snapshot); a line is head + cells + tail
    with open(state_path, "w") as out:
        out.write(STATE_HEADER + "\n")
        prev_rows = snapshots[0].rows if snapshots else ()
        heads = ["%s,%s," % row[:2] for row in prev_rows]
        tails = ["%s,%s,%s" % row[2:] for row in prev_rows]
        prev_roles = None
        for tick, roles, rows in snapshots:
            changed = compress(range(len(rows)), map(operator.is_not, rows, prev_rows))
            new_roles = roles is not prev_roles
            if new_roles:
                cells = {role: "%s,%s," % counts for role, counts in roles.items()}
            for i in changed:
                _, role, labels, sg, bift_n = rows[i]
                tail = tails[i] = f"{labels},{sg},{bift_n}"
                if not new_roles:
                    lines[i] = heads[i] + cells[role] + tail
            if new_roles:
                row_cells = map(cells.__getitem__, map(operator.itemgetter(1), rows))
                lines = list(map(operator.add, map(operator.add, heads, row_cells), tails))
            out.write(f"{tick}," + f"\n{tick},".join(lines))
            out.write("\n")
            prev_roles, prev_rows = roles, rows

    # every record is a verified probe: ok is 1 and delivered equals
    # expected.  A group repeats its receivers until an event on it, so
    # each distinct (group, receivers) pair is formatted once per mode.
    formatted = {}      # modes -> (group, receivers) -> line per mode, no tick
    with open(delivery_path, "w") as out:
        out.write(DELIVERY_HEADER + "\n")
        for record in report:
            modes = tuple(sorted(record.modes))
            known = formatted.setdefault(modes, {})
            texts = []
            for pair in record.groups:
                group_texts = known.get(pair)
                if group_texts is None:
                    group, receivers = pair
                    members = "|".join(map(str, sorted(receivers)))
                    group_texts = known[pair] = [f"{group},{mode},1,{members},{members}"
                                                 for mode in modes]
                texts += group_texts
            if texts:
                out.write(f"{record.tick}," + f"\n{record.tick},".join(texts))
                out.write("\n")
    return state_path, delivery_path
