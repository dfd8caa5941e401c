"""Experiment runner: scenario loading, schedule replay, CSV emission.

A scenario bundles a topology, providers, workload parameters, the set
of forwarding modes to run, the BIER bitstring length, and a snapshot
interval.  Replaying the schedule records, at every snapshot, each
router's state counts and one delivery record: every active group with
the receivers its probe verified, for all multicast modes at once.
``emit_csv`` expands a record into one delivery row per group and mode.

Both records cost what changed since the previous snapshot, not the
size of the network.  A state snapshot reuses every router row whose
counts no event can have changed: the label and BIFT columns are fixed
at construction, the unicast columns change only when a site is added,
and the (S,G) column only at routers where a join or leave created or
deleted an entry.  A delivery record is the previous one patched: only
the groups that had an event since are re-probed, in every multicast
mode, comparing the delivered receivers against the membership ground
truth, and every other group keeps the receiver set it last verified,
because nothing its packets read has changed since.

BIER is map-and-encap at the ingress: the BFIR keeps, per group, one
bitstring per Set Identifier, in which a join sets the receiver's bit
and a leave clears it (``SimState.bitstrings``), and transit routers
keep no per-group state.  What a re-probe re-forwards is the (S,G)
packet and each BIER packet whose bitstring changed: the BFIR sends one
BIER packet per Set Identifier, and a packet whose header equals the
one last flooded for that SI delivers what that flood delivered.
Inside a re-flooded packet, a copy that carries two or more bits is
forwarded at every router it reaches.  Every flood of the run shares
one reach table, so a one-bit copy is forwarded hop by hop once per
(SI, router, bit) in the run, and looked up after that (see
``bier.flood_deliver``).  Any mismatch aborts the run so scaling
numbers are never reported from an incorrect forwarding plane.

Writing the CSVs also costs what changed: a state row or a group's
receivers shared with an earlier snapshot is formatted once, and each
snapshot's text is written to the file as soon as it is formatted, so
the writer holds no more than one snapshot's text.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from . import bier, multicast, workload
from .errors import DeliveryMismatch, ScenarioError, SimError
from .generators import gen_topology
from .multicast import SgKey, SgState
from .topology import EDGE, build_topology, is_int
from .unicast import (
    MAX_PROVIDERS,
    MAX_SITES,
    Provider,
    UnicastPlane,
    check_providers,
    make_site,
    provider_prefix,
)

MODES = ("flat", "mapencap", "mpls", "stateful_mcast", "bier")
UNICAST_MODES = ("flat", "mapencap", "mpls")
# fault injections for testing the abort path; each perturbs BIER headers
FAULTS = ("bier_drop_lowest_bit",)

STATE_HEADER = "tick,router,role,fib,mapping,labels,sg,bift"
DELIVERY_HEADER = "tick,group,mode,ok,delivered,expected"


@dataclass
class Scenario:
    topology: object
    providers: list
    workload: workload.Params
    modes: tuple = MODES
    bsl: int = bier.DEFAULT_BSL
    snapshot_interval: int = 10
    fault: str = None


@dataclass
class StateSnapshot:
    tick: int
    # rows: (router, role, fib, mapping, labels, sg, bift), sorted by router
    rows: list = field(default_factory=list)


class DeliverySnapshot(NamedTuple):
    """The probes verified at ``tick``: for each ``(group, receivers)``
    pair of ``groups``, in group order, every mode in ``modes`` delivered
    one copy to each of ``receivers``, the group's membership, and no
    other."""

    tick: int
    modes: tuple
    groups: list


def auto_providers(topo):
    """One provider per edge router; core routers join their nearest edge.

    Ties break on the smaller edge router id, so assignment is
    deterministic.  Links are undirected, so an edge's cost to a router
    is read from the edge's own distances; a single-homed edge's is its
    hub's plus the link to it (see ``Topology.hub``), so only hub and
    multi-link routers' tables are read.
    """
    edges = topo.edge_routers
    pid_of_edge = {e: i for i, e in enumerate(edges)}
    owned = {i: {e} for i, e in enumerate(edges)}
    # edges behind one hub at one link cost are equally far from every
    # router, so only the first of them, the smallest id, can be nearest
    first = {}           # (router whose distances are read, cost added) -> edge
    for e in edges:
        hub = topo.hub(e)
        first.setdefault((e, 0) if hub is None else (hub, topo.adj[e][hub]), e)
    ranked = [(topo.distances(source), added, e) for (source, added), e in first.items()]
    for router in topo.roles:
        if router in pid_of_edge:
            continue
        _, nearest = min((dist[router] + added, e) for dist, added, e in ranked)
        owned[pid_of_edge[nearest]].add(router)
    return [
        Provider(pid, provider_prefix(pid), frozenset(routers))
        for pid, routers in sorted(owned.items())
    ]


def _integer(value, name):
    """``value`` if it is an ``int`` (not a bool); else a ScenarioError."""
    if not is_int(value):
        raise ScenarioError(f"malformed scenario: {name} must be an integer, got {value!r}")
    return value


def _build_topology_section(section, base_dir):
    if "file" in section:
        path = Path(base_dir or ".") / section["file"]
        section = json.loads(path.read_text())
        if "topology" in section:
            section = section["topology"]
    try:
        if "kind" in section:
            section = gen_topology(section["kind"], _integer(section["size"], "topology size"))
        return build_topology(section["routers"], section["links"])
    except KeyError as exc:
        raise ScenarioError(f"topology section missing key {exc}") from None


def _build_providers(section, topo):
    """Providers for the unicast modes: ``"auto"`` or a list of
    ``{"id", "routers"}``.  Locators are /8 prefixes under 0/1, so ids
    run from 0 to MAX_PROVIDERS - 1."""
    if section == "auto":
        n_edges = len(topo.edge_routers)
        if n_edges > MAX_PROVIDERS:
            raise ScenarioError(
                f"auto providers: {n_edges} edge routers need {n_edges} providers, but "
                f"unicast modes support at most {MAX_PROVIDERS} (/8 locators under 0/1)"
            )
        return auto_providers(topo)
    providers = []
    for p in section:
        try:
            pid = _integer(p["id"], "provider id")
            routers = frozenset(_integer(r, f"provider {pid} router") for r in p["routers"])
        except KeyError as exc:
            raise ScenarioError(f"provider entry missing key {exc}") from None
        if not 0 <= pid < MAX_PROVIDERS:
            raise ScenarioError(
                f"provider id {pid} out of range 0..{MAX_PROVIDERS - 1} "
                "(/8 locators under 0/1)"
            )
        providers.append(Provider(pid, provider_prefix(pid), routers))
    return providers


def build_scenario(config, base_dir=None):
    """Validate a scenario dict (parsed JSON) into a Scenario."""
    known = {"topology", "providers", "workload", "modes", "bsl",
             "snapshot_interval", "fault"}
    extra = set(config) - known
    if extra:
        raise ScenarioError(f"unknown scenario keys: {sorted(extra)}")
    if "topology" not in config:
        raise ScenarioError("scenario needs a topology section")
    topo = _build_topology_section(config["topology"], base_dir)

    modes = tuple(config.get("modes", MODES))
    if not modes:
        raise ScenarioError(f"no mode enabled (choose from {MODES})")
    for m in modes:
        if m not in MODES:
            raise ScenarioError(f"unknown mode {m!r} (choose from {MODES})")
    if len(set(modes)) != len(modes):
        raise ScenarioError(f"mode listed more than once in {list(modes)}")
    unicast = any(m in UNICAST_MODES for m in modes)
    # providers exist only for the unicast modes
    providers = []
    if unicast:
        providers = _build_providers(config.get("providers", "auto"), topo)
        check_providers(topo, providers)

    params = workload.Params.from_dict(config.get("workload", {}))
    # so do site prefixes: one /24 under 1/1 per site id 0..n_sites-1
    if unicast and params.n_sites > MAX_SITES:
        raise ScenarioError(
            f"n_sites {params.n_sites} exceeds {MAX_SITES}, the number of /24 site "
            "identifiers under 1/1 that unicast modes use"
        )
    bsl = _integer(config.get("bsl", bier.DEFAULT_BSL), "bsl")
    if bsl < 1:
        raise ScenarioError(f"bsl must be >= 1, got {bsl}")
    interval = _integer(config.get("snapshot_interval", 10), "snapshot_interval")
    if interval < 1:
        raise ScenarioError(f"snapshot_interval must be >= 1, got {interval}")

    fault = config.get("fault")
    if fault is not None:
        if fault not in FAULTS:
            raise ScenarioError(f"unknown fault {fault!r} (choose from {FAULTS})")
        if "bier" not in modes:
            raise ScenarioError(f"fault {fault!r} needs mode 'bier', which is not enabled")

    scenario = Scenario(topo, providers, params, modes, bsl, interval, fault)
    # workload feasibility
    if params.n_groups > 0 and params.members_max > len(topo.edge_routers):
        raise ScenarioError("members_max exceeds number of edge routers")
    return scenario


def load_scenario(path, modes=None):
    """Read and validate a scenario file; ``modes`` replaces its modes."""
    path = Path(path)
    try:
        config = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    if modes is not None:
        config["modes"] = list(modes)
    try:
        return build_scenario(config, base_dir=path.parent)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario {path}: {exc}") from None


class SimState:
    """Mutable system state a schedule is replayed against."""

    def __init__(self, scenario):
        self.scenario = scenario
        topo = scenario.topology
        self.topo = topo
        self.modes = scenario.modes
        self.unicast = (
            UnicastPlane(topo, scenario.providers)
            if any(m in UNICAST_MODES for m in scenario.modes) else None
        )
        self.sg_state = SgState() if "stateful_mcast" in scenario.modes else None
        self.groups = {}        # group -> source edge
        self.membership = {}    # group -> set of receiver edges
        # the BFIR's map-and-encap state: group -> {si: bits}, the bitstring
        # of its members in each Set Identifier, which a join sets and a
        # leave clears; an SI without a member has no entry, and without
        # BIER every group's dict stays empty
        self.bitstrings = {}
        # the last delivery record's (group, receivers) pairs, in group
        # order; a list a probe returned is never modified
        self._record = []
        self._position = {}     # group -> its index in _record
        # the groups with an event since _record, rejected events and groups
        # never added included; a probe drops each one it has passed
        self._stale = set()
        # group -> {si: (bits, receivers)}: the header last flooded for each
        # Set Identifier and the BFER of each copy it delivered
        self.floods = {}
        # the reach table every flood shares: {si: {(router, one-bit mask): BFER}}
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
        # router -> its report row, in router order; a row is rebuilt only
        # when a count in it may have changed (see snapshot)
        self._fixed = {r: (
            topo.roles[r],
            self.unicast.label_entries(r) if "mpls" in self.modes else 0,
            len(self.bit_of) if self.bift is not None else 0,
        ) for r in sorted(topo.roles)}
        self._n_identifiers = len(self.unicast.identifiers) if self.unicast else 0
        self._unicast_cols = self._unicast_columns()
        self._rows = {r: self._row(r) for r in self._fixed}

    def apply(self, event):
        kind, args = event.kind, event.args
        if kind not in workload.KINDS:
            raise SimError(f"unknown event kind {kind!r}")
        if kind == workload.ADD_SITE:
            site_id, edge = args
            if self.topo.roles.get(edge) != EDGE:
                raise SimError(f"add_site targets non-edge router {edge}")
            if self.unicast is not None:
                self.unicast.add_site(make_site(site_id, edge))
            return
        # every other event is on group args[0] and may change what its probe reads
        group = args[0]
        self._stale.add(group)
        if kind != workload.ADD_GROUP and group not in self.groups:
            raise SimError(f"event references unknown group {group}")
        if kind == workload.ADD_GROUP:
            group, source_edge = args
            if self.topo.roles.get(source_edge) != EDGE:
                raise SimError(f"add_group {group} sourced at non-edge router {source_edge}")
            if self.groups.setdefault(group, source_edge) != source_edge:
                raise SimError(f"group {group} re-added with a different source")
            self.membership.setdefault(group, set())
            self.bitstrings.setdefault(group, {})
        elif kind == workload.JOIN:
            group, receiver = args
            if self.topo.roles.get(receiver) != EDGE:
                raise SimError(f"join of group {group} targets non-edge router {receiver}")
            self.membership[group].add(receiver)
            if self.bift is not None:
                si, bit = self.bit_of[receiver]
                bits = self.bitstrings[group]
                bits[si] = bits.get(si, 0) | bier.bit_mask(bit)
            if self.sg_state is not None:
                sg = SgKey(self.groups[group], group)
                multicast.join(self.sg_state, self.topo, sg, receiver)
        elif kind == workload.LEAVE:
            group, receiver = args
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
                sg = SgKey(self.groups[group], group)
                multicast.leave(self.sg_state, self.topo, sg, receiver)

    # -- measurement ----------------------------------------------------

    def _unicast_columns(self):
        """role -> (fib, mapping): counts of the shared prefix tables that
        depend on a router's role only."""
        cols = {}
        for router, (role, _, _) in self._fixed.items():
            if role not in cols:
                cols[role] = (
                    self.unicast.flat_fib_size() if "flat" in self.modes else 0,
                    self.unicast.mapping_entries(router) if "mapencap" in self.modes else 0,
                )
        return cols

    def _row(self, router):
        role, labels, bift_n = self._fixed[router]
        fib, mapping = self._unicast_cols[role]
        sg = self.sg_state.count(router) if self.sg_state is not None else 0
        return (router, role, fib, mapping, labels, sg, bift_n)

    def snapshot(self, tick):
        """Every router's state counts at ``tick``, sorted by router.

        Only what an event may have changed since the previous snapshot
        is re-read: the (S,G) count at each router where an entry was
        created or deleted, and, after a site was added, the unicast
        columns of every row.  The label and BIFT columns never change
        after construction.  Rows that did not change are shared with
        earlier snapshots; the returned list is never modified afterwards.
        """
        if self.sg_state is not None:
            for router in self.sg_state.changed:
                self._rows[router] = self._row(router)
            self.sg_state.changed.clear()
        # a site added since the last snapshot also changes the unicast
        # columns of the rows just rebuilt
        if self.unicast is not None and len(self.unicast.identifiers) != self._n_identifiers:
            self._n_identifiers = len(self.unicast.identifiers)
            cols = self._unicast_cols = self._unicast_columns()
            self._rows = {router: (router, role, *cols[role], labels, sg, bift_n)
                          for router, role, _, _, labels, sg, bift_n in self._rows.values()}
        return StateSnapshot(tick, list(self._rows.values()))

    def probe(self, tick):
        """One ``DeliverySnapshot`` of every active group's verified
        receivers in every multicast mode; a mismatch raises
        DeliveryMismatch, so no record ever holds one.

        The record is the last one patched: a copy of its pairs, with the
        group positions rebuilt only when a group was added.  Each group
        that had an event since is checked against its membership in every
        multicast mode, in group order, so the mismatch raised is the one
        a probe of every group would raise first; re-forwarded are the
        (S,G) packet and each BIER packet whose bitstring changed (see
        ``_copies``).  Any other group keeps the receiver set it last
        verified: only events on a group write its (S,G) entries and its
        bitstrings, and the BIFT never changes.  A group verified before a
        mismatch keeps its new pair; the failing group and those after it
        stay stale.
        """
        groups = list(self._record)
        if len(groups) != len(self.groups):
            # groups are never removed: a new group has no pair yet, and
            # is stale since its add_group
            known = dict(groups)
            groups = [(group, known.get(group)) for group in sorted(self.groups)]
            self._position = {group: i for i, (group, _) in enumerate(groups)}
        self._record = groups
        for group in sorted(self._stale):
            at = self._position.get(group)
            if at is not None:      # else every event on it was rejected
                groups[at] = (group, self._probe_group(tick, group))
            self._stale.discard(group)
        return DeliverySnapshot(tick, self.probe_modes, groups)

    def _probe_group(self, tick, group):
        """Probe ``group`` in every multicast mode; returns its membership,
        or raises DeliveryMismatch unless each mode delivers one copy to
        each member and no other."""
        expected = frozenset(self.membership[group])
        for mode, copies in self._copies(group):
            delivered = frozenset(copies)
            if delivered != expected or len(copies) != len(delivered):
                raise DeliveryMismatch(tick, group, mode, delivered, expected)
        return expected

    def _copies(self, group):
        """Yield ``(mode, receiver of each delivered copy)`` per multicast
        mode in report order, forwarding each mode's packet only when asked.

        The (S,G) packet is always re-forwarded.  The BFIR sends one BIER
        packet per Set Identifier in ``self.bitstrings[group]``, in SI
        order, and only those whose bits differ from the ones last flooded
        for that SI are re-forwarded: a flood reads only its ingress, its
        header and the BIFT, and neither the group's source nor the BIFT
        changes while the group exists.  The fault, if any, is applied to
        the bits before that comparison.  A re-flooded packet's copies
        are re-forwarded only while they carry two or more bits; a
        one-bit copy is looked up in ``self.reach`` once it has been
        forwarded from the same router in any earlier flood of the run.
        """
        source = self.groups[group]
        if self.sg_state is not None:
            yield "stateful", multicast.simulate_delivery(self.sg_state, SgKey(source, group))
        if self.bift is not None:
            floods = self.floods.setdefault(group, {})
            copies = []
            for si, bits in sorted(self.bitstrings[group].items()):
                if self.scenario.fault == "bier_drop_lowest_bit":
                    bits &= bits - 1
                flood = floods.get(si)
                if flood is None or flood[0] != bits:
                    flood = floods[si] = (bits, bier.flood_deliver(
                        self.bift, bier.BierHeader(si, bits), source, self.reach))
                copies.extend(flood[1])
            yield "bier", copies


def run(scenario, seed=None):
    """Replay the scenario's schedule; returns (state snapshots, delivery
    snapshots), one of each per snapshot tick, in tick order."""
    params = scenario.workload
    if seed is not None:
        params = replace(params, seed=seed)
    schedule = workload.generate(scenario.topology, params)
    sim = SimState(scenario)
    snapshots = []
    report = []
    events = schedule.events
    max_tick = events[-1].tick if events else 0
    i = 0
    for tick in range(max_tick + 1):
        while i < len(events) and events[i].tick == tick:
            sim.apply(events[i])
            i += 1
        if tick % scenario.snapshot_interval == 0 or tick == max_tick:
            snapshots.append(sim.snapshot(tick))
            report.append(sim.probe(tick))
    return snapshots, report


def emit_csv(snapshots, report, out_dir):
    """Write state.csv and delivery.csv from the snapshots ``run`` returns,
    which are in tick order.

    state.csv has one row per router per snapshot, in router order.
    delivery.csv has one row per group and multicast mode per delivery
    snapshot, in group order and then mode name order.  Each snapshot's
    lines are joined into one string and written to the open file, so
    the writer holds one snapshot's text at a time, not the file's.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state_path = out_dir / "state.csv"
    delivery_path = out_dir / "delivery.csv"

    # a row that no event changed is the same object as the row at its
    # position in the previous snapshot (see SimState.snapshot), so it
    # reuses the text formatted there
    with open(state_path, "w") as out:
        out.write(STATE_HEADER + "\n")
        prev_rows = prev_texts = ()
        for snap in snapshots:
            rows = snap.rows
            if len(rows) == len(prev_rows):
                texts = [text if row is prev else "%s,%s,%s,%s,%s,%s,%s" % row
                         for row, prev, text in zip(rows, prev_rows, prev_texts)]
            else:
                texts = ["%s,%s,%s,%s,%s,%s,%s" % row for row in rows]
            if texts:
                out.write(f"{snap.tick}," + f"\n{snap.tick},".join(texts))
                out.write("\n")
            prev_rows, prev_texts = rows, texts

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
