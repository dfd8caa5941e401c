"""Exception hierarchy shared by all simulator modules."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ScenarioError(SimError):
    """A scenario, topology or parameter the simulator cannot run; the
    CLI exits with code 1 on this class and its subclasses, and with
    code 2 on any other ``SimError``."""


# -- topology ---------------------------------------------------------------

class TopologyError(ScenarioError):
    pass


class DuplicateRouter(TopologyError):
    pass


class InvalidRouter(TopologyError):
    """A negative router id or an unknown role."""


class DuplicateLink(TopologyError):
    pass


class InvalidLink(TopologyError):
    """A link whose cost is not positive, or one to an undefined router."""


class SelfLoop(TopologyError):
    pass


class Disconnected(TopologyError):
    pass


class NoEdgeRouters(TopologyError):
    pass


class UnknownRouter(SimError):
    pass


# -- unicast ----------------------------------------------------------------

class InvalidPrefix(ScenarioError):
    """A prefix or id outside the address plan, or a duplicate prefix."""


class UnattachedSite(SimError):
    pass


# -- stateful multicast -----------------------------------------------------

class NotJoined(SimError):
    pass


class NoState(SimError):
    pass


class RpfFailure(SimError):
    pass


# -- BIER -------------------------------------------------------------------

class MissingBiftEntry(SimError):
    """A BIER copy meets a bit that no F-BM of the router holds, or two
    F-BMs of one router and SI that share a bit."""


class BiftLoop(SimError):
    """A BIER flood forwarded more copies than a loop-free BIFT allows."""


# -- workload / harness -----------------------------------------------------

class InvalidParams(ScenarioError):
    pass


class DeliveryMismatch(SimError):
    """A probe packet did not reach exactly the expected receiver set."""

    def __init__(self, tick, group, mode, delivered, expected):
        self.tick = tick
        self.group = group
        self.mode = mode
        self.delivered = delivered
        self.expected = expected
        super().__init__(
            f"delivery mismatch at tick {tick}, group {group}, mode {mode}: "
            f"delivered {sorted(delivered)}, expected {sorted(expected)}"
        )
