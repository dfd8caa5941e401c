"""Exception hierarchy shared by all simulator modules."""


class SimError(Exception):
    """Base class for all simulator errors."""


# -- topology ---------------------------------------------------------------

class TopologyError(SimError):
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

class InvalidPrefix(SimError):
    """A prefix or id outside the address plan, or a duplicate prefix."""


class UnattachedSite(SimError):
    pass


class NoRoute(SimError):
    pass


class NoMapping(SimError):
    pass


class NoLabelBinding(SimError):
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
    pass


class BiftLoop(SimError):
    """A BIER flood forwarded more copies than a loop-free BIFT allows."""


# -- workload / harness -----------------------------------------------------

class InvalidParams(SimError):
    pass


class ScenarioError(SimError):
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
