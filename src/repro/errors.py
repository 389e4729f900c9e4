"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An input failed structural validation (shape, range, type)."""


class CapacityError(ReproError):
    """A replication scheme violates a site's storage capacity."""

    def __init__(self, site: int, used: int, capacity: int) -> None:
        self.site = site
        self.used = used
        self.capacity = capacity
        super().__init__(
            f"site {site} stores {used} units but its capacity is {capacity}"
        )


class PrimaryCopyError(ReproError):
    """A replication scheme drops (or tries to drop) a primary copy."""

    def __init__(self, site: int, obj: int) -> None:
        self.site = site
        self.obj = obj
        super().__init__(
            f"object {obj} must keep its primary copy at site {site}"
        )


class InfeasibleProblemError(ReproError):
    """The DRP instance admits no feasible replication scheme.

    This happens when some primary copy does not fit in its primary site,
    i.e. even the mandatory primary-only allocation violates capacity.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class TopologyError(ReproError):
    """A network topology is malformed (disconnected, bad link, ...)."""


class ProtocolError(ReproError):
    """A distributed-protocol emulation violated its own rules."""


class FaultPlanError(ValidationError):
    """A fault-injection plan is malformed (bad window, site, rate...)."""


class RetryExhaustedError(ProtocolError):
    """A protocol operation gave up after its configured retry budget.

    Carries the operation name, the peer it was addressed to and the
    number of attempts made, so callers can distinguish a dead peer from
    a hopelessly lossy link without parsing the message.
    """

    def __init__(self, operation: str, peer: int, attempts: int) -> None:
        self.operation = operation
        self.peer = peer
        self.attempts = attempts
        super().__init__(
            f"{operation} to site {peer} failed after {attempts} attempts"
        )
