"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class TopologyError(ReproError):
    """A topology is malformed (unknown node, duplicate link, ...)."""


class RoutingError(ReproError):
    """No route exists, a FIB lookup failed, or a FIB cannot be built."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class PartitionError(ReproError):
    """The partitioner received an infeasible request."""


class ClusterError(ReproError):
    """The distributed runtime detected a protocol violation."""


class ConfigError(ReproError):
    """A scenario or engine configuration is invalid."""


class CheckpointError(SimulationError, ClusterError):
    """A checkpoint of another format or scenario was offered to resume
    from.  An engine and a cluster refuse it with the same check, so it
    is both an engine's and the cluster's error."""
