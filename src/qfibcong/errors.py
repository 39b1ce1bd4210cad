"""Exception hierarchy shared by every module."""


class QFibError(Exception):
    """Base class for all library errors."""


class DomainError(QFibError):
    """An argument is outside the operation's domain."""


class InternalInvariantViolation(QFibError):
    """A condition the implementation guarantees was observed to fail."""


class TheoremViolation(QFibError):
    """A congruence that must hold was observed to fail; fatal."""


class WorkerDied(QFibError):
    """A worker process of a pool ended before returning its result."""
