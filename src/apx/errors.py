"""Exception types raised by the toolkit."""


class ApxError(Exception):
    """Base class for all toolkit errors."""


class EmptySetError(ApxError):
    """An operation that needs a non-empty subset got the empty one."""


class InvalidConnectionSetError(ApxError):
    """Cayley connection sets must be symmetric and must not contain 0."""


class SymmetryRequiredError(ApxError):
    """The operation is only defined for symmetric inputs."""


class OddOrderRequiredError(ApxError):
    """Progression-density search runs on odd-order groups only."""


class MuUndefinedError(ApxError):
    """The probed probability must exceed the density |S|/n."""


class NoNonzeroFrequencyError(ApxError):
    """A trivial group has no nonzero frequency to select."""


class OutOfLemmaRangeError(ApxError):
    """Derived induction parameters left the admissible range."""
