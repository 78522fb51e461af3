"""Exception types shared across the package."""


class RoughmapError(Exception):
    """Base class for all errors raised by this package."""


class EmptyUniverseError(RoughmapError):
    """A universe must contain at least one element."""


class BadLabelsError(RoughmapError):
    """Label list is missing entries, has the wrong length, or repeats a name."""


class MixedUniverseError(RoughmapError):
    """Two values that must share a universe were built over different ones."""


class NotAPartitionError(RoughmapError):
    """Block list has overlapping blocks, gaps, or empty blocks."""


class NotEquivalenceError(RoughmapError):
    """Relation is not an equivalence; `condition` names the first failed axiom."""

    def __init__(self, condition: str):
        super().__init__(f"relation is not an equivalence: {condition} fails")
        self.condition = condition


class BadElementError(RoughmapError):
    """Element index is outside the universe."""


class BadImageError(RoughmapError):
    """Map table entry is outside the codomain."""


class EmptyReferenceError(RoughmapError):
    """Including degree D(F/E) needs a nonempty reference set E."""


class BadInstanceError(RoughmapError):
    """Instance does not match the claim's shape (partition count, subset, map constraint)."""


class ParseError(RoughmapError):
    """Instance or report document is not syntactically well formed."""


class ValidationError(RoughmapError):
    """Document parsed but violates a semantic rule; `field` says where."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class IoError(RoughmapError):
    """Report or instance destination could not be written."""


class WorkerCrashError(RoughmapError):
    """A search worker process died, or its pipe broke, before it sent its chunks' results."""
