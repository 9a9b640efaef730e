"""Exception types shared across the toolkit."""


class RefdocError(Exception):
    """Base class for all data and training errors raised by this package."""


class ParseError(RefdocError):
    """Malformed corpus input. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownLabel(RefdocError):
    """A label string outside the refactoring-type enumeration."""


class DuplicateId(RefdocError):
    """Two records share the same id within one dataset."""


class InsufficientClass(RefdocError):
    """A class has fewer records than an operation requires."""

    def __init__(self, label, available, requested):
        self.label = label
        self.available = available
        self.requested = requested
        super().__init__(
            f"class {label}: {available} available, {requested} requested"
        )

    def __reduce__(self):  # so a worker's error crosses a pickle intact
        return type(self), (self.label, self.available, self.requested)


class EmptyCorpus(RefdocError):
    """No usable documents were supplied."""


class SingleClass(RefdocError):
    """Training or feature selection needs at least two distinct classes."""


class EmptyFeatures(RefdocError):
    """Every document vectorized to the empty feature vector."""


class NonFinite(RefdocError):
    """A training loss diverged to NaN or infinity."""


class ModelFormatError(RefdocError):
    """A model file has the wrong format version or is structurally invalid."""
