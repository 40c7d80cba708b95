"""Exception types shared across the package.

Each class marks a distinct failure mode so callers can catch precisely;
all inherit from CarrierStreamError.
"""


class CarrierStreamError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CarrierStreamError, ValueError):
    """Operand dimensions do not match the operation's contract."""


class DegenerateInputError(CarrierStreamError, ValueError):
    """Input is structurally valid but numerically unusable.

    Raised for fully-masked softmax rows and zero-norm vectors in
    cosine similarity.
    """


class ConfigError(CarrierStreamError, ValueError):
    """Configuration violates an invariant (e.g. d not divisible by heads)."""


class CapacityError(CarrierStreamError, RuntimeError):
    """A position index or stream length exceeded a configured bound."""


class StateError(CarrierStreamError, RuntimeError):
    """Operation called on an object in the wrong state (closed session,
    capture never enabled, ...)."""


class OrderingError(CarrierStreamError, ValueError):
    """Out-of-order insertion into an ordered store."""


class LayoutError(CarrierStreamError, ValueError):
    """Segment spans overlap, are misordered, or carry an unknown tag."""


class OracleError(CarrierStreamError, RuntimeError):
    """The verification oracle could not be set up consistently with the
    streaming run it is meant to mirror."""


class FormatError(CarrierStreamError, ValueError):
    """A binary file has a bad magic string or unsupported version."""


class PayloadLengthError(FormatError):
    """A binary file's payload does not match its header."""


class SelectionError(CarrierStreamError, ValueError):
    """A filter or aggregation selected an empty set where at least one
    element is required."""
