"""Exception types raised by the library.

Everything derives from MhPhoneError so callers (and the CLI) can treat
any of these as an input-validation failure rather than a bug.
"""


class MhPhoneError(Exception):
    """Base class for all errors raised by mh_phone."""


class ParseError(MhPhoneError):
    """A corpus or model file could not be parsed; the message carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(MhPhoneError):
    """A structural invariant failed; the message names the failed check, the
    sign of a batch it failed on when `sign` is given, and the line of a file
    it failed on when `line` is given, as ParseError does."""

    def __init__(self, check, sign=None, line=None):
        message = check if sign is None else f"sign {sign}: {check}"
        super().__init__(message if line is None else f"line {line}: {message}")
        self.check = check
        self.sign = sign
        self.line = line


class TooLong(InvariantViolation):
    """A sign has more frames than the padded length allows."""


class DegenerateScale(MhPhoneError):
    """Pose normalization found both head-shoulder distances equal to zero."""


class NotEnoughData(MhPhoneError):
    """The corpus is too small for the requested operation."""


class AbsorbingState(MhPhoneError):
    """A state with self-transition probability 1 has no finite hold length."""


class EmptyBatch(MhPhoneError):
    """A gradient was requested for a zero-length batch."""
