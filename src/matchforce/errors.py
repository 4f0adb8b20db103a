"""Exception types shared across the package."""


class MatchforceError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MatchforceError):
    """Malformed graph text.  `offset` is the byte position of the defect
    (inputs are ASCII, so byte and character offsets coincide)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class PreconditionError(MatchforceError):
    """An operation was called outside its stated domain."""


class NoPerfectMatchingError(PreconditionError):
    """The graph has no perfect matching but the operation needs one."""


class MatchingOverflowError(MatchforceError):
    """Perfect-matching enumeration exceeded the configured cap."""
