"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: invalid parameters and parse
failures exit 2, cap violations exit 3, oracle mismatches exit 4.  Any
other exception, including a PrymAlgError of no listed kind, is a bug
and exits 5.
"""


class PrymAlgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(PrymAlgError):
    """A parameter or configuration violates a documented precondition."""


class ParseError(InvalidParameterError):
    """A text form (group literal, partition, monomial) failed to parse."""


class CapExceededError(PrymAlgError):
    """A computation exceeded a configured enumeration or size cap."""


class OracleMismatchError(PrymAlgError):
    """An independent cross-check disagreed with the closed-form value."""
