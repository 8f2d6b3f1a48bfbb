"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: parameter/precondition
problems exit 1, capacity refusals exit 2, failed verifications exit 3.
"""


class LowdiscError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(LowdiscError):
    """A precondition or parameter constraint was violated."""


class CapacityError(LowdiscError):
    """An enumeration or size cap would be exceeded; refused up front."""


class ConsistencyError(LowdiscError):
    """An internal structural guarantee failed; indicates a bug upstream."""
