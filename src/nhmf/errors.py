"""Error hierarchy shared by all nhmf modules.

Every error carries a machine-readable ``code`` from a fixed enumeration so
batch consumers (the CLI in particular) never have to parse messages.
"""

from __future__ import annotations

ERROR_CODES = frozenset(
    {
        "usage",
        "bad-form-file",
        "weight-mismatch",
        "not-decomposable",
        "insufficient-truncation",
        "insufficient-laurent-precision",
        "out-of-domain",
        "non-eigenform",
        "ambiguous-module",
        "invariant-violation",
        "pole",
        "verify-failed",
        "internal",
    }
)


class NhmfError(Exception):
    """Base class; subclasses pin ``code`` to one of ERROR_CODES."""

    code = "internal"

    def __init__(self, message, **data):
        super().__init__(message)
        assert self.code in ERROR_CODES
        self.data = data


class UsageError(NhmfError):
    code = "usage"


class FormFileError(NhmfError):
    code = "bad-form-file"


class WeightMismatchError(NhmfError):
    code = "weight-mismatch"


class DecompositionError(NhmfError):
    """Input is not in the span of the supplied holomorphic basis.

    ``data['residual']`` holds the undecomposable remainder.
    """

    code = "not-decomposable"


class InsufficientTruncationError(NhmfError):
    code = "insufficient-truncation"


class InsufficientLaurentPrecisionError(NhmfError):
    code = "insufficient-laurent-precision"


class DomainError(NhmfError):
    code = "out-of-domain"


class NonEigenformError(NhmfError):
    """Casimir did not act by a scalar; ``data['residual']`` is the defect."""

    code = "non-eigenform"


class AmbiguousModuleError(NhmfError):
    """Fingerprinting could not pin a single indecomposable class."""

    code = "ambiguous-module"


class InvariantViolationError(NhmfError):
    code = "invariant-violation"


class PoleError(NhmfError):
    """Evaluation hit a pole; ``data['order']`` gives the pole order (< 0)."""

    code = "pole"
