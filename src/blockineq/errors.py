"""Exception hierarchy shared by all blockineq modules."""

from __future__ import annotations


class BlockineqError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(BlockineqError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class BlockIndexError(BlockineqError, IndexError):
    """Block index outside the valid range of a block matrix."""


class HermiticityError(BlockineqError, ValueError):
    """Input is not Hermitian within the required tolerance."""


class ConvergenceError(BlockineqError, RuntimeError):
    """Eigensolver failed to converge within the sweep budget.

    Carries the final off-diagonal Frobenius mass in ``offdiag_residual``.
    """

    def __init__(self, message: str, offdiag_residual: float):
        super().__init__(message)
        self.offdiag_residual = offdiag_residual


class NormOverflowError(BlockineqError, OverflowError):
    """A matrix's Frobenius norm overflows float64 (or is NaN), or a term of
    a submatrix check on a matrix does: a product of two traces or of two
    minors, or a squared entry sum.

    No eigenvalue of such a matrix can be trusted, so the eigensolvers refuse
    it before any sweep; nor can a gap of such terms, so the submatrix
    checkers refuse the matrix, naming it and its first such pair, before
    any report is made. Rescaling the input is the remedy.
    """


class SelfCheckError(BlockineqError, RuntimeError):
    """The package contradicted itself: a verdict that must follow from
    another one did not (block2's traced scalar bounds, given ``G >= 0``).
    This is a numerical failure of the package, not a verdict on the
    inequality being checked. A seeded draw outside its hypothesis is not
    one: its checker refuses it with :class:`PreconditionError`.
    """


class UsageError(BlockineqError, ValueError):
    """Invalid argument combination (unknown name, bad cardinality, ...)."""


class PreconditionError(BlockineqError, ValueError):
    """An inequality checker was handed input outside its hypothesis.

    ``min_eig`` holds the offending minimum eigenvalue when the violated
    hypothesis is a positivity requirement.
    """

    def __init__(self, message: str, min_eig: float | None = None):
        super().__init__(message)
        self.min_eig = min_eig


class ParseError(BlockineqError, ValueError):
    """A matrix/map document could not be parsed."""


class ValidationError(BlockineqError, ValueError):
    """A parsed document is well-formed JSON but violates the schema."""
