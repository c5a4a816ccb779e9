"""Block-matrix views and operators: partial transpose, partial traces,
the swap of the tensor factors, and the PPT predicate.

A :class:`BlockMatrix` is an ``mn x mn`` complex matrix read as an ``m x m``
array of ``n x n`` blocks. The block shape travels with the matrix;
reinterpreting the same entries under a different factorization requires
constructing a new :class:`BlockMatrix` explicitly, which prevents silent
shape bugs in :func:`realign`. A :class:`BlockStack` holds several block
matrices of one shape, for code that treats a whole batch at once.

Conventions: the partial transpose swaps whole blocks without transposing
inside them, and block positions are addressed with 1-based indices
(``block_get(a, 1, 1)`` is the top-left block), matching the usual
mathematical notation ``A = [A_{i,j}]_{i,j=1}^m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densemat  # is_ppt looks the stacked solver up on the module, where it can be replaced
from .densemat import DEFAULT_TOL, _require_tol, as_matrix, is_psd, psd_scale, psd_verdict
from .errors import BlockIndexError, ShapeError


@dataclass(frozen=True)
class BlockMatrix:
    """An ``mn x mn`` complex matrix tagged with its block shape ``(m, n)``.

    ``m`` is the number of blocks per side, ``n`` the dimension of each block.
    Block ``(i, j)`` occupies rows ``i*n : (i+1)*n`` and columns
    ``j*n : (j+1)*n`` of ``mat``, consistent with the Kronecker product:
    ``kron(X, Y)`` has block ``(i, j)`` equal to ``X[i, j] * Y``.
    """

    m: int
    n: int
    mat: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ShapeError(f"block shape must be positive, got ({self.m}, {self.n})")
        mat = as_matrix(self.mat)
        d = self.m * self.n
        if mat.shape != (d, d):
            raise ShapeError(
                f"matrix of shape {mat.shape} cannot carry block shape "
                f"({self.m}, {self.n}): expected ({d}, {d})"
            )
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.m * self.n

    def _as_blocks(self) -> np.ndarray:
        """View as a 4-D array indexed (outer row, inner row, outer col, inner col)."""
        return self.mat.reshape(self.m, self.n, self.m, self.n)


@dataclass(frozen=True)
class BlockStack:
    """``B`` block matrices of one block shape ``(m, n)``, as a ``(B, mn, mn)`` array.

    :func:`partial_transpose`, :func:`partial_trace_1`,
    :func:`partial_trace_2`, :func:`is_ppt`, the block-matrix checkers of
    :mod:`blockineq.inequalities` and the seeded generators take a stack
    wherever they take one :class:`BlockMatrix`, and act on every member at
    once. Indexing gives one member as a :class:`BlockMatrix`.
    """

    m: int
    n: int
    mat: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ShapeError(f"block shape must be positive, got ({self.m}, {self.n})")
        mat = np.asarray(self.mat, dtype=np.complex128)
        d = self.m * self.n
        if mat.ndim != 3 or mat.shape[1:] != (d, d):
            raise ShapeError(
                f"array of shape {mat.shape} is not a stack of ({self.m}, {self.n}) "
                f"block matrices: expected (B, {d}, {d})"
            )
        if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        object.__setattr__(self, "mat", mat)

    def __len__(self) -> int:
        return self.mat.shape[0]

    def __getitem__(self, k: int) -> BlockMatrix:
        return BlockMatrix(self.m, self.n, self.mat[k])

    def _as_blocks(self) -> np.ndarray:
        """View as ``(B, m, n, m, n)``: member, then the axes of :meth:`BlockMatrix._as_blocks`."""
        return self.mat.reshape(-1, self.m, self.n, self.m, self.n)


def from_blocks(blocks) -> BlockMatrix:
    """Assemble a BlockMatrix from an ``m x m`` nested sequence of ``n x n`` blocks."""
    rows = [[as_matrix(b) for b in row] for row in blocks]
    m = len(rows)
    if m == 0 or any(len(row) != m for row in rows):
        raise ShapeError("blocks must form a square m x m grid")
    n = rows[0][0].shape[0]
    for row in rows:
        for b in row:
            if b.shape != (n, n):
                raise ShapeError(f"all blocks must be {n} x {n}, got {b.shape}")
    return BlockMatrix(m, n, np.block(rows) if m > 1 else rows[0][0])


def block_get(a: BlockMatrix, i: int, j: int) -> np.ndarray:
    """The ``n x n`` block at 1-based block position ``(i, j)``, ``1 <= i, j <= m``."""
    if not (1 <= i <= a.m and 1 <= j <= a.m):
        raise BlockIndexError(
            f"block index ({i}, {j}) out of range for m={a.m} (indices are 1-based)"
        )
    n = a.n
    return a.mat[(i - 1) * n : i * n, (j - 1) * n : j * n].copy()


def partial_transpose(a):
    """Swap blocks across the main block diagonal without transposing inside.

    Block ``(i, j)`` of the result is block ``(j, i)`` of the input. An
    involution; the identity when ``m == 1``. A :class:`BlockStack` gives
    the stack of its members' partial transposes.
    """
    swapped = np.swapaxes(a._as_blocks(), -4, -2).reshape(a.mat.shape)
    return type(a)(a.m, a.n, swapped)


def partial_trace_1(a) -> np.ndarray:
    """Sum of the diagonal blocks: an ``n x n`` matrix (``(B, n, n)`` for a stack)."""
    return np.trace(a._as_blocks(), axis1=-4, axis2=-2)


def partial_trace_2(a) -> np.ndarray:
    """The ``m x m`` matrix of blockwise traces (``(B, m, m)`` for a stack)."""
    return np.trace(a._as_blocks(), axis1=-3, axis2=-1)


def realign(a: BlockMatrix) -> BlockMatrix:
    """Exchange the two tensor factors: an (m, n)-block matrix becomes (n, m).

    Block ``(r, s)`` of the result is the ``m x m`` matrix whose ``(i, j)``
    entry is row ``r``, column ``s`` of input block ``(i, j)``. It is a pure
    permutation of entries (so Frobenius norm is preserved exactly), an
    involution, and sends ``kron(X, Y)`` to ``kron(Y, X)``. It is the
    conjugation of ``a`` by the swap permutation, so it preserves the
    spectrum; it is not the realignment map of the computable cross-norm
    (CCNR) criterion, which sends ``kron(X, Y)`` to an outer product of the
    vectorized factors and changes the spectrum.
    """
    moved = a._as_blocks().transpose(1, 0, 3, 2).reshape(a.dim, a.dim)
    return BlockMatrix(a.n, a.m, moved)


def is_ppt(a, tol: float = DEFAULT_TOL):
    """Test whether both ``a`` and its partial transpose are PSD.

    Returns ``(ok, min_eig_a, min_eig_atau)`` with both minimum eigenvalues
    reported regardless of the verdict; for a :class:`BlockStack`, arrays
    with one entry per member. One matrix and its partial transpose are each
    decided by :func:`~blockineq.densemat.is_psd`. A stack's members and
    their partial transposes are solved together by one
    :func:`~blockineq.densemat.hermitian_eigenvalues_stack` call and decided
    by :func:`~blockineq.densemat.psd_verdict`, as :func:`is_psd` decides;
    :func:`is_psd` on so many members would sweep each alone.
    """
    if isinstance(a, BlockStack):
        _require_tol(tol)
        mats = np.concatenate([a.mat, partial_transpose(a).mat])
        min_eig = densemat.hermitian_eigenvalues_stack(mats).values[:, 0]
        ok = psd_verdict(min_eig, psd_scale(mats), tol)
        (ok_a, ok_t), (min_a, min_t) = np.split(ok, 2), np.split(min_eig, 2)
    else:
        ok_a, min_a = is_psd(a.mat, tol)
        ok_t, min_t = is_psd(partial_transpose(a).mat, tol)
    return ok_a & ok_t, min_a, min_t
