"""Dense complex matrix arithmetic and self-contained Hermitian eigensolvers.

All matrices are plain ``numpy.ndarray`` objects with ``complex128`` dtype.
Every positivity decision in the package funnels through one of two
eigensolvers, both deliberately dependency-free cyclic complex Jacobi
iterations that are numerically robust at the desk scale this package
targets (dimension <= 64):

- :func:`hermitian_eigenvalues` solves one matrix with a scalar loop. It
  runs whenever one matrix is solved: the input of an explicit input file,
  the submatrix suites, the public ``check_*`` functions on one block
  matrix, and any stack of one, for which it is the faster of the two.
- :func:`hermitian_eigenvalues_stack` solves a ``(B, d, d)`` stack at once in
  the round-robin (parallel) pair ordering, vectorized over the stack and the
  disjoint pairs of each round. The seeded block suites go through it: they
  draw, test and check each shape's trials as one stack, and a check solves
  the residuals of all its sides in one call. So does file verification: it
  solves all of a document's residuals, for every requested block suite, as
  one stack.

Both apply the same rules to each matrix: the same Hermiticity check and
symmetrization, the same skip threshold, the same stopping rule and the same
errors, including a refusal of any matrix whose Frobenius norm overflows.

:func:`is_psd` decides one matrix or a stack with the matching solver. It
memoizes the minimum eigenvalues of up to 8192 recently tested matrices,
so a matrix is solved once however often it is tested meanwhile.

:func:`determinant` (LU with partial pivoting, through numpy) likewise takes
one matrix or a ``(B, k, k)`` stack; the submatrix suites compute the
minors of a matrix in a few stacked calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, HermiticityError, NormOverflowError, ShapeError

# Hermiticity acceptance for eigensolver inputs, relative to max(1, ||X||_F).
HERMITICITY_RTOL = 1e-10
# Off-diagonal Frobenius mass at which the Jacobi sweep loop stops.
JACOBI_RTOL = 1e-13
MAX_SWEEPS = 100
# Default tolerance for positivity decisions, relative to max(1, ||X||_F).
DEFAULT_TOL = 1e-9


def as_matrix(x, allow_empty: bool = False) -> np.ndarray:
    """Validate ``x`` as a dense complex matrix and return it as complex128.

    Raises
    ------
    ShapeError
        If ``x`` is not two-dimensional, or is empty while ``allow_empty``
        is false.
    ValueError
        If any entry is NaN or infinite.
    """
    mat = np.asarray(x, dtype=np.complex128)
    if mat.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    if not allow_empty and (mat.shape[0] == 0 or mat.shape[1] == 0):
        raise ShapeError(f"matrix must be non-empty, got shape {mat.shape}")
    if mat.size and not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return mat


def frobenius(x: np.ndarray) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(x))


def require_square(x: np.ndarray) -> int:
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {x.shape}")
    return x.shape[0]


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is ``x[i, j] * y``.

    Axes before the last two are batch axes and broadcast, so a stack of
    matrices and a single matrix give the stack of their Kronecker products.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    out = x[..., :, np.newaxis, :, np.newaxis] * y[..., np.newaxis, :, np.newaxis, :]
    rows = x.shape[-2] * y.shape[-2]
    cols = x.shape[-1] * y.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


def determinant(x: np.ndarray):
    """Determinant via LU with partial pivoting; ``det`` of 0x0 is 1.

    A ``(k, k)`` matrix gives a complex number; a ``(B, k, k)`` stack gives
    the complex array of its ``B`` determinants, in one call.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 3 and x.shape[1] == x.shape[2]:
        return np.linalg.det(x)
    n = require_square(x)
    if n == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(x))


@dataclass(frozen=True)
class EigenResult:
    """Spectrum of a Hermitian matrix.

    For a ``(B, d, d)`` stack (:func:`hermitian_eigenvalues_stack`) every
    attribute gains a leading axis of length ``B``: ``values`` is ``(B, d)``
    and the two diagnostics are arrays of length ``B``.

    Attributes
    ----------
    values : numpy.ndarray
        Real eigenvalues sorted ascending; length equals the input dimension.
    offdiag_residual : float
        Off-diagonal Frobenius mass left when the sweep loop stopped.
    sweeps : int
        Number of full Jacobi sweeps performed.
    """

    values: np.ndarray
    offdiag_residual: float
    sweeps: int


def hermiticity_defect(x: np.ndarray) -> float:
    """Frobenius norm of ``x - x*``; zero exactly when ``x`` is Hermitian."""
    return float(np.linalg.norm(x - x.conj().T))


def hermitian_eigenvalues(x: np.ndarray) -> EigenResult:
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    The input must be Hermitian up to ``HERMITICITY_RTOL * max(1, ||x||_F)``;
    it is symmetrized as ``(x + x*) / 2`` before solving, which absorbs
    rounding noise from upstream arithmetic. Sweeps continue until the
    off-diagonal Frobenius mass drops below ``JACOBI_RTOL * max(1, ||x||_F)``
    or ``MAX_SWEEPS`` sweeps have run.

    Returns
    -------
    EigenResult
        Eigenvalues sorted ascending plus convergence diagnostics.

    Raises
    ------
    NormOverflowError
        If ``||x||_F`` is not finite in float64; raised before any sweep.
    HermiticityError
        If the input is not Hermitian within tolerance.
    ConvergenceError
        If the sweep budget is exhausted; carries the final off-diagonal mass.
    """
    n = require_square(x)
    if n == 0:
        return EigenResult(np.empty(0, dtype=np.float64), 0.0, 0)
    x = np.asarray(x, dtype=np.complex128)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        norm = frobenius(x)
    if not math.isfinite(norm):
        raise NormOverflowError(f"matrix is too large to solve: ||X||_F = {norm} overflows float64")
    scale = max(1.0, norm)
    defect = hermiticity_defect(x)
    if defect > HERMITICITY_RTOL * scale:
        raise HermiticityError(
            f"matrix is not Hermitian: ||X - X*||_F = {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}"
        )
    herm = (x + x.conj().T) / 2.0
    if n == 1:
        return EigenResult(np.array([herm[0, 0].real]), 0.0, 0)

    # Nested lists of native complex beat ndarray indexing for the tiny,
    # scalar-heavy rotation updates below.
    a = [[complex(herm[i, j]) for j in range(n)] for i in range(n)]
    threshold = JACOBI_RTOL * scale
    skip = threshold / (2.0 * n)  # entries this small cannot push the mass over threshold
    sweeps = 0
    offdiag = _offdiag_mass(a, n)
    while offdiag >= threshold and sweeps < MAX_SWEEPS:
        sweeps += 1
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                mag = abs(apq)
                if mag <= skip:
                    continue
                _rotate(a, n, p, q, apq, mag)
        offdiag = _offdiag_mass(a, n)
    if offdiag >= threshold:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge in {MAX_SWEEPS} sweeps "
            f"(off-diagonal mass {offdiag:.3e} >= {threshold:.3e})",
            offdiag_residual=offdiag,
        )
    values = np.sort(np.array([a[i][i].real for i in range(n)]))
    return EigenResult(values, offdiag, sweeps)


def _offdiag_mass(a: list[list[complex]], n: int) -> float:
    total = 0.0
    for i in range(n):
        row = a[i]
        for j in range(i + 1, n):
            v = row[j]
            total += v.real * v.real + v.imag * v.imag
    return math.sqrt(2.0 * total)


def _rotate(a: list[list[complex]], n: int, p: int, q: int, apq: complex, mag: float) -> None:
    """Apply the unitary plane rotation annihilating entry (p, q) in place."""
    phase = apq / mag
    tau = (a[q][q].real - a[p][p].real) / (2.0 * mag)
    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    u12 = s * phase
    u21 = -s * phase.conjugate()
    # columns: A <- A U
    for i in range(n):
        row = a[i]
        aip = row[p]
        aiq = row[q]
        row[p] = aip * c + aiq * u21
        row[q] = aip * u12 + aiq * c
    # rows: A <- U* A
    c12 = u12.conjugate()
    c21 = u21.conjugate()
    row_p = a[p]
    row_q = a[q]
    for j in range(n):
        apj = row_p[j]
        aqj = row_q[j]
        row_p[j] = apj * c + aqj * c21
        row_q[j] = apj * c12 + aqj * c
    # the pivot pair is zero by construction; pin it to kill rounding residue
    a[p][q] = 0.0
    a[q][p] = 0.0


def hermitian_eigenvalues_stack(x: np.ndarray) -> EigenResult:
    """Eigenvalues of every Hermitian matrix in a ``(B, d, d)`` stack.

    Each matrix is treated as :func:`hermitian_eigenvalues` treats it: the
    same Hermiticity check and symmetrization, the same skip threshold for
    small pivots, and the same stop at ``JACOBI_RTOL * max(1, ||x||_F)`` or
    ``MAX_SWEEPS`` sweeps, each relative to that matrix's own norm. The
    sweeps use the round-robin pair ordering of Brent and Luk (SIAM J. Sci.
    Stat. Comput. 6, 1985): each round rotates ``d // 2`` disjoint pairs, so
    one round is a handful of array operations over the whole stack. A
    matrix leaves the sweep loop as soon as it has converged.

    The ordering differs from the scalar cyclic ordering, so eigenvalues
    agree with :func:`hermitian_eigenvalues` to rounding, not bitwise. A
    stack of one matrix is solved by :func:`hermitian_eigenvalues` itself.

    Returns
    -------
    EigenResult
        ``values`` of shape ``(B, d)`` sorted ascending along the last axis;
        ``offdiag_residual`` and ``sweeps`` of length ``B``.

    Raises
    ------
    ShapeError
        If ``x`` is not a stack of square matrices.
    NormOverflowError
        If any member's ``||x||_F`` is not finite in float64; names the first,
        and is raised before any sweep.
    HermiticityError
        If any member is not Hermitian within tolerance; names the first.
    ConvergenceError
        If any member exhausts the sweep budget; carries the off-diagonal
        mass of the first such member.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise ShapeError(f"expected a (B, d, d) stack of square matrices, got shape {x.shape}")
    count, n = x.shape[0], x.shape[1]
    if count == 1:
        one = hermitian_eigenvalues(x[0])
        return EigenResult(
            one.values[np.newaxis], np.array([one.offdiag_residual]), np.array([one.sweeps])
        )
    sweeps = np.zeros(count, dtype=np.int64)
    if count == 0 or n == 0:
        return EigenResult(np.empty((count, n)), np.zeros(count), sweeps)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        norm = np.linalg.norm(x, axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(norm))
    if bad.size:
        k = bad[0]
        raise NormOverflowError(
            f"stack member {k} is too large to solve: ||X||_F = {norm[k]} overflows float64"
        )
    scale = np.maximum(1.0, norm)
    xh = np.conj(np.swapaxes(x, 1, 2))
    defect = np.linalg.norm(x - xh, axis=(1, 2))
    bad = np.flatnonzero(defect > HERMITICITY_RTOL * scale)
    if bad.size:
        k = bad[0]
        raise HermiticityError(
            f"stack member {k} is not Hermitian: ||X - X*||_F = {defect[k]:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * {scale[k]:.3e}"
        )
    a = (x + xh) / 2.0
    if n == 1:
        return EigenResult(a[:, 0, :].real.copy(), np.zeros(count), sweeps)

    threshold = JACOBI_RTOL * scale
    skip = threshold / (2.0 * n)
    upper = np.triu_indices(n, 1)
    offdiag = _offdiag_mass_stack(a, upper)
    active = np.flatnonzero((offdiag >= threshold) & (sweeps < MAX_SWEEPS))
    while active.size:
        sub = a[active]
        sub_skip = skip[active, np.newaxis]
        for p, q in _round_robin(n):
            _rotate_stack(sub, p, q, sub_skip)
        a[active] = sub
        sweeps[active] += 1
        offdiag[active] = _offdiag_mass_stack(sub, upper)
        active = active[(offdiag[active] >= threshold[active]) & (sweeps[active] < MAX_SWEEPS)]
    failed = np.flatnonzero(offdiag >= threshold)
    if failed.size:
        k = failed[0]
        raise ConvergenceError(
            f"Jacobi sweeps did not converge in {MAX_SWEEPS} sweeps for stack member {k} "
            f"(off-diagonal mass {offdiag[k]:.3e} >= {threshold[k]:.3e})",
            offdiag_residual=float(offdiag[k]),
        )
    values = np.sort(np.diagonal(a, axis1=1, axis2=2).real, axis=1)
    return EigenResult(values, offdiag, sweeps)


@lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The ``(p, q)`` index arrays (``p < q``) of each round of one sweep.

    Circle method: player 0 stays put while the others rotate one seat per
    round, so every pair meets exactly once in ``n - 1`` rounds (``n`` rounds
    with a bye for odd ``n``) and the pairs of a round are disjoint.
    """
    seats = list(range(n + n % 2))
    half = len(seats) // 2
    rounds = []
    for _ in range(len(seats) - 1):
        pairs = [
            (min(i, j), max(i, j))
            for i, j in zip(seats[:half], reversed(seats[half:]))
            if max(i, j) < n
        ]
        p, q = zip(*pairs)
        rounds.append((np.array(p, dtype=np.intp), np.array(q, dtype=np.intp)))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return tuple(rounds)


def _offdiag_mass_stack(a: np.ndarray, upper: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    v = a[:, upper[0], upper[1]]
    return np.sqrt(2.0 * np.sum(v.real * v.real + v.imag * v.imag, axis=1))


def _rotate_stack(a: np.ndarray, p: np.ndarray, q: np.ndarray, skip: np.ndarray) -> None:
    """One round: the plane rotations of the disjoint pairs ``(p, q)``, in place.

    The same rotation as :func:`_rotate`, per matrix and pair; a pair whose
    pivot is at most ``skip`` (per matrix) gets the identity instead.
    """
    apq = a[:, p, q]
    mag = np.abs(apq)
    rot = mag > skip
    if not rot.any():
        return
    safe = np.where(rot, mag, 1.0)
    phase = apq / safe
    tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * safe)
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = np.where(rot, 1.0 / np.sqrt(1.0 + t * t), 1.0)
    s = np.where(rot, t * c, 0.0)
    u12 = s * phase
    u21 = -s * np.conj(phase)
    # columns: A <- A U
    col_p = a[:, :, p]
    col_q = a[:, :, q]
    cc = c[:, np.newaxis, :]
    a[:, :, p] = col_p * cc + col_q * u21[:, np.newaxis, :]
    a[:, :, q] = col_p * u12[:, np.newaxis, :] + col_q * cc
    # rows: A <- U* A
    row_p = a[:, p, :]
    row_q = a[:, q, :]
    cr = c[:, :, np.newaxis]
    a[:, p, :] = row_p * cr + row_q * np.conj(u21)[:, :, np.newaxis]
    a[:, q, :] = row_p * np.conj(u12)[:, :, np.newaxis] + row_q * cr
    # the pivot pairs are zero by construction; pin them to kill rounding residue
    b, k = np.nonzero(rot)
    a[b, p[k], q[k]] = 0.0
    a[b, q[k], p[k]] = 0.0


def is_psd(x: np.ndarray, tol: float = DEFAULT_TOL):
    """Decide positive semidefiniteness of a Hermitian matrix or of a stack.

    For a ``(d, d)`` matrix returns ``(ok, min_eig)`` where ``ok`` is true
    iff the minimum eigenvalue is at least ``-tol * max(1, ||x||_F)``. The
    eigenvalue is returned for reporting either way. For a ``(B, d, d)``
    stack returns the same per member, as a boolean and a float array of
    length ``B``; the members not solved before are solved together by
    :func:`hermitian_eigenvalues_stack`, whose errors name a member by its
    index in ``x``.

    Each solved matrix's minimum eigenvalue and scale are memoized on its
    bytes, whatever the tolerance, because precondition checks revisit the
    same matrix many times per suite, and a generator's self-check and a
    checker's hypothesis test the same draws.
    """
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    mat = np.ascontiguousarray(np.asarray(x, dtype=np.complex128))
    if mat.ndim == 2:
        require_square(mat)
        slot = _solved(mat.tobytes())
        if not slot:
            slot[:] = _margins(mat[np.newaxis])[0]
        min_eig, scale = slot
        return min_eig >= -tol * scale, min_eig
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2]:
        raise ShapeError(f"expected a square matrix or a (B, d, d) stack, got shape {mat.shape}")
    slots = [_solved(member.tobytes()) for member in mat]
    todo = [k for k, slot in enumerate(slots) if not slot]
    if todo:
        try:
            solved = _margins(mat[todo])
        except (ConvergenceError, HermiticityError, NormOverflowError):
            # the error names a member of the unsolved rest; solving the
            # whole stack names it by its index in the caller's stack
            _margins(mat)
            raise
        for k, margins in zip(todo, solved):
            slots[k][:] = margins
    min_eig, scale = np.array(slots, dtype=np.float64).reshape(len(mat), 2).T
    return min_eig >= -tol * scale, min_eig


@lru_cache(maxsize=8192)
def _solved(key: bytes) -> list:
    """The memo slot of the matrix whose bytes are ``key``.

    Empty until :func:`is_psd` fills it with ``[min eigenvalue, max(1,
    ||X||_F)]``. A PPT suite solves about 9000 matrices (draws, factors,
    partial transposes) for one shape at the default 1000 trials, of which
    the last 7000 or so must still be held when its checker tests the
    inputs; the size leaves room for that at a few MiB.
    """
    return []


def _margins(x: np.ndarray) -> list[tuple[float, float]]:
    """``(min eigenvalue, max(1, ||X||_F))`` of each member of a stack.

    The minimum eigenvalue of an empty matrix is taken as 0.
    """
    if x.shape[1] == 0:
        mins = [0.0] * len(x)
    else:
        mins = hermitian_eigenvalues_stack(x).values[:, 0].tolist()
    scales = np.maximum(1.0, np.linalg.norm(x, axis=(1, 2))).tolist()
    return list(zip(mins, scales))
