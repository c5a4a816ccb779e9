"""Dense complex matrix arithmetic and self-contained Hermitian eigensolvers.

All matrices are plain ``numpy.ndarray`` objects with ``complex128`` dtype.
Every positivity decision in the package funnels through one of two
eigensolvers, both deliberately dependency-free cyclic complex Jacobi
iterations that are numerically robust at the desk scale this package
targets (dimension <= 64):

- :func:`hermitian_eigenvalues` solves one matrix with a scalar loop. It
  runs whenever one matrix is solved: the input of an explicit input file,
  the public ``check_*`` functions on one block matrix, and any stack of
  one, for which it is the faster of the two.
  The matrix it rotates stays exactly Hermitian, so each rotation updates
  columns ``p`` and ``q`` and writes their conjugates into rows ``p`` and
  ``q`` in the same pass: bitwise the values of a row pass after a column
  pass, but for the sign of an exact zero. Its eigenvalues, sweep counts
  and off-diagonal mass are those of the two-pass loop, which the test
  oracles keep. Its sweep loop, :func:`_sweep`, also serves :func:`is_psd`
  on a stack of several.
- :func:`hermitian_eigenvalues_stack` solves a ``(B, d, d)`` stack in one
  call, in the round-robin (parallel) pair ordering, vectorized over the
  disjoint pairs of each round and over chunks of members, stack axis last.
  A chunk is held in the current round's pair order, so a round updates
  strided views in place and gathers nothing; one flat ``take`` moves the
  chunk into the next round's order.
  The seeded block suites go through it: they draw and check each shape's
  trials as one stack, ``random_ppt`` tests all its attempts in one call, and
  a check solves its inputs (with their partial transposes, for a PPT check)
  and the residuals of all its sides in one call. So does file verification:
  it solves all of a document's residuals, for every requested block suite,
  as one stack.

Both apply the same rules to each matrix: the same Hermiticity check and
symmetrization (for a stack, :func:`_validated_stack`), the same skip
threshold, the same stopping rule and the same errors, including a refusal
of any matrix whose Frobenius norm overflows.

:func:`is_psd` decides one matrix or a stack by the rule
:func:`psd_verdict` states, at :func:`psd_scale`, each member at the
scalar solver's minimum, bitwise. One matrix or a stack of one goes to
:func:`hermitian_eigenvalues`. A stack of several, such as a chunk of the
submatrix suites' trials, is validated once, as the stacked solver
validates it, and each member is then swept by :func:`_sweep` in the
scalar solver's order: ``B`` scalar sweeps without ``B`` calls' overhead. A
caller with many members that need no bitwise scalar minima, such as
``random_ppt``'s rejection stack or a block checker's inputs and
residuals, solves them with :func:`hermitian_eigenvalues_stack` and
decides them by :func:`psd_verdict`; so does a checker handed the minima of
an input file's stacked solve. :func:`is_psd` keeps no state: every call
solves what it is given.

:func:`determinant` (LU with partial pivoting, through numpy) likewise takes
one matrix or a ``(B, k, k)`` stack; the submatrix suites compute the
minors of a chunk of matrices in a few stacked calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, HermiticityError, NormOverflowError, ShapeError, UsageError

# Hermiticity acceptance for eigensolver inputs, relative to max(1, ||X||_F).
HERMITICITY_RTOL = 1e-10
# Off-diagonal Frobenius mass at which the Jacobi sweep loop stops.
JACOBI_RTOL = 1e-13
MAX_SWEEPS = 100
# Bytes, b * d^2 * 16, of the b members the stacked solver sweeps at a time.
_CHUNK_BYTES = 512 * 1024
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


def frobenius_stack(x: np.ndarray) -> np.ndarray:
    """``||X||_F`` of each member of a ``(B, d, d)`` stack, finite wherever the norm is.

    Where the squares overflow it is ``m * ||X / m||_F``, ``m`` the largest |Re| or |Im|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(x, axis=(1, 2))
        for k in np.flatnonzero(~np.isfinite(norm)):
            big = max(np.max(np.abs(x[k].real)), np.max(np.abs(x[k].imag)))
            norm[k] = big * np.linalg.norm(x[k] / big)
    return norm


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
    a = herm.tolist()
    threshold = JACOBI_RTOL * scale
    offdiag, sweeps = _sweep(a, n, threshold)
    if offdiag >= threshold:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge in {MAX_SWEEPS} sweeps "
            f"(off-diagonal mass {offdiag:.3e} >= {threshold:.3e})",
            offdiag_residual=offdiag,
        )
    values = np.sort(np.array([a[i][i].real for i in range(n)]))
    return EigenResult(values, offdiag, sweeps)


def _sweep(a: list[list[complex]], n: int, threshold: float) -> tuple[float, int]:
    """Cyclic Jacobi sweeps on ``a`` in place, in row order, until its mass is below ``threshold``.

    Stops there or after ``MAX_SWEEPS`` sweeps; returns the off-diagonal
    mass left and the sweeps run. ``a`` is an exactly Hermitian ``n x n``
    matrix as nested lists of native complex, its eigenvalues left on its
    diagonal.
    """
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
    return offdiag, sweeps


def _offdiag_mass(a: list[list[complex]], n: int) -> float:
    total = 0.0
    for i in range(n):
        row = a[i]
        for j in range(i + 1, n):
            v = row[j]
            total += v.real * v.real + v.imag * v.imag
    return math.sqrt(2.0 * total)


def _rotate(a: list[list[complex]], n: int, p: int, q: int, apq: complex, mag: float) -> None:
    """Apply the unitary plane rotation annihilating entry (p, q) in place.

    ``A <- U* A U`` in one pass over the rows. ``a`` is exactly Hermitian,
    so row ``i``'s new entries in rows ``p`` and ``q`` are the conjugates of
    its new entries in columns ``p`` and ``q``: negation is exact in IEEE
    arithmetic, so ``conj(x) * conj(y) == conj(x * y)`` and each mirrored
    entry is bitwise the one that updating the rows after the columns would
    give, but for the sign of an exact zero. The 2x2 ``{p, q}`` block is
    updated as that two-pass order does, columns first.
    """
    phase = apq / mag
    tau = (a[q][q].real - a[p][p].real) / (2.0 * mag)
    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    u12 = s * phase
    u21 = -s * phase.conjugate()
    row_p = a[p]
    row_q = a[q]
    # columns p and q of every other row (A <- A U), mirrored into rows p and q
    for i in range(n):
        if i == p or i == q:
            continue
        row = a[i]
        aip = row[p]
        aiq = row[q]
        row[p] = new_p = aip * c + aiq * u21
        row[q] = new_q = aip * u12 + aiq * c
        row_p[i] = new_p.conjugate()
        row_q[i] = new_q.conjugate()
    # the pivot block: columns (A <- A U), then rows (A <- U* A)
    app, apq, aqp, aqq = row_p[p], row_p[q], row_q[p], row_q[q]
    app, apq = app * c + apq * u21, app * u12 + apq * c
    aqp, aqq = aqp * c + aqq * u21, aqp * u12 + aqq * c
    row_p[p] = app * c + aqp * u21.conjugate()
    row_q[q] = apq * u12.conjugate() + aqq * c
    # the pivot pair is zero by construction; pin it to kill rounding residue
    row_p[q] = 0.0
    row_q[p] = 0.0


def _validated_stack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A nonempty ``(B, d, d)`` stack symmetrized, ``(X + X*) / 2``, and its :func:`psd_scale`.

    The stack counterpart of :func:`hermitian_eigenvalues`'s checks, made
    on every member at once and before any sweep.

    Raises
    ------
    NormOverflowError
        If any member's ``||X||_F`` is not finite in float64; names the first.
    HermiticityError
        If any member is not Hermitian within ``HERMITICITY_RTOL`` of its
        scale; names the first.
    """
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
    a = x + xh
    a /= 2.0
    return a, scale


def hermitian_eigenvalues_stack(x: np.ndarray) -> EigenResult:
    """Eigenvalues of every Hermitian matrix in a ``(B, d, d)`` stack.

    Each matrix is treated as :func:`hermitian_eigenvalues` treats it: the
    same Hermiticity check and symmetrization, the same skip threshold for
    small pivots, and the same stop at ``JACOBI_RTOL * max(1, ||x||_F)`` or
    ``MAX_SWEEPS`` sweeps, each relative to that matrix's own norm. The
    sweeps use the round-robin pair ordering of Brent and Luk (SIAM J. Sci.
    Stat. Comput. 6, 1985): each round rotates ``d // 2`` disjoint pairs, so
    one round is a handful of array operations over a chunk of members. A
    matrix leaves the sweep loop as soon as it has converged.

    Members are swept in chunks of ``_CHUNK_BYTES`` (``b * d^2 * 16``), each
    a contiguous ``(d, d, b)`` array, stack axis last, whose rows and columns
    are held in the current round's pair order (:func:`_round_robin`): a
    round's rotations update strided views in place, with no per-round
    gathers, and one flat ``take`` moves the chunk into the next round's
    order. A member's rotations and sums use only its own entries, in a
    fixed order, so its values, sweeps and off-diagonal mass are bitwise the
    same in any stack or chunk (a zero's sign aside), and those of the
    tests' ``(B, d, d)`` reference kernel. Eigenvalues agree with
    :func:`hermitian_eigenvalues`, whose order differs, to rounding. A stack
    of one is solved by that scalar solver.

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
        If any member exhausts the sweep budget; names the first (by its
        index in ``x``, not in its chunk) and carries its off-diagonal mass.
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
    a, scale = _validated_stack(x)
    if n == 1:
        return EigenResult(a[:, 0, :].real.copy(), np.zeros(count), sweeps)

    threshold = JACOBI_RTOL * scale
    skip = threshold / (2.0 * n)
    values, offdiag = np.empty((count, n)), np.empty(count)
    size = max(1, _CHUNK_BYTES // (16 * n * n))
    # two chunk-sized buffers that a round's move ping-pongs between (the idle
    # one also takes products), and one for a round's products, reused by every chunk
    buffers = np.empty((3, n * n * min(size, count)), dtype=np.complex128)
    for lo in range(0, count, size):
        part = slice(lo, lo + size)
        values[part], offdiag[part], sweeps[part] = _sweep_chunk(
            a[part], threshold[part], skip[part], buffers
        )
    failed = np.flatnonzero(offdiag >= threshold)
    if failed.size:
        k = failed[0]
        raise ConvergenceError(
            f"Jacobi sweeps did not converge in {MAX_SWEEPS} sweeps for stack member {k} "
            f"(off-diagonal mass {offdiag[k]:.3e} >= {threshold[k]:.3e})",
            offdiag_residual=float(offdiag[k]),
        )
    return EigenResult(np.sort(values, axis=1), offdiag, sweeps)


def _sweep_chunk(x: np.ndarray, threshold: np.ndarray, skip: np.ndarray, buffers: np.ndarray):
    """Sweep a ``(b, d, d)`` chunk until each member stops; a stopped one leaves the sweep.

    The chunk is held as a ``(d, d, b)`` array in the current round's pair
    order (:func:`_round_robin`), in ``buffers[0]`` or ``buffers[1]``; one
    flat ``take`` moves it into the next round's order, in the other.
    Returns each member's diagonal (``(b, d)``, unsorted), off-diagonal mass and sweeps.
    """
    count, n = x.shape[0], x.shape[1]
    first, moves, upper = _sweep_plan(n)

    def held(i, b):
        return buffers[i, : n * n * b].reshape(n * n, b)

    # stack axis last, then round 0's pair order (np.take copies a non-contiguous input)
    np.copyto(held(1, count), x.reshape(count, n * n).T)
    cur = 0
    a = np.take(held(1, count), first, axis=0, out=held(cur, count), mode="clip")
    diagonal = np.empty((count, n))
    offdiag = _offdiag_mass_stack(a, upper)
    sweeps = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    while True:
        going = (offdiag[active] >= threshold[active]) & (sweeps[active] < MAX_SWEEPS)
        if not going.all():
            diagonal[np.ix_(active[~going], _round_robin(n)[0])] = a[:: n + 1, ~going].real.T
            active, cur = active[going], 1 - cur
            a = np.take(a, np.flatnonzero(going), axis=1, out=held(cur, active.size), mode="clip")
        if not active.size:
            return diagonal, offdiag, sweeps
        active_skip = skip[active]
        for move in moves:
            _rotate_round(a.reshape(n, n, -1), active_skip, buffers[2], buffers[1 - cur])
            if move is not None:
                cur = 1 - cur
                a = np.take(a, move, axis=0, out=held(cur, active.size), mode="clip")
        sweeps[active] += 1
        offdiag[active] = _offdiag_mass_stack(a, upper)


@lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[np.ndarray, ...]:
    """Each round of one sweep in pair order: its ``p`` indices, its ``q`` indices, then the bye.

    Circle method: player 0 stays put while the others rotate one seat per
    round, so every pair ``p < q`` meets exactly once in ``n - 1`` rounds
    (``n`` rounds with a bye for odd ``n``) and the pairs of a round are
    disjoint. Pair ``i`` of a round is ``(order[i], order[n // 2 + i])``.
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
        bye = sorted(set(range(n)) - set(p) - set(q))
        rounds.append(np.array(p + q + tuple(bye), dtype=np.intp))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return tuple(rounds)


@lru_cache(maxsize=64)
def _sweep_plan(n: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Flat indices into a ``(d * d, b)`` chunk held in pair order.

    ``first`` gathers a chunk in natural order into round 0's pair order;
    ``moves[r]`` takes a chunk from round ``r``'s order into the next
    round's (round 0's after the last), ``None`` where the two agree; and
    ``upper`` reads, in round 0's order, entries ``(i, j)``, ``i < j``, of
    the natural order, row by row.
    """
    orders = _round_robin(n)
    seat = [np.argsort(order) for order in orders]  # seat[r][i]: position of index i in round r

    def flat(rows, cols):
        return (rows[:, np.newaxis] * n + cols).ravel()

    moves = []
    for r in range(len(orders)):
        src = seat[r][orders[(r + 1) % len(orders)]]
        moves.append(None if np.array_equal(src, np.arange(n)) else flat(src, src))
    i, j = np.triu_indices(n, 1)
    return flat(orders[0], orders[0]), tuple(moves), seat[0][i] * n + seat[0][j]


def _offdiag_mass_stack(a: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Off-diagonal mass of each member of a flat chunk, summed left to right whatever its size."""
    v = np.take(a, upper, axis=0)
    return np.sqrt(2.0 * np.cumsum(v.real * v.real + v.imag * v.imag, axis=0)[-1])


def _rotate_round(a: np.ndarray, skip: np.ndarray, scratch: np.ndarray, spare: np.ndarray) -> None:
    """One round on a ``(d, d, b)`` chunk in pair order: the rotations of its pairs, in place.

    Pair ``i`` of the ``k = d // 2`` is at rows and columns ``i`` and
    ``k + i``, so the ``p`` and ``q`` columns are ``a[:, :k]`` and
    ``a[:, k:2k]``, and the rows likewise; for odd ``d`` the bye is the last.
    The same rotation as :func:`_rotate`, per matrix and pair; a pair whose
    pivot is at most ``skip`` (per matrix) gets the identity instead. Each
    update is ``[p, q] * c + [q, p] * [u21, u12]`` on strided views, its
    products written to ``scratch`` (and, for a view that is not contiguous,
    ``spare``), so a round allocates no chunk-sized array.
    """
    n, b = a.shape[0], a.shape[2]
    k = n // 2
    flat = a.reshape(n * n, b)
    # the pivots (i, k + i), their mirrors (k + i, i), and the diagonal
    pivots = flat[k : k * (n + 1) : n + 1]
    mirrors = flat[k * n : k * n + k * (n + 1) : n + 1]
    diagonal = flat[:: n + 1]
    mag = np.abs(pivots)
    rot = mag > skip
    rotating = np.count_nonzero(rot)
    if not rotating:
        return
    every = rotating == rot.size
    safe = mag if every else np.where(rot, mag, 1.0)
    phase = pivots / safe
    tau = (diagonal[k : 2 * k].real - diagonal[:k].real) / (2.0 * safe)
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    if not every:
        c = np.where(rot, c, 1.0)
        s = np.where(rot, s, 0.0)
    u = np.empty((2, k, b), dtype=np.complex128)
    np.multiply(-s, np.conj(phase), out=u[0])  # u21
    np.multiply(s, phase, out=u[1])  # u12
    # columns (A <- A U), then rows (A <- U* A)
    cols = a[:, : 2 * k].reshape(n, 2, k, b)
    rows = a[: 2 * k].reshape(2, k, n, b)
    for view, swapped, cc, coef in (
        (cols, cols[:, ::-1], c, u),
        (rows, rows[::-1], c[:, np.newaxis], np.conj(u)[:, :, np.newaxis]),
    ):
        prod = scratch[: view.size].reshape(view.shape)
        np.multiply(swapped, coef, out=prod)
        if view.flags.c_contiguous:
            np.multiply(view, cc, out=view)
            np.add(view, prod, out=view)
        else:  # the columns at odd d: numpy copies a strided view it updates in place
            scaled = spare[: view.size].reshape(view.shape)
            np.multiply(view, cc, out=scaled)
            np.add(scaled, prod, out=view)
    # the pivot pairs are zero by construction; pin them to kill rounding residue
    for pin in (pivots, mirrors):
        np.copyto(pin, 0.0, where=rot)


def is_psd(x: np.ndarray, tol: float = DEFAULT_TOL):
    """Decide positive semidefiniteness of a Hermitian matrix or of a stack.

    For a ``(d, d)`` matrix returns ``(ok, min_eig)`` where ``ok`` is true
    iff the minimum eigenvalue is at least ``-tol * max(1, ||x||_F)``
    (:func:`psd_verdict`). The eigenvalue is returned for reporting either
    way. For a ``(B, d, d)`` stack returns the same per member, as a boolean
    and a float array of length ``B``; errors name a member by its index in
    ``x``. Each member's minimum is bitwise the scalar solver's,
    ``hermitian_eigenvalues(member).values[0]``: a stack of several is
    validated once and each member then swept in that solver's order, so
    ``B`` members cost ``B`` scalar sweeps, O(B), without ``B`` calls'
    overhead. A caller with many members whose minima need not be the
    scalar solver's solves them with :func:`hermitian_eigenvalues_stack` and
    decides them by :func:`psd_verdict`, as ``blockops.is_ppt`` does on a
    stack. Every call solves: nothing is kept between calls.

    Raises
    ------
    UsageError
        If ``tol`` is negative, infinite or NaN.
    """
    _require_tol(tol)
    mat = np.asarray(x, dtype=np.complex128)
    one = mat.ndim == 2
    if one:
        require_square(mat)
        mat = mat[np.newaxis]
    elif mat.ndim != 3 or mat.shape[1] != mat.shape[2]:
        raise ShapeError(f"expected a square matrix or a (B, d, d) stack, got shape {mat.shape}")
    min_eig, scale = _psd_minima(mat)
    ok = psd_verdict(min_eig, scale, tol)
    return (bool(ok[0]), float(min_eig[0])) if one else (ok, min_eig)


def _psd_minima(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's minimum eigenvalue and :func:`psd_scale`, for a ``(B, d, d)`` stack.

    Every :func:`is_psd` call hands its whole input here, one matrix as a
    stack of one. A stack of one is solved by :func:`hermitian_eigenvalues`
    (through :func:`hermitian_eigenvalues_stack`), and an empty matrix's
    minimum is taken as 0. A stack of several is validated once, as
    :func:`hermitian_eigenvalues_stack` validates it, and then each member's
    rows go through the scalar solver's sweep (:func:`_sweep`) at that
    solver's threshold, from the member's own :func:`frobenius`; its
    diagonal is sorted as that solver sorts it. So each minimum is bitwise
    the scalar solver's, whatever the member's stack-mates, and the errors
    name members as the stacked solver's do.

    Raises
    ------
    NormOverflowError, HermiticityError
        As :func:`hermitian_eigenvalues_stack`, before any sweep.
    ConvergenceError
        If a member exhausts the sweep budget; names the first, and
        carries its off-diagonal mass.
    """
    count, n = x.shape[0], x.shape[1]
    if count < 2 or n == 0:
        min_eig = hermitian_eigenvalues_stack(x).values[:, 0] if n else np.zeros(count)
        return min_eig, psd_scale(x)
    a, scale = _validated_stack(x)
    with np.errstate(over="ignore"):  # an overflow is reported below
        norms = [frobenius(member) for member in x]
    diagonal = []
    for k, (rows, norm) in enumerate(zip(a.tolist(), norms)):
        if not math.isfinite(norm):  # finite in the stacked sum, not in the scalar one
            raise NormOverflowError(
                f"stack member {k} is too large to solve: ||X||_F = {norm} overflows float64"
            )
        threshold = JACOBI_RTOL * max(1.0, norm)
        offdiag, _ = _sweep(rows, n, threshold)
        if offdiag >= threshold:
            raise ConvergenceError(
                f"Jacobi sweeps did not converge in {MAX_SWEEPS} sweeps for stack member {k} "
                f"(off-diagonal mass {offdiag:.3e} >= {threshold:.3e})",
                offdiag_residual=offdiag,
            )
        diagonal.append([rows[i][i].real for i in range(n)])
    return np.sort(np.array(diagonal), axis=1)[:, 0], scale


def psd_scale(x: np.ndarray) -> np.ndarray:
    """``max(1, ||X||_F)`` of each member of a ``(B, d, d)`` stack: :func:`is_psd`'s scale.

    A caller that holds a matrix's minimum eigenvalue from an earlier solve
    decides it at this scale, as :func:`is_psd` would have.
    """
    return np.maximum(1.0, np.linalg.norm(x, axis=(1, 2)))


def psd_verdict(min_eig, scale, tol: float):
    """:func:`is_psd`'s rule: PSD within ``tol`` when ``min_eig >= -tol * scale``.

    ``scale`` is the matrix's :func:`psd_scale`. Takes floats or arrays of
    them, one entry per matrix, so that a caller that solved its matrices
    itself decides them as :func:`is_psd` would.

    Raises
    ------
    UsageError
        If ``tol`` is negative, infinite or NaN.
    """
    _require_tol(tol)
    return min_eig >= -tol * scale


def _require_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise UsageError(f"tolerance must be finite and nonnegative, got {tol}")
