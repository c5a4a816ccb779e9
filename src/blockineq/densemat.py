"""Dense complex matrix arithmetic and self-contained Hermitian eigensolvers.

All matrices are plain ``numpy.ndarray`` objects with ``complex128`` dtype.
Every positivity decision in the package funnels through cyclic complex
Jacobi iterations, deliberately dependency-free and numerically robust at
the desk scale this package targets (dimension <= 64). They sweep in one of
two rotation orders. A stack handed to :func:`hermitian_eigenvalues_stack`,
of any size, takes the round-robin order of the stacked kernel. A matrix
solved on its own, or as a member of an :func:`is_psd` stack, takes the
order its dimension ``d`` picks, by one rule (:func:`solves_in_round_robin`):
from ``d = ROUND_ROBIN_MIN_DIM`` up the kernel's, and below it the row order
of a scalar loop, which is the faster there.

- :func:`hermitian_eigenvalues` solves one matrix. It is the stack of one
  of :func:`_sweep_each`, the one loop that validates a stack once and then
  sweeps its members in the order ``d`` picks: each in turn with the scalar
  :func:`_sweep` below ``ROUND_ROBIN_MIN_DIM``, all in the kernel from
  there up. :func:`is_psd` on a stack of several runs the same loop.
  The matrix the scalar loop rotates stays exactly Hermitian, so each
  rotation updates columns ``p`` and ``q`` and writes their conjugates into
  rows ``p`` and ``q`` in the same pass: bitwise the values of a row pass
  after a column pass, but for the sign of an exact zero. Its eigenvalues,
  sweep counts and off-diagonal mass are those of the two-pass loop, which
  the test oracles keep.
- :func:`hermitian_eigenvalues_stack` solves a ``(B, d, d)`` stack in one
  call, in the round-robin (parallel) pair ordering, vectorized over the
  disjoint pairs of each round and over chunks of members, stack axis last.
  A chunk is held in the current round's pair order, so a round updates
  strided views in place and gathers nothing; one flat ``take`` moves the
  chunk into the next round's order. The sweep plan, every round's pair
  order and the moves between them, is worked out by index arithmetic over
  all rounds at once. A chunk's round views and coefficient workspace are
  built once for each number of members still sweeping, so a round is 33
  numpy calls (37 when a pair is left alone) that write into them and create
  no array; when every pair rotates, none of them casts an operand or takes
  a mask. Every stack is one kernel call, whatever its size, so a member's
  values are bitwise the same in any stack, one member included. The seeded
  block suites go through it: they draw and check each
  shape's trials as one stack, and a check solves its inputs (with their
  partial transposes, for a PPT check) and the residuals of all its sides in
  one call. So does file verification, in one evaluation of all of a
  document's requested block checks: their residuals (and its partial
  transpose) are one stack, with the document itself from the crossover up;
  below it the document is tested alone first, by :func:`is_psd`.

Both validate their input in one place, :func:`_validated_stack`, one
matrix as a stack of one: the same Hermiticity check and symmetrization,
and the same refusal of any matrix whose Frobenius norm overflows. Its
``max(1, ||X||_F)`` is the only scale: each solver's skip threshold and
stopping rule, and :func:`psd_verdict`, read that one norm.

:func:`is_psd` decides one matrix or a stack by the rule
:func:`psd_verdict` states, each member at the minimum
:func:`hermitian_eigenvalues` finds for it alone, bitwise. One matrix or a
stack of one goes to :func:`hermitian_eigenvalues`. A stack of several,
such as the trials a submatrix check is handed or the Choi matrices of
maps of one shape, goes to :func:`_sweep_each` and is decided at the scales
its one validation found: ``B`` scalar sweeps without ``B`` calls'
overhead, or one kernel call, and one norm per member. A caller with many
members whose minima need not be each one's lone solve, such as the
block checks' inputs and residuals, solves them with
:func:`hermitian_eigenvalues_stack` and decides them by
:func:`psd_verdict`. From the crossover up the two agree bitwise. :func:`is_psd`
keeps no state: every call solves what it is given.

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
# The dimension from which a lone matrix is swept by the stacked kernel, where
# it is the faster: one d x d Gram solve took 1.47 ms in the row-cyclic loop
# and 1.82 ms in the kernel at d = 11, 2.02 and 1.83 ms at d = 12, and 4.79
# and 2.57 ms at d = 16 (BENCH_23.json).
ROUND_ROBIN_MIN_DIM = 12
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


def _norms(x: np.ndarray) -> np.ndarray:
    """``||X||_F`` of each member of a ``(B, d, d)`` stack: the one norm every scale reads.

    It is the sum ``np.linalg.norm(x, axis=(1, 2))`` runs, without that
    call's dispatch, and it overflows to ``inf`` where the squares do.
    """
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(1, 2)))


def frobenius_stack(x: np.ndarray) -> np.ndarray:
    """``||X||_F`` of each member of a ``(B, d, d)`` stack, finite wherever the norm is.

    Where the squares overflow it is ``m * ||X / m||_F``, ``m`` the largest |Re| or |Im|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _norms(x)
        for k in np.flatnonzero(~np.isfinite(norm)):
            big = max(np.max(np.abs(x[k].real)), np.max(np.abs(x[k].imag)))
            norm[k] = big * _norms(x[k : k + 1] / big)[0]
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
    """Determinant via LU with partial pivoting; ``det`` of 0x0 is 1, as numpy's.

    A ``(k, k)`` matrix gives a complex number; a ``(B, k, k)`` stack gives
    the complex array of its ``B`` determinants, in one call.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 3 and x.shape[1] == x.shape[2]:
        return np.linalg.det(x)
    require_square(x)
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


def hermitian_eigenvalues(x: np.ndarray) -> EigenResult:
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    The matrix is solved as a stack of one by :func:`_sweep_each`, and
    errors name it "matrix": below ``ROUND_ROBIN_MIN_DIM`` in the scalar
    loop's row order, and from there up in the stacked kernel's round-robin
    order, bitwise as a member of any :func:`hermitian_eigenvalues_stack`
    call (:func:`solves_in_round_robin`). It must be Hermitian up to
    ``HERMITICITY_RTOL * max(1, ||x||_F)``; it is symmetrized as
    ``(x + x*) / 2`` before solving, which absorbs rounding noise from
    upstream arithmetic. Sweeps continue until the
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
    require_square(x)
    values, offdiag, sweeps, _ = _sweep_each(np.asarray(x, dtype=np.complex128)[np.newaxis], None)
    return EigenResult(values[0], float(offdiag[0]), int(sweeps[0]))


def _sweep_each(x: np.ndarray, first: int | None = 0):
    """Validate a ``(B, d, d)`` stack once, then sweep its members in the order ``d`` picks.

    The whole stack is validated by :func:`_validated_stack` before any
    sweep. At ``d >= ROUND_ROBIN_MIN_DIM`` (:func:`solves_in_round_robin`)
    the members go through the stacked kernel, :func:`_sweep_round_robin`,
    which gives a member the same bits in any stack, one member included.
    Below it each member's rows, as nested lists of native complex, which
    beat ndarray indexing for the tiny, scalar-heavy rotation updates, go
    through :func:`_sweep` at ``JACOBI_RTOL`` times its scale. A member is
    converted when its turn comes, so a large stack is never held twice. Members are
    named in errors as ``first`` directs (see :func:`_validated_stack`).
    Returns the eigenvalues, ``(B, d)`` sorted ascending along the last
    axis, the off-diagonal masses and sweeps, each of length ``B``, and the
    scales ``max(1, ||X||_F)``.
    """
    a, scale = _validated_stack(x, first)
    count, n = x.shape[0], x.shape[1]
    if solves_in_round_robin(n):
        return (*_sweep_round_robin(a, scale, first), scale)
    values = np.empty((count, n))
    offdiag, sweeps = np.zeros(count), np.zeros(count, dtype=np.int64)
    if n:
        for k, s in enumerate(scale.tolist()):
            rows = a[k].tolist()
            member = None if first is None else first + k
            offdiag[k], sweeps[k] = _sweep(rows, n, JACOBI_RTOL * s, member)
            values[k] = [rows[i][i].real for i in range(n)]
    values.sort(axis=1)
    return values, offdiag, sweeps, scale


def solves_in_round_robin(n: int) -> bool:
    """Whether an ``n x n`` matrix is swept in the stacked kernel's round-robin order.

    It is, at ``n >= ROUND_ROBIN_MIN_DIM``, whether it is solved alone or
    in a stack of any size, so its values are bitwise the same either way.
    Below that a lone matrix, or a member of an :func:`is_psd` stack, goes
    to the row-cyclic scalar loop, the faster there. A stack handed to
    :func:`hermitian_eigenvalues_stack`, a stack of one included, goes to
    the kernel at every ``n``.
    """
    return n >= ROUND_ROBIN_MIN_DIM


def _sweep(
    a: list[list[complex]], n: int, threshold: float, member: int | None = None
) -> tuple[float, int]:
    """Cyclic Jacobi sweeps on ``a`` in place, in row order, until its mass is below ``threshold``.

    Returns the off-diagonal mass left and the sweeps run. ``a`` is an
    exactly Hermitian ``n x n`` matrix as nested lists of native complex,
    its eigenvalues left on its diagonal.

    Raises
    ------
    ConvergenceError
        If ``MAX_SWEEPS`` sweeps leave the mass at or above ``threshold``;
        names ``member`` of a stack, when given, and carries the mass.
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
    if offdiag >= threshold:
        raise _not_converged(offdiag, threshold, member)
    return offdiag, sweeps


def _not_converged(offdiag: float, threshold: float, member: int | None) -> ConvergenceError:
    """The error of a solve left with mass ``offdiag >= threshold`` after ``MAX_SWEEPS`` sweeps."""
    where = "" if member is None else f" for stack member {member}"
    return ConvergenceError(
        f"Jacobi sweeps did not converge in {MAX_SWEEPS} sweeps{where} "
        f"(off-diagonal mass {offdiag:.3e} >= {threshold:.3e})",
        offdiag_residual=offdiag,
    )


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


def _validated_stack(x: np.ndarray, first: int | None = 0) -> tuple[np.ndarray, np.ndarray]:
    """A ``(B, d, d)`` stack symmetrized, ``(X + X*) / 2``, and each ``max(1, ||X||_F)``.

    Every solve validates its input here, on every member at once and
    before any sweep, and reads its thresholds from this scale; so does
    :func:`psd_verdict`. An error names the first failing member, the
    ``k``-th, as "stack member first + k", or as "matrix" where ``first``
    is ``None`` (a lone matrix).

    Raises
    ------
    NormOverflowError
        If any member's ``||X||_F`` is not finite in float64.
    HermiticityError
        If any member is not Hermitian within ``HERMITICITY_RTOL`` of its scale.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        norm = _norms(x)
        xh = x.conj().swapaxes(1, 2)
        defect = _norms(x - xh)
    finite = np.isfinite(norm)
    if not finite.all():
        k = int(np.argmin(finite))
        name = "matrix" if first is None else f"stack member {first + k}"
        raise NormOverflowError(
            f"{name} is too large to solve: ||X||_F = {norm[k]} overflows float64"
        )
    scale = np.maximum(1.0, norm)
    bad = defect > HERMITICITY_RTOL * scale
    if bad.any():
        k = int(np.argmax(bad))
        name = "matrix" if first is None else f"stack member {first + k}"
        raise HermiticityError(
            f"{name} is not Hermitian: ||X - X*||_F = {defect[k]:.3e} "
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
    one round is 33 numpy calls over a chunk of members
    (:func:`_rotate_round`), with no cast and no mask when every pair
    rotates. A matrix leaves the sweep loop as soon as it has converged.

    Members are swept in chunks of ``_CHUNK_BYTES`` (``b * d^2 * 16``), each
    a contiguous ``(d, d, b)`` array, stack axis last, whose rows and columns
    are held in the current round's pair order (:func:`_round_robin`): a
    round's rotations update strided views in place, with no per-round
    gathers, and one flat ``take`` moves the chunk into the next round's
    order. Every round's pair order and move (:func:`_sweep_plan`) is
    computed by index arithmetic, all rounds at once. The round views and
    the rotations' coefficient workspace (:func:`_rounds`) are built once
    for each number of a chunk's members still sweeping, so a round
    allocates nothing. A member's rotations and sums use only its own
    entries, in a fixed order, so its values, sweeps and off-diagonal mass
    are bitwise the same in any stack or chunk (a zero's sign aside), and
    those of the tests' ``(B, d, d)`` reference kernel. Every stack is
    swept so, a stack of one included; a 0x0 or 1x1 member has no pair to
    rotate and is its diagonal. From ``ROUND_ROBIN_MIN_DIM`` up the values
    are also :func:`hermitian_eigenvalues`'s bitwise, since it sweeps one
    matrix in the same kernel; below that its row order differs and they
    agree to rounding. A stack of one's errors name it "stack member 0", as
    they name a member of any stack.

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
    a, scale = _validated_stack(x)
    if x.shape[1] < 2:  # no pair to rotate: a 0x0 or 1x1 matrix is its diagonal
        zeros = np.zeros(len(x))
        return EigenResult(a.diagonal(axis1=1, axis2=2).real.copy(), zeros, zeros.astype(np.int64))
    return EigenResult(*_sweep_round_robin(a, scale, 0))


def _sweep_round_robin(a: np.ndarray, scale: np.ndarray, first: int | None):
    """Sweep a validated ``(B, d, d)`` stack, ``d >= 2``, in the kernel, a chunk at a time.

    ``scale`` holds each member's ``max(1, ||X||_F)``. Returns the sorted
    eigenvalues, off-diagonal masses and sweeps; a member that does not
    converge is named as ``first`` directs (see :func:`_validated_stack`).
    """
    count, n = a.shape[0], a.shape[1]
    threshold = JACOBI_RTOL * scale
    skip = threshold / (2.0 * n)
    values, offdiag = np.empty((count, n)), np.empty(count)
    sweeps = np.zeros(count, dtype=np.int64)
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
        k = int(failed[0])
        member = None if first is None else first + k
        raise _not_converged(float(offdiag[k]), float(threshold[k]), member)
    values.sort(axis=1)
    return values, offdiag, sweeps


def _sweep_chunk(x: np.ndarray, threshold: np.ndarray, skip: np.ndarray, buffers: np.ndarray):
    """Sweep a ``(b, d, d)`` chunk until each member stops; a stopped one leaves the sweep.

    The chunk is held as a ``(d * d, b)`` array in the current round's pair
    order (:func:`_round_robin`), in ``buffers[0]`` or ``buffers[1]``; one
    flat ``take`` moves it into the next round's order, in the other. The
    round views of both buffers and their coefficient workspace
    (:func:`_rounds`) are built once for each number of members still
    sweeping; every round of that many reuses them and allocates nothing.
    Returns each member's diagonal (``(b, d)``, unsorted), off-diagonal mass and sweeps.
    """
    count, n = x.shape[0], x.shape[1]
    first, moves, upper = _sweep_plan(n)
    rounds = _rounds(buffers, n, count)
    # stack axis last, then round 0's pair order (np.take copies a non-contiguous input)
    np.copyto(rounds[1].a, x.reshape(count, n * n).T)
    cur = 0
    np.take(rounds[1].a, first, axis=0, out=rounds[cur].a, mode="clip")
    diagonal = np.empty((count, n))
    offdiag = _offdiag_mass_stack(rounds[cur].a, upper)
    sweeps = np.zeros(count, dtype=np.int64)
    active, active_skip = np.arange(count), skip
    while True:
        going = (offdiag[active] >= threshold[active]) & (sweeps[active] < MAX_SWEEPS)
        if not going.all():
            a = rounds[cur].a
            diagonal[np.ix_(active[~going], _round_robin(n)[0])] = a[:: n + 1, ~going].real.T
            active, cur = active[going], 1 - cur
            if not active.size:
                return diagonal, offdiag, sweeps
            rounds = _rounds(buffers, n, active.size)
            np.take(a, np.flatnonzero(going), axis=1, out=rounds[cur].a, mode="clip")
            active_skip = skip[active]
        for move in moves:
            _rotate_round(rounds[cur], active_skip)
            if move is not None:
                np.take(rounds[cur].a, move, axis=0, out=rounds[1 - cur].a, mode="clip")
                cur = 1 - cur
        sweeps[active] += 1
        offdiag[active] = _offdiag_mass_stack(rounds[cur].a, upper)


@lru_cache(maxsize=64)
def _round_robin(n: int) -> np.ndarray:
    """Each round of one sweep in pair order, a row each: its ``p``s, its ``q``s, then the bye.

    Circle method: player 0 stays put while the others rotate one seat per
    round, so every pair ``p < q`` meets exactly once in ``n - 1`` rounds
    (``n`` rounds with a bye for odd ``n``) and the pairs of a round are
    disjoint. Pair ``i`` of a round is ``(order[i], order[n // 2 + i])``.
    For odd ``n`` a dummy player ``n`` makes the count even, and whoever
    meets it has the bye. Every round's seating is worked out at once.
    """
    seats = n + n % 2
    count, half = seats - 1, seats // 2
    # seat 0 holds player 0; seat j > 0 holds player (j - 1 - r) % count + 1 in round r
    held = np.arange(-1, seats - 1) - np.arange(count)[:, np.newaxis]
    held %= count
    held += 1
    held[:, 0] = 0
    # seat i meets seat seats - 1 - i
    left, right = held[:, :half], held[:, : half - 1 : -1]
    p, q = np.minimum(left, right), np.maximum(left, right)
    if n % 2 == 0:
        return np.concatenate((p, q), axis=1)
    bye = q == n
    p_kept, q_kept = p[~bye].reshape(count, -1), q[~bye].reshape(count, -1)
    return np.concatenate((p_kept, q_kept, p[bye][:, np.newaxis]), axis=1)


@lru_cache(maxsize=64)
def _sweep_plan(n: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Flat indices into a ``(d * d, b)`` chunk held in pair order.

    ``first`` gathers a chunk in natural order into round 0's pair order;
    ``moves[r]`` takes a chunk from round ``r``'s order into the next
    round's (round 0's after the last), ``None`` where the two agree; and
    ``upper`` reads, in round 0's order, entries ``(i, j)``, ``i < j``, of
    the natural order, row by row. All rounds' indices are worked out at once.
    """
    orders = _round_robin(n)
    count = len(orders)
    seat = np.argsort(orders, axis=1)  # seat[r, i]: position of index i in round r
    following = np.concatenate((orders[1:], orders[:1]))
    src = seat[np.arange(count)[:, np.newaxis], following]
    same = (src == np.arange(n)).all(axis=1)
    flat = (src[:, :, np.newaxis] * n + src[:, np.newaxis, :]).reshape(count, n * n)
    moves = tuple(None if kept else move for kept, move in zip(same.tolist(), flat))
    at, index = seat[0], np.arange(n)
    upper = (at[:, np.newaxis] * n + at)[index[:, np.newaxis] < index]
    return (orders[0][:, np.newaxis] * n + orders[0]).ravel(), moves, upper


def _offdiag_mass_stack(a: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Off-diagonal mass of each member of a flat chunk, summed left to right whatever its size."""
    v = np.take(a, upper, axis=0)
    return np.sqrt(2.0 * np.cumsum(v.real * v.real + v.imag * v.imag, axis=0)[-1])


class _RoundWork:
    """The coefficients of a round's ``k`` rotations on each of ``b`` members, each ``(k, b)``.

    ``u`` is ``(u21, u12)`` (also held as its two halves) and ``u_conj``
    its conjugate; ``c_complex`` is ``c`` as ``(c, +0)``, the operand numpy
    would cast ``c`` to in each scaling pass; ``idle`` marks the pairs left
    alone, and ``w`` holds intermediate terms.
    """

    __slots__ = (
        "mag", "tau", "t", "c", "s", "w", "rot", "idle",
        "phase", "c_complex", "u", "u21", "u12", "u_conj",
    )  # fmt: skip

    def __init__(self, k: int, b: int):
        self.mag, self.tau, self.t, self.c, self.s, self.w = np.empty((6, k, b))
        self.rot, self.idle = np.empty((2, k, b), dtype=bool)
        self.phase, self.c_complex = np.empty((2, k, b), dtype=np.complex128)
        self.u, self.u_conj = np.empty((2, 2, k, b), dtype=np.complex128)
        self.u21, self.u12 = self.u


class _Round:
    """A round's views of a ``(d * d, b)`` chunk held in pair order, and its rotations' workspace.

    Pair ``i`` of the ``k = d // 2`` is at rows and columns ``i`` and
    ``k + i``, so the ``p`` and ``q`` columns are ``a[:, :k]`` and
    ``a[:, k:2k]``, and the rows likewise; for odd ``d`` the bye is the last.
    ``pivots`` are the entries ``(i, k + i)``, ``mirrors`` the ``(k + i, i)``,
    ``p_diagonal`` and ``q_diagonal`` the real parts of the diagonal's two
    halves. ``cols`` and ``rows`` view the ``p`` and ``q`` columns (rows) as
    ``(d, 2, k, b)`` (``(2, k, d, b)``) and ``*_swapped`` the same with ``p``
    and ``q`` exchanged; a pass's products go to ``*_product``, in
    ``scratch``, and its scaled entries to ``*_scaled``, which is the view
    itself where it is contiguous and ``spare`` where it is not (numpy
    would copy a strided view updated in place). ``work`` holds the
    coefficients of the ``k`` pairs of the ``b`` members.
    """

    __slots__ = (
        "a", "pivots", "mirrors", "p_diagonal", "q_diagonal",
        "cols", "cols_swapped", "cols_product", "cols_scaled",
        "rows", "rows_swapped", "rows_product", "rows_scaled", "rows_c", "rows_u", "work",
    )  # fmt: skip

    def __init__(self, a: np.ndarray, n: int, work: _RoundWork, scratch, spare):
        b, k = a.shape[1], n // 2
        self.a, self.work = a, work
        self.pivots = a[k : k * (n + 1) : n + 1]
        self.mirrors = a[k * n : k * n + k * (n + 1) : n + 1]
        diagonal = a[:: n + 1]
        self.p_diagonal, self.q_diagonal = diagonal[:k].real, diagonal[k : 2 * k].real
        square = a.reshape(n, n, b)
        self.cols = square[:, : 2 * k].reshape(n, 2, k, b)
        self.rows = square[: 2 * k].reshape(2, k, n, b)
        self.cols_swapped, self.rows_swapped = self.cols[:, ::-1], self.rows[::-1]
        self.cols_product = scratch[: self.cols.size].reshape(self.cols.shape)
        self.rows_product = scratch[: self.rows.size].reshape(self.rows.shape)
        self.cols_scaled, self.rows_scaled = (
            view if view.flags.c_contiguous else spare[: view.size].reshape(view.shape)
            for view in (self.cols, self.rows)
        )
        self.rows_c, self.rows_u = work.c_complex[:, np.newaxis], work.u_conj[:, :, np.newaxis]


def _rounds(buffers: np.ndarray, n: int, b: int) -> tuple[_Round, _Round]:
    """The round views of a chunk of ``b`` members held in ``buffers[0]`` and in ``buffers[1]``.

    The two share one coefficient workspace; each takes its products in
    ``buffers[2]`` and uses the other ping-pong buffer as its spare.
    """
    work = _RoundWork(n // 2, b)
    return tuple(
        _Round(buffers[i, : n * n * b].reshape(n * n, b), n, work, buffers[2], buffers[1 - i])
        for i in (0, 1)
    )


def _rotate_round(r: _Round, skip: np.ndarray) -> None:
    """One round on a chunk in pair order: the rotations of its pairs, in place, into ``r``'s views.

    The same rotation as :func:`_rotate`, per matrix and pair; a pair whose
    pivot is at most ``skip`` (per matrix) gets the identity instead. Each
    update is ``[p, q] * c + [q, p] * [u21, u12]`` on the columns
    (``A <- A U``), then on the rows (``A <- U* A``). Every operation
    writes into ``r`` or its workspace, so a round creates no array and no view;
    each ufunc takes its output as its last positional argument, which numpy
    parses faster than ``out=``.

    Its calls are trimmed where that keeps every reported bit. ``c`` is
    copied once into a complex workspace, ``(c, +0)``, which is what numpy
    would cast it to inside each of the two large scaling multiplies. ``t``
    takes the sign of ``tau + 0``, so that ``-0`` counts as positive, with
    one ``copysign``. ``u21`` is ``-conj(u12)``, whose nonzero parts are
    those of ``-s conj(phase)``; the sign of a zero part may differ. That
    sign reaches no nonzero entry, and no diagonal entry: a diagonal entry
    starts as ``+0`` or nonzero (the symmetrization leaves no ``-0``), and
    each pass adds a product to ``a_pp c``, ``c >= 1 / sqrt(2)``, so it
    stays ``+0`` or nonzero. The values, masses and sweep counts keep their
    bits (the tests pin them to the reference kernel's). When every pair
    rotates, the pivots are pinned with ``fill`` rather than under a mask.
    """
    w = r.work
    mag, rot, tau, t, c, s, tmp = w.mag, w.rot, w.tau, w.t, w.c, w.s, w.w
    np.absolute(r.pivots, mag)
    np.greater(mag, skip, rot)
    rotating = np.count_nonzero(rot)
    if not rotating:
        return
    every = rotating == rot.size
    if not every:
        np.logical_not(rot, w.idle)
        np.copyto(mag, 1.0, where=w.idle)  # a safe divisor for the pairs left alone
    np.divide(r.pivots, mag, w.phase)
    # tau = (a_qq - a_pp) / (2 |a_pq|)
    np.subtract(r.q_diagonal, r.p_diagonal, tau)
    np.multiply(mag, 2.0, tmp)
    np.divide(tau, tmp, tau)
    # t = sign(tau) / (|tau| + sqrt(1 + tau^2)), the sign of tau >= 0 (-0 too) being +1:
    # -1 / x is exactly -(1 / x), and tau + 0 is +0 where tau is -0
    np.multiply(tau, tau, tmp)
    np.add(tmp, 1.0, tmp)
    np.sqrt(tmp, tmp)
    np.absolute(tau, t)
    np.add(t, tmp, tmp)
    np.divide(1.0, tmp, t)
    np.add(tau, 0.0, tmp)
    np.copysign(t, tmp, t)
    # c = 1 / sqrt(1 + t^2), s = t c
    np.multiply(t, t, tmp)
    np.add(tmp, 1.0, tmp)
    np.sqrt(tmp, tmp)
    np.divide(1.0, tmp, c)
    np.multiply(t, c, s)
    if not every:
        np.copyto(c, 1.0, where=w.idle)
        np.copyto(s, 0.0, where=w.idle)
    np.copyto(w.c_complex, c)
    # u12 = s phase, u21 = -conj(u12)
    np.multiply(s, w.phase, w.u12)
    np.conjugate(w.u12, w.u21)
    np.negative(w.u21, w.u21)
    np.conjugate(w.u, w.u_conj)
    np.multiply(r.cols_swapped, w.u, r.cols_product)
    np.multiply(r.cols, w.c_complex, r.cols_scaled)
    np.add(r.cols_scaled, r.cols_product, r.cols)
    np.multiply(r.rows_swapped, r.rows_u, r.rows_product)
    np.multiply(r.rows, r.rows_c, r.rows_scaled)
    np.add(r.rows_scaled, r.rows_product, r.rows)
    # the pivot pairs are zero by construction; pin them to kill rounding residue
    if every:
        r.pivots.fill(0.0)
        r.mirrors.fill(0.0)
    else:
        np.copyto(r.pivots, 0.0, where=rot)
        np.copyto(r.mirrors, 0.0, where=rot)


def is_psd(x: np.ndarray, tol: float = DEFAULT_TOL):
    """Decide positive semidefiniteness of a Hermitian matrix or of a stack.

    For a ``(d, d)`` matrix returns ``(ok, min_eig)`` where ``ok`` is true
    iff the minimum eigenvalue is at least ``-tol * max(1, ||x||_F)``
    (:func:`psd_verdict`); an empty matrix's minimum is 0. The eigenvalue
    is returned for reporting either way. For a ``(B, d, d)`` stack returns
    the same per member, as a boolean and a float array of length ``B``.
    Each member's minimum is bitwise its lone solve's,
    ``hermitian_eigenvalues(member).values[0]``: one matrix, or a stack of
    one, is solved by :func:`hermitian_eigenvalues`, and a stack of several
    by :func:`_sweep_each`, the same sweep loop on every member after one
    validation, and decided at the scale that validation found, so ``B``
    members cost ``B`` scalar sweeps, O(B), without ``B`` calls' overhead,
    or from ``ROUND_ROBIN_MIN_DIM`` up one kernel call; errors name a
    member by its index in ``x``. A caller with many members whose minima
    need not be their lone solves' solves them with
    :func:`hermitian_eigenvalues_stack` and decides them by
    :func:`psd_verdict`, as ``blockops.is_ppt`` does. Every call
    solves: nothing is kept between calls.

    Raises
    ------
    UsageError
        If ``tol`` is negative, infinite or NaN.
    """
    _require_tol(tol)
    mat = np.asarray(x, dtype=np.complex128)
    if mat.ndim == 2:
        require_square(mat)
    elif mat.ndim != 3 or mat.shape[1] != mat.shape[2]:
        raise ShapeError(f"expected a square matrix or a (B, d, d) stack, got shape {mat.shape}")
    elif len(mat) != 1:
        return _psd_each(mat, tol)
    n = mat.shape[-1]
    values = hermitian_eigenvalues(mat.reshape(n, n)).values
    min_eig = values[:1] if n else np.zeros(1)
    ok = psd_verdict(min_eig, mat.reshape(1, n, n), tol)
    return (ok, min_eig) if mat.ndim == 3 else (bool(ok[0]), float(min_eig[0]))


def _psd_each(x: np.ndarray, tol: float, first: int = 0):
    """:func:`is_psd` of each member of a ``(B, d, d)`` stack, its members named from ``first``.

    One :func:`_sweep_each` call, decided by :func:`psd_verdict`'s rule at
    the scales it validated with; ``tol`` is not checked again.
    """
    values, _, _, scale = _sweep_each(x, first)
    min_eig = values[:, 0] if x.shape[1] else np.zeros(len(x))
    return min_eig >= -tol * scale, min_eig


def psd_verdict(min_eig, x: np.ndarray, tol: float):
    """:func:`is_psd`'s rule: PSD within ``tol`` when ``min_eig >= -tol * max(1, ||X||_F)``.

    ``x`` is a ``(B, d, d)`` stack and ``min_eig`` its members' minimum
    eigenvalues, so that a caller that solved its matrices itself decides
    them as :func:`is_psd` would. The norm is the one the solvers validate
    with.

    Raises
    ------
    UsageError
        If ``tol`` is negative, infinite or NaN.
    """
    _require_tol(tol)
    return min_eig >= -tol * np.maximum(1.0, _norms(x))


def _require_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise UsageError(f"tolerance must be finite and nonnegative, got {tol}")
