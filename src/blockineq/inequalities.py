"""Machine checkers for the block-matrix trace and determinant inequalities.

Each checker builds the residual matrix (for operator inequalities) or the
scalar gap (for trace/determinant inequalities), tests it against a relative
tolerance, and returns a :class:`CheckReport`. Checkers *report* inequality
failures; they only raise when a hypothesis of the statement is violated
(not PSD, not PPT, malformed index sets), so a harness can aggregate
counterexamples instead of aborting.

The block-matrix checkers take one :class:`~blockineq.blockops.BlockMatrix`
and return one report, or a :class:`~blockineq.blockops.BlockStack` and
return a list of reports, one per member. Each inequality is written once,
over the stack axis; a single matrix is a stack of one. A partial-trace
side is the paper's ``Phi(X) = (tr X) I + X`` or ``Psi(X) = (tr X) I - X``
applied blockwise, split as (trace part, ``-X`` or ``X``). The seeded suites
check each shape's trials as one stack. Every block check goes one way,
through :func:`_check_blocks`, which evaluates any number of checks on one
input together: it assembles once the matrices they solve (the input, its
partial transpose for a PPT check, each side's residual) and solves them in
one stacked eigensolve, where the kernel sweeps each matrix as it would
alone; only one matrix below the solvers' crossover dimension is tested for
PSD alone first. So a residual's minimum is the same bits however the
input was handed in and whatever checks ran with it. A lone ``check_*``
call is the evaluation of its one check; file verification evaluates all
of a document's block checks at once, and hands each checker its report.

The submatrix checkers take one ``(alpha, beta)`` pair of :class:`IndexSet`
and return one report, or a :class:`PairBatch` and return
:class:`PairReports`, one column entry per pair; on a ``(T, n, n)`` stack of
matrices they return a list of those, one per member. Each inequality is
written once, over the pairs of each cardinality and the members of a
chunk of the stack; a single pair is a batch of one and a single matrix a
stack of one. The members are tested for PSD in one
:func:`~blockineq.densemat.is_psd` call, however many there are, each at
its lone solve's minimum, bitwise, as if it were tested alone. A batch keeps the gather
indices its checks derive from its pairs (:meth:`PairBatch.plan`). The
exhaustive suites check all pairs of a chunk of trials as one batch.

Tolerance conventions (uniform relative testing across magnitudes): a
quantity passes when it is at least ``-tol`` times the scale of the terms
it is computed from, because its rounding error is relative to them.

- residual matrices pass when their minimum eigenvalue is at least
  ``-tol * max(1, ||LHS||_F, ||RHS||_F)`` over the two constituent sides;
- scalar gaps pass when ``RHS - LHS >= -tol * max(1, |LHS|, |RHS|)``;
- the determinant bound's right side is itself a difference, so its gap
  passes at ``-tol * max(1, |LHS|, |det A[a] det A[b]|, |det A[a,b]|^2)``.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .blockops import (
    BlockMatrix,
    BlockStack,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
)
from .densemat import (
    DEFAULT_TOL,
    _psd_each,
    _require_tol,
    _sweep_round_robin,
    _validated_stack,
    as_matrix,
    determinant,
    frobenius_stack,
    hermitian_eigenvalues_stack,
    is_psd,
    kron,
    psd_verdict,
    require_square,
    solves_in_round_robin,
)
from .errors import (
    BlockineqError,
    ConvergenceError,
    HermiticityError,
    NormOverflowError,
    PreconditionError,
    ShapeError,
    UsageError,
)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, a numpy one included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _index(i) -> int:
    """``i`` as an index of an :class:`IndexSet`; a non-integer or a bool is refused, not truncated."""
    if not _is_integer(i):
        raise UsageError(f"indices must be integers, got {i!r}")
    return int(i)


@dataclass(frozen=True)
class IndexSet:
    """A sorted, duplicate-free subset of ``{1, ..., universe}`` (1-based)."""

    universe: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not (_is_integer(self.universe) and self.universe >= 1):
            raise UsageError(f"universe must be a positive integer, got {self.universe!r}")
        object.__setattr__(self, "universe", int(self.universe))
        members = tuple(_index(i) for i in self.members)
        for prev, cur in zip((0,) + members, members):
            if not 1 <= cur <= self.universe:
                raise UsageError(
                    f"index {cur} outside 1..{self.universe} (indices are 1-based)"
                )
            if cur <= prev:
                raise UsageError(f"members must be strictly increasing, got {members}")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, universe: int, members) -> "IndexSet":
        """Build from any iterable of indices; sorts and deduplicates."""
        return cls(universe, tuple(sorted(set(_index(i) for i in members))))

    @classmethod
    def full(cls, universe: int) -> "IndexSet":
        return cls(universe, tuple(range(1, universe + 1)))

    def _require_same_universe(self, other: "IndexSet") -> None:
        if self.universe != other.universe:
            raise ShapeError(
                f"index sets live in different universes: {self.universe} vs {other.universe}"
            )

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    ``residual_min_eig`` is the smallest eigenvalue among the residual
    matrices the check tested (when it tests any); ``scalar_gap`` is the
    smallest of its scalar gaps ``RHS - LHS`` (when it has any). ``details``
    carries every recorded residual eigenvalue, gap, and scale, keyed by
    stable names, so reports serialize deterministically.
    """

    check_name: str
    passed: bool
    residual_min_eig: float | None
    scalar_gap: float | None
    tolerance: float
    shape: tuple[int, int] | int
    seed_info: str | None = None
    details: dict = field(default_factory=dict)


def _verdict(gap: np.ndarray, terms, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each gap's scale ``max(1, |term|, ...)`` and whether ``gap >= -tol * scale``.

    A residual side is decided by the same rule, its minimum eigenvalue the
    gap and its two sides' Frobenius norms the terms.
    """
    scale = np.ones_like(gap)
    for term in terms:
        scale = np.maximum(scale, np.abs(term))
    return scale, gap >= -tol * scale


# ---------------------------------------------------------------------------
# Block-matrix inequalities, written once over a BlockStack. Each term
# function returns (sides, gaps): a side (label, lhs, rhs) claims lhs >= rhs
# in operator order for every member, a gap (label, lhs, rhs) claims
# lhs <= rhs for the members' scalars. Labels name the report details.
# A partial-trace side is Phi(X) = (tr X) I + X or Psi(X) = (tr X) I - X
# applied blockwise to X = A or A^t, in either tensor order, split as (a
# trace part of X, -X for Phi or X for Psi): its scale is taken from both.
# ---------------------------------------------------------------------------


def _trace_parts(x) -> tuple[np.ndarray, np.ndarray]:
    """``(tr2 X) (x) I_n`` and ``I_m (x) tr1 X`` for every member of a stack ``X``.

    Less ``X``, they are ``[Psi(X_ij)]`` and ``realign([Psi(realign(X)_ij)])``.
    """
    return kron(partial_trace_2(x), np.eye(x.n)), kron(np.eye(x.m), partial_trace_1(x))


def _copositive_terms(a, phi: bool = False):
    """Psi, or Phi with ``phi``, applied blockwise to ``A^t``: ``[Psi(A_ji)] >= 0``."""
    at = partial_transpose(a)
    tr2, tr1 = _trace_parts(at)
    x = -at.mat if phi else at.mat
    return (("tr2_side", tr2, x), ("tr1_side", tr1, x)), ()


def _ppt_reduction_terms(a):
    """Psi applied blockwise to ``A``: ``[Psi(A_ij)] >= 0``."""
    tr2, tr1 = _trace_parts(a)
    return (("tr1_side", tr1, a.mat), ("tr2_side", tr2, a.mat)), ()


def _combined_terms(a):
    """The sum of the two Psi sides of ``A``, and that of ``A^t``."""
    at = partial_transpose(a)
    (tr2, tr1), (tr2_t, tr1_t) = _trace_parts(a), _trace_parts(at)
    return (("plain", tr1 + tr2, 2.0 * a.mat), ("tau", tr1_t + tr2_t, 2.0 * at.mat)), ()


def _upper_bound_terms(a):
    tr = np.trace(a.mat, axis1=1, axis2=2).real
    big = a.mat + tr[:, np.newaxis, np.newaxis] * np.eye(a.m * a.n)
    tr2, tr1 = _trace_parts(a)
    return (("upper", big, tr1 + tr2),), ()


def _block2_terms(a):
    """G's terms, ``G_{(p,p'),(q,q')} = (tr H_{p'q'}) H_pq - H_{pq'} H_{p'q}`` for blocks ``H_pq``.

    Over the ordered pairs ``(p, p')`` of block indices ``(1, 2)`` and
    ``(2, 1)``, G is the matrix of :func:`check_block2`.
    """
    # contiguous, so that np.trace sums each block's diagonal in the order it uses on one
    # block alone: from n = 4 on, the order of a strided stack's sum changes the last bits
    h = np.ascontiguousarray(a._as_blocks().swapaxes(-3, -2))  # h[:, p, q] is H_pq
    tr = np.trace(h, axis1=-2, axis2=-1)
    p, p2 = np.array([[0], [1]]), np.array([[1], [0]])  # each row's p, p'; transposed, each column's
    pos = tr[:, p2, p2.T, np.newaxis, np.newaxis] * h[:, p, p.T]
    neg = h[:, p, p2.T] @ h[:, p2, p.T]
    tr_neg = np.trace(neg, axis1=-2, axis2=-1).real
    tr_ac, tr_bsb = tr_neg[:, 0, 1], tr_neg[:, 1, 1]
    tr_a, tr_c, tr_b = tr[:, 0, 0].real, tr[:, 1, 1].real, tr[:, 0, 1]
    abs_tr_b_sq = np.abs(tr_b) ** 2
    g = tuple(x.swapaxes(-3, -2).reshape(a.mat.shape) for x in (pos, neg))
    return (("g", *g),), (
        ("eq8", tr_ac + tr_bsb, tr_a * tr_c + abs_tr_b_sq),
        ("eq9", tr_bsb - tr_ac, tr_a * tr_c - abs_tr_b_sq),
    )


# check_name -> (hypothesis, terms)
_BLOCK_INEQUALITIES = {
    "copositive_partial_trace": ("psd", _copositive_terms),
    "ppt_reduction": ("ppt", _ppt_reduction_terms),
    "combined_reduction": ("ppt", _combined_terms),
    "upper_bound": ("psd", _upper_bound_terms),
    "phi_lower": ("psd", partial(_copositive_terms, phi=True)),
    "block2": ("psd", _block2_terms),
}


def _residual(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``R = lhs - rhs``, made exactly Hermitian as ``(R + R*) / 2``.

    ``R`` is Hermitian in exact arithmetic. Where its terms cancel, as
    block2's products do on a low-rank input, their rounding noise can exceed
    the solvers' Hermiticity tolerance, which is relative to the norm of
    ``R`` and not of the terms. The values of an exactly Hermitian ``R`` stay
    as they are.
    """
    r = lhs - rhs
    return (r + np.conj(np.swapaxes(r, -1, -2))) / 2.0


def _to_solve(stack: BlockStack, check_names) -> tuple[dict, dict]:
    """What the named block checks solve on ``stack``, in solve order, and their terms.

    ``mats`` maps ``"input"`` (the members), ``"input_tau"`` (their partial
    transposes, when a check needs PPT) and then ``(check name, side
    label)`` (a side's residual) to a ``(B, d, d)`` stack. ``terms`` maps
    each check name to its ``(sides, gaps)``.

    A term that overflows leaves a residual whose norm is not finite, which
    the solvers refuse by name (``NormOverflowError``), so numpy's overflow
    warning is not shown before that error.
    """
    mats = {"input": stack.mat}
    if any(_BLOCK_INEQUALITIES[name][0] == "ppt" for name in check_names):
        mats["input_tau"] = partial_transpose(stack).mat
    terms = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name in check_names:
            sides, _ = terms[name] = _BLOCK_INEQUALITIES[name][1](stack)
            mats.update(((name, label), _residual(lhs, rhs)) for label, lhs, rhs in sides)
    return mats, terms


def _check_block(check_name: str, a, tol: float):
    """One block inequality on a BlockMatrix (a report) or a BlockStack (a list).

    It is ``_check_blocks(a, [check_name], tol)[check_name]``, raised where
    that is the error the check raises. A document that
    :func:`~blockineq.suites.run_files` hands the checkers carries what
    :func:`_check_blocks` returned for it (:class:`_Checked`), which is
    returned, or raised, as is.
    """
    if isinstance(a, _Checked):
        result = a.reports[check_name]
    else:
        result = _check_blocks(a, [check_name], tol)[check_name]
    if isinstance(result, BlockineqError):
        raise result
    return result


def _check_blocks(a, check_names, tol: float) -> dict:
    """The named block inequalities on a BlockMatrix or a BlockStack, evaluated together.

    Returns ``{check name: result}``, in the order of
    ``_BLOCK_INEQUALITIES``: a check's report on a BlockMatrix, its list of
    reports on a BlockStack, and for the first check that refuses ``a``
    (outside its hypothesis, or a solver error) the error it raises, the
    checks after it left out. A wrong type or a bad ``tol`` is refused
    before any solve.

    What :func:`_to_solve` lists for the checks is assembled once and solved
    in one :func:`~blockineq.densemat.hermitian_eigenvalues_stack` call,
    however many checks there are. A member's rotations do not depend on
    its stack-mates, so each value is the same in a stack of any size, one
    entry alone included: a residual's minimum does not depend on which
    checks were evaluated with it, nor on whether its input came as one
    matrix or as a member of a stack. The one value that does is the input's
    own minimum on one matrix below the solvers' crossover dimension
    (:func:`~blockineq.densemat.solves_in_round_robin`): that matrix is
    tested for PSD alone first (:func:`~blockineq.densemat.is_psd`), in the
    scalar order, and only its partial transpose and residuals are the stack.

    What is still missing after a solver error of the stack is solved one
    entry at a time in the same kernel as each check is decided: its
    hypothesis first, so that the first member outside it (PSD, or PPT) is
    refused before any residual is solved, and then each side's residual.
    An error so names a member by its index in the stack, a stack of one
    included, and one matrix "matrix".
    """
    if isinstance(a, BlockMatrix):
        stack = BlockStack(a.m, a.n, a.mat[np.newaxis])
    elif isinstance(a, BlockStack):
        stack = a
    else:
        raise UsageError(f"expected a BlockMatrix or a BlockStack, got {type(a).__name__}")
    _require_tol(tol)
    names = [name for name in _BLOCK_INEQUALITIES if name in check_names]
    if not names:
        return {}
    stacked, count = stack is a, len(stack)
    mats, terms = _to_solve(stack, names)
    minima = {}
    first = 0 if stacked else None

    def minimum(key) -> np.ndarray:
        if key not in minima:
            minima[key] = _sweep_round_robin(*_validated_stack(mats[key], first), first)[0][:, 0]
        return minima[key]

    results = {}
    try:
        lone = not (stacked or solves_in_round_robin(stack.m * stack.n))
        if lone:
            ok, min_eig = is_psd(stack.mat[0], tol)
            minima["input"] = np.array([min_eig])
        if not lone or ok:
            rest = [key for key in mats if key not in minima]
            try:
                solved = hermitian_eigenvalues_stack(np.concatenate([mats[key] for key in rest]))
            except (ConvergenceError, HermiticityError, NormOverflowError):
                pass  # each entry is solved alone below, so that the first to fail names itself
            else:
                minima.update(zip(rest, np.split(solved.values[:, 0], len(rest))))
        for name in names:
            keys = ["input", "input_tau"] if _BLOCK_INEQUALITIES[name][0] == "ppt" else ["input"]
            ok = np.logical_and.reduce([psd_verdict(minimum(k), mats[k], tol) for k in keys])
            _refuse_outside(ok, [minima[k] for k in keys], tol, stacked)
            sides, gaps = terms[name]
            side_mins = [minimum((name, label)) for label, _, _ in sides]
            details = {}
            passed = np.ones(count, dtype=bool)
            gap_mins = []
            for (label, lhs, rhs), min_eig in zip(sides, side_mins):
                scale, ok = _verdict(min_eig, (frobenius_stack(lhs), frobenius_stack(rhs)), tol)
                passed &= ok
                details[f"min_eig_{label}"] = min_eig.tolist()
                details[f"scale_{label}"] = scale.tolist()
            for label, lhs, rhs in gaps:
                gap = rhs - lhs
                scale, ok = _verdict(gap, (lhs, rhs), tol)
                passed &= ok
                details[f"gap_{label}"] = gap.tolist()
                details[f"scale_{label}"] = scale.tolist()
                gap_mins.append(gap)
            if name == "upper_bound":
                details["base_case_m2"] = [stack.m == 2] * count
            for key in keys:
                details[f"{key}_min_eig"] = minima[key].tolist()
            residual = np.min(side_mins, axis=0).tolist()
            scalar_gap = np.min(gap_mins, axis=0).tolist() if gap_mins else [None] * count
            reports = [
                CheckReport(
                    check_name=name,
                    passed=ok,
                    residual_min_eig=residual[k],
                    scalar_gap=scalar_gap[k],
                    tolerance=tol,
                    shape=(stack.m, stack.n),
                    details={key: column[k] for key, column in details.items()},
                )
                for k, ok in enumerate(passed.tolist())
            ]
            results[name] = reports if stacked else reports[0]
    except (PreconditionError, ConvergenceError, HermiticityError, NormOverflowError) as exc:
        results[names[len(results)]] = exc  # the check being decided raises it
    return results


@dataclass(frozen=True)
class _Checked(BlockMatrix):
    """A block document with what :func:`_check_blocks` returned for it.

    :func:`~blockineq.suites.run_files` evaluates a document's block checks
    once and hands this to each block checker, which :func:`_check_block`
    answers from ``reports`` in place of checking again.
    """

    reports: dict


def _refuse_outside(ok: np.ndarray, minima: list, tol: float, stacked: bool, first: int = 0):
    """Refuse the first member where ``ok`` is false: not PSD, or not PPT.

    ``minima`` holds the members' minimum eigenvalues, and for a PPT
    hypothesis their partial transposes' as a second array. The member is
    named "stack member k", ``k`` counted from ``first``, or "input" where
    the check was handed one matrix.
    """
    outside = np.flatnonzero(~ok)
    if not outside.size:
        return
    k = outside[0]
    where = f"stack member {first + k}" if stacked else "input"
    mins = [float(m[k]) for m in minima]
    if len(mins) == 2:
        raise PreconditionError(
            f"{where} is not PPT within tol {tol:g}: min eigenvalue {mins[0]:.6e} "
            f"(input), {mins[1]:.6e} (partial transpose)",
            min_eig=min(mins),
        )
    raise PreconditionError(
        f"{where} is not PSD within tol {tol:g}: min eigenvalue {mins[0]:.6e}",
        min_eig=mins[0],
    )


def check_copositive_partial_trace(a, tol: float = DEFAULT_TOL):
    """For PSD ``A``: ``(tr2 A^t) (x) I_n >= A^t`` and ``I_m (x) (tr1 A^t) >= A^t``.

    The partial transpose of a PSD block matrix need not be PSD, yet both
    partial-trace envelopes still dominate it; this is the operator form of
    complete copositivity of ``Psi: X -> (tr X) I - X``. The tr2 side's
    residual is ``[Psi(A_ji)]``, Psi applied to each block of ``A^t``, and
    the tr1 side's the same in the other tensor order. The input itself must
    be PSD, but ``A^t`` is allowed to be indefinite.
    """
    return _check_block("copositive_partial_trace", a, tol)


def check_ppt_reduction(a, tol: float = DEFAULT_TOL):
    """For PPT ``A``: ``I_m (x) (tr1 A) >= A`` and ``(tr2 A) (x) I_n >= A``.

    This strengthening drops the partial transpose from both sides, but it
    needs the PPT hypothesis; a merely-PSD entangled input can violate it,
    which is what :func:`check_copositive_partial_trace` is for. The
    residuals are ``[Psi(A_ij)]``, Psi applied to each block of ``A``, in
    either tensor order.
    """
    return _check_block("ppt_reduction", a, tol)


def check_combined_reduction(a, tol: float = DEFAULT_TOL):
    """For PPT ``A``: ``I_m (x) tr1 A + (tr2 A) (x) I_n >= 2 A`` and the same for ``A^t``.

    Each residual is the sum of the two of :func:`check_ppt_reduction`, on
    ``A`` and on ``A^t``.
    """
    return _check_block("combined_reduction", a, tol)


def check_upper_bound(a, tol: float = DEFAULT_TOL):
    """For PSD ``A``: ``I_m (x) tr1 A + (tr2 A) (x) I_n <= A + (tr A) I``.

    The ``m = 2`` case has a direct block proof; larger ``m`` follows from a
    known trace inequality, and the report flags which regime the input is in
    (``details["base_case_m2"]``).
    """
    return _check_block("upper_bound", a, tol)


def check_phi_lower(a, tol: float = DEFAULT_TOL):
    """For PSD ``A``: ``(tr2 A^t) (x) I_n >= -A^t`` and ``I_m (x) tr1 A^t >= -A^t``.

    The two-sided companion of :func:`check_copositive_partial_trace`: the
    partial-trace envelopes dominate ``A^t`` in absolute value, which is the
    operator form of complete copositivity of ``Phi: X -> (tr X) I + X``.
    The residuals are ``[Phi(A_ji)]`` and the same in the other tensor order.
    """
    return _check_block("phi_lower", a, tol)


def check_block2(a2, tol: float = DEFAULT_TOL):
    """For PSD ``[[A, B], [B*, C]]`` (blocks ``n x n``): three derived facts.

    Builds ``G = [[(tr C)A - BB*, (tr B*)B - AC], [(tr B)B* - CA, (tr A)C - B*B]]``
    and PSD-tests it, then evaluates the two scalar trace inequalities that
    follow by taking traces:

    - eq8: ``tr(AC) + tr(B*B) <= (tr A)(tr C) + |tr B|^2``
    - eq9: ``tr(B*B) - tr(AC) <= (tr A)(tr C) - |tr B|^2``
    """
    if isinstance(a2, (BlockMatrix, BlockStack)) and a2.m != 2:
        raise UsageError(f"check_block2 requires block shape m=2, got m={a2.m}")
    return _check_block("block2", a2, tol)


def submatrix(a, alpha: IndexSet, beta: IndexSet) -> np.ndarray:
    """``A[alpha, beta]``: rows indexed by ``alpha``, columns by ``beta``."""
    mat = as_matrix(a)
    n = require_square(mat)
    if alpha.universe != n or beta.universe != n:
        raise ShapeError(
            f"index-set universes ({alpha.universe}, {beta.universe}) do not match "
            f"matrix dimension {n}"
        )
    rows = np.array([i - 1 for i in alpha.members], dtype=np.intp)
    cols = np.array([j - 1 for j in beta.members], dtype=np.intp)
    return mat[np.ix_(rows, cols)]


def overlap_embedding(a, alpha: IndexSet, beta: IndexSet) -> np.ndarray:
    """The ``2|alpha| x 2|alpha|`` matrix ``[[A[a], A[a,b]], [A[a,b]*, A[b]]]``.

    For PSD ``A`` this is PSD for *any* pair with ``|alpha| = |beta|``,
    including overlapping index sets: it is a selection congruence ``S A S*``
    up to a zero-padded factor. It is the bridge from submatrix trace
    inequalities to the two-block checker :func:`check_block2`.
    """
    if len(alpha) != len(beta):
        raise UsageError(
            f"index sets must have equal cardinality, got {len(alpha)} and {len(beta)}"
        )
    aa = submatrix(a, alpha, alpha)
    ab = submatrix(a, alpha, beta)
    bb = submatrix(a, beta, beta)
    return np.block([[aa, ab], [ab.conj().T, bb]])


# ---------------------------------------------------------------------------
# Submatrix inequalities, written once over a PairBatch of (alpha, beta)
# index-set pairs; one pair is a batch of one.
# ---------------------------------------------------------------------------


# PairBatch and PairReports are plain classes: a dataclass costs about
# 0.5 ms of import time, and every run of the package pays it.


class PairBatch:
    """``(alpha, beta)`` index-set pairs of one universe, with ``|alpha| = |beta|``.

    The pairs come in groups, one per cardinality ``k``. A group is
    ``(combos, ia, ib)``: ``combos`` is a ``(C, k)`` array of 0-based index
    sets and the group's pair ``p`` is ``(combos[ia[p]], combos[ib[p]])``.
    :func:`exhaustive_pairs` builds the batch of every pair of a universe;
    :meth:`of` the batch of one pair.
    """

    __slots__ = ("universe", "groups", "_plans")

    def __init__(self, universe: int, groups: tuple):
        self.universe = universe
        self.groups = groups
        self._plans = {}

    def plan(self, build):
        """``build(self)``, built on its first use for this batch and kept with it.

        A check's plan is what it derives from the pairs alone, the indices
        it gathers and looks up at; it holds no value of any matrix.
        """
        if build not in self._plans:
            self._plans[build] = build(self)
        return self._plans[build]

    @classmethod
    def of(cls, alpha: IndexSet, beta: IndexSet) -> "PairBatch":
        """The batch of the single pair ``(alpha, beta)``, shared by every call with that pair.

        So a lone pair's plans are built on its first check only.
        """
        if len(alpha) != len(beta):
            raise UsageError(
                f"index sets must have equal cardinality, got {len(alpha)} and {len(beta)}"
            )
        alpha._require_same_universe(beta)
        masks = (sum(1 << (i - 1) for i in s.members) for s in (alpha, beta))
        return _pair_batch(alpha.universe, *masks)

    def __len__(self) -> int:
        return sum(len(ia) for _, ia, _ in self.groups)

    def pair(self, p: int) -> tuple[list[int], list[int]]:
        """The members of pair ``p``'s alpha and beta, 1-based."""
        for combos, ia, ib in self.groups:
            if p < len(ia):
                return (combos[ia[p]] + 1).tolist(), (combos[ib[p]] + 1).tolist()
            p -= len(ia)
        raise IndexError("pair index out of range")


# Room for every pair of a universe of 5 and of 4 (251 + 69): a loop of lone
# checks over all of them, matrix after matrix, then builds each plan once.
@lru_cache(maxsize=512)
def _pair_batch(universe: int, alpha_mask: int, beta_mask: int) -> PairBatch:
    """:meth:`PairBatch.of` of the pair whose sets hold the members ``i`` with bit ``i - 1`` set."""
    combos = np.array(
        [[i for i in range(universe) if mask >> i & 1] for mask in (alpha_mask, beta_mask)],
        dtype=np.intp,
    )
    ia, ib = np.array([0]), np.array([1])
    for arr in (combos, ia, ib):
        arr.flags.writeable = False
    return PairBatch(universe, ((combos, ia, ib),))


@lru_cache(maxsize=32)
def exhaustive_pairs(universe: int, distinct: bool = False) -> PairBatch:
    """Every ``(alpha, beta)`` of ``{1, ..., universe}`` with ``|alpha| = |beta| >= 1``.

    Ordered by cardinality, then alpha, then beta, each lexicographically;
    ``distinct=True`` leaves out the pairs with ``alpha = beta``. Built on
    first use for each universe and shared read-only afterwards. A universe
    above ``_MAX_PAIR_UNIVERSE`` is refused before anything is built.
    """
    if universe > _MAX_PAIR_UNIVERSE:
        raise UsageError(
            f"exhaustive index-set pairs are enumerated up to dimension {_MAX_PAIR_UNIVERSE}, "
            f"got dimension {universe}"
        )
    groups = []
    for k in range(1, universe + 1):
        combos = np.array(list(itertools.combinations(range(universe), k)), dtype=np.intp)
        ia, ib = np.divmod(np.arange(len(combos) ** 2), len(combos))
        if distinct:
            keep = ia != ib
            ia, ib = ia[keep], ib[keep]
        for arr in (combos, ia, ib):
            arr.flags.writeable = False
        groups.append((combos, ia, ib))
    return PairBatch(universe, tuple(groups))


class PairReports:
    """One submatrix check over a :class:`PairBatch`, as columns: entry ``p`` is pair ``p``.

    ``passed`` and ``scalar_gap`` hold each pair's verdict and smallest gap;
    ``details`` holds the per-pair details of each pair's
    :class:`CheckReport` as arrays, in report order. :meth:`report` builds
    the report of one pair.
    """

    __slots__ = (
        "check_name", "batch", "passed", "scalar_gap", "details", "tolerance", "input_min_eig"
    )

    def __init__(self, check_name, batch, passed, scalar_gap, details, tolerance, input_min_eig):
        self.check_name = check_name
        self.batch = batch
        self.passed = passed
        self.scalar_gap = scalar_gap
        self.details = details
        self.tolerance = tolerance
        self.input_min_eig = input_min_eig

    def __len__(self) -> int:
        return len(self.batch)

    def report(self, p: int) -> CheckReport:
        alpha, beta = self.batch.pair(p)
        details = {key: column[p].item() for key, column in self.details.items()}
        details.update(alpha=alpha, beta=beta, input_min_eig=self.input_min_eig)
        return CheckReport(
            check_name=self.check_name,
            passed=bool(self.passed[p]),
            residual_min_eig=None,
            scalar_gap=float(self.scalar_gap[p]),
            tolerance=self.tolerance,
            shape=self.batch.universe,
            details=details,
        )


def _as_batch(alpha, beta) -> PairBatch:
    if isinstance(alpha, PairBatch):
        if beta is not None:
            raise UsageError("a PairBatch already holds the beta sets; pass tol by keyword")
        return alpha
    return PairBatch.of(alpha, beta)


def _psd_stack(a, batch: PairBatch, tol: float) -> tuple[np.ndarray, list, bool]:
    """The input as a ``(T, n, n)`` stack, each member's minimum eigenvalue, and if it is a stack.

    One matrix is a stack of one. The members are tested for PSD before any
    pair is evaluated, in one :func:`~blockineq.densemat.is_psd` call
    whatever their number, so each minimum is bitwise its lone solve's, as
    if the member were tested alone. If that call raises a solver error, the
    members are tested one at a time from the first, so that the first
    member outside the hypothesis is refused first, as "stack member k" (one
    matrix as "input"), and a solver error names its member as "stack member
    k" too (one matrix as "matrix"), ``k`` its index in the stack.
    """
    mats = np.asarray(a, dtype=np.complex128)
    stacked = mats.ndim == 3
    if stacked:
        t, rows, cols = mats.shape
        if rows != cols:
            raise ShapeError(f"expected a (T, n, n) stack of square matrices, got shape {mats.shape}")
        if t:  # as_matrix checks the members as the rows of one matrix: nonempty and finite
            as_matrix(mats.reshape(t * rows, cols))
    else:
        mats = as_matrix(mats)[np.newaxis]
        require_square(mats[0])
    n = mats.shape[1]
    try:
        verdicts = [is_psd(mats, tol)]
    except (ConvergenceError, HermiticityError, NormOverflowError):
        if not stacked:
            raise
        verdicts = (_psd_each(mats[k : k + 1], tol, k) for k in range(len(mats)))
    input_mins = []
    for ok, mins in verdicts:
        _refuse_outside(ok, [mins], tol, stacked, len(input_mins))
        input_mins += mins.tolist()
    if batch.universe != n:
        raise ShapeError(
            f"index-set universe {batch.universe} does not match matrix dimension {n}"
        )
    return mats, input_mins, stacked


# Bytes, b * 16 * (entries of one member's largest gather), of the b members
# a submatrix check evaluates at a time.
_CHUNK_BYTES = 512 * 1024


def _chunk_members(batch: PairBatch) -> int:
    """Members of a stack that a submatrix check of ``batch`` evaluates at a time, at least 1.

    A member's largest gather is its biggest cardinality's ``A[alpha]``,
    ``A[beta]`` or ``A[alpha, beta]`` blocks, ``P k^2`` entries for ``P``
    pairs of cardinality ``k``, or the determinant bound's principal minors,
    at most ``min(2^n, 4 P)`` padded ``n x n`` matrices; ``_CHUNK_BYTES``
    bounds that gather over a chunk.
    """
    n = batch.universe
    entries = [len(ia) * combos.shape[1] ** 2 for combos, ia, _ in batch.groups]
    entries.append(min(2**n, 4 * len(batch)) * n * n)
    return max(1, _CHUNK_BYTES // (16 * max(1, *entries)))


def _check_pairs(check_name: str, evaluate, a, alpha, batch: PairBatch, tol: float):
    """One submatrix check of ``batch`` on a matrix or on each member of a stack.

    ``evaluate(flat, batch, tol, names)`` takes a chunk of members as a
    ``(b, n * n)`` array, with the name of each in an error ("stack member
    k", or "input" for one matrix), and returns ``(passed, scalar_gap,
    details)``, each column a ``(b, P)`` array. A pair's values come only
    from per-element arithmetic, row sums over contiguous trailing axes and
    stacked determinants, so a member's values are bitwise the same in a
    chunk, or a stack, of any size, one member included.
    """
    mats, input_mins, stacked = _psd_stack(a, batch, tol)
    size = _chunk_members(batch)
    reports = []
    for lo in range(0, len(mats), size):
        chunk = np.ascontiguousarray(mats[lo : lo + size])
        names = [f"stack member {k}" for k in range(lo, lo + len(chunk))] if stacked else ["input"]
        passed, gap, details = evaluate(chunk.reshape(len(chunk), -1), batch, tol, names)
        reports += [
            PairReports(
                check_name,
                batch,
                passed[k],
                gap[k],
                {key: column[k] for key, column in details.items()},
                tol,
                input_mins[lo + k],
            )
            for k in range(len(chunk))
        ]
    if not isinstance(alpha, PairBatch):
        reports = [rep.report(0) for rep in reports]
    return reports if stacked else reports[0]


def _flat_index(n: int, rows: np.ndarray, cols: np.ndarray, transpose: bool = False):
    """The ``(P, k * k)`` flat indices, in an ``n x n`` matrix, of blocks ``[rows[p], cols[p]]``.

    Row-major in each block, or column-major with ``transpose``, for the
    transposed block.
    """
    index = rows[:, :, np.newaxis] * n + cols[:, np.newaxis, :]
    if transpose:
        index = index.swapaxes(1, 2)
    return index.reshape(len(rows), rows.shape[1] * cols.shape[1])


def check_trace_submatrix(a, alpha, beta=None, tol: float = DEFAULT_TOL):
    """For PSD ``A`` and ``|alpha| = |beta| >= 1``: two submatrix trace bounds.

    With ``x = tr(A[a]A[b])``, ``y = tr(A[a,b]* A[a,b])``,
    ``R+ = (tr A[a])(tr A[b]) + |tr A[a,b]|^2`` and
    ``R- = (tr A[a])(tr A[b]) - |tr A[a,b]|^2``:

    - thm8: ``x + y <= R+``
    - thm9: ``|x - y| <= R-``

    ``details["gap_eq9_oneside"]`` records the one-sided gap
    ``R- - (y - x)``, which is the quantity the two-block route
    (:func:`check_block2` on :func:`overlap_embedding`) reproduces directly.

    Takes one pair of :class:`IndexSet` and returns a :class:`CheckReport`,
    or a :class:`PairBatch` in place of ``alpha`` (``tol`` by keyword) and
    returns :class:`PairReports`. ``a`` is one matrix, or a ``(T, n, n)``
    stack, for which the result is a list with one of those per member.
    The members are tested for PSD in one
    :func:`~blockineq.densemat.is_psd` call, each at its lone solve's
    minimum, bitwise; the first member that is not PSD is
    refused as "stack member k" before any pair is evaluated (one matrix is
    refused as "input"). Then each cardinality's blocks are gathered for a
    chunk of members at once and reduced by row sums, so a member's values
    are bitwise the same in a stack of any size. A member whose terms
    overflow float64 is refused with ``NormOverflowError``, named with its
    first such pair.
    """
    batch = _as_batch(alpha, beta)
    if any(combos.shape[1] == 0 for combos, _, _ in batch.groups):
        raise UsageError("index sets must be nonempty")
    return _check_pairs("trace_submatrix", _trace_columns, a, alpha, batch, tol)


def _trace_plan(batch: PairBatch):
    """Per cardinality, where the trace bounds gather, and the pairs' cardinality column.

    A group's flat indices are those of ``A[alpha]``, of ``A[beta]``
    transposed and of ``A[alpha, beta]`` among a member's complex entries,
    then those of ``A[combo]``'s diagonal real parts and of ``A[alpha,
    beta]``'s diagonal real and imaginary parts among its float64 parts.
    """
    n = batch.universe
    groups = []
    for combos, ia, ib in batch.groups:
        rows_a, rows_b = combos[ia], combos[ib]
        diagonal = 2 * (rows_a * n + rows_b)
        groups.append((
            _flat_index(n, rows_a, rows_a),
            _flat_index(n, rows_b, rows_b, transpose=True),
            _flat_index(n, rows_a, rows_b),
            2 * (n + 1) * combos,
            np.stack([diagonal, diagonal + 1], axis=1),
            ia,
            ib,
        ))
    cardinality = np.concatenate([np.full(len(ia), c.shape[1]) for c, ia, _ in batch.groups])
    return groups, cardinality


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by name, with no warning
def _trace_columns(flat: np.ndarray, batch: PairBatch, tol: float, names: list):
    """The trace bounds' verdicts, gaps and details of a chunk, as ``(b, P)`` columns.

    Raises
    ------
    NormOverflowError
        If a term, ``x``, ``y``, ``(tr A[a])(tr A[b])`` or ``|tr A[a,b]|^2``,
        or a side of thm8, ``x + y`` or ``R+``, is not finite in float64, as
        it can be for a member whose ``||A||_F`` is finite but whose square
        is not; names the first such member of the chunk, by ``names``, and
        its first such pair.
    """
    groups, cardinality = batch.plan(_trace_plan)
    floats = flat.view(np.float64)  # Re and Im of each entry, side by side
    conj = np.conj(flat)
    parts = []
    for aa_at, bt_at, ab_at, tr_at, tr_ab_at, ia, ib in groups:
        # x sums Re(A[a]_ij) Re(conj A[b]_ji) + Im(A[a]_ij) Im(conj A[b]_ji),
        # and y Re^2 + Im^2 of A[a,b]_ij, in the same order: at alpha = beta,
        # where they are equal, they are bitwise equal for an exactly Hermitian A
        aa = np.take(flat, aa_at, axis=1).view(np.float64)
        bt = np.take(conj, bt_at, axis=1).view(np.float64)
        ab = np.take(flat, ab_at, axis=1).view(np.float64)
        x = (aa * bt).sum(axis=-1)
        y = (ab * ab).sum(axis=-1)
        tr = np.take(floats, tr_at, axis=1).sum(axis=-1)
        tr_ab = np.take(floats, tr_ab_at, axis=1).sum(axis=-1)
        tr_ab *= tr_ab
        parts.append((x, y, tr[:, ia] * tr[:, ib], tr_ab.sum(axis=-1)))
    x, y, tr_prod, abs_tr_ab_sq = (np.concatenate(c, axis=1) for c in zip(*parts))
    x_plus_y = x + y
    r_plus = tr_prod + abs_tr_ab_sq
    _refuse_overflow(names, batch, "trace", x, y, tr_prod, abs_tr_ab_sq, x_plus_y, r_plus)
    r_minus = tr_prod - abs_tr_ab_sq
    gap8 = r_plus - x_plus_y
    scale8, ok8 = _verdict(gap8, (x_plus_y, r_plus), tol)
    gap9 = r_minus - np.abs(x - y)
    scale9, ok9 = _verdict(gap9, (x - y, r_minus), tol)
    details = {
        "gap_thm8": gap8,
        "scale_thm8": scale8,
        "gap_thm9": gap9,
        "scale_thm9": scale9,
        "gap_eq9_oneside": r_minus - (y - x),
        "cardinality": np.broadcast_to(cardinality, (len(flat), len(cardinality))),
    }
    return ok8 & ok9, np.minimum(gap8, gap9), details


def _refuse_overflow(names: list, batch: PairBatch, kind: str, *terms: np.ndarray) -> None:
    """Refuse the first member of a chunk, by ``names``, where a ``(b, P)`` term is not finite."""
    finite = np.logical_and.reduce([np.isfinite(term) for term in terms])
    if not finite.all():
        k, p = np.argwhere(~finite)[0]
        alpha, beta = batch.pair(p)
        raise NormOverflowError(
            f"{names[k]} is too large to check: a {kind} term of pair alpha={alpha}, "
            f"beta={beta} overflows float64"
        )


# Index sets are bitmasks in the determinant bound.
_MAX_DET_UNIVERSE = 64
# The pairs exhaustive_pairs enumerates grow as 4^n: a one-trial thm8_9 + eqlin
# run peaked at 1.1 GiB RSS at n = 11, and at n = 12 exceeded 2.8 GiB (8 GiB host).
_MAX_PAIR_UNIVERSE = 11


def _principal_minor_index(n: int, masks: np.ndarray) -> np.ndarray:
    """Where ``A[S]``, padded to ``n x n``, is for each bitmask ``S``: an ``(M, n * n)`` index.

    It indexes a member's ``n * n`` entries followed by a 0 and a 1.
    ``A[S]`` fills the leading block and the identity the rest, so each
    padded matrix has the determinant of ``A[S]``, and the empty set's is
    1. The padding is decoupled from ``A[S]``, so partial pivoting never
    picks a padding row; the rounding may still differ from an LU of
    ``A[S]`` alone, which LAPACK blocks by the smaller size.
    """
    member = ((masks[:, np.newaxis] >> np.arange(n, dtype=np.uint64)) & 1).astype(bool)
    size = member.sum(axis=1, keepdims=True)
    # the slot of each index: the members first, in order, then the rest
    slot = np.where(member, np.cumsum(member, axis=1), size + np.cumsum(~member, axis=1)) - 1
    sel = np.empty(member.shape, dtype=np.intp)
    np.put_along_axis(sel, slot, np.where(member, np.arange(n), n), axis=1)
    index = _flat_index(n, sel, sel).reshape(len(masks), n, n)
    padding = (sel == n)[:, :, np.newaxis] | (sel == n)[:, np.newaxis, :]
    index[padding] = n * n
    index[:, np.arange(n), np.arange(n)] += np.arange(n) >= size
    return index.reshape(len(masks), n * n)


def check_det_submatrix(a, alpha, beta=None, tol: float = DEFAULT_TOL):
    """For PSD ``A``, ``|alpha| = |beta|``, ``alpha != beta``: determinant bound.

    ``det A[a u b] * det A[a n b] <= det A[a] * det A[b] - |det A[a, b]|^2``,
    with ``det`` of the empty intersection taken as 1. When ``|alpha \\ beta|``
    is 1 the two sides agree exactly (a Desnanot-Jacobi/Sylvester identity);
    ``details["desnanot_case"]`` flags those pairs. The stated form fails
    trivially at ``alpha = beta`` (the right side collapses to 0), so that
    case is rejected as a usage error.

    The gap is scaled by its terms, ``max(1, |LHS|, |det A[a] det A[b]|,
    |det A[a, b]|^2)``, not by ``|RHS|``: in the Desnanot-Jacobi case the
    right side is a difference of two nearly equal terms, and its rounding
    error is relative to them.

    Takes one pair of :class:`IndexSet` and returns a :class:`CheckReport`,
    or a :class:`PairBatch` in place of ``alpha`` (``tol`` by keyword) and
    returns :class:`PairReports`; ``a`` is one matrix or a ``(T, n, n)``
    stack, tested for PSD and refused as
    :func:`check_trace_submatrix` does, for which the result is a list with
    one of those per member. For a chunk of members, the principal minors
    the batch needs are one stacked :func:`~blockineq.densemat.determinant`
    call, looked up by bitmask, and the cross minors ``A[alpha, beta]`` one
    call per cardinality. Products of minors overflow float64 long before
    ``||A||_F`` does (a PSD matrix scaled by 1e100 at n = 4): a member with
    a term that is not finite is refused with ``NormOverflowError``, named
    with its first such pair, and no report is made. Universes are limited
    to 64 indices.
    """
    batch = _as_batch(alpha, beta)
    if any(np.all(combos[ia] == combos[ib], axis=1).any() for combos, ia, ib in batch.groups):
        raise UsageError("alpha and beta must differ for the determinant bound")
    if batch.universe > _MAX_DET_UNIVERSE:
        raise UsageError(
            f"the determinant bound takes index sets of at most {_MAX_DET_UNIVERSE} indices, "
            f"got a universe of {batch.universe}"
        )
    return _check_pairs("det_submatrix", _det_columns, a, alpha, batch, tol)


def _det_plan(batch: PairBatch):
    """Where the determinant bound gathers its minors, where it looks them up, and its Desnanot pairs.

    Per cardinality, the flat indices of ``A[alpha, beta]`` and its size;
    the :func:`_principal_minor_index` of every index set the pairs use;
    the position among those of each pair's alpha, beta, union and
    intersection, in that order; and the pairs with ``|alpha \\ beta| = 1``.
    """
    n = batch.universe
    bit = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    groups, parts = [], []
    for combos, ia, ib in batch.groups:
        masks = bit[combos].sum(axis=1, dtype=np.uint64)
        groups.append((_flat_index(n, combos[ia], combos[ib]), combos.shape[1]))
        parts.append((masks[ia], masks[ib]))
    ma, mb = (np.concatenate(c) for c in zip(*parts))
    used = np.concatenate([ma, mb, ma | mb, ma & mb])
    # distinct masks by a set rather than np.unique: at these sizes it is
    # faster, and it spares the process numpy's uint64 sort (measured 0.2 MiB RSS)
    masks = np.array(sorted(set(used.tolist())), dtype=np.uint64)
    only_alpha = ma & ~mb
    desnanot = (only_alpha != 0) & ((only_alpha & (only_alpha - 1)) == 0)
    return groups, _principal_minor_index(n, masks), np.searchsorted(masks, used), desnanot


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by name, with no warning
def _det_columns(flat: np.ndarray, batch: PairBatch, tol: float, names: list):
    """The determinant bound's verdicts, gaps and details of a chunk, as ``(b, P)`` columns.

    Raises
    ------
    NormOverflowError
        If a term of the gap, ``det A[a u b] det A[a n b]``, ``det A[a]
        det A[b]`` or ``|det A[a, b]|^2``, is not finite in float64, as the
        products of a large member's minors can be; names the first such
        member of the chunk, by ``names``, and its first such pair.
    """
    groups, minor_at, lookup, desnanot = batch.plan(_det_plan)
    n, count = batch.universe, len(flat)
    det_ab = np.concatenate(
        [
            determinant(np.take(flat, cross_at, axis=1).reshape(-1, k, k)).reshape(count, -1)
            for cross_at, k in groups
        ],
        axis=1,
    )
    padded = np.concatenate([flat, np.broadcast_to([0.0, 1.0], (count, 2))], axis=1)
    minors = determinant(np.take(padded, minor_at, axis=1).reshape(-1, n, n)).real
    looked_up = minors.reshape(count, -1)[:, lookup]
    det_a, det_b, det_union, det_inter = looked_up.reshape(count, 4, -1).swapaxes(0, 1)
    lhs = det_union * det_inter
    det_prod = det_a * det_b
    cross_sq = det_ab.real * det_ab.real + det_ab.imag * det_ab.imag
    _refuse_overflow(names, batch, "determinant", lhs, det_prod, cross_sq)
    gap = (det_prod - cross_sq) - lhs
    scale, ok = _verdict(gap, (lhs, det_prod, cross_sq), tol)
    details = {
        "gap": gap,
        "scale": scale,
        "det_alpha": det_a,
        "det_beta": det_b,
        "abs_det_cross_sq": cross_sq,
        "det_union": det_union,
        "det_intersection": det_inter,
        "desnanot_case": np.broadcast_to(desnanot, (count, len(desnanot))),
    }
    return ok, gap, details
