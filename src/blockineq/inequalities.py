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
over the stack axis; a single matrix is a stack of one. The seeded suites
check each shape's trials as one stack.

The submatrix checkers take one ``(alpha, beta)`` pair of :class:`IndexSet`
and return one report, or a :class:`PairBatch` and return
:class:`PairReports`, one column entry per pair. Each inequality is written
once, over the pairs of each cardinality; a single pair is a batch of one.
The exhaustive suites check all pairs of a matrix as one batch.

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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .blockops import (
    BlockMatrix,
    BlockStack,
    is_ppt,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
)
from .densemat import (
    DEFAULT_TOL,
    as_matrix,
    determinant,
    hermitian_eigenvalues_stack,
    is_psd,
    kron,
    psd_scale,
    psd_verdict,
    require_square,
)
from .errors import (
    ConvergenceError,
    HermiticityError,
    NormOverflowError,
    PreconditionError,
    ShapeError,
    UsageError,
)


@dataclass(frozen=True)
class IndexSet:
    """A sorted, duplicate-free subset of ``{1, ..., universe}`` (1-based)."""

    universe: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.universe < 1:
            raise UsageError(f"universe must be positive, got {self.universe}")
        members = tuple(int(i) for i in self.members)
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
        return cls(universe, tuple(sorted(set(int(i) for i in members))))

    @classmethod
    def full(cls, universe: int) -> "IndexSet":
        return cls(universe, tuple(range(1, universe + 1)))

    def union(self, other: "IndexSet") -> "IndexSet":
        self._require_same_universe(other)
        return IndexSet.of(self.universe, set(self.members) | set(other.members))

    def intersection(self, other: "IndexSet") -> "IndexSet":
        self._require_same_universe(other)
        return IndexSet.of(self.universe, set(self.members) & set(other.members))

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


def _require_psd(mat: np.ndarray, tol: float) -> float:
    ok, min_eig = is_psd(mat, tol)
    if not ok:
        raise PreconditionError(
            f"input is not PSD within tol {tol:g}: min eigenvalue {min_eig:.6e}",
            min_eig=min_eig,
        )
    return min_eig


def _verdict(gap: np.ndarray, terms, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each gap's scale ``max(1, |term|, ...)`` and whether ``gap >= -tol * scale``."""
    scale = np.ones_like(gap)
    for term in terms:
        scale = np.maximum(scale, np.abs(term))
    return scale, gap >= -tol * scale


# ---------------------------------------------------------------------------
# Block-matrix inequalities, written once over a BlockStack. Each term
# function returns (sides, gaps): a side (label, lhs, rhs) claims lhs >= rhs
# in operator order for every member, a gap (label, lhs, rhs) claims
# lhs <= rhs for the members' scalars. Labels name the report details.
# ---------------------------------------------------------------------------


def _eye(k: int) -> np.ndarray:
    return np.eye(k, dtype=np.complex128)


def _reduction_lhs(a: BlockStack) -> np.ndarray:
    """``I_m (x) tr1 A + (tr2 A) (x) I_n`` for every member."""
    return kron(_eye(a.m), partial_trace_1(a)) + kron(partial_trace_2(a), _eye(a.n))


def _copositive_terms(a):
    at = partial_transpose(a)
    return (
        ("tr2_side", kron(partial_trace_2(at), _eye(a.n)), at.mat),
        ("tr1_side", kron(_eye(a.m), partial_trace_1(at)), at.mat),
    ), ()


def _ppt_reduction_terms(a):
    return (
        ("tr1_side", kron(_eye(a.m), partial_trace_1(a)), a.mat),
        ("tr2_side", kron(partial_trace_2(a), _eye(a.n)), a.mat),
    ), ()


def _combined_terms(a):
    at = partial_transpose(a)
    return (
        ("plain", _reduction_lhs(a), 2.0 * a.mat),
        ("tau", _reduction_lhs(at), 2.0 * at.mat),
    ), ()


def _upper_bound_terms(a):
    tr = np.trace(a.mat, axis1=1, axis2=2).real
    big = a.mat + tr[:, np.newaxis, np.newaxis] * _eye(a.m * a.n)
    return (("upper", big, _reduction_lhs(a)),), ()


def _phi_lower_terms(a):
    at = partial_transpose(a)
    return (
        ("tr2_side", kron(partial_trace_2(at), _eye(a.n)), -at.mat),
        ("tr1_side", kron(_eye(a.m), partial_trace_1(at)), -at.mat),
    ), ()


def _block2_terms(a):
    n = a.n
    blk_a = a.mat[:, :n, :n]
    blk_b = a.mat[:, :n, n:]
    blk_c = a.mat[:, n:, n:]
    blk_bs = np.conj(np.swapaxes(blk_b, 1, 2))
    tr_a = np.trace(blk_a, axis1=1, axis2=2).real
    tr_c = np.trace(blk_c, axis1=1, axis2=2).real
    tr_b = np.trace(blk_b, axis1=1, axis2=2)
    ac = blk_a @ blk_c
    bsb = blk_bs @ blk_b

    def scaled(v, blk):
        return v[:, np.newaxis, np.newaxis] * blk

    pos = np.block(
        [
            [scaled(tr_c, blk_a), scaled(np.conj(tr_b), blk_b)],
            [scaled(tr_b, blk_bs), scaled(tr_a, blk_c)],
        ]
    )
    neg = np.block([[blk_b @ blk_bs, ac], [blk_c @ blk_a, bsb]])
    tr_ac = np.trace(ac, axis1=1, axis2=2).real
    tr_bsb = np.trace(bsb, axis1=1, axis2=2).real
    abs_tr_b_sq = np.abs(tr_b) ** 2
    return (("g", pos, neg),), (
        ("eq8", tr_ac + tr_bsb, tr_a * tr_c + abs_tr_b_sq),
        ("eq9", tr_bsb - tr_ac, tr_a * tr_c - abs_tr_b_sq),
    )


# check_name -> (hypothesis, terms)
_BLOCK_INEQUALITIES = {
    "copositive_partial_trace": ("psd", _copositive_terms),
    "ppt_reduction": ("ppt", _ppt_reduction_terms),
    "combined_reduction": ("ppt", _combined_terms),
    "upper_bound": ("psd", _upper_bound_terms),
    "phi_lower": ("psd", _phi_lower_terms),
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


def _hypothesis_minima(a, hypothesis: str, tol: float):
    """``(ok, minima)`` of ``a``'s hypothesis test.

    ``minima`` holds the members' minimum eigenvalues, then those of their
    partial transposes for a PPT test. A stack is tested by :func:`is_psd`
    or :func:`is_ppt`; one matrix by :func:`_min_eig`, the input first.
    """
    if isinstance(a, BlockStack):
        ok, *minima = is_ppt(a, tol) if hypothesis == "ppt" else is_psd(a.mat, tol)
        return ok, minima
    tested = {"input": a.mat}
    if hypothesis == "ppt":
        tested["input_tau"] = partial_transpose(a).mat
    oks, minima = zip(*(_min_eig(a, key, mat[np.newaxis], tol) for key, mat in tested.items()))
    return np.logical_and.reduce(oks), list(minima)


def _min_eig(a: BlockMatrix, key, mat: np.ndarray, tol: float):
    """``(ok, min_eig)`` of a one-member stack ``mat`` that belongs to ``a``.

    Read from ``a.minima[key]`` if :func:`_presolve` solved it, decided by
    :func:`is_psd`'s rule; otherwise solved alone by :func:`is_psd`.
    """
    minima = a.minima if isinstance(a, _Presolved) else {}
    if key not in minima:
        return is_psd(mat, tol)
    min_eig = np.array([minima[key]])
    return psd_verdict(min_eig, psd_scale(mat), tol), min_eig


def _solve_stack(stack: BlockStack, hypothesis: str, residuals: list, tol: float):
    """``(ok, minima, side minima)`` of a check on a stack, in one solve.

    The members, their partial transposes for a PPT check, and every side's
    residuals are one :func:`~blockineq.densemat.hermitian_eigenvalues_stack`
    call; the hypothesis is decided from those minima by :func:`is_psd`'s
    rule (:func:`~blockineq.densemat.psd_verdict`). A member's rotations do
    not depend on its stack-mates, so each value is the same in a stack of
    any size, one member included.

    A solver error falls back to separate solves: the hypothesis first
    (:func:`_hypothesis_minima`), then, if every member meets it, each
    side's residuals. So a member outside the hypothesis is refused before
    a residual of another member raises, and an error names a member by its
    index in the check's own stack.
    """
    tested = [stack.mat]
    if hypothesis == "ppt":
        tested.append(partial_transpose(stack).mat)
    mats = tested + residuals
    try:
        mins = hermitian_eigenvalues_stack(np.concatenate(mats)).values[:, 0]
    except (ConvergenceError, HermiticityError, NormOverflowError):
        ok, minima = _hypothesis_minima(stack, hypothesis, tol)
        if ok.all():
            for residual in residuals:
                hermitian_eigenvalues_stack(residual)
            raise
        return ok, minima, None
    mins = np.split(mins, len(mats))
    ok = np.ones(len(stack), dtype=bool)
    for mat, min_eig in zip(tested, mins):
        ok &= psd_verdict(min_eig, psd_scale(mat), tol)
    return ok, mins[: len(tested)], mins[len(tested) :]


def _check_block(check_name: str, a, tol: float):
    """One block inequality on a BlockMatrix (a report) or a BlockStack (a list).

    On a stack, the members (with their partial transposes, for a PPT
    check) and the residuals of every side are one solve
    (:func:`_solve_stack`), and the first member outside the hypothesis
    (PSD, or PPT) raises. One matrix is tested for its hypothesis first,
    and then each residual is solved, each matrix alone; a minimum that
    :func:`_presolve` solved for the matrix is read instead (:func:`_min_eig`).
    """
    if isinstance(a, BlockMatrix):
        stack = BlockStack(a.m, a.n, a.mat[np.newaxis])
    elif isinstance(a, BlockStack):
        stack = a
    else:
        raise UsageError(f"expected a BlockMatrix or a BlockStack, got {type(a).__name__}")
    hypothesis, terms = _BLOCK_INEQUALITIES[check_name]
    if stack is a:
        sides, gaps = terms(stack)
        residuals = [_residual(lhs, rhs) for _, lhs, rhs in sides]
        ok, minima, side_mins = _solve_stack(stack, hypothesis, residuals, tol)
    else:
        ok, minima = _hypothesis_minima(a, hypothesis, tol)
    mins = dict(zip(("input_min_eig", "input_tau_min_eig"), minima))
    outside = np.flatnonzero(~ok)
    if outside.size:
        k = outside[0]
        where = "input" if stack is not a else f"stack member {k}"
        input_min = mins["input_min_eig"][k]
        if hypothesis == "ppt":
            tau_min = mins["input_tau_min_eig"][k]
            raise PreconditionError(
                f"{where} is not PPT within tol {tol:g}: min eigenvalue {input_min:.6e} "
                f"(input), {tau_min:.6e} (partial transpose)",
                min_eig=float(min(input_min, tau_min)),
            )
        raise PreconditionError(
            f"{where} is not PSD within tol {tol:g}: min eigenvalue {input_min:.6e}",
            min_eig=float(input_min),
        )
    if stack is not a:
        sides, gaps = terms(stack)
        side_mins = [
            _min_eig(a, (check_name, label), _residual(lhs, rhs), tol)[1]
            for label, lhs, rhs in sides
        ]
    count = len(stack)
    details = {}
    passed = np.ones(count, dtype=bool)
    gap_mins = []
    for (label, lhs, rhs), min_eig in zip(sides, side_mins):
        norms = np.linalg.norm(lhs, axis=(1, 2)), np.linalg.norm(rhs, axis=(1, 2))
        scale = np.maximum(1.0, np.maximum(*norms))
        passed &= min_eig >= -tol * scale
        details[f"min_eig_{label}"] = min_eig.tolist()
        details[f"scale_{label}"] = scale.tolist()
    for label, lhs, rhs in gaps:
        gap = rhs - lhs
        scale, ok = _verdict(gap, (lhs, rhs), tol)
        passed &= ok
        details[f"gap_{label}"] = gap.tolist()
        details[f"scale_{label}"] = scale.tolist()
        gap_mins.append(gap)
    if check_name == "upper_bound":
        details["base_case_m2"] = [stack.m == 2] * count
    for key, values in mins.items():
        details[key] = values.tolist()
    residual = np.min(side_mins, axis=0).tolist()
    scalar_gap = np.min(gap_mins, axis=0).tolist() if gap_mins else [None] * count
    reports = [
        CheckReport(
            check_name=check_name,
            passed=ok,
            residual_min_eig=residual[k],
            scalar_gap=scalar_gap[k],
            tolerance=tol,
            shape=(stack.m, stack.n),
            details={key: column[k] for key, column in details.items()},
        )
        for k, ok in enumerate(passed.tolist())
    ]
    return reports if stack is a else reports[0]


@dataclass(frozen=True)
class _Presolved(BlockMatrix):
    """A block matrix with the minimum eigenvalues :func:`_presolve` solved for its checkers.

    ``minima`` maps ``"input"``, ``"input_tau"`` (the partial transpose) and
    ``(check name, side label)`` (a residual) to a minimum eigenvalue.
    """

    minima: dict = field(default_factory=dict)


def _presolve(a: BlockMatrix, check_names, tol: float) -> _Presolved:
    """``a`` with the minima of what the named block checks solve for it.

    ``a`` is tested for PSD alone, as the checkers test it. Only if it is
    PSD, its partial transpose (when a check needs PPT) and every residual
    the checks build are then solved as one stack: otherwise the first
    checker refuses it, and needs no residual. The stacked solver rotates in
    another order than the scalar one, so each such value agrees with a lone
    check's to rounding, not bitwise.

    If that stack raises a solver error, only the input's minimum is kept,
    so that each checker raises what it raises alone: a PPT check refuses a
    document that is not PPT before solving a residual that another check
    would fail on. ``check_block2``'s residual is left out unless ``a`` has
    two block rows.
    """
    names = [name for name in check_names if name != "block2" or a.m == 2]
    presolved = _Presolved(a.m, a.n, a.mat)
    if not names:
        return presolved
    ok, presolved.minima["input"] = is_psd(a.mat, tol)
    if not ok:
        return presolved
    stack = BlockStack(a.m, a.n, a.mat[np.newaxis])
    mats = {}
    if any(_BLOCK_INEQUALITIES[name][0] == "ppt" for name in names):
        mats["input_tau"] = partial_transpose(stack).mat
    for name in names:
        sides, _ = _BLOCK_INEQUALITIES[name][1](stack)
        mats.update(((name, label), _residual(lhs, rhs)) for label, lhs, rhs in sides)
    try:
        solved = hermitian_eigenvalues_stack(np.concatenate(list(mats.values())))
    except (ConvergenceError, HermiticityError, NormOverflowError):
        return presolved  # each checker then solves, and refuses, alone
    presolved.minima.update(zip(mats, solved.values[:, 0].tolist()))
    return presolved


def check_copositive_partial_trace(a, tol: float = DEFAULT_TOL):
    """For PSD ``A``: ``(tr2 A^t) (x) I_n >= A^t`` and ``I_m (x) (tr1 A^t) >= A^t``.

    The partial transpose of a PSD block matrix need not be PSD, yet both
    partial-trace envelopes still dominate it; this is the operator form of
    complete copositivity of ``X -> (tr X) I + X``. The input itself must be
    PSD, but ``A^t`` is allowed to be indefinite.
    """
    return _check_block("copositive_partial_trace", a, tol)


def check_ppt_reduction(a, tol: float = DEFAULT_TOL):
    """For PPT ``A``: ``I_m (x) (tr1 A) >= A`` and ``(tr2 A) (x) I_n >= A``.

    This strengthening drops the partial transpose from both sides, but it
    needs the PPT hypothesis; a merely-PSD entangled input can violate it,
    which is what :func:`check_copositive_partial_trace` is for.
    """
    return _check_block("ppt_reduction", a, tol)


def check_combined_reduction(a, tol: float = DEFAULT_TOL):
    """For PPT ``A``: ``I_m (x) tr1 A + (tr2 A) (x) I_n >= 2 A`` and the same for ``A^t``."""
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
    operator form of complete copositivity of ``X -> (tr X) I - X``.
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

    __slots__ = ("universe", "groups")

    def __init__(self, universe: int, groups: tuple):
        self.universe = universe
        self.groups = groups

    @classmethod
    def of(cls, alpha: IndexSet, beta: IndexSet) -> "PairBatch":
        """The batch of the single pair ``(alpha, beta)``."""
        if len(alpha) != len(beta):
            raise UsageError(
                f"index sets must have equal cardinality, got {len(alpha)} and {len(beta)}"
            )
        alpha._require_same_universe(beta)
        combos = np.array([alpha.members, beta.members], dtype=np.intp).reshape(2, len(alpha))
        return cls(alpha.universe, ((combos - 1, np.array([0]), np.array([1])),))

    def __len__(self) -> int:
        return sum(len(ia) for _, ia, _ in self.groups)

    def pair(self, p: int) -> tuple[list[int], list[int]]:
        """The members of pair ``p``'s alpha and beta, 1-based."""
        for combos, ia, ib in self.groups:
            if p < len(ia):
                return (combos[ia[p]] + 1).tolist(), (combos[ib[p]] + 1).tolist()
            p -= len(ia)
        raise IndexError("pair index out of range")


@lru_cache(maxsize=32)
def exhaustive_pairs(universe: int, distinct: bool = False) -> PairBatch:
    """Every ``(alpha, beta)`` of ``{1, ..., universe}`` with ``|alpha| = |beta| >= 1``.

    Ordered by cardinality, then alpha, then beta, each lexicographically;
    ``distinct=True`` leaves out the pairs with ``alpha = beta``. Built on
    first use for each universe and shared read-only afterwards.
    """
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


def _psd_matrix(a, batch: PairBatch, tol: float) -> tuple[np.ndarray, float]:
    """The input as a matrix and its minimum eigenvalue, once for the whole batch."""
    mat = as_matrix(a)
    n = require_square(mat)
    input_min = _require_psd(mat, tol)
    if batch.universe != n:
        raise ShapeError(
            f"index-set universe {batch.universe} does not match matrix dimension {n}"
        )
    return mat, input_min


def _gather(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The ``(P, k, k)`` stack of submatrices ``mat[rows[p], cols[p]]``."""
    return mat[rows[:, :, np.newaxis], cols[:, np.newaxis, :]]


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
    returns :class:`PairReports`. Either way the input is tested for PSD
    once, and each cardinality's pairs are evaluated together: the
    ``A[alpha]`` and ``A[alpha, beta]`` blocks are gathered as stacks and
    reduced with ``einsum`` and ``trace``.
    """
    batch = _as_batch(alpha, beta)
    if any(combos.shape[1] == 0 for combos, _, _ in batch.groups):
        raise UsageError("index sets must be nonempty")
    mat, input_min = _psd_matrix(a, batch, tol)
    parts = []
    for combos, ia, ib in batch.groups:
        blocks = _gather(mat, combos, combos)
        cross = _gather(mat, combos[ia], combos[ib])
        # x and y are summed by the same einsum over operands of one layout,
        # so that at alpha = beta, where they are equal, they are bitwise equal
        cross_h = np.ascontiguousarray(np.conj(np.swapaxes(cross, 1, 2)))
        x = np.einsum("pij,pji->p", blocks[ia], blocks[ib]).real
        y = np.einsum("pij,pji->p", cross_h, cross).real
        tr = np.trace(blocks, axis1=1, axis2=2).real
        abs_tr_ab_sq = np.abs(np.trace(cross, axis1=1, axis2=2)) ** 2
        parts.append((x, y, tr[ia] * tr[ib], abs_tr_ab_sq, np.full(len(ia), combos.shape[1])))
    x, y, tr_prod, abs_tr_ab_sq, cardinality = (np.concatenate(c) for c in zip(*parts))
    r_plus = tr_prod + abs_tr_ab_sq
    r_minus = tr_prod - abs_tr_ab_sq
    gap8 = r_plus - (x + y)
    scale8, ok8 = _verdict(gap8, (x + y, r_plus), tol)
    gap9 = r_minus - np.abs(x - y)
    scale9, ok9 = _verdict(gap9, (x - y, r_minus), tol)
    details = {
        "gap_thm8": gap8,
        "scale_thm8": scale8,
        "gap_thm9": gap9,
        "scale_thm9": scale9,
        "gap_eq9_oneside": r_minus - (y - x),
        "cardinality": cardinality,
    }
    reports = PairReports(
        "trace_submatrix", batch, ok8 & ok9, np.minimum(gap8, gap9), details, tol, input_min
    )
    return reports if isinstance(alpha, PairBatch) else reports.report(0)


# Index sets are bitmasks in the determinant bound.
_MAX_DET_UNIVERSE = 64


def _principal_minors(mat: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``A[S]`` for each index set ``S`` given as a bitmask, padded to ``n x n``.

    ``A[S]`` fills the leading block and the identity the rest, so each
    padded matrix has the determinant of ``A[S]``, and the empty set's is 1.
    The padding is decoupled from ``A[S]``, so partial pivoting never picks
    a padding row; the rounding may still differ from an LU of ``A[S]``
    alone, which LAPACK blocks by the smaller size.
    """
    n = len(mat)
    member = ((masks[:, np.newaxis] >> np.arange(n, dtype=np.uint64)) & 1).astype(bool)
    size = member.sum(axis=1, keepdims=True)
    # the slot of each index: the members first, in order, then the rest
    slot = np.where(member, np.cumsum(member, axis=1), size + np.cumsum(~member, axis=1)) - 1
    sel = np.empty(member.shape, dtype=np.intp)
    np.put_along_axis(sel, slot, np.where(member, np.arange(n), n), axis=1)
    ext = np.zeros((n + 1, n + 1), dtype=np.complex128)
    ext[:n, :n] = mat
    minors = _gather(ext, sel, sel)
    minors[:, np.arange(n), np.arange(n)] += np.arange(n) >= size
    return minors


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
    returns :class:`PairReports`. Either way the input is tested for PSD
    once; the principal minors the batch needs are one stacked
    :func:`~blockineq.densemat.determinant` call, looked up by bitmask, and
    the cross minors ``A[alpha, beta]`` one call per cardinality. Universes
    are limited to 64 indices.
    """
    batch = _as_batch(alpha, beta)
    if any(np.all(combos[ia] == combos[ib], axis=1).any() for combos, ia, ib in batch.groups):
        raise UsageError("alpha and beta must differ for the determinant bound")
    n = batch.universe
    if n > _MAX_DET_UNIVERSE:
        raise UsageError(
            f"the determinant bound takes index sets of at most {_MAX_DET_UNIVERSE} indices, "
            f"got a universe of {n}"
        )
    mat, input_min = _psd_matrix(a, batch, tol)
    bit = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    parts = []
    for combos, ia, ib in batch.groups:
        masks = bit[combos].sum(axis=1, dtype=np.uint64)
        cross = determinant(_gather(mat, combos[ia], combos[ib]))
        parts.append((masks[ia], masks[ib], cross))
    ma, mb, det_ab = (np.concatenate(c) for c in zip(*parts))
    used = np.concatenate([ma, mb, ma | mb, ma & mb])
    # distinct masks by a set rather than np.unique: at these sizes it is
    # faster, and it spares the process numpy's uint64 sort (measured 0.2 MiB RSS)
    masks = np.array(sorted(set(used.tolist())), dtype=np.uint64)
    minors = determinant(_principal_minors(mat, masks)).real
    det_a, det_b, det_union, det_inter = minors[np.searchsorted(masks, used)].reshape(4, -1)
    lhs = det_union * det_inter
    det_prod = det_a * det_b
    cross_sq = np.abs(det_ab) ** 2
    gap = (det_prod - cross_sq) - lhs
    scale, ok = _verdict(gap, (lhs, det_prod, cross_sq), tol)
    only_alpha = ma & ~mb
    details = {
        "gap": gap,
        "scale": scale,
        "det_alpha": det_a,
        "det_beta": det_b,
        "abs_det_cross_sq": cross_sq,
        "det_union": det_union,
        "det_intersection": det_inter,
        "desnanot_case": (only_alpha != 0) & ((only_alpha & (only_alpha - 1)) == 0),
    }
    reports = PairReports("det_submatrix", batch, ok, gap, details, tol, input_min)
    return reports if isinstance(alpha, PairBatch) else reports.report(0)
