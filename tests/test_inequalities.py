"""Inequality checkers: documented cases, oracles, and precondition gates."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockineq import (
    BlockMatrix,
    BlockStack,
    CheckReport,
    ConvergenceError,
    HermiticityError,
    IndexSet,
    NormOverflowError,
    PairReports,
    PreconditionError,
    ShapeError,
    UsageError,
    blockwise_image,
    builtin_map,
    check_block2,
    check_combined_reduction,
    check_copositive_partial_trace,
    check_det_submatrix,
    check_phi_lower,
    check_ppt_reduction,
    check_trace_submatrix,
    check_upper_bound,
    derive_seed,
    exhaustive_pairs,
    kron,
    overlap_embedding,
    partial_trace_1,
    partial_trace_2,
    random_psd,
    random_separable,
    realign,
    submatrix,
)
from blockineq import densemat, inequalities
from blockineq.blockops import partial_transpose
from blockineq.densemat import hermitian_eigenvalues, hermitian_eigenvalues_stack
from blockineq.suites import RunReport, SuiteConfig
from blockineq.inequalities import _BLOCK_INEQUALITIES, _residual, _verdict
from oracles import (
    STACK_AGREEMENT_RTOL,
    block2_g_loops,
    det_cofactor,
    det_submatrix_scalar,
    eigvalsh_lapack,
    random_complex,
    random_psd_lapack,
    refusal_order_stack,
    submatrix_loops,
    trace_submatrix_scalar,
)


def entangled_pattern():
    """PSD rank-1 pattern whose partial transpose has eigenvalue -1."""
    mat = np.zeros((4, 4), dtype=np.complex128)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        mat[i, j] = 1.0
    return BlockMatrix(2, 2, mat)


def random_psd_block(rng, m, n):
    return BlockMatrix(m, n, random_psd_lapack(rng, m * n))


# ----------------------------------------------------------------- IndexSet


def test_index_set_validation():
    s = IndexSet(4, (1, 3))
    assert len(s) == 2
    with pytest.raises(UsageError):
        IndexSet(4, (0, 1))  # 1-based
    with pytest.raises(UsageError):
        IndexSet(4, (1, 5))  # outside universe
    with pytest.raises(UsageError):
        IndexSet(4, (2, 2))  # duplicates
    with pytest.raises(UsageError):
        IndexSet(4, (3, 1))  # unsorted
    with pytest.raises(UsageError):
        IndexSet(0, ())


def test_index_set_of_sorts_and_dedupes():
    assert IndexSet.of(5, [4, 1, 4, 2]).members == (1, 2, 4)
    assert IndexSet.full(3).members == (1, 2, 3)


def test_index_set_algebra():
    # the two sets of a pair must share a universe
    a = IndexSet(5, (1, 2, 4))
    with pytest.raises(ShapeError, match="different universes: 5 vs 4"):
        inequalities.PairBatch.of(a, IndexSet(4, (1, 2, 3)))


def test_a_lone_pair_builds_its_plans_once(monkeypatch):
    # one batch per pair, whatever IndexSet objects name it, so a lone
    # check's plans are built on its pair's first check only
    built = []

    def counted(build):
        def plan(batch):
            built.append(build.__name__)
            return build(batch)

        return plan

    monkeypatch.setattr(inequalities, "_trace_plan", counted(inequalities._trace_plan))
    monkeypatch.setattr(inequalities, "_det_plan", counted(inequalities._det_plan))
    mat = random_psd_lapack(np.random.default_rng(5), 5)
    al, be = IndexSet(5, (1, 3, 4)), IndexSet(5, (2, 4, 5))
    first = [check_trace_submatrix(mat, al, be), check_det_submatrix(mat, al, be)]
    again = [
        check_trace_submatrix(mat, IndexSet(5, (1, 3, 4)), IndexSet(5, (2, 4, 5))),
        check_det_submatrix(mat, IndexSet.of(5, [4, 3, 1]), IndexSet.of(5, [5, 2, 4])),
    ]
    assert built == ["_trace_plan", "_det_plan"]
    assert again == first
    batch = inequalities.PairBatch.of(al, be)
    assert batch is inequalities.PairBatch.of(IndexSet(5, (1, 3, 4)), IndexSet(5, (2, 4, 5)))
    assert batch.universe == 5 and batch.pair(0) == ([1, 3, 4], [2, 4, 5])
    assert not any(arr.flags.writeable for arr in batch.groups[0])
    # another pair, or the same members in another universe, is another batch
    assert inequalities.PairBatch.of(be, al).pair(0) == ([2, 4, 5], [1, 3, 4])
    other = inequalities.PairBatch.of(IndexSet(6, (1, 3, 4)), IndexSet(6, (2, 4, 5)))
    assert other is not batch and other.universe == 6


# ---------------------------------------------------------------- submatrix


def test_submatrix_full_and_empty():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 4, 4)
    full = IndexSet.full(4)
    assert np.array_equal(submatrix(a, full, full), a)
    empty = IndexSet(4, ())
    assert submatrix(a, empty, empty).shape == (0, 0)


def test_submatrix_identity_off_diagonal_selection():
    got = submatrix(np.eye(4), IndexSet(4, (1, 3)), IndexSet(4, (2, 4)))
    assert np.array_equal(got, np.zeros((2, 2)))


def test_submatrix_against_loop_oracle():
    rng = np.random.default_rng(5)
    a = random_complex(rng, 5, 5)
    for alpha, beta in [((1, 2), (4, 5)), ((2, 3, 5), (1, 2, 3)), ((4,), (4,))]:
        got = submatrix(a, IndexSet(5, alpha), IndexSet(5, beta))
        assert np.array_equal(got, submatrix_loops(a, alpha, beta))


def test_submatrix_universe_mismatch():
    with pytest.raises(ShapeError):
        submatrix(np.eye(4), IndexSet(3, (1,)), IndexSet(3, (2,)))


# -------------------------------------------- copositive partial trace bound


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_copositive_partial_trace_identity(m, n):
    rep = check_copositive_partial_trace(BlockMatrix(m, n, np.eye(m * n)))
    assert rep.passed
    # tau fixes I; the tr2 envelope leaves (n-1)I, the tr1 envelope (m-1)I
    assert rep.details["min_eig_tr2_side"] == pytest.approx(n - 1, abs=1e-12)
    assert rep.details["min_eig_tr1_side"] == pytest.approx(m - 1, abs=1e-12)
    assert rep.residual_min_eig == pytest.approx(min(m, n) - 1, abs=1e-12)


def test_copositive_partial_trace_kron_inputs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_psd_lapack(rng, 2)
        q = random_psd_lapack(rng, 3)
        rep = check_copositive_partial_trace(BlockMatrix(2, 3, kron(p, q)))
        assert rep.passed


def test_copositive_partial_trace_random_psd():
    rng = np.random.default_rng(11)
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(10):
            rep = check_copositive_partial_trace(random_psd_block(rng, m, n))
            assert rep.passed


def test_copositive_partial_trace_accepts_entangled_input():
    # the input is PSD even though its partial transpose is not
    rep = check_copositive_partial_trace(entangled_pattern())
    assert rep.passed


def test_copositive_partial_trace_rejects_non_psd():
    bad = BlockMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(PreconditionError) as exc:
        check_copositive_partial_trace(bad)
    assert exc.value.min_eig == pytest.approx(-1.0, abs=1e-10)


# ------------------------------------------------------------- PPT reduction


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_ppt_reduction_identity(m, n):
    assert check_ppt_reduction(BlockMatrix(m, n, np.eye(m * n))).passed


def test_ppt_reduction_kron_and_separable():
    rng = np.random.default_rng(13)
    p = random_psd_lapack(rng, 2)
    q = random_psd_lapack(rng, 2)
    assert check_ppt_reduction(BlockMatrix(2, 2, kron(p, q))).passed
    for t in range(10):
        a = random_separable(2, 3, 3, 1000 + t)
        assert check_ppt_reduction(a).passed


def test_ppt_reduction_rejects_entangled_input():
    with pytest.raises(PreconditionError) as exc:
        check_ppt_reduction(entangled_pattern())
    assert exc.value.min_eig == pytest.approx(-1.0, abs=1e-10)


# -------------------------------------------------------- combined reduction


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
def test_combined_reduction_identity_residual(m, n):
    rep = check_combined_reduction(BlockMatrix(m, n, np.eye(m * n)))
    assert rep.passed
    assert rep.details["min_eig_plain"] == pytest.approx(m + n - 2, abs=1e-12)
    assert rep.details["min_eig_tau"] == pytest.approx(m + n - 2, abs=1e-12)


def test_combined_equals_sum_of_reduction_residuals():
    # (I (x) tr1 A - A) + ((tr2 A) (x) I - A) = combined residual, identically
    rng = np.random.default_rng(17)
    for t in range(5):
        a = random_separable(2, 3, 2, 2000 + t)
        eye_m = np.eye(2)
        eye_n = np.eye(3)
        res1 = kron(eye_m, partial_trace_1(a)) - a.mat
        res2 = kron(partial_trace_2(a), eye_n) - a.mat
        combined = (
            kron(eye_m, partial_trace_1(a))
            + kron(partial_trace_2(a), eye_n)
            - 2.0 * a.mat
        )
        scale = max(1.0, np.linalg.norm(combined))
        assert np.allclose(res1 + res2, combined, atol=1e-13 * scale)


def test_combined_reduction_random_separable():
    rng = np.random.default_rng(19)
    for t in range(10):
        assert check_combined_reduction(random_separable(2, 2, 3, 3000 + t)).passed


def test_combined_reduction_rejects_entangled_input():
    with pytest.raises(PreconditionError):
        check_combined_reduction(entangled_pattern())


# ----------------------------------------------------------------- upper bound


@pytest.mark.parametrize("n", [2, 3, 4])
def test_upper_bound_identity_m2(n):
    rep = check_upper_bound(BlockMatrix(2, n, np.eye(2 * n)))
    assert rep.passed
    # (tr A)I + A - I (x) tr1 A - tr2 A (x) I = (2n + 1 - 2 - n) I = (n-1) I
    assert rep.residual_min_eig == pytest.approx(n - 1, abs=1e-12)
    assert rep.details["base_case_m2"] is True


def test_upper_bound_random_m2():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        for _ in range(10):
            rep = check_upper_bound(random_psd_block(rng, 2, n))
            assert rep.passed and rep.details["base_case_m2"] is True


def test_upper_bound_random_m3_flags_general_case():
    rng = np.random.default_rng(29)
    for _ in range(10):
        rep = check_upper_bound(random_psd_block(rng, 3, 3))
        assert rep.passed
        assert rep.details["base_case_m2"] is False


def test_upper_bound_rejects_non_psd():
    with pytest.raises(PreconditionError):
        check_upper_bound(BlockMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -1.0])))


# ------------------------------------------------------------------ phi lower


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_phi_lower_identity(m, n):
    assert check_phi_lower(BlockMatrix(m, n, np.eye(m * n))).passed


def test_phi_lower_accepts_entangled_input():
    # A^tau is the swap pattern with eigenvalue -1, yet I + swap >= 0
    rep = check_phi_lower(entangled_pattern())
    assert rep.passed
    assert rep.residual_min_eig == pytest.approx(0.0, abs=1e-10)


def test_phi_lower_random_psd():
    rng = np.random.default_rng(31)
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(10):
            assert check_phi_lower(random_psd_block(rng, m, n)).passed


# -------------------------------------------------------------------- block2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block2_all_identity_blocks(n):
    eye = np.eye(n, dtype=np.complex128)
    a2 = BlockMatrix(2, n, np.block([[eye, eye], [eye, eye]]))
    rep = check_block2(a2)
    assert rep.passed
    # G = (n-1) [[I, I], [I, I]]: eigenvalues 0 and 2(n-1)
    assert rep.details["min_eig_g"] == pytest.approx(0.0, abs=1e-12)
    assert rep.details["gap_eq8"] == pytest.approx(2 * n * n - 2 * n, abs=1e-12)
    assert rep.details["gap_eq9"] == pytest.approx(0.0, abs=1e-12)


def test_block2_decoupled_blocks():
    # B = 0: G has diagonal blocks (tr C)A and (tr A)C with -AC / -CA outside,
    # and stays PSD
    rng = np.random.default_rng(37)
    for _ in range(10):
        a = random_psd_lapack(rng, 2)
        c = random_psd_lapack(rng, 2)
        zero = np.zeros((2, 2))
        a2 = BlockMatrix(2, 2, np.block([[a, zero], [zero, c]]))
        rep = check_block2(a2)
        assert rep.passed


def test_block2_random_gram_inputs():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        for _ in range(10):
            rep = check_block2(random_psd_block(rng, 2, n))
            assert rep.passed


def test_block2_rejects_bad_shape_and_non_psd():
    with pytest.raises(UsageError):
        check_block2(BlockMatrix(3, 2, np.eye(6)))
    with pytest.raises(PreconditionError):
        check_block2(BlockMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -1.0])))


def test_block2_g_is_the_pair_formula():
    rng = np.random.default_rng(43)
    for n in (1, 2, 3, 4):
        mats = np.array([random_psd_lapack(rng, 2 * n) for _ in range(5)])
        ((label, pos, neg),), _ = _BLOCK_INEQUALITIES["block2"][1](BlockStack(2, n, mats))
        assert label == "g"
        for mat, lhs, rhs in zip(mats, pos, neg):
            scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
            assert np.linalg.norm((lhs - rhs) - block2_g_loops(mat, n)) <= 1e-13 * scale


# ------------------------------------------------- the table as the paper's maps


def _psi_image(x: BlockMatrix) -> np.ndarray:
    """``[Psi(X_ij)]``, Psi applied to each block of ``x``."""
    return blockwise_image(builtin_map("psi", x.n), x).mat


def _other_order(x: BlockMatrix, name: str = "psi") -> np.ndarray:
    """The same in the other tensor order: ``realign([name(realign(X)_ij)])``."""
    return realign(blockwise_image(builtin_map(name, x.m), realign(x))).mat


def _map_images(name: str, a: BlockMatrix) -> dict:
    """Each side's residual of the named check on ``a``, as Phi or Psi applied blockwise."""
    at = partial_transpose(a)
    if name in ("copositive_partial_trace", "phi_lower"):
        which = "psi" if name == "copositive_partial_trace" else "phi"
        return {
            "tr2_side": blockwise_image(builtin_map(which, a.n), a, swap=True).mat,
            "tr1_side": _other_order(at, which),
        }
    if name == "ppt_reduction":
        return {"tr1_side": _other_order(a), "tr2_side": _psi_image(a)}
    assert name == "combined_reduction"
    return {
        "plain": _other_order(a) + _psi_image(a),
        "tau": _other_order(at) + _psi_image(at),
    }


@pytest.mark.parametrize(
    "name", ["copositive_partial_trace", "phi_lower", "ppt_reduction", "combined_reduction"]
)
@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_partial_trace_sides_are_phi_or_psi_applied_blockwise(name, m, n):
    stack = random_separable(m, n, 3, [derive_seed(61, m, n, t) for t in range(6)])
    sides, gaps = _BLOCK_INEQUALITIES[name][1](stack)
    assert gaps == ()
    for k in range(len(stack)):
        want = _map_images(name, stack[k])
        assert [label for label, _, _ in sides] == list(want)
        for label, lhs, rhs in sides:
            got = _residual(lhs, rhs)[k]
            scale = np.linalg.norm(want[label])
            assert np.linalg.norm(got - want[label]) <= 1e-13 * scale, label


def test_residual_is_exactly_hermitian_and_keeps_hermitian_values():
    rng = np.random.default_rng(47)
    herm = random_psd_lapack(rng, 4) - random_psd_lapack(rng, 4)
    herm = (herm + herm.conj().T) / 2
    # a residual that is already exactly Hermitian keeps its bytes
    zero = np.zeros_like(herm)
    assert np.array_equal(_residual(herm, zero), herm)
    lhs = np.stack([random_complex(rng, 4, 4) for _ in range(3)])
    rhs = np.stack([random_complex(rng, 4, 4) for _ in range(3)])
    r = _residual(lhs, rhs)
    # each member of a stack is made Hermitian on its own, to the last bit
    assert np.array_equal(r, np.conj(np.swapaxes(r, -1, -2)))
    diff = lhs - rhs
    for k in range(3):
        assert np.allclose(r[k], (diff[k] + diff[k].conj().T) / 2, rtol=0, atol=1e-15)


# --------------------------------------------------------- overlap embedding


def test_overlap_embedding_equal_sets_doubles():
    rng = np.random.default_rng(43)
    a = random_psd_lapack(rng, 3)
    full = IndexSet.full(3)
    emb = overlap_embedding(a, full, full)
    assert np.array_equal(emb, np.block([[a, a], [a, a]]))
    assert eigvalsh_lapack(emb)[0] >= -1e-10 * max(1.0, np.linalg.norm(emb))


def test_overlap_embedding_disjoint_is_permuted_principal():
    rng = np.random.default_rng(47)
    a = random_psd_lapack(rng, 4)
    emb = overlap_embedding(a, IndexSet(4, (1, 2)), IndexSet(4, (3, 4)))
    assert np.array_equal(emb, a)  # this particular split reproduces A itself
    assert eigvalsh_lapack(emb)[0] >= -1e-10 * max(1.0, np.linalg.norm(emb))


def test_overlap_embedding_matches_selection_congruence():
    rng = np.random.default_rng(53)
    a = random_psd_lapack(rng, 3)
    alpha = IndexSet(3, (1, 2))
    beta = IndexSet(3, (2, 3))
    emb = overlap_embedding(a, alpha, beta)
    # selection matrix with rows e1, e2, e2, e3
    s = np.zeros((4, 3), dtype=np.complex128)
    for row, idx in enumerate([1, 2, 2, 3]):
        s[row, idx - 1] = 1.0
    assert np.array_equal(emb, s @ a @ s.conj().T)
    assert eigvalsh_lapack(emb)[0] >= -1e-10 * max(1.0, np.linalg.norm(emb))


def test_overlap_embedding_cardinality_mismatch():
    with pytest.raises(UsageError):
        overlap_embedding(np.eye(3), IndexSet(3, (1,)), IndexSet(3, (2, 3)))


# ------------------------------------------------------------ trace submatrix


def test_trace_submatrix_equal_sets_cauchy_schwarz():
    rng = np.random.default_rng(59)
    a = random_psd_lapack(rng, 4)
    alpha = IndexSet(4, (1, 3))
    rep = check_trace_submatrix(a, alpha, alpha)
    assert rep.passed
    x = submatrix(a, alpha, alpha)
    want8 = 2.0 * float(np.trace(x).real) ** 2 - 2.0 * float(np.trace(x @ x).real)
    assert rep.details["gap_thm8"] == pytest.approx(want8, rel=1e-12, abs=1e-12)
    # the two-sided bound holds with equality when alpha = beta
    assert rep.details["gap_thm9"] == pytest.approx(0.0, abs=1e-10)


def test_trace_submatrix_identity_disjoint_sets():
    rep = check_trace_submatrix(np.eye(4), IndexSet(4, (1, 2)), IndexSet(4, (3, 4)))
    assert rep.passed
    # x = tr(I I) = 2, y = 0, R+ = 4, R- = 4: gaps are k^2 - k and k^2 - k
    assert rep.details["gap_thm8"] == pytest.approx(2.0, abs=1e-12)
    assert rep.details["gap_thm9"] == pytest.approx(2.0, abs=1e-12)


def test_trace_submatrix_exhaustive_small():
    rng = np.random.default_rng(61)
    a = random_psd_lapack(rng, 4)
    sets = [
        IndexSet(4, m)
        for size in (1, 2, 3, 4)
        for m in _combos(4, size)
    ]
    for alpha in sets:
        for beta in sets:
            if len(alpha) != len(beta):
                continue
            rep = check_trace_submatrix(a, alpha, beta)
            assert rep.passed, (alpha.members, beta.members, rep.details)


def _combos(universe, size):
    from itertools import combinations

    return [tuple(c) for c in combinations(range(1, universe + 1), size)]


def test_trace_submatrix_usage_errors():
    with pytest.raises(UsageError):
        check_trace_submatrix(np.eye(3), IndexSet(3, (1,)), IndexSet(3, (2, 3)))
    with pytest.raises(UsageError):
        check_trace_submatrix(np.eye(3), IndexSet(3, ()), IndexSet(3, ()))
    with pytest.raises(PreconditionError):
        check_trace_submatrix(np.diag([1.0, -1.0]), IndexSet(2, (1,)), IndexSet(2, (2,)))


# ----------------------------------------------- block2 route vs direct gaps


def test_trace_gaps_agree_with_two_block_route():
    # the embedded [[A[a], A[a,b]], [A[a,b]*, A[b]]] fed to the two-block
    # checker must reproduce the direct thm8 gap and the one-sided eq9 gap
    rng = np.random.default_rng(67)
    for n in (3, 4):
        a = random_psd_lapack(rng, n)
        for alpha_m in _combos(n, 2):
            for beta_m in _combos(n, 2):
                alpha = IndexSet(n, alpha_m)
                beta = IndexSet(n, beta_m)
                direct = check_trace_submatrix(a, alpha, beta)
                emb = overlap_embedding(a, alpha, beta)
                route = check_block2(BlockMatrix(2, 2, emb))
                assert route.passed
                scale8 = max(1.0, abs(direct.details["gap_thm8"]))
                assert (
                    abs(route.details["gap_eq8"] - direct.details["gap_thm8"])
                    <= 1e-12 * scale8
                )
                one_sided = direct.details["gap_eq9_oneside"]
                scale9 = max(1.0, abs(one_sided))
                assert abs(route.details["gap_eq9"] - one_sided) <= 1e-12 * scale9


# -------------------------------------------------------------- det submatrix


def test_det_submatrix_hand_example_2x2():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    rep = check_det_submatrix(a, IndexSet(2, (1,)), IndexSet(2, (2,)))
    assert rep.passed
    # det A[union] * det A[inter] = 3 * 1, det products 2*2 - 1 = 3: gap 0
    assert rep.details["det_union"] == pytest.approx(3.0, abs=1e-12)
    assert rep.details["det_intersection"] == pytest.approx(1.0, abs=0)
    assert rep.scalar_gap == pytest.approx(0.0, abs=1e-12)
    assert rep.details["desnanot_case"] is True


def test_det_submatrix_hand_example_3x3_desnanot():
    a = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    rep = check_det_submatrix(a, IndexSet(3, (1, 2)), IndexSet(3, (2, 3)))
    assert rep.passed
    # LHS = det A * A[{2}] = 4 * 2 = 8; RHS = 3 * 3 - 1 = 8: equality
    assert rep.details["det_union"] == pytest.approx(4.0, abs=1e-12)
    assert rep.details["det_intersection"] == pytest.approx(2.0, abs=1e-12)
    assert rep.details["det_alpha"] == pytest.approx(3.0, abs=1e-12)
    assert rep.details["det_beta"] == pytest.approx(3.0, abs=1e-12)
    assert rep.details["abs_det_cross_sq"] == pytest.approx(1.0, abs=1e-12)
    assert rep.scalar_gap == pytest.approx(0.0, abs=1e-12)
    assert rep.details["desnanot_case"] is True


def test_det_submatrix_disjoint_uses_empty_intersection():
    rng = np.random.default_rng(71)
    a = random_psd_lapack(rng, 4)
    rep = check_det_submatrix(a, IndexSet(4, (1, 2)), IndexSet(4, (3, 4)))
    assert rep.passed
    assert rep.details["det_intersection"] == 1.0
    assert rep.details["desnanot_case"] is False


def test_det_submatrix_exhaustive_small_with_oracle():
    rng = np.random.default_rng(73)
    a = random_psd_lapack(rng, 4)
    for size in (1, 2, 3):
        for alpha_m in _combos(4, size):
            for beta_m in _combos(4, size):
                if alpha_m == beta_m:
                    continue
                alpha = IndexSet(4, alpha_m)
                beta = IndexSet(4, beta_m)
                rep = check_det_submatrix(a, alpha, beta)
                assert rep.passed, (alpha_m, beta_m, rep.details)
                # cross determinant against the cofactor oracle
                want = det_cofactor(submatrix_loops(a, alpha_m, beta_m))
                assert rep.details["abs_det_cross_sq"] == pytest.approx(
                    abs(want) ** 2, rel=1e-9, abs=1e-12
                )


def test_det_submatrix_usage_gates():
    a = np.eye(3)
    with pytest.raises(UsageError):
        check_det_submatrix(a, IndexSet(3, (1, 2)), IndexSet(3, (1, 2)))
    with pytest.raises(UsageError):
        check_det_submatrix(a, IndexSet(3, (1,)), IndexSet(3, (2, 3)))
    with pytest.raises(PreconditionError):
        check_det_submatrix(
            np.diag([1.0, -1.0]), IndexSet(2, (1,)), IndexSet(2, (2,))
        )


# ----------------------------------------------------------- scale covariance


def test_verdicts_stable_under_rescaling():
    rng = np.random.default_rng(79)
    a = random_psd_block(rng, 2, 2)
    m = random_psd_lapack(rng, 4)
    alpha = IndexSet(4, (1, 2))
    beta = IndexSet(4, (2, 3))
    for c in (1e-3, 1.0, 1e3):
        assert check_copositive_partial_trace(
            BlockMatrix(2, 2, c * a.mat)
        ).passed
        assert check_upper_bound(BlockMatrix(2, 2, c * a.mat)).passed
        assert check_block2(BlockMatrix(2, 2, c * a.mat)).passed
        assert check_trace_submatrix(c * m, alpha, beta).passed
        assert check_det_submatrix(c * m, alpha, beta).passed


def test_report_shape_and_fields():
    rep = check_upper_bound(BlockMatrix(2, 2, np.eye(4)))
    assert isinstance(rep, CheckReport)
    assert rep.check_name == "upper_bound"
    assert rep.shape == (2, 2)
    assert rep.tolerance == pytest.approx(1e-9)
    assert rep.scalar_gap is None
    assert rep.seed_info is None


# ------------------------------------------------------------------ stacks


@pytest.mark.parametrize(
    "checker, ppt",
    [
        (check_copositive_partial_trace, False),
        (check_ppt_reduction, True),
        (check_combined_reduction, True),
        (check_upper_bound, False),
        (check_phi_lower, False),
        (check_block2, False),
    ],
)
def test_block_checker_on_a_stack_equals_each_member(checker, ppt):
    rng = np.random.default_rng(97)
    m, n = 2, 3
    if ppt:
        members = [random_separable(m, n, terms, 100 + terms).mat for terms in (1, 2, 3)]
    else:
        members = [random_psd_lapack(rng, m * n) for _ in range(3)]
        v = random_complex(rng, m * n, 1)
        members.append(v @ v.conj().T)
    reports = checker(BlockStack(m, n, np.stack(members)), 1e-9)
    assert isinstance(reports, list) and len(reports) == len(members)
    for got, mat in zip(reports, members):
        want = checker(BlockMatrix(m, n, mat), 1e-9)
        assert (got.check_name, got.passed, got.shape) == (want.check_name, want.passed, want.shape)
        assert list(got.details) == list(want.details)
        scale = max(v for key, v in want.details.items() if key.startswith("scale_"))
        for key, value in want.details.items():
            assert got.details[key] == pytest.approx(value, abs=STACK_AGREEMENT_RTOL * scale), key
        assert got.residual_min_eig == pytest.approx(
            want.residual_min_eig, abs=STACK_AGREEMENT_RTOL * scale
        )


def test_block_checker_on_a_stack_names_the_member_outside_the_hypothesis():
    pattern = entangled_pattern().mat
    stack = BlockStack(2, 2, np.stack([np.eye(4), np.eye(4), pattern]))
    assert len(check_copositive_partial_trace(stack)) == 3  # PSD is enough
    with pytest.raises(PreconditionError, match="stack member 2 is not PPT"):
        check_ppt_reduction(stack)
    with pytest.raises(PreconditionError, match="stack member 0 is not PSD"):
        check_upper_bound(BlockStack(2, 2, -stack.mat))
    with pytest.raises(UsageError):
        check_block2(BlockStack(1, 4, stack.mat))
    with pytest.raises(UsageError):
        check_upper_bound(stack.mat)


_BLOCK_CHECKERS = {
    "copositive_partial_trace": check_copositive_partial_trace,
    "ppt_reduction": check_ppt_reduction,
    "combined_reduction": check_combined_reduction,
    "upper_bound": check_upper_bound,
    "phi_lower": check_phi_lower,
    "block2": check_block2,
}


def _ppt_stack(count: int) -> BlockStack:
    return random_separable(2, 3, 2, [700 + k for k in range(count)])


def _count_residual_solves(monkeypatch) -> list:
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return hermitian_eigenvalues_stack(x)

    monkeypatch.setattr(inequalities, "hermitian_eigenvalues_stack", counted)
    return shapes


def _tested(name: str) -> int:
    """How many matrices a check tests per member: it, and its partial transpose for PPT."""
    return 2 if _BLOCK_INEQUALITIES[name][0] == "ppt" else 1


@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_block_check_on_a_stack_solves_every_side_in_one_call(name, monkeypatch):
    # the members, their partial transposes (PPT checks) and every side's
    # residuals are one solve
    stack = _ppt_stack(25)
    sides, _ = _BLOCK_INEQUALITIES[name][1](stack)
    shapes = _count_residual_solves(monkeypatch)
    reports = _BLOCK_CHECKERS[name](stack)
    assert len(reports) == 25
    assert shapes == [((_tested(name) + len(sides)) * 25, 6, 6)]


@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_block_check_side_minima_equal_each_side_solved_alone(name):
    stack = _ppt_stack(25)
    sides, _ = _BLOCK_INEQUALITIES[name][1](stack)
    reports = _BLOCK_CHECKERS[name](stack)
    for label, lhs, rhs in sides:
        alone = hermitian_eigenvalues_stack(_residual(lhs, rhs)).values[:, 0]
        got = np.array([rep.details[f"min_eig_{label}"] for rep in reports])
        assert np.array_equal(got, alone), label


def _unitary(rng, k: int) -> np.ndarray:
    """The unitary factor of the QR decomposition of a complex Gaussian."""
    q, r = np.linalg.qr(random_complex(rng, k, k))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated(a: BlockMatrix, w: np.ndarray) -> BlockMatrix:
    return BlockMatrix(a.m, a.n, w @ a.mat @ w.conj().T)


def _assert_same_check(want: CheckReport, got: CheckReport, gaps=()) -> None:
    """Equal verdicts; residual minima (and the named gaps) equal to rounding."""
    scale = max(v for key, v in want.details.items() if key.startswith("scale_"))
    assert got.passed == want.passed
    assert got.residual_min_eig == pytest.approx(
        want.residual_min_eig, abs=STACK_AGREEMENT_RTOL * scale
    )
    for key in gaps:
        assert got.details[key] == pytest.approx(want.details[key], abs=STACK_AGREEMENT_RTOL * scale)


@settings(max_examples=30, deadline=None)
@given(
    m=st.sampled_from((2, 3)),
    n=st.sampled_from((2, 3)),
    terms=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_checks_are_invariant_under_local_unitaries(m, n, terms, seed):
    # the partial traces and the partial transpose of (U (x) V) A (U (x) V)*
    # are those of A conjugated by V, U, or conj(U) (x) V: every residual keeps
    # its spectrum
    a = random_separable(m, n, terms, seed)
    rng = np.random.default_rng(seed)
    u, v = _unitary(rng, m), _unitary(rng, n)
    b = _conjugated(a, kron(u, v))
    for name, checker in _BLOCK_CHECKERS.items():
        if name != "block2":
            _assert_same_check(checker(a), checker(b))
    # block2's G is built blockwise, so it keeps its spectrum under I (x) V only
    if m == 2:
        b = _conjugated(a, kron(np.eye(2), v))
        _assert_same_check(check_block2(a), check_block2(b), gaps=("gap_eq8", "gap_eq9"))


def test_block_check_names_a_member_that_overflows_in_a_later_side():
    # member 1 = diag(x, 0, ..., 0) with x^2 just below the float64 maximum:
    # the input and the tr1 side (norm x) solve, the tr2 side (norm sqrt(2) x)
    # overflows; in the merged stack of the inputs, their partial transposes
    # and both sides it is member 3 * 3 + 1
    big = np.zeros((6, 6), dtype=np.complex128)
    big[0, 0] = 1e154
    stack = BlockStack(2, 3, np.stack([np.eye(6), big, np.eye(6)]))
    with pytest.raises(NormOverflowError, match="^stack member 1 is too large to solve"):
        check_ppt_reduction(stack)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("checker", [check_copositive_partial_trace, check_upper_bound])
def test_block_check_side_scale_is_finite_where_the_squares_overflow(checker):
    # member 1 = diag(x, 0, 0, 0) with x^2 just below the float64 maximum:
    # every entry of its sides is finite and every residual solves, but the
    # squares of a side holding x twice overflow. Its scale is still that
    # side's norm, not inf (under which any minimum passes), and the report
    # writes as JSON.
    big = np.zeros((4, 4), dtype=np.complex128)
    big[0, 0] = 1e154
    reports = checker(BlockStack(2, 2, np.stack([np.eye(4), big, 2 * np.eye(4)])))
    assert [r.passed for r in reports] == [True, True, True]
    scales = [v for key, v in reports[1].details.items() if key.startswith("scale_")]
    assert scales and all(1e154 < v < 1e155 for v in scales)
    config = SuiteConfig(suites=("theorem2",), shapes=((2, 2),))
    doc = json.loads(RunReport(config, {"theorem2": reports}, [], 0.0).to_json())
    assert doc["suites"]["theorem2"]["passed"] is True


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from(((2, 2), (2, 3), (3, 3))),
    size=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_check_on_a_stack_reports_each_member_as_its_own_stack(shape, size, seed):
    # a member's values do not depend on its stack-mates, a lone one included:
    # every report equals that of the member checked as a one-member stack
    m, n = shape
    stack = random_separable(m, n, [1 + k % 3 for k in range(size)], [seed + k for k in range(size)])
    for name, checker in _BLOCK_CHECKERS.items():
        if name == "block2" and m != 2:
            continue
        reports = checker(stack)
        for k, got in enumerate(reports):
            (alone,) = checker(BlockStack(m, n, stack.mat[k : k + 1]))
            assert got == alone, (name, k)


@pytest.mark.parametrize("name", sorted(set(_BLOCK_CHECKERS) - {"block2"}))
def test_block_check_refuses_a_member_outside_the_hypothesis_before_an_overflow(name):
    # the merged solve of inputs and residuals overflows on member 1's
    # residual; member 2, outside the hypothesis, is still what is refused
    hypothesis = _BLOCK_INEQUALITIES[name][0].upper()
    checker = _BLOCK_CHECKERS[name]
    mats = refusal_order_stack(hypothesis)
    with pytest.raises(NormOverflowError, match="^stack member 1 is too large to solve"):
        checker(BlockStack(2, 3, mats[:2]))
    with pytest.raises(PreconditionError, match=f"^stack member 2 is not {hypothesis}"):
        checker(BlockStack(2, 3, mats))


@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_block_check_on_a_one_member_stack_agrees_with_the_scalar_path(name, monkeypatch):
    # a one-member stack solves its input and its residuals as one merged
    # stack of at least two, which the stacked solver takes; one BlockMatrix
    # solves each alone, and the stacked solver hands a stack of one to the
    # scalar solver
    one = _ppt_stack(1)
    sides, _ = _BLOCK_INEQUALITIES[name][1](one)
    shapes = _count_residual_solves(monkeypatch)
    (got,) = _BLOCK_CHECKERS[name](one)
    assert shapes == [(_tested(name) + len(sides), 6, 6)]
    want = _BLOCK_CHECKERS[name](one[0])
    assert got.passed == want.passed
    for label, _, _ in sides:
        bound = STACK_AGREEMENT_RTOL * want.details[f"scale_{label}"]
        drift = abs(got.details[f"min_eig_{label}"] - want.details[f"min_eig_{label}"])
        assert drift <= bound, label


def _count_solves(monkeypatch) -> tuple[list, list]:
    """The matrices the scalar solver solved, and the sizes of stacked solves, of one too."""
    scalar, stacked = [], []

    def solve_one(x):
        scalar.append(np.array(x))
        return hermitian_eigenvalues(x)

    def solve_stack(x):
        stacked.append(len(x))
        return hermitian_eigenvalues_stack(x)

    for module in (densemat, inequalities):
        monkeypatch.setattr(module, "hermitian_eigenvalues", solve_one)
        monkeypatch.setattr(module, "hermitian_eigenvalues_stack", solve_stack)
    return scalar, stacked


@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_block_check_on_one_matrix_makes_only_scalar_solves(name, monkeypatch):
    # one BlockMatrix solves its input, its partial transpose (PPT checks) and
    # each side's residual alone, with the scalar solver, which is the faster
    # on one matrix; each reported minimum is that solver's, bitwise
    one = _ppt_stack(1)
    a = one[0]
    sides, _ = _BLOCK_INEQUALITIES[name][1](one)
    want = {"input": a.mat}
    if _BLOCK_INEQUALITIES[name][0] == "ppt":
        want["input_tau"] = partial_transpose(a).mat
    want.update(((name, label), _residual(lhs, rhs)[0]) for label, lhs, rhs in sides)
    scalar, stacked = _count_solves(monkeypatch)
    got = _BLOCK_CHECKERS[name](a)
    assert stacked == []
    assert len(scalar) == len(want) == _tested(name) + len(sides)
    for solved, mat in zip(scalar, want.values()):
        assert np.array_equal(solved, mat)
    details = {"input": "input_min_eig", "input_tau": "input_tau_min_eig"}
    details.update(((name, label), f"min_eig_{label}") for label, _, _ in sides)
    for key, mat in want.items():
        assert got.details[details[key]] == hermitian_eigenvalues(mat).values[0], key
    # a document that carries its reports is answered from them, without a solve
    scalar.clear()
    checked = inequalities._Checked(a.m, a.n, a.mat, {name: got})
    assert _BLOCK_CHECKERS[name](checked) is got
    assert (scalar, stacked) == ([], [])


def test_block_checks_together_stop_at_the_first_that_refuses():
    # the pattern is PSD, not PPT. In table order, whatever the order asked,
    # the PSD check is decided, the first PPT check maps to the error it
    # raises alone, and no check after it is decided
    a = entangled_pattern()
    got = inequalities._check_blocks(a, list(reversed(_BLOCK_INEQUALITIES)), 1e-9)
    assert list(got) == ["copositive_partial_trace", "ppt_reduction"]
    report, error = got.values()
    want = check_copositive_partial_trace(a)
    assert report.passed and report.details["input_min_eig"] == want.details["input_min_eig"]
    assert type(error) is PreconditionError
    with pytest.raises(PreconditionError) as alone:
        check_ppt_reduction(a)
    assert str(error) == str(alone.value)
    # and a document that carries the error raises it at that check's turn
    checked = inequalities._Checked(a.m, a.n, a.mat, got)
    assert check_copositive_partial_trace(checked) is report
    with pytest.raises(PreconditionError) as raised:
        check_ppt_reduction(checked)
    assert raised.value is error


def _to_solve_alone(name: str, a: BlockMatrix) -> dict:
    """What one check solves on ``a``, keyed by the detail that reports each minimum."""
    sides, _ = _BLOCK_INEQUALITIES[name][1](BlockStack(a.m, a.n, a.mat[np.newaxis]))
    want = {"input_min_eig": a.mat}
    if _BLOCK_INEQUALITIES[name][0] == "ppt":
        want["input_tau_min_eig"] = partial_transpose(a).mat
    want.update((f"min_eig_{label}", _residual(lhs, rhs)[0]) for label, lhs, rhs in sides)
    return want


# the least block size n at which a 2 x n block matrix is swept in the kernel
_KERNEL_N = -(-densemat.ROUND_ROBIN_MIN_DIM // 2)


@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_a_lone_check_from_the_crossover_up_is_one_stacked_solve(name, monkeypatch):
    # from ROUND_ROBIN_MIN_DIM up, one BlockMatrix solves its input, its
    # partial transpose (PPT checks) and each side's residual as one stack,
    # and the kernel gives each the bits of its own solve
    a = random_separable(2, _KERNEL_N, 2, 7)
    want = _to_solve_alone(name, a)
    scalar, stacked = _count_solves(monkeypatch)
    got = _BLOCK_CHECKERS[name](a)
    assert (scalar, stacked) == ([], [len(want)])
    for detail, mat in want.items():
        alone = hermitian_eigenvalues(mat).values[0]
        assert np.float64(got.details[detail]).tobytes() == alone.tobytes(), detail


@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_a_lone_check_from_the_crossover_up_solves_each_entry_after_an_error(name, monkeypatch):
    # x = 1e154 on the diagonal: a residual's norm overflows, so the one stack
    # raises and each entry is solved alone, the hypothesis first. With -x/100
    # on the diagonal too, the input is refused before that error; without it,
    # the error is raised, naming one matrix "matrix" (block2's residual holds
    # no x and solves)
    d = 2 * _KERNEL_N
    big = [1e154] + [0.0] * (d - 1)
    outside = BlockMatrix(2, _KERNEL_N, np.diag(big[:-1] + [-1e152]).astype(np.complex128))
    scalar, stacked = _count_solves(monkeypatch)
    hypothesis = _BLOCK_INEQUALITIES[name][0].upper()
    with pytest.raises(PreconditionError, match=f"^input is not {hypothesis} within tol"):
        _BLOCK_CHECKERS[name](outside)
    assert len(stacked) == 1 and len(scalar) == 1 + (hypothesis == "PPT")
    if name == "block2":
        return
    scalar.clear()
    stacked.clear()
    with pytest.raises(NormOverflowError, match="^matrix is too large to solve"):
        _BLOCK_CHECKERS[name](BlockMatrix(2, _KERNEL_N, np.diag(big).astype(np.complex128)))
    assert len(stacked) == 1 and len(scalar) > 1 + (hypothesis == "PPT")


@pytest.mark.parametrize("tol", [math.nan, -1.0])
@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_block_check_refuses_a_bad_tol_before_any_solve(name, tol, monkeypatch):
    # the member of 1e160 entries has a norm that overflows: a solve would
    # raise NormOverflowError (exit 3) in place of the usage error (exit 2)
    def no_solve(x):
        raise AssertionError("a matrix was solved before tol was refused")

    for module in (densemat, inequalities):
        monkeypatch.setattr(module, "hermitian_eigenvalues", no_solve)
        monkeypatch.setattr(module, "hermitian_eigenvalues_stack", no_solve)
    big = np.full((4, 4), 1e160, dtype=np.complex128)
    for a in (BlockMatrix(2, 2, big), BlockStack(2, 2, np.stack([np.eye(4), big]))):
        with pytest.raises(UsageError, match="^tolerance must be finite and nonnegative"):
            _BLOCK_CHECKERS[name](a, tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_block_check_overflow_is_reported_without_a_numpy_warning(name):
    # block2's products of 1e200 entries overflow while its residual is
    # built; the solver's refusal is the only report, on a stack as alone
    big = np.full((4, 4), 1e200, dtype=np.complex128)
    alone, stack = BlockMatrix(2, 2, big), BlockStack(2, 2, np.stack([big, big]))
    for a, where in ((alone, "matrix"), (stack, "stack member 0")):
        with pytest.raises(NormOverflowError, match=f"^{where} is too large to solve"):
            _BLOCK_CHECKERS[name](a)


@pytest.mark.parametrize("name", sorted(_BLOCK_CHECKERS))
def test_block_check_names_a_stack_of_one_as_a_stack(name):
    # a solver error in a BlockStack of one names "stack member 0", as its
    # hypothesis refusal does; one BlockMatrix is "matrix"
    a = random_psd(4, 4, 3)
    a[0, 1] += 1e-3
    with pytest.raises(HermiticityError, match="^stack member 0 is not Hermitian"):
        _BLOCK_CHECKERS[name](BlockStack(2, 2, a[np.newaxis]))
    with pytest.raises(HermiticityError, match="^matrix is not Hermitian"):
        _BLOCK_CHECKERS[name](BlockMatrix(2, 2, a))


# ------------------------------------------------ batched submatrix checks

# Agreement of the batched submatrix checkers with the scalar oracle, per
# pair, relative to the size of the terms a quantity is computed from: for
# the trace bounds max(1, |x + y|, |R+|), which bounds every term for PSD
# input; for a determinant the Hadamard bound prod(a_ii) of its index set
# (at least |det| for PSD input), and for the determinant gap
# max(1, prod_alpha(a_ii) prod_beta(a_ii)). The two routes sum in other
# orders and pad the principal minors; measured differences stay below
# 2e-15 for n <= 6, and the bound leaves 50x room for that.
PAIR_AGREEMENT_RTOL = 1e-13


def _submatrix_inputs(n, seed):
    rng = np.random.default_rng(seed)
    inputs = [
        random_psd(n, n, seed),
        random_psd(n, 1, seed + 1),
        np.diag(rng.uniform(0.1, 10.0, n)),
    ]
    return inputs + [c * a for a in inputs for c in (1e-3, 1e3)]


def _hadamard(a, members):
    return float(np.prod([a[i - 1, i - 1].real for i in members]))


def _pair_term_scales(check, a, alpha, beta, want):
    """Each compared quantity's term scale (see PAIR_AGREEMENT_RTOL)."""
    if check is check_trace_submatrix:
        return dict.fromkeys(list(want) + ["scalar_gap"], want["scale_thm8"])
    h_alpha, h_beta = _hadamard(a, alpha), _hadamard(a, beta)
    both = max(1.0, h_alpha * h_beta)
    return {
        "gap": both,
        "scale": both,
        "scalar_gap": both,
        "abs_det_cross_sq": both,
        "det_alpha": h_alpha,
        "det_beta": h_beta,
        "det_union": _hadamard(a, set(alpha) | set(beta)),
        "det_intersection": _hadamard(a, set(alpha) & set(beta)),
    }


def _margins(want, tol):
    """How far each of a pair's gaps lies above its pass threshold."""
    if "gap" in want:
        return [want["gap"] + tol * want["scale"]]
    return [want["gap_thm8"] + tol * want["scale_thm8"], want["gap_thm9"] + tol * want["scale_thm9"]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "check, oracle, distinct",
    [
        (check_trace_submatrix, trace_submatrix_scalar, False),
        (check_det_submatrix, det_submatrix_scalar, True),
    ],
)
def test_batched_submatrix_checks_agree_with_the_scalar_oracle(n, check, oracle, distinct):
    tol = 1e-9
    batch = exhaustive_pairs(n, distinct)
    assert len(batch) == math.comb(2 * n, n) - 1 - (2**n - 1 if distinct else 0)
    for a in _submatrix_inputs(n, 100 + n):
        got = check(a, batch, tol=tol)
        assert isinstance(got, PairReports) and len(got) == len(batch)
        gaps, bounds = [], []
        for p in range(len(batch)):
            alpha, beta = batch.pair(p)
            passed, gap, want = oracle(a, alpha, beta, tol)
            bound = {
                key: PAIR_AGREEMENT_RTOL * s
                for key, s in _pair_term_scales(check, a, alpha, beta, want).items()
            }
            for key, value in want.items():
                if isinstance(value, float):
                    assert got.details[key][p] == pytest.approx(value, rel=0, abs=bound[key]), key
                else:
                    assert got.details[key][p] == value, key
            assert got.scalar_gap[p] == pytest.approx(gap, rel=0, abs=bound["scalar_gap"])
            # a verdict within rounding of its threshold may go either way
            if min(abs(m) for m in _margins(want, tol)) > 2 * bound["scalar_gap"]:
                assert bool(got.passed[p]) == passed, (alpha, beta, want)
            gaps.append(gap)
            bounds.append(bound["scalar_gap"])
        if not gaps:
            continue
        # the worst pair is the first minimum, as a strict-< scan finds it
        worst = int(np.argmin(got.scalar_gap))
        assert all(got.scalar_gap[q] > got.scalar_gap[worst] for q in range(worst))
        oracle_worst = int(np.argmin(gaps))
        assert got.scalar_gap[worst] == pytest.approx(
            gaps[oracle_worst], rel=0, abs=max(bounds[worst], bounds[oracle_worst])
        )


def test_exhaustive_pairs_are_in_enumeration_order():
    batch = exhaustive_pairs(3)
    want = [
        (list(al), list(be))
        for k in (1, 2, 3)
        for al in itertools.combinations((1, 2, 3), k)
        for be in itertools.combinations((1, 2, 3), k)
    ]
    assert [batch.pair(p) for p in range(len(batch))] == want
    distinct = exhaustive_pairs(3, distinct=True)
    assert [distinct.pair(p) for p in range(len(distinct))] == [w for w in want if w[0] != w[1]]
    with pytest.raises(IndexError):
        batch.pair(len(batch))


@pytest.mark.parametrize("check", [check_trace_submatrix, check_det_submatrix])
def test_one_pair_is_its_row_of_the_batch(check):
    a = random_psd(5, 3, 31)
    batch = exhaustive_pairs(5, distinct=True)
    reports = check(a, batch, tol=1e-9)
    for p in range(0, len(batch), 7):
        alpha, beta = batch.pair(p)
        one = check(a, IndexSet(5, tuple(alpha)), IndexSet(5, tuple(beta)), 1e-9)
        assert one == reports.report(p)


def test_identity_gaps_and_worst_pair_are_exact():
    # every term is an exact small integer, so both routes must agree bitwise,
    # and the first of the tied minima is the worst pair
    a = np.eye(4)
    for check, oracle, distinct in (
        (check_trace_submatrix, trace_submatrix_scalar, False),
        (check_det_submatrix, det_submatrix_scalar, True),
    ):
        batch = exhaustive_pairs(4, distinct)
        got = check(a, batch, tol=1e-9)
        gaps = [oracle(a, *batch.pair(p), 1e-9)[1] for p in range(len(batch))]
        assert got.scalar_gap.tolist() == gaps
        assert int(np.argmin(got.scalar_gap)) == gaps.index(min(gaps))


@pytest.mark.parametrize("check", [check_trace_submatrix, check_det_submatrix])
def test_batched_submatrix_checks_raise_as_one_pair_does(check):
    alpha, beta = IndexSet(3, (1,)), IndexSet(3, (2,))
    batch = exhaustive_pairs(3, distinct=True)
    not_psd = np.diag([1.0, 1.0, -1.0])
    not_hermitian = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for pairs in ((alpha, beta), (batch,)):
        with pytest.raises(PreconditionError, match="input is not PSD"):
            check(not_psd, *pairs)
        with pytest.raises(HermiticityError):
            check(not_hermitian, *pairs)
        with pytest.raises(ShapeError, match="does not match matrix dimension 4"):
            check(np.eye(4), *pairs)
    with pytest.raises(UsageError, match="pass tol by keyword"):
        check(np.eye(3), batch, 1e-9)


def test_det_batch_rejects_equal_sets_and_universes_beyond_bitmasks():
    with pytest.raises(UsageError, match="must differ"):
        check_det_submatrix(np.eye(3), exhaustive_pairs(3))
    with pytest.raises(UsageError, match="at most 64 indices"):
        check_det_submatrix(np.eye(65), IndexSet(65, (1,)), IndexSet(65, (2,)))


# the input on which the determinant bound's right side cancels: in this
# Desnanot-Jacobi pair det A[a] det A[b] and |det A[a,b]|^2 are both about
# 6.5e5 and agree exactly in exact arithmetic
DESNANOT_CANCELLATION = (random_psd, (5, 3, 16579988470110936210), (1, 4, 5), (3, 4, 5))


def test_det_gap_is_scaled_by_its_terms():
    draw, args, alpha, beta = DESNANOT_CANCELLATION
    rep = check_det_submatrix(draw(*args), IndexSet(5, alpha), IndexSet(5, beta))
    d = rep.details
    assert d["desnanot_case"] is True
    assert d["abs_det_cross_sq"] > 6e5 and d["det_alpha"] * d["det_beta"] > 6e5
    # rounding of ~1e-9 against terms of 6.5e5: well inside the tolerance
    assert abs(rep.scalar_gap) < 1e-8
    assert d["scale"] == max(1.0, abs(d["det_union"] * d["det_intersection"]),
                             d["det_alpha"] * d["det_beta"], d["abs_det_cross_sq"])
    assert rep.passed


def test_det_gap_beyond_tolerance_of_its_terms_still_fails():
    terms = 6.5e5
    scale, ok = _verdict(np.array([-1e-6 * terms, -1e-10 * terms]), (np.zeros(2), np.full(2, terms)), 1e-9)
    assert scale.tolist() == [terms, terms]
    assert ok.tolist() == [False, True]
    # a genuine violation through the checker: [[I, cI], [cI, I]] with
    # c = 1 + 2e-9 is PSD within tolerance (min eigenvalue -2e-9 against
    # scale 2.8), and its gap -8e-9 is eight times the tolerance of its terms
    c = 1.0 + 2e-9
    a = np.block([[np.eye(2), c * np.eye(2)], [c * np.eye(2), np.eye(2)]])
    rep = check_det_submatrix(a, IndexSet(4, (1, 2)), IndexSet(4, (3, 4)))
    assert rep.scalar_gap == pytest.approx(-8e-9, rel=1e-3)
    assert not rep.passed


# ------------------------------------------------- stacked submatrix checks


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_member_is_alone(got: PairReports, alone: PairReports):
    assert _same_bits(got.passed, alone.passed)
    assert _same_bits(got.scalar_gap, alone.scalar_gap)
    assert got.details.keys() == alone.details.keys()
    for key, column in alone.details.items():
        assert _same_bits(got.details[key], column), key
    assert _same_bits(got.input_min_eig, alone.input_min_eig)
    assert got.batch is alone.batch and got.tolerance == alone.tolerance


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("check, distinct", [(check_trace_submatrix, False), (check_det_submatrix, True)])
def test_a_member_checks_bitwise_the_same_in_a_stack_of_any_size(monkeypatch, n, check, distinct):
    # ranks n, ceil(n/2) and 1 in turn; each member of stacks of 1, 2, 4 and
    # 37 (the 37 placed at an offset), in one chunk, in chunks of 3 and in
    # chunks of 1, gives bitwise the report it gives checked alone
    ranks = [(n, -(-n // 2), 1)[t % 3] for t in range(40)]
    mats = random_psd(n, ranks, [derive_seed(13, "stacked", n, t) for t in range(40)])
    batch = exhaustive_pairs(n, distinct)
    alone = [check(mat, batch, tol=1e-9) for mat in mats]
    # the default budget takes the 37 members in one chunk at n <= 4
    assert inequalities._chunk_members(batch) >= 37 or n > 4
    for members in (None, 3, 1):
        if members is not None:
            monkeypatch.setattr(inequalities, "_CHUNK_BYTES", members * _member_bytes(batch))
            assert inequalities._chunk_members(batch) == members
        for lo, size in ((0, 1), (5, 2), (1, 4), (3, 37)):
            got = check(mats[lo : lo + size], batch, tol=1e-9)
            assert isinstance(got, list) and len(got) == size
            for k, reports in enumerate(got):
                _assert_member_is_alone(reports, alone[lo + k])


@pytest.mark.parametrize("check", [check_trace_submatrix, check_det_submatrix])
def test_a_stack_refuses_its_first_member_outside_before_a_later_solver_error(check):
    # member 2 is not Hermitian, so the chunk's one is_psd call raises; its
    # members are then tested one at a time, in order, and member 1, which is
    # not PSD, is refused first, as it is when each member is tested alone
    bad = np.eye(4, dtype=np.complex128)
    bad[0, 1] = 1.0
    mats = np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]), bad]).astype(np.complex128)
    with pytest.raises(HermiticityError, match="^stack member 2 "):
        densemat.is_psd(mats)
    with pytest.raises(PreconditionError, match="^stack member 1 is not PSD") as err:
        check(mats, exhaustive_pairs(4, distinct=True), tol=1e-9)
    assert err.value.min_eig == -1.0


@pytest.mark.parametrize("check", [check_trace_submatrix, check_det_submatrix])
def test_a_submatrix_check_names_a_members_solver_error_by_its_index_in_the_stack(
    check, monkeypatch
):
    # as the block checkers do: "stack member k", k counted over the whole
    # stack, also when its chunk's call is retried member by member; one
    # matrix is "matrix"
    mats = random_psd(4, 4, [1, 2, 3])
    mats[2, 0, 1] += 1e-3
    pairs = exhaustive_pairs(4, distinct=True)
    with pytest.raises(HermiticityError, match="^stack member 2 is not Hermitian"):
        check(mats, pairs)
    with pytest.raises(HermiticityError, match="^matrix is not Hermitian"):
        check(mats[2], pairs)
    # one member a chunk: member 2 fails in the third chunk
    monkeypatch.setattr(inequalities, "_CHUNK_BYTES", 1)
    assert inequalities._chunk_members(pairs) == 1
    with pytest.raises(HermiticityError, match="^stack member 2 is not Hermitian"):
        check(mats, pairs)
    # two members a chunk: member 2 is the first of the second chunk, and
    # member 3's convergence failure is named by its index too
    monkeypatch.setattr(inequalities, "_CHUNK_BYTES", 2 * 16 * 256)
    assert inequalities._chunk_members(pairs) == 2
    with pytest.raises(HermiticityError, match="^stack member 2 is not Hermitian"):
        check(mats, pairs)
    dense = np.stack([np.eye(4), np.eye(4), np.eye(4), random_psd(4, 4, 9)])
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError, match="in 0 sweeps for stack member 3 "):
        check(dense, pairs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_submatrix_term_that_overflows_names_the_member_and_its_first_pair():
    # the products of minors of a PSD matrix scaled by 1e100 overflow, and
    # (tr A[a])(tr A[b]) does at 6e153 I; each check refuses the member by
    # name, with the first such pair, and no numpy warning is shown
    small = random_psd(4, 4, 3)
    stack = np.stack([small, small * 1e100])
    distinct = exhaustive_pairs(4, distinct=True)
    with pytest.raises(NormOverflowError, match=(
        r"^stack member 1 is too large to check: a determinant term of pair "
        r"alpha=\[1, 2\], beta=\[1, 3\] overflows float64$"
    )):
        check_det_submatrix(stack, distinct, tol=1e-9)
    with pytest.raises(NormOverflowError, match="^input is too large to check: a determinant"):
        check_det_submatrix(stack[1], distinct, tol=1e-9)
    assert all(rep.passed.all() for rep in check_trace_submatrix(stack, distinct, tol=1e-9))
    with pytest.raises(NormOverflowError, match=(
        r"^input is too large to check: a trace term of pair alpha=\[1, 2, 3\], beta=\[1, 2, 3\] "
    )):
        check_trace_submatrix(np.eye(4) * 6e153, exhaustive_pairs(4), tol=1e-9)


def _member_bytes(batch) -> int:
    """The bytes of one member's largest gather: its pair blocks, or its padded principal minors."""
    n = batch.universe
    blocks = [len(ia) * combos.shape[1] ** 2 for combos, ia, _ in batch.groups]
    return 16 * max([1, min(2**n, 4 * len(batch)) * n * n] + blocks)


def test_chunk_budget_bounds_the_largest_gather_and_keeps_at_least_one_member(monkeypatch):
    # n = 5: the 100 pairs of 3 x 3 blocks at k = 3 (900 entries) outweigh
    # the 32 padded 5 x 5 principal minors (800); n = 4: the 16 padded 4 x 4
    # minors (256) outweigh the 36 pairs of 2 x 2 blocks (144)
    budget = inequalities._CHUNK_BYTES
    assert inequalities._chunk_members(exhaustive_pairs(5)) == budget // (16 * 900)
    assert inequalities._chunk_members(exhaustive_pairs(4)) == budget // (16 * 256)
    # k = 4 of n = 8: 4900 pairs of 4 x 4 blocks, beyond the budget alone
    assert inequalities._chunk_members(exhaustive_pairs(8)) == 1
    monkeypatch.setattr(inequalities, "_CHUNK_BYTES", 1)
    assert inequalities._chunk_members(exhaustive_pairs(2)) == 1


@pytest.mark.parametrize("check", [check_trace_submatrix, check_det_submatrix])
def test_a_stack_member_outside_the_hypothesis_is_refused_by_name_before_any_gather(
    monkeypatch, check
):
    def no_gather(*args):
        raise AssertionError("a pair was evaluated before the hypothesis was decided")

    mats = random_psd(3, [3, 2, 3, 1], [1, 2, 3, 4])
    mats[2] = np.diag([1.0, 1.0, -1.0])
    mats[3] = np.diag([1.0, -1.0, 1.0])
    batch = exhaustive_pairs(3, distinct=True)
    # the two evaluators make every gather of a chunk's pairs
    monkeypatch.setattr(inequalities, "_trace_columns", no_gather)
    monkeypatch.setattr(inequalities, "_det_columns", no_gather)
    with pytest.raises(PreconditionError, match="stack member 2 is not PSD within tol 1e-09") as err:
        check(mats, batch, tol=1e-9)
    assert err.value.min_eig == -1.0
    with pytest.raises(PreconditionError, match="^input is not PSD"):
        check(mats[2], batch, tol=1e-9)
    with pytest.raises(ShapeError, match="does not match matrix dimension 3"):
        check(mats[:2], exhaustive_pairs(4, distinct=True), tol=1e-9)
    with pytest.raises(ShapeError, match="stack of square matrices"):
        check(np.zeros((2, 3, 4)), batch, tol=1e-9)
    with pytest.raises(ValueError, match="finite"):
        check(np.full((2, 3, 3), np.nan), batch, tol=1e-9)


@pytest.mark.parametrize("check", [check_trace_submatrix, check_det_submatrix])
def test_a_stack_with_one_pair_gives_one_check_report_per_member(check):
    mats = random_psd(4, [4, 2], [5, 6])
    alpha, beta = IndexSet(4, (1, 2)), IndexSet(4, (2, 4))
    got = check(mats, alpha, beta, 1e-9)
    assert got == [check(mat, alpha, beta, 1e-9) for mat in mats]


@pytest.mark.parametrize(
    "check, plan, distinct",
    [
        (check_trace_submatrix, "_trace_plan", False),
        (check_det_submatrix, "_det_plan", True),
    ],
)
def test_a_batch_builds_its_plan_once_and_the_plan_holds_no_matrix_value(
    monkeypatch, check, plan, distinct
):
    # a batch whose plan was built on other matrices checks a matrix bitwise
    # as a batch of the same pairs that has no plan yet
    builds = []
    build = getattr(inequalities, plan)
    monkeypatch.setattr(inequalities, plan, lambda batch: builds.append(1) or build(batch))
    groups = exhaustive_pairs(5, distinct).groups
    used = inequalities.PairBatch(5, groups)
    mats = random_psd(5, [5, 3, 1], [21, 22, 23])
    check(mats[:2], used, tol=1e-9)
    check(mats[0], used, tol=1e-9)
    assert len(builds) == 1
    got = check(mats[2], used, tol=1e-9)
    fresh = check(mats[2], inequalities.PairBatch(5, groups), tol=1e-9)
    assert len(builds) == 2
    assert _same_bits(got.passed, fresh.passed) and _same_bits(got.scalar_gap, fresh.scalar_gap)
    for key, column in fresh.details.items():
        assert _same_bits(got.details[key], column), key
