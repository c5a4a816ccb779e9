"""Block-structure operators against loop-based assembly oracles."""

import numpy as np
import pytest

from blockineq import (
    BlockIndexError,
    BlockMatrix,
    BlockStack,
    ShapeError,
    block_get,
    from_blocks,
    is_ppt,
    kron,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
    realign,
)
from oracles import (
    dyadic_complex,
    partial_trace_1_loops,
    partial_trace_2_loops,
    partial_transpose_loops,
    random_complex,
    random_psd_lapack,
    realign_loops,
)

E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
E11 = np.array([[1, 0], [0, 0]], dtype=np.complex128)


def random_block(rng, m, n):
    return BlockMatrix(m, n, random_complex(rng, m * n, m * n))


# ------------------------------------------------------------- construction


def test_block_matrix_shape_checks():
    with pytest.raises(ShapeError):
        BlockMatrix(2, 3, np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        BlockMatrix(0, 2, np.zeros((0, 0)))
    b = BlockMatrix(2, 2, np.eye(4))
    assert (b.m, b.n) == (2, 2)
    assert b.mat.shape == (4, 4)


def test_from_blocks_round_trip():
    rng = np.random.default_rng(3)
    blocks = [[random_complex(rng, 2, 2) for _ in range(3)] for _ in range(3)]
    b = from_blocks(blocks)
    assert (b.m, b.n) == (3, 2)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(block_get(b, i + 1, j + 1), blocks[i][j])


# ---------------------------------------------------------------- block_get


def test_block_get_identity_off_diagonal_is_zero():
    rng = np.random.default_rng(5)
    y = random_complex(rng, 3, 3)
    b = BlockMatrix(2, 3, kron(np.eye(2), y))
    assert np.array_equal(block_get(b, 1, 2), np.zeros((3, 3)))


def test_block_get_unit_kron_identity():
    b = BlockMatrix(2, 2, kron(E12, np.eye(2)))
    assert np.array_equal(block_get(b, 1, 2), np.eye(2))


def test_block_get_kron_blocks_are_scaled_copies():
    rng = np.random.default_rng(7)
    # dyadic entries keep x[i,j] * y exact in doubles
    x = (rng.integers(-8, 9, size=(3, 3)) + 1j * rng.integers(-8, 9, size=(3, 3))) / 4.0
    y = (rng.integers(-8, 9, size=(2, 2)) + 1j * rng.integers(-8, 9, size=(2, 2))) / 4.0
    b = BlockMatrix(3, 2, kron(x, y))
    for i in range(1, 4):
        for j in range(1, 4):
            assert np.array_equal(block_get(b, i, j), x[i - 1, j - 1] * y)


def test_block_get_rejects_out_of_range():
    b = BlockMatrix(2, 2, np.eye(4))
    for i, j in [(0, 1), (1, 0), (3, 1), (1, 3)]:
        with pytest.raises(BlockIndexError):
            block_get(b, i, j)


# --------------------------------------------------------- partial transpose


def test_partial_transpose_moves_single_block():
    rng = np.random.default_rng(11)
    b_inner = random_complex(rng, 3, 3)
    a = BlockMatrix(2, 3, kron(E12, b_inner))
    out = partial_transpose(a)
    assert np.array_equal(out.mat, kron(E21, b_inner))


def test_partial_transpose_involution():
    rng = np.random.default_rng(13)
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        a = random_block(rng, m, n)
        assert np.array_equal(partial_transpose(partial_transpose(a)).mat, a.mat)


def test_partial_transpose_on_kron_transposes_first_factor():
    rng = np.random.default_rng(17)
    x = random_complex(rng, 3, 3)
    y = random_complex(rng, 2, 2)
    a = BlockMatrix(3, 2, kron(x, y))
    assert np.array_equal(partial_transpose(a).mat, kron(x.T, y))


def test_partial_transpose_against_loop_oracle():
    rng = np.random.default_rng(19)
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        a = random_block(rng, m, n)
        out = partial_transpose(a)
        assert (out.m, out.n) == (m, n)
        assert np.array_equal(out.mat, partial_transpose_loops(a.mat, m, n))


# ------------------------------------------------------------ partial traces


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_partial_trace_1_identity(m, n):
    a = BlockMatrix(m, n, np.eye(m * n))
    assert np.array_equal(partial_trace_1(a), m * np.eye(n))


def test_partial_trace_1_single_diagonal_block():
    rng = np.random.default_rng(23)
    b_inner = random_complex(rng, 2, 2)
    a = BlockMatrix(2, 2, kron(E11, b_inner))
    assert np.array_equal(partial_trace_1(a), b_inner)


def test_partial_trace_1_of_kron():
    rng = np.random.default_rng(29)
    x = random_complex(rng, 3, 3)
    y = random_complex(rng, 2, 2)
    a = BlockMatrix(3, 2, kron(x, y))
    expected = np.trace(x) * y
    assert np.allclose(partial_trace_1(a), expected, atol=1e-12 * max(1, abs(np.trace(x))))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_partial_trace_2_identity(m, n):
    a = BlockMatrix(m, n, np.eye(m * n))
    assert np.array_equal(partial_trace_2(a), n * np.eye(m))


def test_partial_trace_2_of_kron():
    rng = np.random.default_rng(31)
    x = random_complex(rng, 2, 2)
    y = random_complex(rng, 3, 3)
    a = BlockMatrix(2, 3, kron(x, y))
    expected = np.trace(y) * x
    assert np.allclose(partial_trace_2(a), expected, atol=1e-12 * max(1, abs(np.trace(y))))


def test_partial_traces_against_loop_oracles():
    rng = np.random.default_rng(37)
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        a = random_block(rng, m, n)
        assert np.array_equal(partial_trace_1(a), partial_trace_1_loops(a.mat, m, n))
        assert np.array_equal(partial_trace_2(a), partial_trace_2_loops(a.mat, m, n))


def test_partial_traces_share_the_full_trace():
    rng = np.random.default_rng(41)
    for m, n in [(2, 3), (3, 3)]:
        a = random_block(rng, m, n)
        full = np.trace(a.mat)
        scale = max(1.0, abs(full))
        assert abs(np.trace(partial_trace_1(a)) - full) <= 1e-12 * scale
        assert abs(np.trace(partial_trace_2(a)) - full) <= 1e-12 * scale


# ------------------------------------------------------------------ realign


def test_realign_swaps_kron_factors():
    rng = np.random.default_rng(43)
    # dyadic entries: kron(x, y) and kron(y, x) involve the same exact
    # products, making the factor-swap identity bitwise
    x = dyadic_complex(rng, 2, 2)
    y = dyadic_complex(rng, 3, 3)
    a = BlockMatrix(2, 3, kron(x, y))
    out = realign(a)
    assert (out.m, out.n) == (3, 2)
    assert np.array_equal(out.mat, kron(y, x))


def test_realign_swaps_kron_factors_float_tolerance():
    rng = np.random.default_rng(44)
    x = random_complex(rng, 2, 2)
    y = random_complex(rng, 3, 3)
    out = realign(BlockMatrix(2, 3, kron(x, y)))
    assert np.allclose(out.mat, kron(y, x), atol=1e-12)


def test_realign_involution():
    rng = np.random.default_rng(47)
    for m, n in [(2, 3), (3, 2), (3, 3)]:
        a = random_block(rng, m, n)
        back = realign(realign(a))
        assert (back.m, back.n) == (m, n)
        assert np.array_equal(back.mat, a.mat)


def test_realign_against_loop_oracle():
    rng = np.random.default_rng(53)
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        a = random_block(rng, m, n)
        assert np.array_equal(realign(a).mat, realign_loops(a.mat, m, n))


def test_realign_partial_trace_identity():
    rng = np.random.default_rng(59)
    for m, n in [(2, 3), (3, 2), (3, 3)]:
        a = random_block(rng, m, n)
        assert np.array_equal(partial_trace_2(realign(a)), partial_trace_1(a))


def test_realign_preserves_frobenius_norm():
    rng = np.random.default_rng(61)
    a = random_block(rng, 3, 2)
    assert np.linalg.norm(realign(a).mat) == np.linalg.norm(a.mat)


def test_realign_commutes_with_partial_transpose_on_symmetric_input():
    # The commutation is an identity exactly on globally symmetric matrices
    # (A equal to its plain transpose); on generic complex input the two
    # orders differ by a global transpose, checked below.
    rng = np.random.default_rng(67)
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        g = random_complex(rng, m * n, m * n)
        a = BlockMatrix(m, n, g + g.T)  # complex symmetric
        lhs = realign(partial_transpose(a))
        rhs = partial_transpose(realign(a))
        assert np.array_equal(lhs.mat, rhs.mat)


def test_realign_partial_transpose_general_relation():
    rng = np.random.default_rng(71)
    a = random_block(rng, 2, 3)
    lhs = realign(partial_transpose(a))
    rhs = partial_transpose(realign(a))
    assert np.array_equal(lhs.mat, rhs.mat.T)


# ------------------------------------------------------------------- is_ppt


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_is_ppt_identity(m, n):
    ok, min_a, min_t = is_ppt(BlockMatrix(m, n, np.eye(m * n)))
    assert ok
    assert min_a == pytest.approx(1.0, abs=1e-12)
    assert min_t == pytest.approx(1.0, abs=1e-12)


def test_is_ppt_kron_of_psd_factors():
    rng = np.random.default_rng(73)
    for _ in range(10):
        p = random_psd_lapack(rng, 2)
        q = random_psd_lapack(rng, 3)
        ok, _, _ = is_ppt(BlockMatrix(2, 3, kron(p, q)))
        assert ok


def test_is_ppt_rejects_entangled_projector_pattern():
    # blocks diag(1,0), E12 / E21, diag(0,1): ones at the four outer corners
    mat = np.zeros((4, 4), dtype=np.complex128)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        mat[i, j] = 1.0
    ok, min_a, min_t = is_ppt(BlockMatrix(2, 2, mat))
    assert not ok
    assert min_a >= -1e-12  # the matrix itself is PSD (rank-1 projector, x2)
    assert min_t == pytest.approx(-1.0, abs=1e-10)  # partial transpose is not


# -------------------------------------------------------------- BlockStack


def test_block_stack_shape_checks_and_members():
    rng = np.random.default_rng(79)
    mats = np.stack([random_complex(rng, 6, 6) for _ in range(3)])
    stack = BlockStack(2, 3, mats)
    assert len(stack) == 3
    assert isinstance(stack[1], BlockMatrix)
    assert np.array_equal(stack[1].mat, mats[1])
    with pytest.raises(ShapeError):
        BlockStack(3, 2, mats[0])  # one matrix, not a stack
    with pytest.raises(ShapeError):
        BlockStack(3, 3, mats)
    with pytest.raises(ShapeError):
        BlockStack(0, 3, mats)
    bad = mats.copy()
    bad[2, 0, 0] = np.nan
    with pytest.raises(ValueError):
        BlockStack(2, 3, bad)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (1, 4)])
def test_block_operators_act_on_each_member_of_a_stack(m, n):
    rng = np.random.default_rng(83 + m)
    members = [random_block(rng, m, n) for _ in range(4)]
    stack = BlockStack(m, n, np.stack([a.mat for a in members]))
    swapped = partial_transpose(stack)
    assert isinstance(swapped, BlockStack)
    for k, a in enumerate(members):
        assert np.array_equal(swapped.mat[k], partial_transpose(a).mat)
        assert np.array_equal(partial_trace_1(stack)[k], partial_trace_1(a))
        assert np.array_equal(partial_trace_2(stack)[k], partial_trace_2(a))


def test_is_ppt_of_a_stack_is_per_member():
    rng = np.random.default_rng(89)
    pattern = np.zeros((4, 4), dtype=np.complex128)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        pattern[i, j] = 1.0
    members = [
        kron(random_psd_lapack(rng, 2), random_psd_lapack(rng, 2)),
        pattern,
        np.eye(4, dtype=np.complex128),
    ]
    ok, min_a, min_t = is_ppt(BlockStack(2, 2, np.stack(members)))
    assert ok.tolist() == [True, False, True]
    for k, mat in enumerate(members):
        want = is_ppt(BlockMatrix(2, 2, mat))
        assert (bool(ok[k]), min_a[k], min_t[k]) == pytest.approx(want, abs=1e-13)


def test_is_ppt_of_one_matrix_is_that_of_a_stack_member():
    # one BlockMatrix is a stack of one: its verdict and minima are bitwise
    # those it has as a member of any stack
    rng = np.random.default_rng(97)
    members = [kron(random_psd_lapack(rng, 2), random_psd_lapack(rng, 3)) for _ in range(20)]
    ok, min_a, min_t = is_ppt(BlockStack(2, 3, np.stack(members)))
    for k, mat in enumerate(members):
        got = is_ppt(BlockMatrix(2, 3, mat))
        assert got == (bool(ok[k]), min_a[k], min_t[k])
        assert [type(v) for v in got] == [bool, float, float]
