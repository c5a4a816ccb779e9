"""Dense arithmetic and the Jacobi eigensolver against independent oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockineq import (
    ConvergenceError,
    HermiticityError,
    NormOverflowError,
    ShapeError,
    UsageError,
    as_matrix,
    densemat,
    determinant,
    hermitian_eigenvalues,
    hermitian_eigenvalues_stack,
    is_psd,
    kron,
)
from blockineq.suites import entangled_pattern
from oracles import (
    STACK_AGREEMENT_RTOL,
    det_cofactor,
    dyadic_complex,
    eig_closed_form,
    eigvalsh_lapack,
    jacobi_scalar_reference,
    jacobi_stack_reference,
    kron_loops,
    random_complex,
    random_hermitian,
    random_psd_lapack,
    round_robin_pairs,
    _rotate_reference,
)

E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
E11 = np.array([[1, 0], [0, 0]], dtype=np.complex128)


# ---------------------------------------------------------------- as_matrix


def test_as_matrix_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[complex(0, np.inf), 0], [0, 1]])


def test_as_matrix_rejects_non_2d_and_empty():
    with pytest.raises(ShapeError):
        as_matrix([1, 2, 3])
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((0, 2)))
    assert as_matrix(np.zeros((0, 0)), allow_empty=True).shape == (0, 0)


# --------------------------------------------------------------------- kron


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_matrix_units_position():
    out = kron(E12, E21)
    expected = np.zeros((4, 4), dtype=np.complex128)
    expected[1, 2] = 1.0  # row 2, column 3 (1-based)
    assert np.array_equal(out, expected)


def test_kron_against_quadruple_loop():
    # dyadic entries keep every product exact, so the index-bookkeeping
    # comparison against the quadruple loop is elementwise-exact
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = dyadic_complex(rng, 3, 2)
        y = dyadic_complex(rng, 2, 3)
        assert np.array_equal(kron(x, y), kron_loops(x, y))


# -------------------------------------------------------------- determinant


def test_determinant_empty_is_one():
    assert determinant(np.zeros((0, 0))) == 1.0


def test_determinant_2x2():
    assert determinant(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)


def test_determinant_against_cofactor_expansion():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = random_psd_lapack(rng, 5)
        lib = determinant(a)
        orc = det_cofactor(a)
        assert abs(lib - orc) <= 1e-9 * max(1.0, abs(orc))


def test_determinant_of_a_stack_is_per_member():
    rng = np.random.default_rng(23)
    for k in (1, 2, 3, 5):
        stack = np.stack([random_psd_lapack(rng, k) for _ in range(4)] + [np.zeros((k, k))])
        got = determinant(stack)
        assert got.shape == (5,) and got.dtype == np.complex128
        assert got.tolist() == [determinant(member) for member in stack]
    assert determinant(np.zeros((3, 0, 0))).tolist() == [1.0, 1.0, 1.0]
    assert determinant(np.zeros((0, 2, 2))).shape == (0,)


# ------------------------------------------------------ hermitian eigenvalues


def test_eigenvalues_2x2_closed_form():
    vals = hermitian_eigenvalues(np.array([[0.0, -1.0], [-1.0, 0.0]])).values
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)


def test_eigenvalues_diagonal_input():
    vals = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])).values
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=0)


def test_eigenvalues_sizes_0_and_1():
    res = hermitian_eigenvalues(np.zeros((0, 0)))
    assert res.values.size == 0
    res1 = hermitian_eigenvalues(np.array([[2.5 + 0j]]))
    assert np.array_equal(res1.values, [2.5])


def test_eigenvalues_against_char_poly_oracle_3x3():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = random_hermitian(rng, 3)
        lib = hermitian_eigenvalues(a).values
        orc = eig_closed_form(a)
        assert np.allclose(lib, orc, atol=1e-8 * max(1.0, np.linalg.norm(a)))


def test_eigenvalues_against_lapack_6x6():
    rng = np.random.default_rng(29)
    for _ in range(25):
        a = random_hermitian(rng, 6)
        lib = hermitian_eigenvalues(a).values
        orc = eigvalsh_lapack(a)
        assert np.allclose(lib, orc, atol=1e-10 * max(1.0, np.linalg.norm(a)))


def test_eigenvalues_sorted_sum_equals_trace():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = random_hermitian(rng, 5)
        res = hermitian_eigenvalues(a)
        assert np.all(np.diff(res.values) >= 0)
        assert res.values.size == 5
        assert abs(res.values.sum() - np.trace(a).real) <= 1e-10 * max(
            1.0, np.linalg.norm(a)
        )


def test_eigenvalues_convergence_diagnostics():
    rng = np.random.default_rng(37)
    a = random_hermitian(rng, 8)
    res = hermitian_eigenvalues(a)
    assert res.offdiag_residual <= 1e-13 * max(1.0, np.linalg.norm(a))
    assert 0 < res.sweeps < 100


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(HermiticityError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_convergence_error_carries_residual():
    # the exception type is part of the numerical-error contract
    err = ConvergenceError("no", offdiag_residual=0.5)
    assert err.offdiag_residual == 0.5


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=2,
        max_size=5,
    )
)
def test_eigenvalues_of_diagonal_are_sorted_entries(diag):
    vals = hermitian_eigenvalues(np.diag(np.array(diag, dtype=np.complex128))).values
    assert np.allclose(vals, np.sort(diag), atol=1e-12)


def _scalar_reference_input(rng, d, rank, kind, real):
    """A Gram matrix of ``rank`` (of small integers, for exact cancellations, with
    ``"integer"``); with ``"zeros"``, exact-zero rows and columns, and ``-0.0``
    in place of some zero parts; or a diagonal matrix."""
    if kind == "diagonal":
        return np.diag(rng.standard_normal(d)).astype(np.complex128)
    shape = (rank, d)
    if kind == "integer":
        g = rng.integers(-2, 3, size=shape) + (0 if real else 1j * rng.integers(-2, 3, shape))
    else:
        g = rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))
    if kind == "zeros":
        g[:, rng.integers(0, d, size=1 + d // 4)] = 0.0
    a = (g.conj().T @ g).astype(np.complex128)
    if kind == "zeros":
        flip = rng.random(a.shape) < 0.5
        a.real[flip & (a.real == 0)] = -0.0
        a.imag[flip & (a.imag == 0)] = -0.0
    return a


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, densemat.ROUND_ROBIN_MIN_DIM - 1),
    rank_frac=st.floats(0.0, 1.0),
    kind=st.sampled_from(["gram", "integer", "zeros", "diagonal", "pattern_2", "pattern_3"]),
    real=st.booleans(),
    power=st.sampled_from([-400, -20, 0, 20, 400]),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_solver_is_bitwise_the_two_pass_reference(d, rank_frac, kind, real, power, seed):
    # the one-pass rotation mirrors its column update into rows p and q; the
    # two-pass loop updates the rows after the columns
    if kind.startswith("pattern"):
        a = entangled_pattern(int(kind[-1])).mat
    else:
        rank = 1 + min(d - 1, int(rank_frac * d))
        a = _scalar_reference_input(np.random.default_rng(seed), d, rank, kind, real)
    a = a * 2.0**power
    res = hermitian_eigenvalues(a)
    values, offdiag, sweeps = jacobi_scalar_reference(a, densemat.JACOBI_RTOL, densemat.MAX_SWEEPS)
    assert res.values.tobytes() == values.tobytes()
    assert res.sweeps == sweeps
    assert res.offdiag_residual == offdiag


def test_scalar_solver_errors_keep_their_messages(monkeypatch):
    rng = np.random.default_rng(67)
    good = random_hermitian(rng, 6)
    bad = good.copy()
    bad[0, 1] += 1.0
    defect = np.linalg.norm(bad - bad.conj().T)
    scale = np.linalg.norm(bad)
    with pytest.raises(HermiticityError) as err:
        hermitian_eigenvalues(bad)
    assert str(err.value) == (
        f"matrix is not Hermitian: ||X - X*||_F = {defect:.3e} exceeds 1e-10 * {scale:.3e}"
    )
    with pytest.raises(NormOverflowError) as err:
        hermitian_eigenvalues(np.full((3, 3), 1e200, dtype=np.complex128))
    assert str(err.value) == "matrix is too large to solve: ||X||_F = inf overflows float64"
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    _, offdiag, _ = jacobi_scalar_reference(good, densemat.JACOBI_RTOL, 1)
    threshold = densemat.JACOBI_RTOL * np.linalg.norm(good)
    with pytest.raises(ConvergenceError) as err:
        hermitian_eigenvalues(good)
    assert str(err.value) == (
        f"Jacobi sweeps did not converge in 1 sweeps "
        f"(off-diagonal mass {offdiag:.3e} >= {threshold:.3e})"
    )
    assert err.value.offdiag_residual == offdiag


# ------------------------------------------------- stacked Jacobi eigensolve


def _mixed_stack(rng, d):
    """Full-rank, rank-1, diagonal (every pair skipped) and widely scaled members."""
    v = random_complex(rng, d, 1)
    return [
        random_hermitian(rng, d),
        random_psd_lapack(rng, d),
        v @ v.conj().T,
        np.diag(rng.standard_normal(d)).astype(np.complex128),
        1e-3 * random_hermitian(rng, d),
        1e3 * random_psd_lapack(rng, d),
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 9, 16])
def test_stacked_eigenvalues_match_scalar_and_lapack(d):
    rng = np.random.default_rng(43 + d)
    members = _mixed_stack(rng, d)
    res = hermitian_eigenvalues_stack(np.stack(members))
    assert res.values.shape == (len(members), d)
    for k, a in enumerate(members):
        scale = max(1.0, np.linalg.norm(a))
        bound = STACK_AGREEMENT_RTOL * scale
        assert np.max(np.abs(res.values[k] - hermitian_eigenvalues(a).values)) <= bound, k
        assert np.max(np.abs(res.values[k] - eigvalsh_lapack(a))) <= bound, k
        assert np.all(np.diff(res.values[k]) >= 0)
        assert res.offdiag_residual[k] < densemat.JACOBI_RTOL * scale
        assert 0 <= res.sweeps[k] < densemat.MAX_SWEEPS
    # a diagonal member needs no rotation and comes back exactly
    assert res.sweeps[3] == 0
    assert np.array_equal(res.values[3], np.sort(members[3].diagonal().real))


def test_stacked_eigenvalues_do_not_depend_on_the_rest_of_the_stack():
    rng = np.random.default_rng(47)
    members = _mixed_stack(rng, 6)
    whole = hermitian_eigenvalues_stack(np.stack(members)).values
    reversed_ = hermitian_eigenvalues_stack(np.stack(members[::-1])).values[::-1]
    pair = hermitian_eigenvalues_stack(np.stack(members[:2])).values
    assert np.array_equal(whole, reversed_)
    assert np.array_equal(whole[:2], pair)


@pytest.mark.parametrize("d", [2, 5, densemat.ROUND_ROBIN_MIN_DIM - 1])
def test_stack_of_one_is_a_member_of_any_stack(d):
    # a stack of one is swept in the kernel at every dimension, so its member
    # is bitwise the same member of a larger stack, and the reference sweep's
    rng = np.random.default_rng(53 + d)
    x = np.stack([random_hermitian(rng, d) for _ in range(3)])
    one = hermitian_eigenvalues_stack(x[1:2])
    many = hermitian_eigenvalues_stack(x)
    values, offdiag, sweeps = jacobi_stack_reference(
        x[1:2], densemat.JACOBI_RTOL, densemat.MAX_SWEEPS
    )
    for got, k in ((one, 0), (many, 1)):
        assert got.values[k : k + 1].tobytes() == values.tobytes()
        assert got.offdiag_residual[k : k + 1].tobytes() == offdiag.tobytes()
        assert got.sweeps[k : k + 1].tolist() == sweeps.tolist()


def test_stack_of_one_names_its_member_as_any_stack_does():
    # named as a stack's member, not "matrix"
    a = random_hermitian(np.random.default_rng(59), 4)
    a[0, 1] += 1e-3
    with pytest.raises(HermiticityError, match="^stack member 0 is not Hermitian"):
        hermitian_eigenvalues_stack(a[np.newaxis])
    with pytest.raises(HermiticityError, match="^matrix is not Hermitian"):
        hermitian_eigenvalues(a)


def test_stacked_eigenvalues_empty_and_shape_errors():
    assert hermitian_eigenvalues_stack(np.zeros((0, 3, 3))).values.shape == (0, 3)
    assert hermitian_eigenvalues_stack(np.zeros((2, 0, 0))).values.shape == (2, 0)
    with pytest.raises(ShapeError):
        hermitian_eigenvalues_stack(np.eye(3))
    with pytest.raises(ShapeError):
        hermitian_eigenvalues_stack(np.zeros((2, 3, 4)))


def test_stacked_eigenvalues_raise_as_the_scalar_solver(monkeypatch):
    rng = np.random.default_rng(59)
    good = random_hermitian(rng, 6)
    bad = good.copy()
    bad[0, 1] += 1.0
    with pytest.raises(HermiticityError):
        hermitian_eigenvalues(bad)
    with pytest.raises(HermiticityError, match="stack member 1 "):
        hermitian_eigenvalues_stack(np.stack([good, bad, good]))
    # one sweep cannot diagonalize a dense 6x6, in either ordering
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as scalar_err:
        hermitian_eigenvalues(good)
    diagonal = np.diag(np.arange(6.0)).astype(np.complex128)
    with pytest.raises(ConvergenceError, match="stack member 1 ") as stack_err:
        hermitian_eigenvalues_stack(np.stack([diagonal, good]))
    threshold = densemat.JACOBI_RTOL * np.linalg.norm(good)
    assert scalar_err.value.offdiag_residual >= threshold
    assert stack_err.value.offdiag_residual >= threshold


def _reference_stack(rng, d, count):
    """Hermitian, Gram (of any rank) and diagonal members; some with exact-zero
    rows and columns, some all zero, some scaled by 2^400 or 2^-400.

    Others reach a round's signed zeros: off-diagonal entries whose real
    part is exactly +0 or -0 (a purely imaginary pivot), equal diagonal
    entries, +0 and -0 among them (tau = 0; the symmetrization makes a -0
    on the diagonal +0), and pairs left idle, below the skip threshold or
    exactly zero, in the same round as rotating ones. Each member is scaled
    part by part, since a complex product would reset the sign of a zero.
    """
    members = []
    for k in range(count):
        g = random_complex(rng, d, d)
        kind = k % 7
        if kind == 0:
            a = g + g.conj().T
        elif kind == 1:
            h = g[: 1 + k % d]
            a = h.conj().T @ h
        elif kind == 2:
            a = np.diag(rng.standard_normal(d)) + 1e-20 * (g + g.conj().T)
        elif kind == 3:
            a = g + g.conj().T
            zero = rng.integers(0, d, size=1 + k % 2)
            a[zero, :] = 0.0
            a[:, zero] = 0.0
        elif kind == 4:
            # purely imaginary off the diagonal, each real part +0 or -0 with its mirror's
            a = np.empty((d, d), dtype=np.complex128)
            negative = np.triu(rng.random((d, d)) < 0.5, 1)
            a.real = np.where(negative | negative.T, -0.0, 0.0)
            a.imag = g.imag - g.imag.T
            a.real[np.diag_indices(d)] = rng.standard_normal(d)
        elif kind == 5:
            # one value on the whole diagonal, or +0 and -0 mixed there
            a = g + g.conj().T
            a.real[np.diag_indices(d)] = rng.choice([1.5, 0.0, -0.0], size=d if k % 2 else 1)
            a.imag[np.diag_indices(d)] = 0.0
        else:
            # a few rotating pairs, some purely imaginary, among idle ones (tiny or subnormal)
            a = np.diag(rng.choice([1.0, -1.0, 0.0], size=d)) + 1e-20 * (g + g.conj().T)
            a[np.triu_indices(d, 1 + k % 3)] *= 1e-300
            a = np.triu(a) + np.triu(a, 1).conj().T
            order = rng.permutation(d)
            for p, q in zip(order[0 : 2 * (1 + k % 2) : 2], order[1 : 2 * (1 + k % 2) : 2]):
                value = g[p, q] if k % 3 else 1j * g[p, q].imag
                a[p, q], a[q, p] = value, np.conj(value)
        if k % 10 == 9:
            a = np.zeros((d, d))
        a = np.array(a, dtype=np.complex128)
        power = rng.choice([-400, 0, 400])
        a.real = np.ldexp(a.real, power)
        a.imag = np.ldexp(a.imag, power)
        members.append(a)
    return np.array(members, dtype=np.complex128).reshape(count, d, d)


def _assert_bitwise_as_reference(x):
    res = hermitian_eigenvalues_stack(x)
    values, offdiag, sweeps = jacobi_stack_reference(x, densemat.JACOBI_RTOL, densemat.MAX_SWEEPS)
    assert res.values.tobytes() == values.tobytes()
    assert res.offdiag_residual.tobytes() == offdiag.tobytes()
    assert res.sweeps.tolist() == sweeps.tolist()


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 16),
    chunk=st.integers(1, 6),
    chunks=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_solver_is_bitwise_the_reference_sweep(d, chunk, chunks, seed):
    # chunks of ``chunk`` members, so that a stack spans one to three of them;
    # a stack of one is swept as any other
    count = math.ceil(chunks * chunk)
    x = _reference_stack(np.random.default_rng(seed), d, count)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(densemat, "_CHUNK_BYTES", 16 * d * d * chunk)
        if count == 0:
            assert hermitian_eigenvalues_stack(x).values.shape == (0, d)
        else:
            _assert_bitwise_as_reference(x)


@pytest.mark.parametrize("d, count", [(4, 4200), (9, 900), (16, 300)])
def test_stacked_solver_is_bitwise_the_reference_sweep_over_chunks_of_the_budget(d, count):
    # past two chunks of the module's own byte budget
    assert count > 2 * (densemat._CHUNK_BYTES // (16 * d * d))
    _assert_bitwise_as_reference(_reference_stack(np.random.default_rng(d), d, count))


def test_an_error_in_a_later_chunk_names_the_member_in_the_whole_stack(monkeypatch):
    # chunks of two members: member 3 is the second member of the second chunk
    monkeypatch.setattr(densemat, "_CHUNK_BYTES", 16 * 6 * 6 * 2)
    rng = np.random.default_rng(61)
    good = [random_hermitian(rng, 6) for _ in range(5)]
    bad = good[3].copy()
    bad[0, 1] += 1.0
    with pytest.raises(HermiticityError, match="^stack member 3 is not Hermitian"):
        hermitian_eigenvalues_stack(np.stack(good[:3] + [bad, good[4]]))
    big = np.full((6, 6), 1e200, dtype=np.complex128)
    with pytest.raises(NormOverflowError, match="^stack member 3 is too large to solve"):
        hermitian_eigenvalues_stack(np.stack(good[:3] + [big, good[4]]))
    # one sweep cannot diagonalize a dense 6x6; the diagonal members stop at once
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    diagonal = np.diag(np.arange(6.0)).astype(np.complex128)
    stack = np.stack([diagonal, 2 * diagonal, 3 * diagonal, good[3], good[4]])
    with pytest.raises(ConvergenceError, match="for stack member 3 ") as err:
        hermitian_eigenvalues_stack(stack)
    _, offdiag, _ = jacobi_stack_reference(stack, densemat.JACOBI_RTOL, 1)
    assert err.value.offdiag_residual == offdiag[3]


# one below the crossover, at it, and the largest dimension the package targets
_DISPATCH_DIMS = (densemat.ROUND_ROBIN_MIN_DIM - 1, densemat.ROUND_ROBIN_MIN_DIM, 64)


def _no_scalar_sweep(monkeypatch) -> list:
    """The dimensions of the matrices the row-cyclic loop sweeps, from here on."""
    swept = []
    real = densemat._sweep

    def counting(a, n, *args):
        swept.append(n)
        return real(a, n, *args)

    monkeypatch.setattr(densemat, "_sweep", counting)
    return swept


@pytest.mark.parametrize("d", _DISPATCH_DIMS)
def test_a_lone_solve_takes_the_order_its_dimension_picks(monkeypatch, d):
    # from ROUND_ROBIN_MIN_DIM up, a lone matrix and a member of an is_psd
    # stack are swept by the kernel, bitwise the reference sweep, and the
    # row-cyclic loop never runs; below it they stay the scalar loop's. A
    # stack of one is the kernel's at every dimension
    kernel = densemat.solves_in_round_robin(d)
    assert kernel == (d >= densemat.ROUND_ROBIN_MIN_DIM)
    x = _reference_stack(np.random.default_rng(d), d, 7)
    swept = _no_scalar_sweep(monkeypatch)
    for k, a in enumerate(x):
        reference = jacobi_stack_reference(a[np.newaxis], densemat.JACOBI_RTOL, densemat.MAX_SWEEPS)
        if kernel:
            values, offdiag, sweeps = (v[0] for v in reference)
        else:
            values, offdiag, sweeps = jacobi_scalar_reference(
                a, densemat.JACOBI_RTOL, densemat.MAX_SWEEPS
            )
        one = hermitian_eigenvalues_stack(a[np.newaxis])
        assert one.values.tobytes() == reference[0].tobytes(), k
        assert one.offdiag_residual.tobytes() == reference[1].tobytes(), k
        assert one.sweeps.tolist() == reference[2].tolist(), k
        lone = hermitian_eigenvalues(a)
        assert lone.values.tobytes() == values.tobytes(), k
        assert np.float64(lone.offdiag_residual).tobytes() == np.float64(offdiag).tobytes(), k
        assert int(lone.sweeps) == int(sweeps), k
        _, min_eig = is_psd(np.stack([x[k - 1], a]))
        assert min_eig[1].tobytes() == values[0].tobytes(), k
    # every lone solve and is_psd member sweeps a matrix of its own
    assert swept == ([] if kernel else [d] * 3 * len(x))


@pytest.mark.parametrize("d", _DISPATCH_DIMS[1:])
def test_a_lone_matrix_in_the_kernel_is_still_named_matrix(monkeypatch, d):
    # the scalar solver's messages, word for word, from the kernel
    swept = _no_scalar_sweep(monkeypatch)
    rng = np.random.default_rng(73 + d)
    good = random_hermitian(rng, d)
    bad = good.copy()
    bad[0, 1] += 1.0
    defect = np.linalg.norm(bad - bad.conj().T)
    scale = np.linalg.norm(bad)
    for solve in (hermitian_eigenvalues, is_psd):
        with pytest.raises(HermiticityError) as err:
            solve(bad)
        assert str(err.value) == (
            f"matrix is not Hermitian: ||X - X*||_F = {defect:.3e} exceeds 1e-10 * {scale:.3e}"
        )
        with pytest.raises(NormOverflowError) as err:
            solve(np.full((d, d), 1e200, dtype=np.complex128))
        assert str(err.value) == "matrix is too large to solve: ||X||_F = inf overflows float64"
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    _, offdiag, _ = jacobi_stack_reference(good[np.newaxis], densemat.JACOBI_RTOL, 1)
    threshold = densemat.JACOBI_RTOL * np.linalg.norm(good)
    for solve in (hermitian_eigenvalues, is_psd):
        with pytest.raises(ConvergenceError) as err:
            solve(good)
        assert str(err.value) == (
            f"Jacobi sweeps did not converge in 1 sweeps "
            f"(off-diagonal mass {offdiag[0]:.3e} >= {threshold:.3e})"
        )
        assert err.value.offdiag_residual == offdiag[0]
    with pytest.raises(ConvergenceError, match="for stack member 0 "):
        hermitian_eigenvalues_stack(good[np.newaxis])
    assert swept == []


def _layout_stack(rng, d):
    """Members that stop after 0 sweeps (diagonal, zero, 1e-20 off-diagonals),
    members that stop at different sweeps, and members whose pivots outside
    a dense leading block are 1e-20, below the skip threshold."""
    g = random_complex(rng, d, d)
    dense = g + g.conj().T
    diagonal = np.diag(rng.standard_normal(d)).astype(np.complex128)
    near = diagonal + 1e-20 * dense
    block = near.copy()
    block[:2, :2] = dense[:2, :2]  # only the pair (0, 1) ever rotates
    half = near.copy()
    half[: d // 2 + 1, : d // 2 + 1] = dense[: d // 2 + 1, : d // 2 + 1]
    v = random_complex(rng, d, 1)
    members = [diagonal, np.zeros((d, d)), block, dense, near, half, v @ v.conj().T]
    return np.stack(members + [diagonal + 1e-6 * dense]).astype(np.complex128)


@pytest.mark.parametrize("d", range(1, 65))
def test_sweep_plan_is_the_round_robin_of_the_reference(d):
    orders = densemat._round_robin(d)
    first, moves, upper = densemat._sweep_plan(d)
    k = d // 2
    reference = round_robin_pairs(d)
    assert len(orders) == len(moves) == len(reference) == d - 1 + d % 2
    met = []
    for order, (p, q) in zip(orders, reference):
        assert order[:k].tolist() == p.tolist() and order[k : 2 * k].tolist() == q.tolist()
        assert sorted(order.tolist()) == list(range(d))  # the pairs are disjoint, the bye is last
        assert (p < q).all()
        met += zip(p.tolist(), q.tolist())
    assert sorted(met) == [(p, q) for p in range(d) for q in range(p + 1, d)]
    # a chunk of one member, its entries labelled by their flat index in natural order
    natural = np.arange(d * d).reshape(d, d)
    held = natural.ravel()[first]
    assert held.tolist() == natural[np.ix_(orders[0], orders[0])].ravel().tolist()
    assert held[upper].tolist() == natural[np.triu_indices(d, 1)].tolist()
    for r, move in enumerate(moves):
        following = orders[(r + 1) % len(orders)]
        assert (move is None) == np.array_equal(orders[r], following)
        if move is not None:
            assert sorted(move.tolist()) == list(range(d * d))
            held = held[move]
        assert held.tolist() == natural[np.ix_(following, following)].ravel().tolist()


@pytest.mark.parametrize("d", [*range(1, 17), 17, 24, 33])
def test_stacked_solver_is_bitwise_the_reference_at_every_dimension(monkeypatch, d):
    # the chunk layout follows each round's pair order: every order is a
    # permutation, p < q, each pair meets once a sweep, the bye comes last
    if d > 1:
        orders = densemat._round_robin(d)
        k = d // 2
        assert len(orders) == d - 1 + d % 2
        assert k == 1 if d in (2, 3) else k > 1
        pairs = sorted((int(o[i]), int(o[k + i])) for o in orders for i in range(k))
        assert pairs == [(p, q) for p in range(d) for q in range(p + 1, d)]
        for o in orders:
            assert sorted(o.tolist()) == list(range(d))
            assert all(o[i] < o[k + i] for i in range(k))
    # three members a chunk, so the stack spans three chunks
    monkeypatch.setattr(densemat, "_CHUNK_BYTES", 16 * d * d * 3)
    x = _layout_stack(np.random.default_rng(67 + d), d)
    _assert_bitwise_as_reference(x)
    sweeps = hermitian_eigenvalues_stack(x).sweeps
    assert sweeps[0] == sweeps[1] == sweeps[4] == 0
    if d > 2:
        assert len(set(sweeps.tolist())) >= 3, sweeps
    if d % 2 and d > 1:
        # a round rotates every pair but the bye, whose diagonal entry it leaves alone
        buffers = np.empty((3, d * d), dtype=np.complex128)
        buffers[0] = x[3][np.ix_(orders[0], orders[0])].ravel()
        before = buffers[0].reshape(d, d).copy()
        densemat._rotate_round(densemat._rounds(buffers, d, 1)[0], np.zeros(1))
        a = buffers[0].reshape(d, d)
        assert a[d - 1, d - 1].tobytes() == before[d - 1, d - 1].tobytes()
        assert not np.array_equal(a[: d - 1, : d - 1], before[: d - 1, : d - 1])


def test_a_round_counts_a_negative_zero_tau_as_positive():
    # tau = (a_qq - a_pp) / (2 |a_pq|) is -0 at a_pp = +0, a_qq = -0 (or where
    # a negative quotient underflows); the round still takes t >= 0 there, as
    # the reference does, with every pair rotating and with one pair idle
    # (its pivot is 0) beside a rotating one
    d, k = 4, 2
    order = densemat._round_robin(d)[0]
    p, q = order[:k], order[k : 2 * k]
    members = []
    for idle in (False, True):
        a = np.array(
            [
                [0, 1 + 2j, 0.5 - 1j, 2 + 1j],
                [0, 0, 1 - 1j, -1 + 3j],
                [0, 0, 1, 0.25 + 0.5j],
                [0, 0, 0, 3],
            ]
        )
        a = a + np.triu(a, 1).conj().T
        a[q[0], q[0]] = -0.0
        a[p[0], p[0]] = 0.0
        a[p[0], q[0]], a[q[0], p[0]] = 1 + 2j, 1 - 2j
        if idle:
            a[p[1], q[1]] = a[q[1], p[1]] = 0.0
        members.append(a)
    x = np.array(members)
    assert np.signbit(x[:, q[0], q[0]].real).all()

    def held(m):  # the chunk layout: entry by entry in the round's order, stack axis last
        return np.ascontiguousarray(m[:, order][:, :, order].reshape(len(m), d * d).T)

    buffers = np.empty((3, d * d * len(x)), dtype=np.complex128)
    buffers[0] = held(x).ravel()
    densemat._rotate_round(densemat._rounds(buffers, d, len(x))[0], np.zeros(len(x)))
    _rotate_reference(x, p, q, np.zeros((len(x), 1)))
    assert buffers[0].tobytes() == held(x).tobytes()


def test_an_odd_dimension_names_the_member_that_does_not_converge(monkeypatch):
    # chunks of two members: member 3 is the second member of the second chunk
    monkeypatch.setattr(densemat, "_CHUNK_BYTES", 16 * 7 * 7 * 2)
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    rng = np.random.default_rng(71)
    diagonal = np.diag(np.arange(7.0)).astype(np.complex128)
    dense = [random_hermitian(rng, 7) for _ in range(2)]
    stack = np.stack([diagonal, 2 * diagonal, 3 * diagonal] + dense)
    with pytest.raises(ConvergenceError, match="for stack member 3 ") as err:
        hermitian_eigenvalues_stack(stack)
    _, offdiag, _ = jacobi_stack_reference(stack, densemat.JACOBI_RTOL, 1)
    assert err.value.offdiag_residual == offdiag[3]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the error is the only report
def test_overflowing_norm_is_named_before_any_sweep(monkeypatch):
    # entries of 1e200 are finite, but ||X||_F overflows: the solvers must not
    # spend their sweep budget on inf and then report non-convergence
    def no_sweep(*args):
        raise AssertionError("a rotation ran on an overflowing matrix")

    monkeypatch.setattr(densemat, "_rotate", no_sweep)
    monkeypatch.setattr(densemat, "_rotate_round", no_sweep)
    big = np.full((4, 4), 1e200, dtype=np.complex128)
    with pytest.raises(NormOverflowError, match=r"^matrix is too large to solve: .* overflows"):
        hermitian_eigenvalues(big)
    with pytest.raises(NormOverflowError, match=r"^stack member 1 is too large to solve: .*= inf"):
        hermitian_eigenvalues_stack(np.stack([np.eye(4), big, big]))
    with pytest.raises(NormOverflowError, match="stack member 0 .*= nan overflows"):
        hermitian_eigenvalues_stack(np.stack([np.full((4, 4), np.nan), np.eye(4)]))
    with pytest.raises(NormOverflowError, match="^matrix is too large"):
        is_psd(big)
    with pytest.raises(NormOverflowError, match="^stack member 1 "):
        is_psd(np.stack([np.eye(4), big]))
    # large but finite norms still solve
    assert hermitian_eigenvalues(np.eye(4) * 1e150).values == pytest.approx([1e150] * 4)


def test_is_psd_names_a_failing_member_by_its_index_in_the_stack(monkeypatch):
    # an error names the member by its index in the caller's stack, even
    # where the members before it were solved by an earlier call
    big = np.full((4, 4), 1e200, dtype=np.complex128)
    bad = np.eye(4, dtype=np.complex128)
    bad[0, 1] = 1.0
    is_psd(np.eye(4))
    # one member past a member solved before
    with pytest.raises(NormOverflowError, match="^stack member 1 is too large"):
        is_psd(np.stack([np.eye(4), big]))
    # two members past one solved before
    with pytest.raises(HermiticityError, match="^stack member 2 is not Hermitian"):
        is_psd(np.stack([np.eye(4), 2 * np.eye(4), bad]))
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    dense = random_hermitian(np.random.default_rng(59), 6)
    diagonal = np.diag(np.arange(6.0)).astype(np.complex128)
    is_psd(diagonal)
    with pytest.raises(ConvergenceError, match="for stack member 2 "):
        is_psd(np.stack([diagonal, 2 * diagonal, dense]))


# ------------------------------------------------------------------- is_psd


@pytest.mark.parametrize("n", [1, 2, 4])
def test_is_psd_identity(n):
    ok, mineig = is_psd(np.eye(n))
    assert ok and mineig == pytest.approx(1.0, abs=1e-12)


def test_is_psd_indefinite():
    ok, mineig = is_psd(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert not ok
    assert mineig == pytest.approx(-1.0, abs=1e-12)


def test_is_psd_gram_always_true():
    rng = np.random.default_rng(41)
    for _ in range(200):
        a = random_psd_lapack(rng, 4)
        ok, _ = is_psd(a)
        assert ok


def test_is_psd_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        is_psd(np.eye(2), tol=-1e-9)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_is_psd_rejects_a_non_finite_tolerance(tol):
    with pytest.raises(UsageError, match="tolerance must be finite and nonnegative"):
        is_psd(np.eye(2), tol=tol)
    with pytest.raises(UsageError):
        is_psd(np.eye(2)[np.newaxis], tol=tol)


def test_is_psd_of_a_stack_is_per_member():
    rng = np.random.default_rng(61)
    v = random_complex(rng, 5, 1)
    members = [
        random_psd_lapack(rng, 5),
        random_hermitian(rng, 5),
        v @ v.conj().T,
        -np.eye(5, dtype=np.complex128),
    ]
    ok, min_eig = is_psd(np.stack(members), tol=1e-9)
    assert ok.shape == min_eig.shape == (4,)
    for k, a in enumerate(members):
        want_ok, want_min = is_psd(a, tol=1e-9)
        assert bool(ok[k]) == want_ok
        assert abs(min_eig[k] - want_min) <= STACK_AGREEMENT_RTOL * max(1.0, np.linalg.norm(a))
    assert ok[0] and ok[2] and not ok[3]
    empty_ok, empty_min = is_psd(np.zeros((0, 3, 3)))
    assert empty_ok.shape == empty_min.shape == (0,)
    with pytest.raises(ShapeError):
        is_psd(np.zeros((2, 3, 4)))


def test_psd_verdict_scales_tol_by_one_or_each_members_frobenius_norm():
    # min_eig >= -tol * max(1, ||X||_F), member by member: a small member is
    # held to tol itself, a large one to tol times its own norm
    tol = 1e-6
    stack = np.array(
        [np.diag(d) for d in ([0.5, -0.9e-6], [0.5, -1.1e-6], [5e3, -4e-3], [5e3, -6e-3])],
        dtype=np.complex128,
    )
    ok, min_eig = is_psd(stack, tol=tol)
    assert ok.tolist() == [True, False, True, False]
    assert np.array_equal(densemat.psd_verdict(min_eig, stack, tol), ok)
    bound = -tol * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    assert densemat.psd_verdict(bound, stack, tol).all()
    assert not densemat.psd_verdict(np.nextafter(bound, -np.inf), stack, tol).any()
    with pytest.raises(UsageError, match="tolerance must be finite and nonnegative"):
        densemat.psd_verdict(min_eig, stack, -tol)


@pytest.mark.parametrize("d", [1, 2, 4, 9, 16])
def test_frobenius_stack_is_numpys_norm_and_finite_past_overflow(d):
    # the norm every PSD scale reads: bitwise numpy's stacked norm while the
    # squares are finite (scales 2^-300 to 2^300), finite where they overflow
    rng = np.random.default_rng(900 + d)
    x = np.stack([random_complex(rng, d, d) * 2.0**e for e in (-300, 0, 300)])
    want = np.linalg.norm(x, axis=(1, 2))
    assert np.array_equal(densemat.frobenius_stack(x), want)
    huge = np.concatenate([x, x[1:2] * 1e300])
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(huge[3:], axis=(1, 2))[0])
    norm = densemat.frobenius_stack(huge)
    assert np.array_equal(norm[:3], want)
    assert np.isfinite(norm[3])
    assert norm[3] == pytest.approx(1e300 * want[1], rel=1e-14)


@st.composite
def _psd_stacks(draw):
    """A ``(B, d, d)`` stack, B = 2..8, d = 1..11, of Gram members of rank 1..d.

    Some members have a row and column of ``-0.0`` parts, each is scaled by
    ``2^k`` (exact) and some are negated, so that ``ok`` varies.
    """
    d = draw(st.integers(1, 11))
    count = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(count):
        g = random_complex(rng, d, draw(st.integers(1, d)))
        a = g @ g.conj().T
        zero = draw(st.one_of(st.none(), st.integers(0, d - 1)))
        if zero is not None:
            a[zero, :] = a[:, zero] = complex(-0.0, -0.0)
        sign = draw(st.sampled_from([1.0, -1.0]))
        members.append(sign * 2.0 ** draw(st.integers(-60, 60)) * a)
    return np.stack(members)


@settings(max_examples=80, deadline=None)
@given(_psd_stacks())
def test_is_psd_of_a_stack_is_each_member_alone_bitwise(stack):
    # a stack of several is validated once and each member swept in the
    # scalar solver's order: its minimum and verdict are bitwise its own call's
    ok, min_eig = is_psd(stack)
    alone = [is_psd(member) for member in stack]
    assert ok.tolist() == [want_ok for want_ok, _ in alone]
    assert min_eig.tobytes() == np.array([want for _, want in alone]).tobytes()
    scalar = [hermitian_eigenvalues(a).values[0] for a in stack]
    assert min_eig.tobytes() == np.array(scalar).tobytes()


def test_is_psd_of_a_stack_names_a_failing_member_as_the_scalar_solver_fails_it(monkeypatch):
    # one norm decides every solve: ||X||_F of this diagonal sits at the edge
    # of float64, and whether its sum overflows depends on the order of the
    # entries; in every order the scalar solver, the stacked solver and a
    # stacked is_psd accept or refuse it alike, and agree bitwise on its minimum
    entries = [7.858528724877733e153, 5.4069874667964464e153, 4.946568086249235e153,
               5.148367938566612e153, 6.148422402344298e153]  # fmt: skip
    eye = np.eye(5, dtype=np.complex128)
    verdicts = set()
    for order in itertools.permutations(entries):
        edge = np.diag(order).astype(np.complex128)
        calls = (
            lambda: hermitian_eigenvalues(edge).values[0],
            lambda: hermitian_eigenvalues_stack(np.stack([eye, edge])).values[1, 0],
            lambda: is_psd(np.stack([eye, edge, eye]))[1][1],
        )
        minima = []
        for call in calls:
            try:
                minima.append(call())
            except NormOverflowError:
                minima.append(None)
        accepted = minima[0] is not None
        verdicts.add(accepted)
        assert [m is not None for m in minima] == [accepted] * 3, order
        if accepted:
            assert np.array(minima).tobytes() == np.array([min(order)] * 3).tobytes()
    assert verdicts == {True, False}  # the edge cuts through the orders
    # twice that is refused by all three, by name
    edge = 2 * np.diag(entries).astype(np.complex128)
    with pytest.raises(NormOverflowError, match="^matrix is too large to solve: .*= inf"):
        hermitian_eigenvalues(edge)
    with pytest.raises(NormOverflowError, match="^stack member 1 is too large to solve: .*= inf"):
        hermitian_eigenvalues_stack(np.stack([eye, edge]))
    with pytest.raises(NormOverflowError, match="^stack member 1 is too large to solve: .*= inf"):
        is_psd(np.stack([eye, edge, eye]))
    with pytest.raises(NormOverflowError, match="^stack member 0 .*= nan overflows"):
        is_psd(np.stack([np.full((4, 4), np.nan), np.eye(4)]))
    # a member that does not converge carries its scalar solve's residual
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    dense = random_hermitian(np.random.default_rng(71), 6)
    with pytest.raises(ConvergenceError) as alone:
        hermitian_eigenvalues(dense)
    with pytest.raises(ConvergenceError, match="for stack member 1 ") as err:
        is_psd(np.stack([np.eye(6), dense, dense]))
    assert err.value.offdiag_residual == alone.value.offdiag_residual > 0


def test_is_psd_solves_on_every_call(monkeypatch):
    # is_psd keeps nothing between calls: each call solves all it is given,
    # at any tolerance, and the same input gives the same values every time;
    # _sweep_each receives each call's whole input, one matrix as a stack of one
    solved = []
    real = densemat._sweep_each

    def counting(x, first=0):
        solved.append(len(x))
        return real(x, first)

    monkeypatch.setattr(densemat, "_sweep_each", counting)
    rng = np.random.default_rng(67)
    stack = np.stack([random_psd_lapack(rng, 4) for _ in range(5)])
    first = is_psd(stack)
    again = is_psd(stack, tol=1e-3)
    assert solved == [5, 5]
    assert np.array_equal(again[1], first[1])
    assert is_psd(stack[2]) == is_psd(stack[2], tol=1e-3)
    assert solved == [5, 5, 1, 1]
    fresh = random_psd_lapack(rng, 4)
    repeat = is_psd(np.stack([stack[0], fresh, stack[1]]))
    assert solved == [5, 5, 1, 1, 3]
    assert np.array_equal(repeat[1], is_psd(np.stack([stack[0], fresh, stack[1]]))[1])