"""Linear maps, Choi/co-Choi assembly, and certification."""

import numpy as np
import pytest

from blockineq import (
    BlockMatrix,
    BlockStack,
    LinearMapRep,
    ShapeError,
    UsageError,
    apply_map,
    blockwise_image,
    builtin_map,
    certify_completely_copositive,
    certify_completely_positive,
    choi_matrix,
    co_choi_matrix,
    from_blocks,
    hermitian_eigenvalues,
    is_psd,
    partial_transpose,
)
from oracles import (
    blockwise_image_loops,
    builtin_apply,
    choi_loops,
    co_choi_loops,
    random_complex,
    unit_matrix,
)

BUILTINS = ("phi", "psi", "identity", "transpose", "trace_map")

# name -> (completely positive?, completely copositive?)
EXPECTED = {
    "phi": (True, True),
    "psi": (False, True),
    "identity": (True, False),
    "transpose": (False, True),
    "trace_map": (True, True),
}


def random_map(rng, n, k):
    images = tuple(random_complex(rng, k, k) for _ in range(n * n))
    return LinearMapRep(n, k, images)


# ------------------------------------------------------------ representation


def test_rep_validates_image_count_and_shape():
    eye = np.eye(2, dtype=np.complex128)
    with pytest.raises(Exception):
        LinearMapRep(2, 2, (eye, eye, eye))  # 3 images, need 4
    with pytest.raises(Exception):
        LinearMapRep(2, 2, (eye, eye, eye, np.eye(3)))  # wrong block size


def test_image_indices_are_one_based():
    phi = builtin_map("psi", 2)
    assert np.array_equal(phi.image(1, 1), np.diag([0.0, 1.0]))
    for i, j in [(0, 1), (1, 0), (3, 1), (1, 3)]:
        with pytest.raises(UsageError):
            phi.image(i, j)


def test_builtin_phi_image_of_offdiagonal_unit():
    phi = builtin_map("phi", 2)
    assert np.array_equal(phi.image(1, 2), unit_matrix(2, 1, 2))


def test_builtin_rejects_bad_name_and_dimension():
    with pytest.raises(UsageError):
        builtin_map("determinant", 2)
    with pytest.raises(UsageError):
        builtin_map("phi", 0)


# -------------------------------------------------------------------- apply


def test_apply_identity_map_fixes_units():
    ident = builtin_map("identity", 2)
    assert np.array_equal(apply_map(ident, unit_matrix(2, 1, 2)), unit_matrix(2, 1, 2))


def test_apply_psi_to_identity():
    psi = builtin_map("psi", 2)
    assert np.array_equal(apply_map(psi, np.eye(2)), np.eye(2))


@pytest.mark.parametrize("name", BUILTINS)
def test_apply_matches_formula_oracle(name):
    rng = np.random.default_rng(3)
    for n in (2, 3):
        phi = builtin_map(name, n)
        for _ in range(5):
            x = random_complex(rng, n, n)
            got = apply_map(phi, x)
            want = builtin_apply(name, x)
            assert got.shape == want.shape
            assert np.allclose(got, want, atol=1e-12 * max(1.0, np.linalg.norm(x)))


def test_apply_is_linear():
    rng = np.random.default_rng(5)
    phi = random_map(rng, 3, 2)
    for _ in range(10):
        x = random_complex(rng, 3, 3)
        y = random_complex(rng, 3, 3)
        a = complex(*rng.standard_normal(2))
        b = complex(*rng.standard_normal(2))
        lhs = apply_map(phi, a * x + b * y)
        rhs = a * apply_map(phi, x) + b * apply_map(phi, y)
        scale = max(1.0, np.linalg.norm(lhs))
        assert np.allclose(lhs, rhs, atol=1e-12 * scale)


def test_apply_rejects_wrong_input_shape():
    phi = builtin_map("phi", 2)
    with pytest.raises(ShapeError):
        apply_map(phi, np.eye(3))


# --------------------------------------------------------------------- choi


def test_choi_identity_map_is_corner_pattern():
    c = choi_matrix(builtin_map("identity", 2))
    expected = np.zeros((4, 4), dtype=np.complex128)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 1.0
    assert (c.m, c.n) == (2, 2)
    assert np.array_equal(c.mat, expected)


def test_choi_psi_rows_and_spectrum():
    c = choi_matrix(builtin_map("psi", 2))
    expected = np.array(
        [
            [0, 0, 0, -1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [-1, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    assert np.array_equal(c.mat, expected)
    vals = hermitian_eigenvalues(c.mat).values
    assert np.allclose(vals, [-1.0, 1.0, 1.0, 1.0], atol=1e-10)


def test_choi_trace_map_is_identity_with_1x1_blocks():
    c = choi_matrix(builtin_map("trace_map", 2))
    assert (c.m, c.n) == (2, 1)
    assert np.array_equal(c.mat, np.eye(2))


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("n", [2, 3])
def test_choi_matches_hand_assembly(name, n):
    c = choi_matrix(builtin_map(name, n))
    assert np.array_equal(c.mat, choi_loops(name, n))


# ------------------------------------------------------------------ co-choi


def test_co_choi_psi_rows_and_spectrum():
    cc = co_choi_matrix(builtin_map("psi", 2))
    expected = np.array(
        [
            [0, 0, 0, 0],
            [0, 1, -1, 0],
            [0, -1, 1, 0],
            [0, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    assert np.array_equal(cc.mat, expected)
    vals = hermitian_eigenvalues(cc.mat).values
    assert np.allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-10)


def test_co_choi_phi_matrix_and_spectrum():
    cc = co_choi_matrix(builtin_map("phi", 2))
    expected = np.diag([2.0, 1.0, 1.0, 2.0]).astype(np.complex128)
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(cc.mat, expected)
    vals = hermitian_eigenvalues(cc.mat).values
    assert np.allclose(vals, [0.0, 2.0, 2.0, 2.0], atol=1e-10)


def test_co_choi_identity_map_is_swap():
    cc = co_choi_matrix(builtin_map("identity", 2))
    swap = np.zeros((4, 4), dtype=np.complex128)
    swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1.0
    assert np.array_equal(cc.mat, swap)
    vals = hermitian_eigenvalues(cc.mat).values
    assert np.allclose(vals, [-1.0, 1.0, 1.0, 1.0], atol=1e-10)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("n", [2, 3])
def test_co_choi_matches_hand_assembly(name, n):
    cc = co_choi_matrix(builtin_map(name, n))
    assert np.array_equal(cc.mat, co_choi_loops(name, n))


def test_co_choi_is_partial_transpose_of_choi():
    rng = np.random.default_rng(7)
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        phi = random_map(rng, n, k)
        assert np.array_equal(
            co_choi_matrix(phi).mat, partial_transpose(choi_matrix(phi)).mat
        )


def _block_assembly(phi, co=False):
    """``[phi(E_{i,j})]`` (``[phi(E_{j,i})]`` with ``co``) assembled block by block."""
    n = phi.n
    return from_blocks(
        [
            [phi.image(j, i) if co else phi.image(i, j) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )


@pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (4, 1)])
def test_choi_builders_are_bitwise_the_block_assembly(n, k):
    rng = np.random.default_rng(10 * n + k)
    maps = [random_map(rng, n, k)]
    maps += [builtin_map(name, n) for name in BUILTINS if (1 if name == "trace_map" else n) == k]
    for phi in maps:
        for got, want in (
            (choi_matrix(phi), _block_assembly(phi)),
            (co_choi_matrix(phi), _block_assembly(phi, co=True)),
        ):
            assert (got.m, got.n) == (want.m, want.n) == (n, k)
            assert got.mat.tobytes() == want.mat.tobytes()


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_builtin_images_are_the_defining_formulas_bitwise(name, n):
    phi = builtin_map(name, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = np.asarray(builtin_apply(name, unit_matrix(n, i, j)), dtype=np.complex128)
            assert phi.image(i, j).tobytes() == want.tobytes()


# ---------------------------------------------------------------- certifying


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_certification_matrix(name, n):
    phi = builtin_map(name, n)
    cp, _ = certify_completely_positive(phi)
    ccp, _ = certify_completely_copositive(phi)
    assert (cp, ccp) == EXPECTED[name]


def test_psi_cp_failure_eigenvalue():
    verdict, min_eig = certify_completely_positive(builtin_map("psi", 2))
    assert not verdict
    assert min_eig == pytest.approx(-1.0, abs=1e-10)


def _hermitian_preserving_map(rng, n, k):
    """A map whose Choi matrix is a random Hermitian matrix: its co-Choi is Hermitian too."""
    g = random_complex(rng, n * k, n * k)
    blocks = ((g + g.conj().T) / 2).reshape(n, k, n, k).transpose(0, 2, 1, 3)
    return LinearMapRep(n, k, tuple(blocks.reshape(n * n, k, k)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_certifying_maps_of_one_shape_together_is_bitwise_each_alone(n):
    # one is_psd call on the stack of their certificates, each member decided
    # as it is alone, below the kernel's crossover (n = 2, 3) and above it
    rng = np.random.default_rng(101 + n)
    maps = [builtin_map(name, n) for name in BUILTINS if name != "trace_map"]
    maps += [_hermitian_preserving_map(rng, n, n) for _ in range(2)]
    for certify in (certify_completely_positive, certify_completely_copositive):
        ok, min_eig = certify(maps)
        alone = [certify(phi) for phi in maps]
        assert ok.tolist() == [verdict for verdict, _ in alone]
        assert min_eig.tobytes() == np.array([value for _, value in alone]).tobytes()
        assert certify(iter(maps))[1].tobytes() == min_eig.tobytes()
    assert (~ok).any() and ok.any()


def test_certifying_maps_of_several_shapes_together_is_refused():
    mixed = [builtin_map("phi", 2), builtin_map("trace_map", 2)]
    refusal = r"^expected one or more maps of one shape \(n, k\), got shapes "
    for certify in (certify_completely_positive, certify_completely_copositive):
        with pytest.raises(UsageError, match=refusal + r"\[\(2, 1\), \(2, 2\)\]$"):
            certify(mixed)
        with pytest.raises(UsageError, match=refusal + r"\[\]$"):
            certify([])


# ----------------------------------------------------------- blockwise image


def test_blockwise_image_identity_map_swap_is_partial_transpose():
    rng = np.random.default_rng(11)
    a = BlockMatrix(2, 2, random_complex(rng, 4, 4))
    ident = builtin_map("identity", 2)
    assert np.array_equal(blockwise_image(ident, a).mat, a.mat)
    assert np.array_equal(
        blockwise_image(ident, a, swap=True).mat, partial_transpose(a).mat
    )


def test_blockwise_image_shape_mismatch():
    with pytest.raises(ShapeError):
        blockwise_image(builtin_map("phi", 3), BlockMatrix(2, 2, np.eye(4)))
    with pytest.raises(ShapeError):
        blockwise_image(builtin_map("phi", 3), BlockStack(2, 2, np.eye(4)[np.newaxis]))


# (m, n, k): blocks per side, block size, image size
_IMAGE_SHAPES = [(1, 1, 1), (1, 3, 2), (2, 2, 3), (2, 3, 1), (3, 2, 4), (2, 4, 2), (4, 2, 3)]


@pytest.mark.parametrize("m, n, k", _IMAGE_SHAPES)
@pytest.mark.parametrize("swap", [False, True])
def test_blockwise_image_of_a_stack_is_each_member_alone_bitwise(m, n, k, swap):
    rng = np.random.default_rng(100 * m + 10 * n + k)
    phi = random_map(rng, n, k)
    stack = BlockStack(m, n, np.array([random_complex(rng, m * n, m * n) for _ in range(7)]))
    images = blockwise_image(phi, stack, swap=swap)
    assert isinstance(images, BlockStack)
    assert (images.m, images.n, len(images)) == (m, k, 7)
    for member, image in zip((stack[b] for b in range(7)), images.mat):
        alone = blockwise_image(phi, member, swap=swap)
        assert isinstance(alone, BlockMatrix) and (alone.m, alone.n) == (m, k)
        assert alone.mat.tobytes() == image.tobytes()


@pytest.mark.parametrize("m, n, k", _IMAGE_SHAPES)
@pytest.mark.parametrize("swap", [False, True])
def test_blockwise_image_matches_the_per_block_loop(m, n, k, swap):
    rng = np.random.default_rng(7 * m + 5 * n + 3 * k)
    maps = [random_map(rng, n, k)]
    maps += [builtin_map(name, n) for name in BUILTINS if (1 if name == "trace_map" else n) == k]
    for phi in maps:
        for _ in range(3):
            a = BlockMatrix(m, n, random_complex(rng, m * n, m * n))
            got = blockwise_image(phi, a, swap=swap).mat
            want = blockwise_image_loops(phi, a, swap=swap)
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-13 * scale


def test_apply_map_is_the_image_of_a_one_block_matrix():
    rng = np.random.default_rng(13)
    phi = random_map(rng, 3, 2)
    x = random_complex(rng, 3, 3)
    want = blockwise_image_loops(phi, BlockMatrix(1, 3, x))
    assert np.linalg.norm(apply_map(phi, x) - want) <= 1e-13 * np.linalg.norm(want)


# ------------------------------------------------------ certificate witnesses


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("n", [2, 3])
def test_matrix_units_witness_what_the_certificates_decide(name, n):
    # U = [E_{i,j}] in M_n(M_n) is PSD (rank one, vec(I) vec(I)^*), and its
    # blockwise images are the Choi and co-Choi matrices; so by Choi's
    # theorem U is a witness exactly where a certificate refuses, and no
    # search over other PSD inputs can find one where both accept
    phi = builtin_map(name, n)
    idx = range(1, n + 1)
    units = from_blocks([[unit_matrix(n, i, j) for j in idx] for i in idx])
    e = np.eye(n).reshape(-1)
    assert np.array_equal(units.mat, np.outer(e, e))
    assert is_psd(units.mat)[0]
    choi = blockwise_image(phi, units)
    co_choi = blockwise_image(phi, units, swap=True)
    assert np.array_equal(choi.mat, choi_matrix(phi).mat)
    assert np.array_equal(co_choi.mat, co_choi_matrix(phi).mat)
    assert is_psd(choi.mat) == certify_completely_positive(phi)
    assert is_psd(co_choi.mat) == certify_completely_copositive(phi)
    assert (is_psd(choi.mat)[0], is_psd(co_choi.mat)[0]) == EXPECTED[name]
