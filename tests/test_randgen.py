"""Seeded generators: determinism, distribution sanity, and PSD/PPT contracts."""

import numpy as np
import pytest

from blockineq import (
    DEFAULT_TOL,
    BlockMatrix,
    BlockStack,
    GenSpec,
    UsageError,
    complex_gaussians,
    derive_seed,
    generate,
    is_ppt,
    is_psd,
    kron,
    partial_transpose,
    random_ppt,
    random_psd,
    random_separable,
)
from blockineq import densemat, randgen
from blockineq.randgen import DEFAULT_PPT_ATTEMPTS, MAX_SEED
from oracles import eigvalsh_lapack


# -------------------------------------------------------------- derive_seed


def test_derive_seed_is_deterministic_and_in_range():
    a = derive_seed(42, "suite", 3)
    b = derive_seed(42, "suite", 3)
    assert a == b
    assert 0 <= a <= MAX_SEED


def test_derive_seed_separates_paths():
    seen = {
        derive_seed(42, "suite", 3),
        derive_seed(42, "suite", 4),
        derive_seed(42, "suites", 3),
        derive_seed(43, "suite", 3),
        derive_seed(42, "suite", 3, 0),
    }
    assert len(seen) == 5


def test_derive_seed_distinguishes_string_from_int_labels():
    # "3" and 3 must address different streams
    assert derive_seed(7, "3") != derive_seed(7, 3)


def test_derive_seed_rejects_bad_inputs():
    with pytest.raises(UsageError):
        derive_seed(-1, "x")
    with pytest.raises(UsageError):
        derive_seed(MAX_SEED + 1, "x")
    with pytest.raises(TypeError):
        derive_seed(0, 1.5)


# -------------------------------------------------------- complex_gaussians


def test_gaussians_deterministic_bitwise():
    a = complex_gaussians(4, 5, 1234)
    b = complex_gaussians(4, 5, 1234)
    assert np.array_equal(a, b)
    assert a.shape == (4, 5)


@pytest.mark.parametrize(
    "seed",
    [0, 1, MAX_SEED, derive_seed(42, "theorem2", 2, 2, 0), derive_seed(7, "witness", 3)],
)
def test_gaussians_are_box_muller_on_a_fresh_philox_stream(seed):
    # the reused, re-keyed generator draws what a freshly keyed one draws
    rows, cols = 3, 5
    u = np.random.Generator(np.random.Philox(key=seed)).random(2 * rows * cols)
    radii = np.sqrt(-2.0 * np.log1p(-u[: rows * cols]))
    angles = (2.0 * np.pi) * u[rows * cols :]
    want = (radii * np.cos(angles) + 1j * (radii * np.sin(angles))).reshape(rows, cols)
    complex_gaussians(4, 4, seed ^ 1)  # leaves the shared generator mid-stream
    assert np.array_equal(complex_gaussians(rows, cols, seed), want)


@pytest.mark.parametrize("seed", [0, 1, 2**63, MAX_SEED, derive_seed(42, "thm8_9", 5, 3)])
def test_a_rekeyed_generator_draws_what_a_fresh_one_draws(seed):
    # whatever the shared generator was left with: a partly used buffer and a
    # held 32-bit half; each re-key starts the stream of Philox(key=seed) anew
    want = np.random.Generator(np.random.Philox(key=seed))
    want = (want.random(9), want.integers(0, 2**32, 5, dtype=np.uint64))
    for _ in range(2):
        gen = randgen._keyed_generator(seed ^ 5)
        gen.random(3)
        gen.integers(0, 7, 3, dtype=np.uint32)
        gen = randgen._keyed_generator(seed)
        state = gen.bit_generator.state
        assert state["state"]["key"].tolist() == [seed, 0]
        assert state["state"]["counter"].tolist() == [0, 0, 0, 0]
        got = (gen.random(9), gen.integers(0, 2**32, 5, dtype=np.uint64))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_gaussians_seed_sensitivity():
    assert not np.array_equal(complex_gaussians(4, 4, 1), complex_gaussians(4, 4, 2))


def test_gaussians_moments_sane():
    z = complex_gaussians(200, 200, 99).ravel()
    assert abs(z.real.mean()) < 0.02
    assert abs(z.imag.mean()) < 0.02
    assert abs(z.real.var() - 1.0) < 0.05
    assert abs(z.imag.var() - 1.0) < 0.05


def test_gaussians_finite_even_for_extreme_uniforms():
    # log1p(-u) keeps the radius finite for u in [0, 1)
    for seed in range(50):
        z = complex_gaussians(8, 8, seed)
        assert np.all(np.isfinite(z.real)) and np.all(np.isfinite(z.imag))


# ----------------------------------------------------------------- random_psd


def test_random_psd_1x1_nonnegative():
    a = random_psd(1, 1, 5)
    assert a.shape == (1, 1)
    assert a[0, 0].real >= 0.0
    assert a[0, 0].imag == 0.0


def test_random_psd_deterministic_bitwise():
    assert np.array_equal(random_psd(5, 3, 77), random_psd(5, 3, 77))


def test_random_psd_min_eig_over_draws():
    for t in range(200):
        a = random_psd(4, 4, derive_seed(0, "psd-test", t))
        scale = max(1.0, np.linalg.norm(a))
        assert eigvalsh_lapack(a)[0] >= -1e-10 * scale


def test_random_psd_rank_is_respected():
    for rank in (1, 2, 4):
        a = random_psd(4, rank, 11)
        vals = eigvalsh_lapack(a)
        big = np.sum(vals > 1e-8 * max(1.0, vals[-1]))
        assert big == rank


def test_random_psd_validates_arguments():
    with pytest.raises(UsageError):
        random_psd(0, 1, 0)
    with pytest.raises(UsageError):
        random_psd(3, 0, 0)
    with pytest.raises(UsageError):
        random_psd(3, 4, 0)


# ------------------------------------------------------------ random_separable


def test_separable_single_term_is_ppt():
    out = random_separable(2, 2, 1, 21)
    ok, _, _ = is_ppt(out)
    assert ok
    assert (out.m, out.n) == (2, 2)


def test_separable_outputs_are_ppt():
    for t in range(100):
        out = random_separable(2, 3, 1 + t % 3, derive_seed(1, "sep-test", t))
        ok, _, _ = is_ppt(out)
        assert ok


def test_separable_is_hermitian_with_positive_trace():
    out = random_separable(3, 2, 3, 33)
    assert np.allclose(out.mat, out.mat.conj().T, atol=1e-12)
    tr = np.trace(out.mat)
    assert abs(tr.imag) <= 1e-12 * max(1.0, abs(tr))
    assert tr.real > 0


def test_separable_rejects_zero_terms():
    with pytest.raises(UsageError):
        random_separable(2, 2, 0, 0)


# ----------------------------------------------------------------- random_ppt


def test_random_ppt_2x2_accepts_by_rejection():
    # at (2,2) genuine rejection draws are common; scan a few seeds
    paths = [random_ppt(2, 2, s)[1] for s in range(10)]
    assert "rejection" in paths
    for s in range(10):
        block, _ = random_ppt(2, 2, s)
        ok, _, _ = is_ppt(block)
        assert ok


def test_random_ppt_1xk_first_draw_accepted():
    # with m = 1 the partial transpose is the identity, so every PSD draw passes
    for k in (2, 5):
        block, path = random_ppt(1, k, 3)
        assert path == "rejection"
        ok, _, _ = is_ppt(block)
        assert ok


def test_random_ppt_fallback_is_still_ppt():
    # at (3,3) a single full-rank draw essentially never lands PPT,
    # so max_attempts=1 exercises the separable fallback
    found = False
    for s in range(10):
        block, path = random_ppt(3, 3, s, max_attempts=1)
        ok, _, _ = is_ppt(block)
        assert ok
        if path == "separable":
            found = True
    assert found


def test_random_ppt_deterministic():
    b1, p1 = random_ppt(2, 2, 1212)
    b2, p2 = random_ppt(2, 2, 1212)
    assert p1 == p2
    assert np.array_equal(b1.mat, b2.mat)


def test_random_ppt_validates_attempts():
    with pytest.raises(UsageError):
        random_ppt(2, 2, 0, max_attempts=0)


# ------------------------------------------------------------------- GenSpec


@pytest.mark.parametrize("kind", ["gram_psd", "low_rank", "separable", "ppt_rejection"])
def test_generate_outputs_match_kind(kind):
    spec = GenSpec(kind=kind, m=2, n=2, seed=404)
    out = generate(spec)
    assert (out.m, out.n) == (2, 2)
    ok, _ = is_psd(out.mat)
    assert ok
    if kind in ("separable", "ppt_rejection"):
        ppt_ok, _, _ = is_ppt(out)
        assert ppt_ok


def test_generate_bit_identical_across_calls():
    spec = GenSpec(kind="low_rank", m=2, n=3, seed=5150)
    assert np.array_equal(generate(spec).mat, generate(spec).mat)


def test_generate_low_rank_default_is_half_rank():
    out = generate(GenSpec(kind="low_rank", m=2, n=3, seed=61))
    vals = eigvalsh_lapack(out.mat)
    big = np.sum(vals > 1e-8 * max(1.0, vals[-1]))
    assert big == 3  # ceil(6 / 2)


def test_genspec_validation():
    with pytest.raises(UsageError):
        GenSpec(kind="wishart", m=2, n=2, seed=0)
    with pytest.raises(UsageError):
        GenSpec(kind="gram_psd", m=0, n=2, seed=0)
    with pytest.raises(UsageError):
        GenSpec(kind="gram_psd", m=2, n=2, seed=-1)


# ------------------------------------------------------------ stacked draws


def test_stacked_draws_equal_the_draws_of_each_seed():
    seeds = [3, 17, 2**64 - 1]
    stack = random_psd(5, [5, 2, 1], seeds)
    assert stack.shape == (3, 5, 5)
    for k, (rank, s) in enumerate(zip([5, 2, 1], seeds)):
        assert np.array_equal(stack[k], random_psd(5, rank, s))
    assert np.array_equal(random_psd(4, 2, seeds)[1], random_psd(4, 2, 17))
    sep = random_separable(2, 3, [1, 3], seeds[:2])
    assert isinstance(sep, BlockStack) and len(sep) == 2
    assert np.array_equal(sep.mat[1], random_separable(2, 3, 3, 17).mat)
    assert random_psd(3, [], []).shape == (0, 3, 3)


def _gram_of_each_seed(dim, rank, seed):
    g = complex_gaussians(rank, dim, seed)
    a = g.conj().T @ g
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("dim", range(1, 17))
def test_stacked_draws_under_the_suites_rank_schedule_equal_each_seed_alone(dim):
    # ranks d, ceil(d/2), d, 1 interleaved, as the block suites draw them:
    # one Box-Muller pass and one Gram product per rank group of the stack
    seeds = [0, MAX_SEED] + [derive_seed(dim, "rank-schedule", t) for t in range(14)]
    ranks = [(dim, -(-dim // 2), dim, 1)[t % 4] for t in range(len(seeds))]
    stack = random_psd(dim, ranks, seeds)
    assert stack.shape == (len(seeds), dim, dim)
    for k, (rank, s) in enumerate(zip(ranks, seeds)):
        assert stack[k].tobytes() == random_psd(dim, rank, s).tobytes()
        assert stack[k].tobytes() == _gram_of_each_seed(dim, rank, s).tobytes()


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("bad", [0, 5])
def test_a_bad_rank_anywhere_in_a_stack_is_refused_before_anything_is_drawn(
    monkeypatch, where, bad
):
    with pytest.raises(UsageError) as alone:
        random_psd(4, bad, 1)

    def no_draw(seed):
        raise AssertionError("a draw ran before every rank was checked")

    monkeypatch.setattr(randgen, "_keyed_generator", no_draw)
    ranks = [4, 2, 4, 1, 4]
    ranks[where] = bad
    with pytest.raises(UsageError) as stacked:
        random_psd(4, ranks, [11, 12, 13, 14, 15])
    assert str(stacked.value) == str(alone.value)


def test_stacked_random_ppt_equals_each_seed_on_both_paths():
    seeds = list(range(40, 52))
    stack, paths = random_ppt(2, 2, seeds, max_attempts=2)
    assert isinstance(stack, BlockStack) and len(paths) == len(seeds)
    assert set(paths) == {"rejection", "separable"}  # both paths at these seeds
    for k, s in enumerate(seeds):
        one, path = random_ppt(2, 2, s, max_attempts=2)
        assert path == paths[k]
        assert np.array_equal(stack.mat[k], one.mat)


@pytest.fixture
def solves(monkeypatch):
    """The sizes of the Jacobi solves made while the test runs: 1 for a scalar solve."""
    sizes = []
    scalar = densemat.hermitian_eigenvalues
    stacked = densemat.hermitian_eigenvalues_stack

    def counted_scalar(x):
        sizes.append(1)
        return scalar(x)

    def counted_stack(x):
        sizes.append(len(x))
        return stacked(x)

    monkeypatch.setattr(densemat, "hermitian_eigenvalues", counted_scalar)
    monkeypatch.setattr(densemat, "hermitian_eigenvalues_stack", counted_stack)
    return sizes


def test_psd_and_separable_draws_solve_nothing(solves):
    # PSD and PPT by construction; each checker tests its own hypothesis
    random_psd(4, 2, 3)
    random_psd(4, [4, 1, 2], [3, 4, 5])
    random_separable(2, 3, 2, 7)
    random_separable(3, 3, [1, 2, 3], [7, 8, 9])
    generate(GenSpec("separable", 2, 2, 11))
    assert solves == []


def test_random_ppt_makes_no_jacobi_solve(solves):
    # LAPACK decides the candidates; each checker solves its draws itself
    seeds = list(range(40, 52))
    _, paths = random_ppt(2, 2, seeds, max_attempts=3)
    assert set(paths) == {"rejection", "separable"}
    random_ppt(3, 3, 7)
    generate(GenSpec("ppt_rejection", 2, 3, 11))
    assert solves == []


def _margin_candidate(depth):
    """A PSD 2x2-block ``A`` whose partial transpose has minimum ``-depth * max(1, ||A^tau||_F)``.

    ``A = I + cP`` with ``P = sum_ij |ii><jj|`` (eigenvalues 0 and 2) is PSD
    for ``c >= -1/2``; its partial transpose ``I + cF``, ``F`` the swap, has
    smallest eigenvalue ``1 - c``.
    """
    p = np.zeros((4, 4))
    p[np.ix_([0, 3], [0, 3])] = 1.0
    swap = partial_transpose(BlockMatrix(2, 2, p)).mat
    c = 1.0
    for _ in range(5):
        c = 1.0 + depth * np.linalg.norm(np.eye(4) + c * swap)
    return (np.eye(4) + c * p).astype(np.complex128)


@pytest.mark.parametrize(
    "depth, accepted",
    [
        (DEFAULT_TOL - randgen._PPT_MARGIN / 2, False),
        (DEFAULT_TOL - 2 * randgen._PPT_MARGIN, True),
    ],
)
def test_random_ppt_rejects_a_candidate_within_its_margin(monkeypatch, depth, accepted):
    # is_ppt accepts both candidates at DEFAULT_TOL; random_ppt keeps only
    # one whose partial transpose clears that threshold by its margin
    candidate = _margin_candidate(depth)
    ok, min_a, min_tau = is_ppt(BlockMatrix(2, 2, candidate))
    assert ok and min_a > 0
    assert min_tau == pytest.approx(-depth * np.linalg.norm(candidate), rel=1e-3)
    real = randgen.random_psd

    def one_candidate(dim, rank, seed):
        return candidate[np.newaxis] if dim == 4 else real(dim, rank, seed)

    monkeypatch.setattr(randgen, "random_psd", one_candidate)
    block, path = random_ppt(2, 2, 5, max_attempts=1)
    assert path == ("rejection" if accepted else "separable")
    assert np.array_equal(block.mat, candidate) == accepted


def _random_ppt_attempt_by_attempt(m, n, seed, max_attempts):
    """``random_ppt`` for one seed as a loop: draw, test, stop at the first PPT draw."""
    for t in range(max_attempts):
        candidate = random_psd(m * n, m * n, derive_seed(seed, "ppt-attempt", t))
        ok, _, _ = is_ppt(BlockMatrix(m, n, candidate))
        if ok:
            return candidate, "rejection"
    fallback = random_separable(m, n, 3, derive_seed(seed, "ppt-fallback"))
    return fallback.mat, "separable"


@pytest.mark.parametrize(
    "m, n, max_attempts",
    [
        (2, 2, DEFAULT_PPT_ATTEMPTS),
        (3, 3, DEFAULT_PPT_ATTEMPTS),
        (2, 3, DEFAULT_PPT_ATTEMPTS),
        (3, 2, DEFAULT_PPT_ATTEMPTS),
        (2, 4, DEFAULT_PPT_ATTEMPTS),
        (2, 2, 1),
        (3, 3, 1),
        (2, 3, 2),
    ],
)
def test_random_ppt_equals_an_attempt_by_attempt_loop(m, n, max_attempts):
    seeds = list(range(60, 100))
    stack, paths = random_ppt(m, n, seeds, max_attempts=max_attempts)
    for k, s in enumerate(seeds):
        want, path = _random_ppt_attempt_by_attempt(m, n, s, max_attempts)
        assert paths[k] == path, s
        assert np.array_equal(stack.mat[k], want), s
        one, one_path = random_ppt(m, n, s, max_attempts=max_attempts)
        assert one_path == path and np.array_equal(one.mat, want), s


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3)])
def test_separable_members_are_their_kron_sums(m, n):
    seeds = [11, 12]
    out = random_separable(m, n, [1, 2], seeds)
    for k, (count, seed) in enumerate(zip([1, 2], seeds)):
        want = sum(
            kron(
                random_psd(m, m, derive_seed(seed, "separable-left", t)),
                random_psd(n, n, derive_seed(seed, "separable-right", t)),
            )
            for t in range(count)
        )
        assert np.array_equal(out.mat[k], want)


def test_stacked_draws_validate_per_seed_arguments():
    with pytest.raises(UsageError):
        random_psd(3, [3, 3], [1, 2, 3])
    with pytest.raises(UsageError):
        random_psd(3, [3], 1)
    with pytest.raises(UsageError):
        random_psd(3, [3, 4], [1, 2])
    with pytest.raises(UsageError):
        random_separable(2, 2, [1, 0], [1, 2])
