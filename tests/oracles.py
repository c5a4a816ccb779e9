"""Independent oracles used by the test suite.

Every oracle recomputes a quantity through a different route than the
library does (explicit index loops, cofactor expansion, closed-form
characteristic-polynomial roots, LAPACK via numpy), so agreement between
the two routes is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import math

import numpy as np


def kron_loops(x, y) -> np.ndarray:
    """Kronecker product by quadruple loop over entries."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    p, q = x.shape
    r, s = y.shape
    out = np.zeros((p * r, q * s), dtype=np.complex128)
    for i in range(p):
        for j in range(q):
            for k in range(r):
                for l in range(s):
                    out[i * r + k, j * s + l] = x[i, j] * y[k, l]
    return out


def det_cofactor(a) -> complex:
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * complex(a[0, j]) * det_cofactor(minor)
    return total


def eig_closed_form(a) -> np.ndarray:
    """Eigenvalues (ascending) of a Hermitian matrix with n <= 3.

    Solves the characteristic polynomial directly: trivial for n=1, the
    quadratic formula for n=2, and the trigonometric solution of the
    depressed cubic for n=3.  No iteration involved.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    if n == 2:
        mean = (a[0, 0].real + a[1, 1].real) / 2.0
        disc = math.sqrt(((a[0, 0].real - a[1, 1].real) / 2.0) ** 2 + abs(a[0, 1]) ** 2)
        return np.array([mean - disc, mean + disc])
    if n == 3:
        q = (a[0, 0].real + a[1, 1].real + a[2, 2].real) / 3.0
        p1 = abs(a[0, 1]) ** 2 + abs(a[0, 2]) ** 2 + abs(a[1, 2]) ** 2
        p2 = (
            (a[0, 0].real - q) ** 2
            + (a[1, 1].real - q) ** 2
            + (a[2, 2].real - q) ** 2
            + 2.0 * p1
        )
        p = math.sqrt(p2 / 6.0)
        if p == 0.0:
            return np.array([q, q, q])
        b = (a - q * np.eye(3)) / p
        # det of a 3x3 by the rule of Sarrus; real for Hermitian input.
        det_b = (
            b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
            - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
            + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
        ).real
        r = min(1.0, max(-1.0, det_b / 2.0))
        phi = math.acos(r) / 3.0
        hi = q + 2.0 * p * math.cos(phi)
        lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
        mid = 3.0 * q - hi - lo
        return np.array(sorted([lo, mid, hi]))
    raise ValueError("closed-form oracle only covers n <= 3")


# Agreement of the stacked Jacobi solve with the scalar one and with LAPACK,
# per eigenvalue, relative to max(1, ||X||_F) of the solved matrix (for a
# checker's residual: relative to that residual's reported scale). The two
# Jacobi orderings and LAPACK are each backward stable; measured differences
# stay below 4e-15 for d <= 16, and the bound leaves 25x room for that.
STACK_AGREEMENT_RTOL = 1e-13


def eigvalsh_lapack(a) -> np.ndarray:
    """LAPACK eigenvalues (ascending); independent of the Jacobi solver."""
    return np.linalg.eigvalsh(np.asarray(a, dtype=np.complex128))


def blocks_of(mat, m: int, n: int) -> list[list[np.ndarray]]:
    """Explicit m x m grid of n x n blocks sliced out of a flat matrix."""
    mat = np.asarray(mat, dtype=np.complex128)
    return [
        [mat[i * n : (i + 1) * n, j * n : (j + 1) * n].copy() for j in range(m)]
        for i in range(m)
    ]


def assemble(blocks) -> np.ndarray:
    m = len(blocks)
    r, c = blocks[0][0].shape
    out = np.zeros((m * r, m * c), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            out[i * r : (i + 1) * r, j * c : (j + 1) * c] = blocks[i][j]
    return out


def partial_transpose_loops(mat, m: int, n: int) -> np.ndarray:
    """Swap blocks (i,j) <-> (j,i) without transposing inside blocks."""
    grid = blocks_of(mat, m, n)
    return assemble([[grid[j][i] for j in range(m)] for i in range(m)])


def partial_trace_1_loops(mat, m: int, n: int) -> np.ndarray:
    """Sum of the diagonal blocks (an n x n matrix)."""
    grid = blocks_of(mat, m, n)
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(m):
        out += grid[i][i]
    return out


def partial_trace_2_loops(mat, m: int, n: int) -> np.ndarray:
    """The m x m matrix of blockwise traces, entry by entry."""
    grid = blocks_of(mat, m, n)
    out = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            for t in range(n):
                out[i, j] += grid[i][j][t, t]
    return out


def realign_loops(mat, m: int, n: int) -> np.ndarray:
    """Exchange the two tensor factors: entry ((i,p),(j,q)) -> ((p,i),(q,j)).

    Forced by realign(X (x) Y) = Y (x) X; output lives in M_n(M_m).
    """
    mat = np.asarray(mat, dtype=np.complex128)
    out = np.zeros((n * m, n * m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            for p in range(n):
                for q in range(n):
                    out[p * m + i, q * m + j] = mat[i * n + p, j * n + q]
    return out


def submatrix_loops(a, rows, cols) -> np.ndarray:
    """Entry selection with explicit 1-based index lists."""
    a = np.asarray(a, dtype=np.complex128)
    return np.array(
        [[a[i - 1, j - 1] for j in cols] for i in rows], dtype=np.complex128
    ).reshape(len(rows), len(cols))


def builtin_apply(name: str, x) -> np.ndarray:
    """The five built-in maps evaluated straight from their defining formulas."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    tr = complex(np.trace(x))
    if name == "phi":
        return tr * np.eye(n, dtype=np.complex128) + x
    if name == "psi":
        return tr * np.eye(n, dtype=np.complex128) - x
    if name == "identity":
        return x.copy()
    if name == "transpose":
        return x.T.copy()
    if name == "trace_map":
        return np.array([[tr]], dtype=np.complex128)
    raise ValueError(f"unknown builtin {name!r}")


def unit_matrix(n: int, i: int, j: int) -> np.ndarray:
    """Matrix unit E_{i,j} with 1-based indices."""
    out = np.zeros((n, n), dtype=np.complex128)
    out[i - 1, j - 1] = 1.0
    return out


def choi_loops(name: str, n: int) -> np.ndarray:
    """[Phi(E_{i,j})] assembled by hand from the defining formulas."""
    return assemble(
        [
            [builtin_apply(name, unit_matrix(n, i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )


def co_choi_loops(name: str, n: int) -> np.ndarray:
    """[Phi(E_{j,i})] assembled by hand from the defining formulas."""
    return assemble(
        [
            [builtin_apply(name, unit_matrix(n, j, i)) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )


def blockwise_image_loops(phi, a, swap: bool = False) -> np.ndarray:
    """``[phi(A_{i,j})]`` (``[phi(A_{j,i})]`` with ``swap``), block by block.

    Each block's image is summed over the matrix units, ``phi(X) =
    sum_{p,q} X_{p,q} phi(E_{p,q})``, and the images are assembled by hand.
    """
    grid = blocks_of(a.mat, a.m, a.n)
    out = []
    for i in range(a.m):
        row = []
        for j in range(a.m):
            block = grid[j][i] if swap else grid[i][j]
            image = np.zeros((phi.k, phi.k), dtype=np.complex128)
            for p in range(phi.n):
                for q in range(phi.n):
                    image += block[p, q] * phi.image(p + 1, q + 1)
            row.append(image)
        out.append(row)
    return assemble(out)


def block2_g_loops(mat, n: int) -> np.ndarray:
    """Block2's G from the pair formula, block by block.

    ``G_{(p,p'),(q,q')} = (tr H_{p'q'}) H_pq - H_{pq'} H_{p'q}`` over the
    ordered pairs ``(p, p')`` in ``((0, 1), (1, 0))``, for the blocks
    ``H_pq`` of a ``2n x 2n`` matrix.
    """
    h = blocks_of(mat, 2, n)
    pairs = ((0, 1), (1, 0))
    return assemble(
        [
            [np.trace(h[pp][qq]) * h[p][q] - h[p][qq] @ h[pp][q] for q, qq in pairs]
            for p, pp in pairs
        ]
    )


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Dense complex Gaussian test input from an arbitrary numpy Generator."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def dyadic_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex entries on a 1/16 grid: every pairwise product is exact in
    doubles, so permutation identities involving fresh products stay bitwise."""
    re = rng.integers(-64, 65, size=(rows, cols)) / 16.0
    im = rng.integers(-64, 65, size=(rows, cols)) / 16.0
    return re + 1j * im


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n, n)
    return (g + g.conj().T) / 2.0


def random_psd_lapack(rng: np.random.Generator, n: int) -> np.ndarray:
    """PSD test input via a Gram product, independent of the library generator."""
    g = random_complex(rng, n, n)
    a = g.conj().T @ g
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Submatrix inequalities, one (alpha, beta) pair at a time: the scalar route
# the batched checkers replaced (np.ix_ selections, matrix products, one LU
# determinant per minor). Index sets are 1-based member tuples; each returns
# (passed, scalar_gap, details) with the checker's detail keys.
# ---------------------------------------------------------------------------


def _ix(a, rows, cols) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)[
        np.ix_([i - 1 for i in rows], [j - 1 for j in cols])
    ]


def _det(x) -> complex:
    return complex(np.linalg.det(x)) if len(x) else 1.0 + 0.0j


def trace_submatrix_scalar(a, alpha, beta, tol):
    aa, ab, bb = _ix(a, alpha, alpha), _ix(a, alpha, beta), _ix(a, beta, beta)
    x = float(np.trace(aa @ bb).real)
    y = float(np.trace(ab.conj().T @ ab).real)
    t_aa = float(np.trace(aa).real)
    t_bb = float(np.trace(bb).real)
    t_ab = complex(np.trace(ab))
    r_plus = t_aa * t_bb + abs(t_ab) ** 2
    r_minus = t_aa * t_bb - abs(t_ab) ** 2
    gap8 = r_plus - (x + y)
    s8 = max(1.0, abs(x + y), abs(r_plus))
    gap9 = r_minus - abs(x - y)
    s9 = max(1.0, abs(x - y), abs(r_minus))
    details = {
        "gap_thm8": gap8,
        "scale_thm8": s8,
        "gap_thm9": gap9,
        "scale_thm9": s9,
        "gap_eq9_oneside": r_minus - (y - x),
        "cardinality": len(alpha),
    }
    return gap8 >= -tol * s8 and gap9 >= -tol * s9, min(gap8, gap9), details


def det_submatrix_scalar(a, alpha, beta, tol):
    union = tuple(sorted(set(alpha) | set(beta)))
    inter = tuple(sorted(set(alpha) & set(beta)))
    det_a = _det(_ix(a, alpha, alpha)).real
    det_b = _det(_ix(a, beta, beta)).real
    det_ab = _det(_ix(a, alpha, beta))
    det_union = _det(_ix(a, union, union)).real
    det_inter = _det(_ix(a, inter, inter)).real
    lhs = det_union * det_inter
    gap = (det_a * det_b - abs(det_ab) ** 2) - lhs
    scale = max(1.0, abs(lhs), abs(det_a * det_b), abs(det_ab) ** 2)
    details = {
        "gap": gap,
        "scale": scale,
        "det_alpha": det_a,
        "det_beta": det_b,
        "abs_det_cross_sq": abs(det_ab) ** 2,
        "det_union": det_union,
        "det_intersection": det_inter,
        "desnanot_case": len(set(alpha) - set(beta)) == 1,
    }
    return gap >= -tol * scale, gap, details


def refusal_order_stack(hypothesis: str) -> np.ndarray:
    """``[I, diag(x, 0, ..., 0), outside]``: three ``(2, 3)`` block matrices.

    Member 1, with ``x = 1e154`` (``x^2`` just below the float64 maximum),
    is PSD and PPT and solves, but every residual of the block checks other
    than block2 holds ``x`` at least twice on its diagonal, so its Frobenius
    norm overflows. Member 2 is outside ``hypothesis``: ``-I`` for ``"PSD"``;
    for ``"PPT"`` the projector onto ``e_1 (x) f_1 + e_2 (x) f_2``, which is
    PSD but not PPT.
    """
    big = np.zeros((6, 6), dtype=np.complex128)
    big[0, 0] = 1e154
    if hypothesis == "PSD":
        outside = -np.eye(6)
    else:
        v = np.zeros(6)
        v[[0, 4]] = 1.0
        outside = np.outer(v, v)
    return np.stack([np.eye(6), big, outside]).astype(np.complex128)


# ---------------------------------------------------------------------------
# The stacked Jacobi sweep in its first layout: the working stack held as
# (B, d, d), each round's columns and rows updated by four fancy gathers and
# four fancy scatters, and the whole stack swept at once. The library's
# chunked, stack-axis-last kernel must return bitwise the same values,
# sweeps and off-diagonal mass for every member.
# ---------------------------------------------------------------------------


def round_robin_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Brent-Luk round-robin rounds of one sweep, as ``(p, q)`` index arrays."""
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
    return rounds


def jacobi_stack_reference(x, rtol: float, max_sweeps: int):
    """``(values, offdiag_residual, sweeps)`` of a Hermitian ``(B, d, d)`` stack.

    Stops each member at ``rtol * max(1, ||X||_F)`` or ``max_sweeps``
    sweeps, and returns what the loop left without raising.
    """
    x = np.asarray(x, dtype=np.complex128)
    count, n = x.shape[0], x.shape[1]
    scale = np.maximum(1.0, np.linalg.norm(x, axis=(1, 2)))
    a = (x + np.conj(np.swapaxes(x, 1, 2))) / 2.0
    threshold = rtol * scale
    skip = threshold / (2.0 * n)
    upper = np.triu_indices(n, 1)
    sweeps = np.zeros(count, dtype=np.int64)
    offdiag = _offdiag_mass_reference(a, upper)
    active = np.flatnonzero((offdiag >= threshold) & (sweeps < max_sweeps))
    while active.size:
        sub = a[active]
        sub_skip = skip[active, np.newaxis]
        for p, q in round_robin_pairs(n):
            _rotate_reference(sub, p, q, sub_skip)
        a[active] = sub
        sweeps[active] += 1
        offdiag[active] = _offdiag_mass_reference(sub, upper)
        active = active[(offdiag[active] >= threshold[active]) & (sweeps[active] < max_sweeps)]
    values = np.sort(np.diagonal(a, axis1=1, axis2=2).real, axis=1)
    return values, offdiag, sweeps


def _offdiag_mass_reference(a, upper) -> np.ndarray:
    # Left to right over the upper triangle in row order: the order numpy
    # summed the first layout's F-ordered gather in whenever two or more
    # members were still sweeping (a lone member it summed pairwise).
    v = a[:, upper[0], upper[1]]
    squares = v.real * v.real + v.imag * v.imag
    total = np.zeros(len(a))
    for j in range(squares.shape[1]):
        total += squares[:, j]
    return np.sqrt(2.0 * total)


def _rotate_reference(a, p, q, skip) -> None:
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
    b, k = np.nonzero(rot)
    a[b, p[k], q[k]] = 0.0
    a[b, q[k], p[k]] = 0.0
