"""Linear maps on matrix algebras and their Choi-style certificates.

A map ``phi : M_n -> M_k`` is represented by its images on the standard
matrix units ``E_{i,j}`` (row-major order). Complete positivity is decided
by positivity of the Choi block matrix ``[phi(E_{i,j})]_{i,j}``; complete
copositivity by positivity of the co-Choi block matrix ``[phi(E_{j,i})]_{i,j}``
(equivalently, the Choi matrix of ``phi`` composed with the transpose).
Both certificates are single PSD checks on an ``nk x nk`` matrix, which is
what makes them machine-checkable here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockops import BlockMatrix, from_blocks
from .densemat import DEFAULT_TOL, as_matrix, is_psd
from .errors import ShapeError, UsageError
from .randgen import derive_seed, random_psd

BUILTIN_MAPS = ("phi", "psi", "identity", "transpose", "trace_map")


@dataclass(frozen=True)
class LinearMapRep:
    """A linear map ``M_n -> M_k`` given by its images on matrix units.

    ``basis_images[i * n + j]`` is the image of ``E_{i,j}`` (the matrix with
    a single 1 in row ``i``, column ``j``).
    """

    n: int
    k: int
    basis_images: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ShapeError(f"map dimensions must be positive, got n={self.n}, k={self.k}")
        if len(self.basis_images) != self.n * self.n:
            raise ShapeError(
                f"expected {self.n * self.n} basis images, got {len(self.basis_images)}"
            )
        images = tuple(as_matrix(img) for img in self.basis_images)
        for img in images:
            if img.shape != (self.k, self.k):
                raise ShapeError(
                    f"each basis image must be {self.k}x{self.k}, got {img.shape}"
                )
        object.__setattr__(self, "basis_images", images)

    def image(self, i: int, j: int) -> np.ndarray:
        """Image of the matrix unit ``E_{i,j}``, ``1 <= i, j <= n`` (1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise UsageError(
                f"matrix-unit index ({i}, {j}) out of range for n={self.n} (1-based)"
            )
        return self.basis_images[(i - 1) * self.n + (j - 1)]


def apply_map(phi: LinearMapRep, x) -> np.ndarray:
    """Apply ``phi`` to an ``n x n`` matrix by linearity over matrix units."""
    mat = as_matrix(x)
    if mat.shape != (phi.n, phi.n):
        raise ShapeError(f"expected a {phi.n}x{phi.n} input, got {mat.shape}")
    out = np.zeros((phi.k, phi.k), dtype=np.complex128)
    for i in range(1, phi.n + 1):
        for j in range(1, phi.n + 1):
            out += mat[i - 1, j - 1] * phi.image(i, j)
    return out


def builtin_map(name: str, n: int) -> LinearMapRep:
    """One of the built-in maps on ``M_n``.

    - ``phi``: ``X -> tr(X) I + X`` (trace-augmented map)
    - ``psi``: ``X -> tr(X) I - X`` (trace-complement map)
    - ``identity``: ``X -> X``
    - ``transpose``: ``X -> X^T``
    - ``trace_map``: ``X -> [[tr(X)]]`` (codomain ``M_1``)
    """
    if n < 1:
        raise UsageError(f"map dimension must be positive, got {n}")
    if name not in BUILTIN_MAPS:
        raise UsageError(f"unknown builtin map {name!r}; expected one of {BUILTIN_MAPS}")
    eye = np.eye(n, dtype=np.complex128)
    images = []
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[i, j] = 1.0
            if name == "phi":
                images.append(np.trace(unit) * eye + unit)
            elif name == "psi":
                images.append(np.trace(unit) * eye - unit)
            elif name == "identity":
                images.append(unit)
            elif name == "transpose":
                images.append(unit.T.copy())
            else:
                images.append(np.array([[np.trace(unit)]], dtype=np.complex128))
    k = 1 if name == "trace_map" else n
    return LinearMapRep(n, k, tuple(images))


def choi_matrix(phi: LinearMapRep, m: int) -> BlockMatrix:
    """The Choi block matrix ``[phi(E_{i,j})]_{i,j}`` in ``M_n(M_k)``.

    ``m`` names the size of the matrix units; only ``m = n`` is supported
    (by Choi's theorem that single size already decides complete positivity).
    """
    if m != phi.n:
        raise UsageError(f"choi_matrix requires m = n; got m={m} with n={phi.n}")
    blocks = [
        [phi.image(i, j) for j in range(1, phi.n + 1)] for i in range(1, phi.n + 1)
    ]
    return from_blocks(blocks)


def co_choi_matrix(phi: LinearMapRep) -> BlockMatrix:
    """The co-Choi block matrix ``[phi(E_{j,i})]_{i,j}`` in ``M_n(M_k)``.

    This is the Choi matrix of ``X -> phi(X^T)``, so its positivity is
    exactly complete copositivity of ``phi``.
    """
    blocks = [
        [phi.image(j, i) for j in range(1, phi.n + 1)] for i in range(1, phi.n + 1)
    ]
    return from_blocks(blocks)


def certify_completely_positive(
    phi: LinearMapRep, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Certify complete positivity; returns (verdict, Choi min eigenvalue)."""
    return is_psd(choi_matrix(phi, phi.n).mat, tol=tol)


def certify_completely_copositive(
    phi: LinearMapRep, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Certify complete copositivity; returns (verdict, co-Choi min eigenvalue)."""
    return is_psd(co_choi_matrix(phi).mat, tol=tol)


def blockwise_image(phi: LinearMapRep, a: BlockMatrix, swap: bool = False) -> BlockMatrix:
    """Apply ``phi`` block by block: ``[phi(A_{i,j})]`` (or ``[phi(A_{j,i})]``).

    With ``swap=True`` this is the block-transposed application
    ``(id tensor phi)(A^tau)`` used when testing copositivity on states.
    """
    if a.n != phi.n:
        raise ShapeError(f"map acts on M_{phi.n} but blocks are {a.n}x{a.n}")
    blocks4 = a._as_blocks()
    out = []
    for i in range(a.m):
        row = []
        for j in range(a.m):
            block = blocks4[j, :, i, :] if swap else blocks4[i, :, j, :]
            row.append(apply_map(phi, block))
        out.append(row)
    return from_blocks(out)


def random_cocopositivity_witness(
    phi: LinearMapRep,
    m: int,
    trials: int = 500,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> BlockMatrix | None:
    """Search for a PSD ``A`` in ``M_m(M_n)`` with ``[phi(A_{j,i})]`` not PSD.

    Draws are sequential and deterministic in ``seed``, and the witness with
    the smallest trial index wins, so a returned witness is reproducible from
    ``seed`` and ``trials``. Returns ``None`` when every trial
    certifies (or ``trials`` is 0); absence of a witness is sampling evidence,
    not a certificate of copositivity on ``M_m(M_n)``.
    """
    if m < 1:
        raise UsageError(f"m must be positive, got {m}")
    if trials < 0:
        raise UsageError(f"trials must be nonnegative, got {trials}")
    dim = m * phi.n
    for t in range(trials):
        rank = dim if t % 2 == 0 else max(1, dim // 2)
        a = BlockMatrix(m, phi.n, random_psd(dim, rank, derive_seed(seed, "witness", t)))
        ok, _ = is_psd(blockwise_image(phi, a, swap=True).mat, tol=tol)
        if not ok:
            return a
    return None
