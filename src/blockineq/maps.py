"""Linear maps on matrix algebras and their Choi-style certificates.

A map ``phi : M_n -> M_k`` is represented by its images on the standard
matrix units ``E_{i,j}`` (row-major order). Complete positivity is decided
by positivity of the Choi block matrix ``[phi(E_{i,j})]_{i,j}``; complete
copositivity by positivity of the co-Choi block matrix ``[phi(E_{j,i})]_{i,j}``
(equivalently, the Choi matrix of ``phi`` composed with the transpose).
Both certificates are single PSD checks on an ``nk x nk`` matrix, which is
what makes them machine-checkable here. The residuals of the partial-trace
block checkers are the builtin ``phi`` and ``psi`` maps' :func:`blockwise_image`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockops import BlockMatrix
from .densemat import DEFAULT_TOL, as_matrix, is_psd
from .errors import ShapeError, UsageError

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
    """Apply ``phi`` to an ``n x n`` matrix: its image as a 1 x 1 block matrix."""
    return blockwise_image(phi, BlockMatrix(1, phi.n, x)).mat


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
    # [i, j] of each is a (k, k) image of E_{i,j}: the unit itself, and tr(E_{i,j}) I
    units = np.eye(n * n, dtype=np.complex128).reshape(n, n, n, n)
    traces = np.eye(n, dtype=np.complex128)[:, :, np.newaxis, np.newaxis] * np.eye(n)
    if name == "phi":
        images = traces + units
    elif name == "psi":
        images = traces - units
    elif name == "identity":
        images = units
    elif name == "transpose":
        images = units.transpose(0, 1, 3, 2)
    else:
        images = np.eye(n, dtype=np.complex128).reshape(n, n, 1, 1)
    k = images.shape[-1]
    return LinearMapRep(n, k, tuple(images.reshape(n * n, k, k)))


def _images(phi: LinearMapRep) -> np.ndarray:
    """The basis images as an ``(n, n, k, k)`` array; ``[i, j]`` is the image of ``E_{i+1,j+1}``."""
    return np.array(phi.basis_images).reshape(phi.n, phi.n, phi.k, phi.k)


def choi_matrix(phi: LinearMapRep) -> BlockMatrix:
    """The Choi block matrix ``[phi(E_{i,j})]_{i,j}`` in ``M_n(M_k)``.

    By Choi's theorem its positivity is exactly complete positivity of ``phi``.
    """
    size = phi.n * phi.k
    return BlockMatrix(phi.n, phi.k, _images(phi).transpose(0, 2, 1, 3).reshape(size, size))


def co_choi_matrix(phi: LinearMapRep) -> BlockMatrix:
    """The co-Choi block matrix ``[phi(E_{j,i})]_{i,j}`` in ``M_n(M_k)``.

    This is the Choi matrix of ``X -> phi(X^T)``, so its positivity is
    exactly complete copositivity of ``phi``.
    """
    size = phi.n * phi.k
    return BlockMatrix(phi.n, phi.k, _images(phi).transpose(1, 2, 0, 3).reshape(size, size))


def certify_completely_positive(phi, tol: float = DEFAULT_TOL):
    """Certify complete positivity; returns (verdict, Choi min eigenvalue).

    ``phi`` is one :class:`LinearMapRep`, or a sequence of maps of one
    shape ``(n, k)``, whose Choi matrices are decided in one
    :func:`~blockineq.densemat.is_psd` call, as a stack; the verdicts and
    minima are then arrays, one entry per map, each bitwise the map's own.
    """
    return _certify(choi_matrix, phi, tol)


def certify_completely_copositive(phi, tol: float = DEFAULT_TOL):
    """Certify complete copositivity; returns (verdict, co-Choi min eigenvalue).

    Takes one map or a sequence of maps of one shape, as
    :func:`certify_completely_positive` does.
    """
    return _certify(co_choi_matrix, phi, tol)


def _certify(certificate, phi, tol: float):
    """:func:`~blockineq.densemat.is_psd` of ``certificate(phi)``, or of the stack of each map's."""
    if isinstance(phi, LinearMapRep):
        return is_psd(certificate(phi).mat, tol=tol)
    maps = list(phi)
    shapes = sorted({(each.n, each.k) for each in maps})
    if len(shapes) != 1:
        raise UsageError(f"expected one or more maps of one shape (n, k), got shapes {shapes}")
    return is_psd(np.stack([certificate(each).mat for each in maps]), tol=tol)


def blockwise_image(phi: LinearMapRep, a, swap: bool = False):
    """Apply ``phi`` block by block: ``[phi(A_{i,j})]`` (or ``[phi(A_{j,i})]``).

    With ``swap=True`` this is the block-transposed application
    ``(id tensor phi)(A^tau)`` used when testing copositivity on states. A
    :class:`~blockineq.blockops.BlockStack` gives the stack of its members'
    images. Each entry is one ``einsum`` over the map's stacked images,
    ``phi(X) = sum_{p,q} X_{p,q} phi(E_{p,q})``.
    """
    if a.n != phi.n:
        raise ShapeError(f"map acts on M_{phi.n} but blocks are {a.n}x{a.n}")
    spec = "...jpiq,pqrs->...irjs" if swap else "...ipjq,pqrs->...irjs"
    image = np.einsum(spec, a._as_blocks(), _images(phi))
    size = a.m * phi.k
    return type(a)(a.m, phi.k, image.reshape(a.mat.shape[:-2] + (size, size)))

