"""Deterministic, seed-addressable generators of PSD / separable / PPT inputs.

Streams are counter-based (Philox) and keyed by a 64-bit seed, so identical
arguments reproduce identical matrices on every run regardless of call order.
Child seeds for composite draws are derived by hashing ``(seed, labels...)``,
which keeps trials independent and parallel-safe.

Complex Gaussians are produced by Box-Muller on the uniform stream rather
than the generator's built-in normal sampler, so the mapping from uniforms
to entries is pinned by this module and not by the numpy version. A stack
of draws takes each seed's uniforms from its own stream, then transforms
them, forms the Gram products and symmetrizes them once per rank group;
every step is per element or per member, so each member is bitwise the
draw its seed gives alone.

The PSD and separable generators solve nothing: their outputs are PSD or
PPT by construction, and each checker tests its own hypothesis on every
draw, at the run's tolerance. Only :func:`random_ppt` solves, to accept or
reject its candidates, with LAPACK's ``eigvalsh``: the package's one LAPACK
eigensolve, whose minima decide a draw and reach no report.

Each thread keeps one Philox generator and re-keys it for every draw, since
building a keyed ``Philox`` first seeds it from OS entropy, which costs more
than the draw itself.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .blockops import BlockMatrix, BlockStack, partial_transpose
from .densemat import DEFAULT_TOL, JACOBI_RTOL, frobenius_stack, kron
from .errors import UsageError

MAX_SEED = 2**64 - 1
DEFAULT_PPT_ATTEMPTS = 50
_FALLBACK_TERMS = 3
# random_ppt accepts a candidate A when LAPACK's smallest eigenvalue of A^tau
# is at least (_PPT_MARGIN - DEFAULT_TOL) * s, s = max(1, ||A^tau||_F). The
# checker that gets the draw accepts A^tau when its Jacobi minimum is at least
# -DEFAULT_TOL * s (psd_verdict). The Jacobi stops once the off-diagonal mass
# is below JACOBI_RTOL * s, which bounds its diagonal's distance from the
# spectrum (Weyl), and its rotations' rounding is a few eps * s per sweep;
# LAPACK is backward stable, within a few d * eps * s. So the two minima
# differ by about JACOBI_RTOL * s at most (measured: below 1e-15 * s at
# d <= 9), and a margin of 100 times that makes every accepted draw pass
# the checker's PPT test too.
_PPT_MARGIN = 100 * JACOBI_RTOL


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise UsageError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def derive_seed(seed: int, *parts) -> int:
    """Derive a child seed from ``seed`` and a path of labels.

    Labels may be strings or integers. The derivation is a keyed hash, so
    distinct paths give statistically independent streams and the result is
    stable across platforms and Python versions.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(_check_seed(seed).to_bytes(8, "little"))
    for part in parts:
        if isinstance(part, str):
            raw = part.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        elif isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(8, "little", signed=True))
        else:
            raise TypeError(f"seed path labels must be str or int, got {type(part)!r}")
    return int.from_bytes(h.digest(), "little")


_local = threading.local()


def _keyed_generator(seed: int) -> np.random.Generator:
    """This thread's generator, in the state of ``Generator(Philox(key=seed))``.

    Key ``(seed, 0)``, counter 0 and an empty buffer, so the draws are those
    of a fresh generator, without the OS-entropy read that building one costs.
    The state it is set from is kept with the generator: a re-key writes the
    seed into its key array and sets the state again, which copies it.
    """
    keyed = getattr(_local, "keyed", None)
    if keyed is None:
        key = np.zeros(2, dtype=np.uint64)
        state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        keyed = _local.keyed = (np.random.Generator(np.random.Philox(key=0)), key, state)
    gen, key, state = keyed
    key[0] = seed
    gen.bit_generator.state = state
    return gen


def complex_gaussians(rows: int, cols: int, seed: int) -> np.ndarray:
    """A ``rows x cols`` matrix of i.i.d. complex Gaussians (N(0,1) parts)."""
    gen = _keyed_generator(_check_seed(seed))
    return _box_muller(gen.random(2 * rows * cols)).reshape(rows, cols)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Complex Gaussians from uniforms along the last axis.

    Its first half gives the radii and its second half the angles, so each
    row of a stack is transformed as it would be alone.
    """
    count = u.shape[-1] // 2
    # 1 - u lies in (0, 1], keeping the log finite
    radii = np.sqrt(-2.0 * np.log1p(-u[..., :count]))
    angles = (2.0 * math.pi) * u[..., count:]
    return radii * np.cos(angles) + 1j * (radii * np.sin(angles))


def _draws(seed, **per_draw) -> tuple[bool, list, dict]:
    """``(single, seeds, per-draw arguments)`` of a generator call.

    ``seed`` is one seed or a sequence of seeds, one per draw. An integer
    argument applies to every draw; a sequence gives one value per seed.
    """
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    values = {}
    for name, value in per_draw.items():
        if isinstance(value, (int, np.integer)):
            values[name] = [int(value)] * len(seeds)
        elif single or len(value) != len(seeds):
            raise UsageError(f"{name} must be one integer, or one per seed of a sequence")
        else:
            values[name] = [int(v) for v in value]
    return single, seeds, values


def random_psd(dim: int, rank: int | Sequence[int], seed: int | Sequence[int]) -> np.ndarray:
    """A random ``dim x dim`` PSD matrix of the given rank.

    Built as ``G* G`` from a ``rank x dim`` complex Gaussian ``G`` (a Gram
    construction, so positivity holds by design), then symmetrized exactly.

    With a sequence of seeds (and ``rank`` one integer, or one per seed)
    the draws come back as a ``(B, dim, dim)`` stack, each member the matrix
    its seed gives alone. Every rank and seed is checked before anything is
    drawn; then each seed's uniforms come from its re-keyed stream, and the
    Box-Muller transform, the Gram product and the symmetrization run once
    per rank group of the stack. A single seed is a stack of one, and its
    draw is that stack's member. Nothing is solved here: a checker tests
    each draw for its hypothesis, at the run's tolerance.
    """
    single, seeds, per = _draws(seed, rank=rank)
    if dim < 1:
        raise UsageError(f"dim must be positive, got {dim}")
    for r in per["rank"]:
        if not 1 <= r <= dim:
            raise UsageError(f"rank must satisfy 1 <= rank <= dim, got rank={r}, dim={dim}")
    seeds = [_check_seed(s) for s in seeds]
    groups = {}
    for k, r in enumerate(per["rank"]):
        groups.setdefault(r, []).append(k)
    out = np.empty((len(seeds), dim, dim), dtype=np.complex128)
    for r, group in groups.items():
        u = np.empty((len(group), 2 * r * dim))
        for i, k in enumerate(group):
            _keyed_generator(seeds[k]).random(out=u[i])
        out[group] = _symmetrized_gram(_box_muller(u).reshape(len(group), r, dim))
    return out[0] if single else out


def _symmetrized_gram(g: np.ndarray) -> np.ndarray:
    """``(A + A*) / 2`` for ``A = G* G``, of each member of a ``(B, rank, dim)`` stack ``G``."""
    a = np.conj(np.swapaxes(g, -1, -2)) @ g
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2.0


def random_separable(
    m: int, n: int, terms: int | Sequence[int], seed: int | Sequence[int]
) -> BlockMatrix | BlockStack:
    """A sum of Kronecker products of independent PSD factors.

    The output is PSD and stays PSD under partial transpose (each term maps
    to ``kron(P^T, Q)``), so it is PPT by construction. With a sequence of
    seeds (and ``terms`` one integer, or one per seed) returns a
    :class:`BlockStack` of the draws. As in :func:`random_psd`, nothing is
    solved here.
    """
    single, seeds, per = _draws(seed, terms=terms)
    counts = per["terms"]
    if any(c < 1 for c in counts):
        raise UsageError(f"terms must be positive, got {min(counts)}")
    terms_of = [(k, t) for k, c in enumerate(counts) for t in range(c)]
    left = [derive_seed(seeds[k], "separable-left", t) for k, t in terms_of]
    right = [derive_seed(seeds[k], "separable-right", t) for k, t in terms_of]
    p, q = random_psd(m, m, left), random_psd(n, n, right)
    total = np.zeros((len(seeds), m * n, m * n), dtype=np.complex128)
    # adds each draw's terms in order t = 0, 1, ..., as one draw alone would
    np.add.at(total, [k for k, _ in terms_of], kron(p, q))
    out = BlockStack(m, n, total)
    return out[0] if single else out


def random_ppt(
    m: int, n: int, seed: int | Sequence[int], max_attempts: int = DEFAULT_PPT_ATTEMPTS
) -> tuple[BlockMatrix, str] | tuple[BlockStack, tuple[str, ...]]:
    """Rejection-sample a PPT block matrix; fall back to a separable one.

    Draws full-rank PSD matrices and keeps the first whose partial transpose
    is PSD. A candidate is a Gram product, PSD by construction, so only its
    partial transpose is solved: by LAPACK (``np.linalg.eigvalsh``), and
    accepted when its smallest eigenvalue clears :func:`blockineq.blockops.is_ppt`'s
    threshold at ``DEFAULT_TOL`` by a margin that covers both solvers' error,
    so every accepted draw is PPT by ``is_ppt`` too. The eigenvalue only
    decides; it is not returned, and a checker solves and reports the draw
    itself. After ``max_attempts`` rejections the output comes from
    :func:`random_separable` instead, which is PPT by construction, so an
    output is always produced. Returns the matrix and the path that
    produced it (``"rejection"`` or ``"separable"``).

    With a sequence of seeds returns a :class:`BlockStack` and a tuple of
    paths. Every attempt of every seed is drawn up front, and all of them
    are decided in one ``eigvalsh`` call on the stack of their partial
    transposes; each seed keeps its first accepted attempt. Attempt ``t`` of
    a seed depends only on ``derive_seed(seed, "ppt-attempt", t)`` and LAPACK
    solves each member of a stack alone, so each member is what its seed
    gives alone.
    """
    if max_attempts < 1:
        raise UsageError(f"max_attempts must be positive, got {max_attempts}")
    single, seeds, _ = _draws(seed)
    d = m * n
    attempt_seeds = [derive_seed(s, "ppt-attempt", t) for s in seeds for t in range(max_attempts)]
    candidates = random_psd(d, d, attempt_seeds)
    tau = partial_transpose(BlockStack(m, n, candidates)).mat
    threshold = (_PPT_MARGIN - DEFAULT_TOL) * np.maximum(1.0, frobenius_stack(tau))
    ok = (np.linalg.eigvalsh(tau)[:, 0] >= threshold).reshape(len(seeds), max_attempts)
    candidates = candidates.reshape(len(seeds), max_attempts, d, d)
    out = candidates[np.arange(len(seeds)), ok.argmax(axis=1)]
    paths = ["rejection" if accepted else "separable" for accepted in ok.any(axis=1)]
    pending = [k for k, path in enumerate(paths) if path == "separable"]
    if pending:
        fallback_seeds = [derive_seed(seeds[k], "ppt-fallback") for k in pending]
        out[pending] = random_separable(m, n, _FALLBACK_TERMS, fallback_seeds).mat
    drawn = BlockStack(m, n, out)
    return (drawn[0], paths[0]) if single else (drawn, tuple(paths))


GEN_KINDS = ("gram_psd", "low_rank", "separable", "ppt_rejection")


@dataclass(frozen=True)
class GenSpec:
    """A fully-addressed random draw: identical specs give identical matrices."""

    kind: str
    m: int
    n: int
    seed: int
    rank_or_terms: int | None = None

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise UsageError(f"unknown generator kind {self.kind!r}; expected one of {GEN_KINDS}")
        if self.m < 1 or self.n < 1:
            raise UsageError(f"block shape must be positive, got ({self.m}, {self.n})")
        _check_seed(self.seed)


def generate(spec: GenSpec) -> BlockMatrix:
    """Materialize one draw for a :class:`GenSpec`."""
    dim = spec.m * spec.n
    if spec.kind == "gram_psd":
        rank = dim if spec.rank_or_terms is None else spec.rank_or_terms
        return BlockMatrix(spec.m, spec.n, random_psd(dim, rank, spec.seed))
    if spec.kind == "low_rank":
        rank = math.ceil(dim / 2) if spec.rank_or_terms is None else spec.rank_or_terms
        return BlockMatrix(spec.m, spec.n, random_psd(dim, rank, spec.seed))
    if spec.kind == "separable":
        terms = _FALLBACK_TERMS if spec.rank_or_terms is None else spec.rank_or_terms
        return random_separable(spec.m, spec.n, terms, spec.seed)
    block, _ = random_ppt(spec.m, spec.n, spec.seed)
    return block
