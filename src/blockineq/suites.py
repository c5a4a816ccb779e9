"""Seeded verification suites: deterministic batches of inequality checks.

Each suite draws its inputs from child seeds derived as
``derive_seed(seed, suite, shape..., trial)``, so any single check can be
replayed from the provenance string in its report without re-running the
batch. Reports are assembled in canonical suite order and trial order; the
wall-clock duration is the only nondeterministic field in a serialized run.

The registry ``_RUNNERS`` holds one runner per family of suites, each
called as ``runner(suite, cfg, rec, batches)``: ``_run_block`` for the
table-driven block suites, ``_run_block2`` for ``block2`` (which adds its
consistency chain), ``_run_submatrix`` for the exhaustive submatrix suites
and ``_run_choi_certs``. A block or submatrix suite is a row of
``_BLOCK_SUITES`` or ``_SUBMATRIX_SUITES``: the checker it calls, by name,
and what its runner and its seeded stream read, so a new such suite is a
new row.

:func:`run_files` checks explicit documents instead, through the same
runners (``_RUNNERS``). It evaluates all of a document's requested block
checks once (:func:`~blockineq.inequalities._check_blocks`) and hands the
block checkers the document carrying their reports; the submatrix suites
get its plain matrix. Nothing a report holds depends on what the process
solved before. ``_run_choi_certs`` certifies the builtin maps of each
shape ``(n, k)`` in one call per certificate.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .blockops import BlockMatrix, BlockStack
from .densemat import DEFAULT_TOL
from .errors import SelfCheckError, UsageError
from .inequalities import (
    _BLOCK_INEQUALITIES,
    CheckReport,
    PairReports,
    _check_blocks,
    _Checked,
    _chunk_members,
    check_block2,
    check_combined_reduction,
    check_copositive_partial_trace,
    check_det_submatrix,
    check_phi_lower,
    check_ppt_reduction,
    check_trace_submatrix,
    check_upper_bound,
    exhaustive_pairs,
)
from .maps import (
    BUILTIN_MAPS,
    LinearMapRep,
    builtin_map,
    certify_completely_copositive,
    certify_completely_positive,
    choi_matrix,
)
from .matio import load, to_doc
from .randgen import MAX_SEED, derive_seeds, random_ppt, random_psd, random_separable

# A suite of a table-driven family is a row; its runner reads the row and
# calls the checker ``check_<name>`` that the row names, looked up in this
# module when it runs.
# block suite -> (the inequality it checks, an entry of the block-inequality
# table; whether its trials open with the entangled pattern). A suite of a
# PPT inequality draws PPT inputs, one of a PSD inequality Gram draws.
_BLOCK_SUITES = {
    "theorem2": ("copositive_partial_trace", True),
    "corollary3": ("ppt_reduction", False),
    "combined": ("combined_reduction", False),
    "upper_bound": ("upper_bound", False),
    "corollary6": ("phi_lower", True),
    "block2": ("block2", False),
}
# submatrix suite -> (the bound it checks on every pair; whether pairs with
# alpha = beta are left out; whether each report adds the Desnanot-Jacobi gap)
_SUBMATRIX_SUITES = {
    "thm8_9": ("trace_submatrix", False, False),
    "eqlin": ("det_submatrix", True, True),
}

DEFAULT_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
DEFAULT_DIMS = (4, 5)
DEFAULT_TRIALS = 1000
# Rejection attempts per PPT draw inside suites; misses fall back to a
# separable (hence PPT) input, so coverage is kept while bounding runtime.
_SUITE_PPT_ATTEMPTS = 2
_CHOI_CERT_DIMS = (2, 3, 4)

# name -> (completely positive?, completely copositive?)
EXPECTED_CERTIFICATION = {
    "phi": (True, True),
    "psi": (False, True),
    "identity": (True, False),
    "transpose": (False, True),
    "trace_map": (True, True),
}


def expand_suites(names) -> tuple[str, ...]:
    """Resolve suite names (including ``all``) to canonical order; no duplicates."""
    requested = set()
    for name in names:
        if name == "all":
            requested.update(SUITE_NAMES)
        elif name in SUITE_NAMES:
            requested.add(name)
        else:
            raise UsageError(
                f"unknown suite {name!r}; expected one of {('all',) + SUITE_NAMES}"
            )
    if not requested:
        raise UsageError("no suites requested")
    return tuple(s for s in SUITE_NAMES if s in requested)


@dataclass(frozen=True)
class SuiteConfig:
    """Full description of one verification run; equal configs give equal reports."""

    suites: tuple[str, ...] = ("all",)
    trials: int = DEFAULT_TRIALS
    shapes: tuple[tuple[int, int], ...] = DEFAULT_SHAPES
    dims: tuple[int, ...] = DEFAULT_DIMS
    seed: int = 0
    tol: float = DEFAULT_TOL
    output_format: str = "text"

    def __post_init__(self):
        object.__setattr__(self, "suites", tuple(self.suites))
        expand_suites(self.suites)
        if not _is_integer(self.trials):
            raise UsageError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise UsageError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "trials", int(self.trials))
        shapes = tuple(self.shapes)
        for m, n in shapes:
            if not (_is_integer(m) and _is_integer(n) and m >= 1 and n >= 1):
                raise UsageError(f"shapes must be pairs of positive integers, got ({m!r}, {n!r})")
        object.__setattr__(self, "shapes", tuple((int(m), int(n)) for m, n in shapes))
        for d in self.dims:
            if not (_is_integer(d) and d >= 1):
                raise UsageError(f"dims must be positive integers, got {d!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not (_is_integer(self.seed) and 0 <= self.seed <= MAX_SEED):
            raise UsageError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise UsageError(f"tol must be a real number, got {self.tol!r}")
        try:
            tol = float(self.tol)
        except OverflowError:  # an int past float64's range
            tol = math.inf
        if not 0 < tol < math.inf:
            raise UsageError(f"tol must be positive and finite, got {self.tol}")
        object.__setattr__(self, "tol", tol)
        if self.output_format not in ("text", "json"):
            raise UsageError(f"output format must be 'text' or 'json', got {self.output_format!r}")


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, a numpy one included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _listed(value):
    """``value`` with each tuple in it, nested ones too, made a list, as JSON writes it."""
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class Counterexample:
    """A failing check plus the exact input that produced it, ready to replay."""

    suite: str
    trial: int
    report: CheckReport
    input_doc: dict

    def to_doc(self) -> dict:
        """The report's entry for this counterexample, which is also its replayable file."""
        return {
            "suite": self.suite,
            "trial": self.trial,
            "check": report_to_doc(self.report),
            "input": self.input_doc,
        }


@dataclass
class RunReport:
    """Everything one :func:`run_suite` call produced."""

    config: SuiteConfig
    reports: dict[str, list[CheckReport]]
    counterexamples: list[Counterexample]
    duration_seconds: float

    @property
    def checks(self) -> int:
        return sum(len(reps) for reps in self.reports.values())

    @property
    def failed(self) -> int:
        return sum(1 for reps in self.reports.values() for r in reps if not r.passed)

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def _suite_summaries(self) -> dict:
        """Per suite: check and failure counts, and the worst residual and scalar gap."""
        summaries = {}
        for name, reps in self.reports.items():
            residuals = [r.residual_min_eig for r in reps if r.residual_min_eig is not None]
            gaps = [r.scalar_gap for r in reps if r.scalar_gap is not None]
            failed = sum(1 for r in reps if not r.passed)
            summaries[name] = {
                "checks": len(reps),
                "failed": failed,
                "passed": failed == 0,
                "worst_residual_min_eig": min(residuals) if residuals else None,
                "worst_scalar_gap": min(gaps) if gaps else None,
            }
        return summaries

    def to_doc(self) -> dict:
        return {
            "config": {f.name: _listed(getattr(self.config, f.name)) for f in fields(SuiteConfig)},
            "suites": {
                name: {**summary, "reports": [report_to_doc(r) for r in self.reports[name]]}
                for name, summary in self._suite_summaries().items()
            },
            "counterexamples": [ce.to_doc() for ce in self.counterexamples],
            "summary": {"checks": self.checks, "failed": self.failed, "passed": self.passed},
            "duration_seconds": self.duration_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), allow_nan=False, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            "blockineq verification report",
            f"seed={self.config.seed} tol={self.config.tol:g} trials={self.config.trials}",
        ]
        for name, s in self._suite_summaries().items():
            worst_r, worst_g = (
                "n/a" if v is None else f"{v:.6e}"
                for v in (s["worst_residual_min_eig"], s["worst_scalar_gap"])
            )
            lines.append(
                f"suite {name}: checks={s['checks']} failed={s['failed']} "
                f"worst_residual_min_eig={worst_r} worst_scalar_gap={worst_g}"
            )
        lines.append(f"counterexamples: {len(self.counterexamples)}")
        lines.append(
            f"summary: checks={self.checks} failed={self.failed} "
            f"passed={'yes' if self.passed else 'no'}"
        )
        lines.append(f"duration_seconds={self.duration_seconds:.3f}")
        return "\n".join(lines)


def report_to_doc(rep: CheckReport) -> dict:
    return {
        "check_name": rep.check_name,
        "passed": rep.passed,
        "residual_min_eig": rep.residual_min_eig,
        "scalar_gap": rep.scalar_gap,
        "tolerance": rep.tolerance,
        "shape": _listed(rep.shape),
        "seed_info": rep.seed_info,
        "details": rep.details,
    }


class _Recorder:
    def __init__(self, suite_names):
        self.reports = {name: [] for name in suite_names}
        self.counterexamples = []

    def record(self, suite, reports, inputs, infos, first_trial):
        """Record report ``k`` of ``inputs`` under provenance ``infos[k]``.

        A failing report is also a counterexample, of trial ``first_trial +
        k``. One report of one input is a batch of one. Returns the reports
        as recorded.
        """
        if isinstance(reports, CheckReport):
            reports, inputs = [reports], [inputs]
        reports = [replace(rep, seed_info=info) for rep, info in zip(reports, infos)]
        self.reports[suite].extend(reports)
        for k, rep in enumerate(reports):
            if not rep.passed:
                self.counterexample(suite, first_trial + k, rep, inputs[k])
        return reports

    def counterexample(self, suite, trial, rep, matrix):
        self.counterexamples.append(
            Counterexample(suite=suite, trial=int(trial), report=rep, input_doc=to_doc(matrix))
        )


def entangled_pattern(d: int) -> BlockMatrix:
    """The rank-one projector pattern ``sum_{i,j} E_{i,j} (x) E_{i,j}``.

    PSD with eigenvalues ``{d, 0, ...}``, but its partial transpose is the
    swap pattern with eigenvalue -1, so it is the canonical non-PPT PSD input.
    Equals the Choi matrix of the identity map on ``M_d``.
    """
    return choi_matrix(builtin_map("identity", d))


def _rank_for_trial(dim: int, trial: int) -> int:
    """Deterministic rank schedule: full rank, half rank, and rank-1 draws."""
    if dim == 1:
        return 1
    if trial % 4 == 3:
        return 1
    if trial % 2 == 1:
        return math.ceil(dim / 2)
    return dim


# A batch is what a runner's checker takes, the provenance of each report it
# yields and the trial number of the first: a BlockStack (or one BlockMatrix)
# for the block suites, a (T, n, n) stack of matrices (or one matrix) for
# the submatrix suites. A runner checks the batches it is given; given none, it
# draws its seeded stream.


def _gram_inputs(cfg: SuiteConfig, suite: str):
    """Yield one batch per shape: its trials, drawn as one stack, its row's pattern first."""
    for m, n in cfg.shapes:
        dim = m * n
        pattern = _BLOCK_SUITES[suite][1] and m == n and m >= 2
        trials = range(1 if pattern else 0, cfg.trials)
        ranks = [_rank_for_trial(dim, t) for t in trials]
        seeds = derive_seeds(cfg.seed, suite, m, n, count=cfg.trials)[trials.start :]
        mats = random_psd(dim, ranks, seeds)
        infos = [f"random_psd(dim={dim}, rank={r}, seed={s})" for r, s in zip(ranks, seeds)]
        if pattern:
            mats = np.concatenate([entangled_pattern(m).mat[np.newaxis], mats])
            infos.insert(0, f"fixed entangled pattern d={m}")
        yield BlockStack(m, n, mats), infos, 0


def _ppt_inputs(cfg: SuiteConfig, suite: str):
    """Yield one batch per shape: separable and rejection-sampled PPT trials, as one stack."""
    for m, n in cfg.shapes:
        seeds = derive_seeds(cfg.seed, suite, m, n, count=cfg.trials)
        terms = [1 + (t // 2) % 3 for t in range(0, cfg.trials, 2)]
        even = random_separable(m, n, terms, seeds[0::2])
        odd, paths = random_ppt(m, n, seeds[1::2], max_attempts=_SUITE_PPT_ATTEMPTS)
        mats = np.empty((cfg.trials, m * n, m * n), dtype=np.complex128)
        mats[0::2] = even.mat
        mats[1::2] = odd.mat
        infos = [None] * cfg.trials
        infos[0::2] = [
            f"random_separable(m={m}, n={n}, terms={c}, seed={s})"
            for c, s in zip(terms, seeds[0::2])
        ]
        infos[1::2] = [
            f"random_ppt(m={m}, n={n}, seed={s}, max_attempts={_SUITE_PPT_ATTEMPTS}) via {path}"
            for s, path in zip(seeds[1::2], paths)
        ]
        yield BlockStack(m, n, mats), infos, 0


def _psd_inputs(cfg: SuiteConfig, suite: str):
    """Yield each dimension's trials, drawn as one stack, in batches of one check chunk.

    A batch holds the members a submatrix check evaluates at a time
    (:func:`~blockineq.inequalities._chunk_members` of the pairs the suite's
    row checks: all of them, or those with ``alpha != beta``), so that a run
    holds one batch's pair reports at a time.
    """
    for n in cfg.dims:
        size = _chunk_members(exhaustive_pairs(n, distinct=_SUBMATRIX_SUITES[suite][1]))
        ranks = [_rank_for_trial(n, t) for t in range(cfg.trials)]
        seeds = derive_seeds(cfg.seed, suite, n, count=cfg.trials)
        mats = random_psd(n, ranks, seeds)
        infos = [f"random_psd(dim={n}, rank={r}, seed={s})" for r, s in zip(ranks, seeds)]
        for lo in range(0, cfg.trials, size):
            yield mats[lo : lo + size], infos[lo : lo + size], lo


def _run_block(suite, cfg, rec, batches=None):
    """A block suite: the inequality its row names, on each batch.

    Its seeded stream is PPT draws for a PPT inequality, Gram draws for a PSD one.
    """
    check = _BLOCK_SUITES[suite][0]
    checker = globals()[f"check_{check}"]
    draws = _ppt_inputs if _BLOCK_INEQUALITIES[check][0] == "ppt" else _gram_inputs
    for a, infos, trial in batches or draws(cfg, suite):
        rec.record(suite, checker(a, cfg.tol), a, infos, trial)


def _run_block2(suite, cfg, rec, batches=None):
    two_block = replace(cfg, shapes=tuple(s for s in cfg.shapes if s[0] == 2))
    for a, infos, trial in batches or _gram_inputs(two_block, suite):
        for rep in rec.record(suite, check_block2(a, cfg.tol), a, infos, trial):
            d, n = rep.details, rep.shape[1]
            # when G certifies PSD, the traced-out scalar bounds must follow.
            # gap_eq8 and gap_eq9 are tr(W G) / 2 for W = vv* (x) I_n, v = (1, 1)
            # and (1, -1): W >= 0 and tr W = 2n. So G >= -eps * I, eps =
            # tol * scale_g, bounds a gap below by -n * eps only, and the gap's
            # own rounding adds tol * scale_eq.
            slack = n * cfg.tol * d["scale_g"]
            if d["min_eig_g"] >= -cfg.tol * d["scale_g"] and not (
                d["gap_eq8"] >= -(slack + cfg.tol * d["scale_eq8"])
                and d["gap_eq9"] >= -(slack + cfg.tol * d["scale_eq9"])
            ):
                raise SelfCheckError(
                    f"{rep.seed_info}: two-block consistency chain broken: "
                    "G is PSD but a trace gap is negative"
                )


def _record_exhaustive(rec, suite, reports, inputs, infos, first_trial):
    """Record each member's exhaustive check as one report; each failing pair is a counterexample.

    ``reports`` holds one :class:`PairReports` per matrix of ``inputs``, or
    is one for one matrix, a batch of one. A failing pair of member ``k``
    is a counterexample of trial ``first_trial + k``. The report is named
    after the suite row's check, and adds the Desnanot-Jacobi gap where the
    row asks for it.
    """
    check, _, desnanot = _SUBMATRIX_SUITES[suite]
    if isinstance(reports, PairReports):
        reports, inputs = [reports], [inputs]
    for k, (pairs, mat, info) in enumerate(zip(reports, inputs, infos)):
        failed = np.flatnonzero(~pairs.passed)
        for p in failed.tolist():
            failing = replace(pairs.report(p), seed_info=info)
            rec.counterexample(suite, first_trial + k, failing, mat)
        worst = int(np.argmin(pairs.scalar_gap))  # the first of equal minima
        alpha, beta = pairs.batch.pair(worst)
        details = {
            "pairs": len(pairs),
            "failed_pairs": int(failed.size),
            "worst_alpha": alpha,
            "worst_beta": beta,
        }
        if desnanot:
            details.update(_desnanot_details(pairs))
        # its failing pairs are the counterexamples
        rec.reports[suite].append(
            CheckReport(
                check_name=f"{check}_exhaustive",
                passed=failed.size == 0,
                residual_min_eig=None,
                scalar_gap=float(pairs.scalar_gap[worst]),
                tolerance=pairs.tolerance,
                shape=pairs.batch.universe,
                seed_info=info,
                details=details,
            )
        )


def _run_submatrix(suite, cfg, rec, batches=None):
    """A submatrix suite: the bound its row names on every pair of each matrix, as one batch."""
    check, distinct, _ = _SUBMATRIX_SUITES[suite]
    checker = globals()[f"check_{check}"]
    for a, infos, trial in batches or _psd_inputs(cfg, suite):
        n = a.shape[-1]
        pairs = exhaustive_pairs(n, distinct=distinct)
        if not len(pairs):
            raise UsageError(f"matrix dimension {n} admits no index-set pairs with alpha != beta")
        _record_exhaustive(rec, suite, checker(a, pairs, tol=cfg.tol), a, infos, trial)


def _desnanot_details(pairs):
    """The largest relative gap of the Desnanot-Jacobi pairs, where the two sides agree exactly."""
    desnanot = pairs.details["desnanot_case"]
    relgap = np.abs(pairs.scalar_gap[desnanot]) / pairs.details["scale"][desnanot]
    return {"desnanot_max_relgap": float(np.max(relgap, initial=0.0))}


def _run_choi_certs(suite, cfg, rec, batches=None):
    for n in _CHOI_CERT_DIMS:
        maps = {name: builtin_map(name, n) for name in BUILTIN_MAPS}
        # the maps of each shape (n, k) are certified in one call per certificate
        certified = {}
        for k in {phi.k for phi in maps.values()}:
            names = [name for name, phi in maps.items() if phi.k == k]
            group = [maps[name] for name in names]
            (cp, min_choi), (ccp, min_co) = (
                certify(group, cfg.tol)
                for certify in (certify_completely_positive, certify_completely_copositive)
            )
            columns = (cp.tolist(), min_choi.tolist(), ccp.tolist(), min_co.tolist())
            certified.update(zip(names, zip(*columns)))
        for name, phi in maps.items():
            cp, min_choi, ccp, min_co = certified[name]
            exp_cp, exp_ccp = EXPECTED_CERTIFICATION[name]
            rep = CheckReport(
                check_name="choi_certification",
                passed=cp == exp_cp and ccp == exp_ccp,
                residual_min_eig=None,
                scalar_gap=None,
                tolerance=cfg.tol,
                shape=(n, phi.k),
                details={
                    "completely_positive": cp,
                    "expected_positive": exp_cp,
                    "min_eig_choi": min_choi,
                    "completely_copositive": ccp,
                    "expected_copositive": exp_ccp,
                    "min_eig_co_choi": min_co,
                },
            )
            rec.record(suite, rep, phi, [f"builtin map {name!r}, n={n}"], 0)


# The registry of suites, in canonical order: run_suite and run_files both
# dispatch through it, as ``_RUNNERS[name](name, cfg, rec, batches)``. One
# runner serves each family; a block or submatrix suite is a row of its table,
# and block2 keeps its row's place with a runner of its own.
_RUNNERS = {
    **dict.fromkeys(_BLOCK_SUITES, _run_block),
    "block2": _run_block2,
    **dict.fromkeys(_SUBMATRIX_SUITES, _run_submatrix),
    "choi_certs": _run_choi_certs,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(config: SuiteConfig) -> RunReport:
    """Run every requested suite deterministically and collect all reports."""
    start = time.perf_counter()
    names = expand_suites(config.suites)
    if any(name in _BLOCK_SUITES for name in names) and not config.shapes:
        raise UsageError("shapes must be nonempty for the block-matrix suites")
    if "block2" in names and all(m != 2 for m, _ in config.shapes):
        shapes = ",".join(f"{m}x{n}" for m, n in config.shapes)
        raise UsageError(f"suite 'block2' needs a shape with two block rows, got shapes {shapes}")
    if any(name in _SUBMATRIX_SUITES for name in names) and not config.dims:
        raise UsageError("dims must be nonempty for the submatrix suites")
    rec = _Recorder(names)
    for name in names:
        _RUNNERS[name](name, config, rec)
    return RunReport(config, rec.reports, rec.counterexamples, time.perf_counter() - start)


def run_files(config: SuiteConfig, paths) -> RunReport:
    """Run the requested suites on explicitly supplied matrix files.

    Block suites require block-matrix documents; the submatrix suites accept
    any square matrix (a block document's matrix is used as-is) and enumerate
    all index-set pairs exhaustively. ``choi_certs`` never consumes matrix
    files; requesting it by name here is a usage error.

    A block document's requested block checks are evaluated once, before
    the suites run, by :func:`~blockineq.inequalities._check_blocks`:
    their terms are assembled once and their residuals (and the partial
    transpose, for the PPT suites) solved as one stack. From the solvers'
    crossover dimension up the document itself is in that stack, and every
    value is bitwise a lone ``check_*`` call's on the document. Below it the
    document is first tested for PSD alone, and the rest is solved as one
    stack only for several checks: their residual values agree with lone
    ``check_*`` calls' to rounding, not bitwise, while one check's are its
    lone call's, bitwise. ``block2`` is left out of a document without two
    block rows, which ``check_block2`` refuses at its turn. Each block
    checker is handed the document carrying the reports, and returns its
    own, or raises the error it raises alone, at its turn; the submatrix
    suites get the plain matrix and test it for PSD themselves. Every run
    solves the same: nothing is kept from one document, or one run, to the
    next.
    """
    start = time.perf_counter()
    if "choi_certs" in config.suites:
        raise UsageError(
            "suite 'choi_certs' does not consume matrix files; use the 'choi' subcommand"
        )
    names = tuple(n for n in expand_suites(config.suites) if n != "choi_certs")
    paths = list(paths)
    if not paths:
        raise UsageError("no input files given")
    block_names = [name for name in names if name in _BLOCK_SUITES]
    block_checks = [_BLOCK_SUITES[name][0] for name in block_names]
    rec = _Recorder(names)
    for idx, path in enumerate(paths):
        obj = checked = load(path)
        if isinstance(obj, BlockMatrix):
            # check_block2 refuses a document without two block rows at its turn
            checks = [c for c in block_checks if c != "block2" or obj.m == 2]
            checked = _Checked(obj.m, obj.n, obj.mat, _check_blocks(obj, checks, config.tol))
            obj = obj.mat
        elif isinstance(obj, LinearMapRep):
            raise UsageError(f"{path}: expected a matrix document, found a linear map")
        elif block_names:
            raise UsageError(
                f"{path}: suite {block_names[0]!r} needs a block-matrix document "
                "(with fields 'm' and 'n')"
            )
        infos = [f"file {path}"]
        for name in names:
            _RUNNERS[name](name, config, rec, [(checked if name in _BLOCK_SUITES else obj, infos, idx)])
    return RunReport(config, rec.reports, rec.counterexamples, time.perf_counter() - start)
