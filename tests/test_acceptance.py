"""Acceptance gate: the eight first-class criteria for this package.

Each criterion is one test with a pinned tolerance and (where stated) a
runtime budget, and prints exactly one ``criterion N: PASS/FAIL`` line
(visible with ``pytest -s``, or via the per-test PASSED/FAILED line of
``pytest -v``). Tolerances here are contractual: do not loosen them.
"""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from blockineq.blockops import (
    BlockMatrix,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
    realign,
)
from blockineq.densemat import hermitian_eigenvalues, kron
from blockineq.errors import PreconditionError
from blockineq.inequalities import (
    IndexSet,
    check_block2,
    check_copositive_partial_trace,
    check_det_submatrix,
    check_phi_lower,
    check_ppt_reduction,
    check_trace_submatrix,
    overlap_embedding,
)
from blockineq.maps import (
    LinearMapRep,
    builtin_map,
    certify_completely_copositive,
    certify_completely_positive,
    choi_matrix,
    co_choi_matrix,
)
from blockineq.randgen import derive_seed, random_psd
from blockineq.suites import DEFAULT_SHAPES, SuiteConfig, run_suite


def _emit(num: int, desc: str, ok: bool, elapsed: float | None = None,
          budget: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s" + (f" / budget {budget:.0f}s]" if budget else "]")
    print(f"criterion {num}: {status} - {desc}{timing}")


# ---------------------------------------------------------------------------
# criterion 1: map certification matrix + exact psi spectra
# ---------------------------------------------------------------------------


def test_criterion_1_map_certification_matrix():
    start = time.perf_counter()
    phi = builtin_map("phi", 2)
    psi = builtin_map("psi", 2)

    phi_cp, _ = certify_completely_positive(phi)
    phi_ccp, _ = certify_completely_copositive(phi)
    psi_cp, _ = certify_completely_positive(psi)
    psi_ccp, _ = certify_completely_copositive(psi)

    choi_vals = hermitian_eigenvalues(choi_matrix(psi).mat).values
    co_vals = hermitian_eigenvalues(co_choi_matrix(psi).mat).values
    choi_want = np.array([-1.0, 1.0, 1.0, 1.0])
    co_want = np.array([0.0, 0.0, 0.0, 2.0])

    elapsed = time.perf_counter() - start
    ok = (
        phi_cp and phi_ccp
        and (not psi_cp) and psi_ccp
        and np.max(np.abs(choi_vals - choi_want)) <= 1e-10
        and np.max(np.abs(co_vals - co_want)) <= 1e-10
        and elapsed < 1.0
    )
    _emit(1, "map certification matrix and exact psi spectra", ok, elapsed, 1.0)
    assert phi_cp and phi_ccp, "phi must be certified completely PPT"
    assert not psi_cp, "psi must fail complete positivity"
    assert psi_ccp, "psi must be certified completely copositive"
    assert np.max(np.abs(choi_vals - choi_want)) <= 1e-10, choi_vals
    assert np.max(np.abs(co_vals - co_want)) <= 1e-10, co_vals
    assert elapsed < 1.0, f"criterion 1 exceeded 1 s budget: {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2: integer diagonal dominance of the co-Choi matrices
# ---------------------------------------------------------------------------


def test_criterion_2_diagonal_dominance_of_co_choi():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        for name in ("phi", "psi"):
            mat = co_choi_matrix(builtin_map(name, n)).mat
            assert np.array_equal(mat.imag, np.zeros_like(mat.imag)), (name, n)
            real = mat.real
            assert np.array_equal(real, np.rint(real)), (name, n)
            entries = real.astype(np.int64)  # exact: small integers
            for i in range(entries.shape[0]):
                off = int(np.sum(np.abs(entries[i]))) - abs(int(entries[i, i]))
                if not (entries[i, i] >= 0 and entries[i, i] >= off):
                    ok = False
                    break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _emit(2, "integer diagonal dominance of co-Choi(phi/psi), n=2..8", ok, elapsed, 1.0)
    assert ok, "diagonal dominance or the 1 s budget was violated"


# ---------------------------------------------------------------------------
# criterion 3: the six block-inequality suites at full default volume
# ---------------------------------------------------------------------------


def test_criterion_3_block_inequality_suites_seed42():
    cfg = SuiteConfig(
        suites=("theorem2", "corollary3", "combined", "upper_bound", "corollary6", "block2"),
        trials=1000,
        shapes=DEFAULT_SHAPES,
        seed=42,
        tol=1e-9,
    )
    report = run_suite(cfg)
    # 4 shapes x 1000 trials for five suites, 2 two-row shapes x 1000 for block2
    want_counts = {
        "theorem2": 4000,
        "corollary3": 4000,
        "combined": 4000,
        "upper_bound": 4000,
        "corollary6": 4000,
        "block2": 2000,
    }
    counts = {name: len(reps) for name, reps in report.reports.items()}
    ok = (
        report.failed == 0
        and not report.counterexamples
        and counts == want_counts
        and report.duration_seconds < 60.0
    )
    _emit(3, "six block suites, seed 42, 1000 trials/shape, zero failures",
          ok, report.duration_seconds, 60.0)
    assert counts == want_counts, counts
    assert report.failed == 0, f"{report.failed} of {report.checks} checks failed"
    assert not report.counterexamples
    assert report.duration_seconds < 60.0, (
        f"criterion 3 exceeded 60 s budget: {report.duration_seconds:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 4: non-PPT discrimination on the entangled pattern
# ---------------------------------------------------------------------------


def test_criterion_4_non_ppt_discrimination():
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = mat[0, 3] = mat[3, 0] = mat[3, 3] = 1.0
    pattern = BlockMatrix(2, 2, mat)

    rep_cop = check_copositive_partial_trace(pattern)
    rep_phi = check_phi_lower(pattern)
    with pytest.raises(PreconditionError) as excinfo:
        check_ppt_reduction(pattern)

    ok = rep_cop.passed and rep_phi.passed
    _emit(4, "entangled pattern: copositive+phi bounds pass, PPT reduction refuses", ok)
    assert rep_cop.passed, rep_cop
    assert rep_phi.passed, rep_phi
    assert excinfo.value.min_eig == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# criteria 5 and 6: exhaustive submatrix battery + proof-route oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def submatrix_battery():
    """One pass over n in {4, 5} x 100 PSD draws x all (alpha, beta) pairs.

    Direct trace/determinant checks are timed separately from the
    route-recomputation (criterion 6) so the criterion 5 budget measures
    only what criterion 5 specifies. Ranks alternate full / ceil(n/2).
    """
    stats = {
        "trace_checks": 0,
        "trace_failures": 0,
        "det_checks": 0,
        "det_failures": 0,
        "desnanot_pairs": 0,
        "desnanot_max_rel": 0.0,
        "route_checks": 0,
        "route_max_rel8": 0.0,
        "route_max_rel9": 0.0,
        "direct_seconds": 0.0,
    }
    for n in (4, 5):
        pair_list = []
        for k in range(1, n + 1):
            combos = [IndexSet(n, c) for c in itertools.combinations(range(1, n + 1), k)]
            pair_list.extend((al, be) for al in combos for be in combos)
        for t in range(100):
            rank = n if t % 2 == 0 else (n + 1) // 2
            mat = random_psd(n, rank, derive_seed(42, "acceptance5", n, t))
            for al, be in pair_list:
                t0 = time.perf_counter()
                rep = check_trace_submatrix(mat, al, be, 1e-9)
                stats["trace_checks"] += 1
                if not rep.passed:
                    stats["trace_failures"] += 1
                if al.members != be.members:
                    rep_det = check_det_submatrix(mat, al, be, 1e-9)
                    stats["det_checks"] += 1
                    if not rep_det.passed:
                        stats["det_failures"] += 1
                    if rep_det.details["desnanot_case"]:
                        stats["desnanot_pairs"] += 1
                        rel = abs(rep_det.details["gap"]) / rep_det.details["scale"]
                        stats["desnanot_max_rel"] = max(stats["desnanot_max_rel"], rel)
                stats["direct_seconds"] += time.perf_counter() - t0

                route = check_block2(
                    BlockMatrix(2, len(al), overlap_embedding(mat, al, be)), 1e-9
                )
                stats["route_checks"] += 1
                d8 = rep.details["gap_thm8"]
                d9 = rep.details["gap_eq9_oneside"]
                rel8 = abs(route.details["gap_eq8"] - d8) / max(1.0, abs(d8))
                rel9 = abs(route.details["gap_eq9"] - d9) / max(1.0, abs(d9))
                stats["route_max_rel8"] = max(stats["route_max_rel8"], rel8)
                stats["route_max_rel9"] = max(stats["route_max_rel9"], rel9)
    return stats


def test_criterion_5_exhaustive_submatrix_suites(submatrix_battery):
    s = submatrix_battery
    # n=4: 69 pairs (54 with alpha != beta, 48 Desnanot); n=5: 251 / 220 / 160
    ok = (
        s["trace_checks"] == 32000
        and s["trace_failures"] == 0
        and s["det_checks"] == 27400
        and s["det_failures"] == 0
        and s["desnanot_pairs"] == 20800
        and s["desnanot_max_rel"] <= 1e-8
        and s["direct_seconds"] < 120.0
    )
    _emit(5, "exhaustive trace/det submatrix battery, Desnanot pairs at equality",
          ok, s["direct_seconds"], 120.0)
    assert s["trace_checks"] == 32000 and s["det_checks"] == 27400, s
    assert s["trace_failures"] == 0, s
    assert s["det_failures"] == 0, s
    assert s["desnanot_pairs"] == 20800, s
    assert s["desnanot_max_rel"] <= 1e-8, s["desnanot_max_rel"]
    assert s["direct_seconds"] < 120.0, (
        f"criterion 5 exceeded 120 s budget: {s['direct_seconds']:.1f}s"
    )


def test_criterion_6_proof_route_oracle(submatrix_battery):
    s = submatrix_battery
    ok = (
        s["route_checks"] == 32000
        and s["route_max_rel8"] <= 1e-10
        and s["route_max_rel9"] <= 1e-10
    )
    _emit(6, "two-block route gaps agree with direct gaps on every trial", ok)
    assert s["route_checks"] == 32000, s
    assert s["route_max_rel8"] <= 1e-10, s["route_max_rel8"]
    assert s["route_max_rel9"] <= 1e-10, s["route_max_rel9"]


# ---------------------------------------------------------------------------
# criterion 7: structural identities, 500 instances each
# ---------------------------------------------------------------------------


def test_criterion_7_structural_identities():
    rng = np.random.default_rng(20250707)

    def draw(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    counts = dict.fromkeys(
        ["double_realign", "kron_swap", "trace_transport", "tau_commute",
         "double_tau", "co_choi_tau"], 0
    )

    for _ in range(500):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))

        a = BlockMatrix(m, n, draw(m * n, m * n))
        back = realign(realign(a))
        assert (back.m, back.n) == (m, n)
        assert np.array_equal(back.mat, a.mat)
        counts["double_realign"] += 1

        x, y = draw(m, m), draw(n, n)
        swapped = realign(BlockMatrix(m, n, kron(x, y)))
        assert (swapped.m, swapped.n) == (n, m)
        assert np.max(np.abs(swapped.mat - kron(y, x))) <= 1e-12
        counts["kron_swap"] += 1

        assert np.array_equal(partial_trace_2(realign(a)), partial_trace_1(a))
        counts["trace_transport"] += 1

        # realign and tau commute exactly on globally symmetric inputs,
        # the domain on which the identity is an identity (see the tests in
        # test_blockops for the transpose relation on general inputs)
        raw = draw(m * n, m * n)
        sym = BlockMatrix(m, n, raw + raw.T)
        assert np.array_equal(
            realign(partial_transpose(sym)).mat, partial_transpose(realign(sym)).mat
        )
        counts["tau_commute"] += 1

        assert np.array_equal(partial_transpose(partial_transpose(a)).mat, a.mat)
        counts["double_tau"] += 1

        d = int(rng.integers(1, 4))
        phi = LinearMapRep(d, d, tuple(draw(d, d) for _ in range(d * d)))
        assert np.array_equal(
            co_choi_matrix(phi).mat, partial_transpose(choi_matrix(phi)).mat
        )
        counts["co_choi_tau"] += 1

    ok = all(v == 500 for v in counts.values())
    _emit(7, "six structural identities, 500 instances each, exact or 1e-12", ok)
    assert counts == dict.fromkeys(counts, 500), counts


# ---------------------------------------------------------------------------
# criterion 8: CLI determinism, byte-identical modulo duration
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism():
    cmd = ["blockineq", "verify", "--suite", "all", "--seed", "42", "--format", "json"]
    outs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)

    def strip_duration(raw: bytes) -> bytes:
        return re.sub(rb'"duration_seconds":[0-9eE.+-]+', b'"duration_seconds":0', raw)

    identical = strip_duration(outs[0]) == strip_duration(outs[1])
    doc = json.loads(outs[0])
    ok = identical and doc["summary"]["passed"] is True
    _emit(8, "verify --suite all --seed 42: byte-identical reports, exit 0", ok)
    assert identical, "reports differ beyond the duration field"
    assert doc["summary"]["passed"] is True
    assert doc["summary"]["failed"] == 0


def _verify_seed42_from_source(trials: int) -> bytes:
    """The JSON report of ``verify --suite all --seed 42`` at ``trials``, run as
    ``python -m blockineq`` on the source tree, so no installed console
    script is needed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "blockineq", "verify", "--suite", "all", "--seed", "42"]
    cmd += ["--trials", str(trials), "--format", "json"]
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_module_cli_determinism_from_source():
    """Criterion 8's check at 20 trials, through ``python -m`` on the source tree."""
    outs = [_verify_seed42_from_source(20) for _ in range(2)]
    stripped = [re.sub(rb'"duration_seconds":[0-9eE.+-]+', b"", out) for out in outs]
    assert stripped[0] == stripped[1], "reports differ beyond the duration field"
    assert json.loads(outs[0])["summary"]["passed"] is True


# The md5 of `verify --suite all --seed 42 --trials T --format json` with its
# "duration_seconds" removed, by the regex of perfbench/run.py's
# strip_duration. Work meant to keep every output bit leaves these alone; a
# change that moves a report on purpose updates them and says why.
SEED42_DIGESTS = {
    1: "ce49e339179adb204e66f9efafac0c59",
    100: "a7ff718f1350a0568e4c2445eab844f7",
    1000: "83c6e0b9b6b131b9c2382ef16873bf4c",
}


@pytest.mark.parametrize("trials", sorted(SEED42_DIGESTS))
def test_seed42_reports_are_pinned_bitwise(trials):
    report = re.sub(rb',?"duration_seconds":[-+0-9.eE]+', b"", _verify_seed42_from_source(trials))
    assert hashlib.md5(report).hexdigest() == SEED42_DIGESTS[trials]
