"""Tests for blockineq.suites and blockineq.cli: runs, determinism, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import blockineq
from blockineq import cli, densemat, inequalities, suites
from blockineq.blockops import BlockMatrix, BlockStack, is_ppt, partial_transpose
from blockineq.cli import _build_parser, main
from blockineq.densemat import hermitian_eigenvalues, is_psd
from blockineq.errors import (
    BlockineqError,
    HermiticityError,
    NormOverflowError,
    PreconditionError,
    SelfCheckError,
    UsageError,
)
from blockineq.inequalities import (
    CheckReport,
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
from blockineq.matio import doc_to_obj, load, save, to_doc
from blockineq.randgen import derive_seed, random_ppt, random_psd, random_separable
from blockineq.suites import (
    DEFAULT_DIMS,
    DEFAULT_SHAPES,
    DEFAULT_TRIALS,
    EXPECTED_CERTIFICATION,
    SUITE_NAMES,
    RunReport,
    SuiteConfig,
    entangled_pattern,
    expand_suites,
    report_to_doc,
    run_files,
    run_suite,
)
from oracles import STACK_AGREEMENT_RTOL, refusal_order_stack

TINY = SuiteConfig(
    suites=("all",), trials=2, shapes=((2, 2),), dims=(3,), seed=42, tol=1e-9
)


def _doc_without_duration(report: RunReport) -> str:
    doc = report.to_doc()
    doc.pop("duration_seconds")
    return json.dumps(doc, allow_nan=False, sort_keys=True)


# ---------------------------------------------------------------------------
# expand_suites / SuiteConfig
# ---------------------------------------------------------------------------


def test_expand_all_gives_canonical_order():
    assert expand_suites(("all",)) == SUITE_NAMES


def test_suite_names_registry_and_cli_choices_agree():
    # run_suite and run_files dispatch through _RUNNERS; SUITE_NAMES (the
    # canonical report order) and the CLI's --suite choices follow it
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (suite_flag,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert SUITE_NAMES == tuple(suites._RUNNERS)
    assert tuple(suite_flag.choices) == ("all",) + SUITE_NAMES
    assert SUITE_NAMES == (
        "theorem2", "corollary3", "combined", "upper_bound", "corollary6", "block2",
        "thm8_9", "eqlin", "choi_certs",
    )


_TABLE_ROWS = [(name, "block") for name in suites._BLOCK_SUITES] + [
    (name, "submatrix") for name in suites._SUBMATRIX_SUITES
]


@pytest.mark.parametrize("suite, family", _TABLE_ROWS, ids=[name for name, _ in _TABLE_ROWS])
def test_each_table_row_names_a_public_checker_and_runs_under_its_family_runner(suite, family):
    # a runner finds its row's checker by name when it runs, so a mistyped
    # row would otherwise show only when its suite runs
    table = suites._BLOCK_SUITES if family == "block" else suites._SUBMATRIX_SUITES
    check = table[suite][0]
    assert f"check_{check}" in blockineq.__all__
    assert getattr(suites, f"check_{check}") is getattr(blockineq, f"check_{check}")
    runners = {"block": suites._run_block, "submatrix": suites._run_submatrix}
    assert suites._RUNNERS[suite] is (suites._run_block2 if suite == "block2" else runners[family])
    cfg = SuiteConfig(suites=(suite,), trials=1, shapes=((2, 2),), dims=(3,), seed=42)
    want = check if family == "block" else f"{check}_exhaustive"
    assert [rep.check_name for rep in run_suite(cfg).reports[suite]] == [want]


def test_expand_normalizes_order_and_duplicates():
    assert expand_suites(("block2", "theorem2", "block2")) == ("theorem2", "block2")


def test_expand_unknown_suite():
    with pytest.raises(UsageError, match="unknown suite 'nope'"):
        expand_suites(("nope",))


def test_expand_empty_request():
    with pytest.raises(UsageError, match="no suites requested"):
        expand_suites(())


def test_config_defaults():
    cfg = SuiteConfig()
    assert cfg.trials == DEFAULT_TRIALS == 1000
    assert cfg.shapes == DEFAULT_SHAPES == ((2, 2), (2, 3), (3, 2), (3, 3))
    assert cfg.dims == DEFAULT_DIMS == (4, 5)
    assert cfg.seed == 0
    assert cfg.tol == 1e-9


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        ({"trials": 0}, "trials must be >= 1"),
        ({"shapes": ((0, 2),)}, "positive integers"),
        ({"dims": (0,)}, "dims must be positive"),
        ({"seed": -1}, "64-bit unsigned"),
        ({"seed": 2**64}, "64-bit unsigned"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"output_format": "xml"}, "output format"),
        ({"suites": ("bogus",)}, "unknown suite"),
        ({"tol": math.inf}, "tol must be positive and finite"),
        ({"tol": math.nan}, "tol must be positive and finite"),
        ({"tol": 2**1024}, "tol must be positive and finite"),
    ],
)
def test_config_validation(kwargs, msg):
    with pytest.raises(UsageError, match=msg):
        SuiteConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": 4.0}, "trials must be an integer, got 4.0"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"shapes": ((2.9, 2),)}, "shapes must be pairs of positive integers, got (2.9, 2)"),
        ({"shapes": ((2, True),)}, "shapes must be pairs of positive integers, got (2, True)"),
        ({"shapes": ((2, "3"),)}, "shapes must be pairs of positive integers, got (2, '3')"),
        ({"dims": (4.7,)}, "dims must be positive integers, got 4.7"),
        ({"dims": (np.float64(4.0),)}, f"dims must be positive integers, got {np.float64(4.0)!r}"),
    ],
)
def test_config_refuses_values_that_are_not_integers(kwargs, msg):
    # none is truncated to an integer, or accepted as one, to fail later
    with pytest.raises(UsageError) as got:
        SuiteConfig(**kwargs)
    assert str(got.value) == msg


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        ({"seed": 1.5}, "seed must be a 64-bit unsigned integer, got 1.5"),
        ({"seed": "7"}, "seed must be a 64-bit unsigned integer, got '7'"),
        ({"seed": True}, "seed must be a 64-bit unsigned integer, got True"),
        ({"tol": True}, "tol must be a real number, got True"),
        ({"tol": "1e-9"}, "tol must be a real number, got '1e-9'"),
    ],
)
def test_config_refuses_a_seed_or_tol_of_the_wrong_type(kwargs, msg):
    # a report's config replays only if it holds the seed and tol that ran
    with pytest.raises(UsageError) as got:
        SuiteConfig(**kwargs)
    assert str(got.value) == msg


def test_config_takes_numpy_numbers_as_python_ones():
    # kept as ints, and tol as a float, so that the report's config serializes
    cfg = SuiteConfig(
        suites=("theorem2",),
        trials=np.int64(2),
        shapes=((np.int32(2), 2),),
        dims=(np.int64(4),),
        seed=np.uint64(7),
        tol=np.float32(1e-9),
    )
    tol = float(np.float32(1e-9))
    assert (cfg.trials, cfg.shapes, cfg.dims, cfg.seed, cfg.tol) == (2, ((2, 2),), (4,), 7, tol)
    assert all(type(v) is int for v in (cfg.trials, *cfg.shapes[0], *cfg.dims, cfg.seed))
    assert type(cfg.tol) is float
    config = json.loads(run_suite(cfg).to_json())["config"]
    assert (config["trials"], config["seed"], config["tol"]) == (2, 7, tol)


def test_expected_certification_table():
    assert EXPECTED_CERTIFICATION == {
        "phi": (True, True),
        "psi": (False, True),
        "identity": (True, False),
        "transpose": (False, True),
        "trace_map": (True, True),
    }


# ---------------------------------------------------------------------------
# entangled_pattern fixture matrix
# ---------------------------------------------------------------------------


def test_entangled_pattern_d2_entries():
    pat = entangled_pattern(2)
    want = np.zeros((4, 4))
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 1.0
    assert np.array_equal(pat.mat, want)
    assert (pat.m, pat.n) == (2, 2)


def test_entangled_pattern_is_psd_not_ppt():
    pat = entangled_pattern(3)
    psd, _ = is_psd(pat.mat)
    assert psd
    ok, _, min_tau = is_ppt(pat)
    assert not ok
    assert min_tau == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# run_suite
# ---------------------------------------------------------------------------


def test_run_suite_tiny_all_green():
    report = run_suite(TINY)
    assert report.passed
    assert report.failed == 0
    assert report.counterexamples == []
    assert tuple(report.reports) == SUITE_NAMES
    # 8 seeded suites x 1 shape-or-dim x 2 trials, plus 5 maps x 3 dims
    assert {k: len(v) for k, v in report.reports.items()} == {
        "theorem2": 2,
        "corollary3": 2,
        "combined": 2,
        "upper_bound": 2,
        "corollary6": 2,
        "block2": 2,
        "thm8_9": 2,
        "eqlin": 2,
        "choi_certs": 15,
    }
    assert report.checks == 31


def test_run_suite_deterministic_modulo_duration():
    a = _doc_without_duration(run_suite(TINY))
    b = _doc_without_duration(run_suite(TINY))
    assert a == b


def test_run_suite_seed_changes_report():
    cfg1 = SuiteConfig(suites=("upper_bound",), trials=2, shapes=((2, 3),), seed=1)
    cfg2 = SuiteConfig(suites=("upper_bound",), trials=2, shapes=((2, 3),), seed=2)
    assert _doc_without_duration(run_suite(cfg1)) != _doc_without_duration(run_suite(cfg2))


def test_run_suite_single_suite_only():
    report = run_suite(SuiteConfig(suites=("choi_certs",), trials=1))
    assert tuple(report.reports) == ("choi_certs",)
    assert report.checks == 15
    assert report.passed


def test_run_suite_embeds_replayable_seed_info():
    report = run_suite(SuiteConfig(suites=("theorem2",), trials=2, shapes=((2, 3),)))
    infos = [r.seed_info for r in report.reports["theorem2"]]
    assert all("random_psd(dim=6" in info and "seed=" in info for info in infos)


def test_run_suite_block2_skips_non_two_row_shapes():
    report = run_suite(SuiteConfig(suites=("block2",), trials=3, shapes=((3, 3), (2, 2))))
    assert len(report.reports["block2"]) == 3  # only the (2, 2) shape contributes


@pytest.mark.parametrize("suite", ["block2", "all"])
def test_verify_refuses_block2_without_a_two_block_row_shape(capsys, suite):
    # block2 would run no check at all: a vacuous pass, refused as a usage error
    argv = ["verify", "--suite", suite, "--shapes", "3x3,3x2", "--trials", "2"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: suite 'block2' needs a shape with two block rows, got shapes 3x3,3x2\n"


# suite -> (single-matrix checker, input kind) for replaying one trial
_REPLAY = {
    "theorem2": (check_copositive_partial_trace, "psd+pattern"),
    "corollary3": (check_ppt_reduction, "ppt"),
    "combined": (check_combined_reduction, "ppt"),
    "upper_bound": (check_upper_bound, "psd"),
    "corollary6": (check_phi_lower, "psd+pattern"),
    "block2": (check_block2, "psd"),
}
# 12 trials reach the rank-1 draws (t = 3, 7, 11) and, at seed 42, both PPT paths
# on the odd trials; trial 0 of a square shape is the entangled pattern
_REPLAY_TRIALS = 12


def _replay(suite, m, n, t, seed, tol):
    """The input and provenance of one suite trial, drawn by the public generators."""
    s = derive_seed(seed, suite, m, n, t)
    kind = _REPLAY[suite][1]
    d = m * n
    if kind == "ppt":
        if t % 2 == 0:
            terms = 1 + (t // 2) % 3
            info = f"random_separable(m={m}, n={n}, terms={terms}, seed={s})"
            return random_separable(m, n, terms, s), info
        a, path = random_ppt(m, n, s, max_attempts=2)
        return a, f"random_ppt(m={m}, n={n}, seed={s}, max_attempts=2) via {path}"
    if kind == "psd+pattern" and m == n and t == 0:
        return entangled_pattern(m), f"fixed entangled pattern d={m}"
    rank = 1 if t % 4 == 3 else (-(-d // 2) if t % 2 == 1 else d)
    return BlockMatrix(m, n, random_psd(d, rank, s)), f"random_psd(dim={d}, rank={rank}, seed={s})"


def _agreement_scale(key, details, input_scale):
    """What a detail's difference between the two solvers is measured against."""
    for prefix in ("min_eig_", "gap_"):
        if key.startswith(prefix):
            return details["scale_" + key[len(prefix):]]
    return input_scale


def _assert_agrees(got, want, a, exact=()):
    """``got`` has ``want``'s name, verdict, shape and detail keys; its flags and
    the details named in ``exact`` are equal, and its other numbers agree
    within ``STACK_AGREEMENT_RTOL`` of their scale."""
    assert (got.check_name, got.passed, got.shape) == (want.check_name, want.passed, want.shape)
    assert list(got.details) == list(want.details)
    input_scale = max(1.0, np.linalg.norm(a.mat))
    for key, value in want.details.items():
        if isinstance(value, bool) or key in exact:
            assert got.details[key] == value, key
            continue
        bound = STACK_AGREEMENT_RTOL * _agreement_scale(key, want.details, input_scale)
        assert abs(got.details[key] - value) <= bound, (key, got.details[key], value)
    residual_scale = max(v for key, v in want.details.items() if key.startswith("scale_"))
    bound = STACK_AGREEMENT_RTOL * residual_scale
    assert abs(got.residual_min_eig - want.residual_min_eig) <= bound
    if want.scalar_gap is not None:
        assert abs(got.scalar_gap - want.scalar_gap) <= bound


@pytest.mark.parametrize("suite", sorted(_REPLAY))
def test_stacked_suite_path_equals_single_check_replay(suite):
    cfg = SuiteConfig(
        suites=(suite,), trials=_REPLAY_TRIALS, shapes=DEFAULT_SHAPES, seed=42, tol=1e-9
    )
    reports = run_suite(cfg).reports[suite]
    checker = _REPLAY[suite][0]
    shapes = [shape for shape in DEFAULT_SHAPES if suite != "block2" or shape[0] == 2]
    assert len(reports) == len(shapes) * _REPLAY_TRIALS
    infos = []
    for k, got in enumerate(reports):
        m, n = shapes[k // _REPLAY_TRIALS]
        a, info = _replay(suite, m, n, k % _REPLAY_TRIALS, cfg.seed, cfg.tol)
        assert got.seed_info == info
        _assert_agrees(got, checker(a, cfg.tol), a)
        infos.append(info)
    # the trials above reach every kind of input the suite draws
    if _REPLAY[suite][1] == "ppt":
        assert any(i.endswith("via rejection") for i in infos)
        assert any(i.endswith("via separable") for i in infos)
    else:
        assert any("rank=1," in i for i in infos)
    if _REPLAY[suite][1] == "psd+pattern":
        assert any(i.startswith("fixed entangled pattern") for i in infos)


def _shifted_by_minus_two(draw):
    """``draw``, with every drawn matrix ``A`` replaced by ``A - 2I``."""

    def shifted(*args, **kwargs):
        out = draw(*args, **kwargs)
        if isinstance(out, BlockStack):
            return BlockStack(out.m, out.n, out.mat - 2.0 * np.eye(out.mat.shape[-1]))
        return out - 2.0 * np.eye(out.shape[-1])

    return shifted


@pytest.mark.parametrize(
    "suite, draw, hypothesis",
    [("upper_bound", "random_psd", "PSD"), ("corollary3", "random_separable", "PPT")],
)
def test_seeded_draw_outside_the_hypothesis_is_the_checkers_precondition_error(
    monkeypatch, capsys, suite, draw, hypothesis
):
    # the generators solve nothing: the checker tests each draw, at the run's tol
    monkeypatch.setattr(suites, draw, _shifted_by_minus_two(getattr(suites, draw)))
    message = f"stack member 0 is not {hypothesis} within tol 1e-09"
    with pytest.raises(PreconditionError, match=message):
        run_suite(SuiteConfig(suites=(suite,), trials=3, shapes=((2, 2),)))
    argv = ["verify", "--suite", suite, "--trials", "3", "--shapes", "2x2"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("suite, hypothesis", [("theorem2", "PSD"), ("corollary3", "PPT")])
def test_member_outside_the_hypothesis_is_refused_before_another_members_overflow(
    monkeypatch, capsys, suite, hypothesis
):
    mats = refusal_order_stack(hypothesis)
    if suite == "theorem2":
        monkeypatch.setattr(suites, "random_psd", lambda *args: mats)
    else:  # trials 0 and 2 are separable draws, trial 1 a PPT draw
        monkeypatch.setattr(suites, "random_separable", lambda *args: BlockStack(2, 3, mats[0::2]))
        monkeypatch.setattr(
            suites, "random_ppt", lambda *args, **kw: (BlockStack(2, 3, mats[1:2]), ("rejection",))
        )
    argv = ["verify", "--suite", suite, "--trials", "3", "--shapes", "2x3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stack member 2 is not {hypothesis} within tol 1e-09"), err


def test_block2_consistency_chain_is_a_typed_error(monkeypatch):
    real = suites.check_block2

    def negative_gap(a, tol):
        reports = real(a, tol)
        details = dict(reports[0].details, gap_eq8=-1.0)
        return [replace(reports[0], details=details)] + reports[1:]

    monkeypatch.setattr(suites, "check_block2", negative_gap)
    with pytest.raises(SelfCheckError, match="consistency chain"):
        run_suite(SuiteConfig(suites=("block2",), trials=2, shapes=((2, 2),)))


@pytest.mark.parametrize("n", [2, 3])
def test_block2_consistency_chain_allows_the_slack_g_admits(monkeypatch, n):
    # a gap is tr(W G) / 2 with W >= 0 and tr W = 2n, so G >= -eps * I only
    # bounds it by -n * eps: a gap that deep is consistent with the G it came
    # from and breaks no chain, though it is below the gap's own tolerance
    real = suites.check_block2
    seen = []

    def admitted_slack(a, tol):
        reports = real(a, tol)
        d = reports[0].details
        eps = 0.9 * tol * d["scale_g"]
        gap = -(n * eps + 0.9 * tol * d["scale_eq9"])
        assert gap < -tol * d["scale_eq9"]  # fails the gap's own test
        seen.append(gap)
        details = dict(d, min_eig_g=-eps, gap_eq9=gap)
        return [replace(reports[0], details=details)] + reports[1:]

    monkeypatch.setattr(suites, "check_block2", admitted_slack)
    run_suite(SuiteConfig(suites=("block2",), trials=2, shapes=((2, n),)))
    assert len(seen) == 1


def test_stacked_suite_path_raises_the_checkers_hypothesis_error():
    # at a tolerance far below rounding, the half-rank draw (trial 1) is no
    # longer PSD; the stacked path refuses it as check_upper_bound does
    cfg = SuiteConfig(suites=("upper_bound",), trials=4, shapes=((2, 2),), seed=42, tol=1e-30)
    with pytest.raises(PreconditionError, match="stack member 1 is not PSD within tol 1e-30"):
        run_suite(cfg)
    a, _ = _replay("upper_bound", 2, 2, 1, cfg.seed, cfg.tol)
    with pytest.raises(PreconditionError, match="input is not PSD within tol 1e-30"):
        check_upper_bound(a, cfg.tol)


# ---------------------------------------------------------------------------
# runners: a runner checks the batches it is given
# ---------------------------------------------------------------------------

# a PSD matrix (min eig -1e-4 against scale 1e6) whose {2} x {2} trace bound fails
_GAP_MATRIX = np.array([[1e6, 0.0], [0.0, -1e-4]], dtype=np.complex128)


def _no_seeded_stream(*args, **kwargs):
    raise AssertionError("a runner given batches drew its seeded stream")


@pytest.mark.parametrize("suite", [name for name in SUITE_NAMES if name != "choi_certs"])
def test_runner_given_batches_checks_only_them(monkeypatch, suite):
    for stream in ("_gram_inputs", "_ppt_inputs", "_psd_inputs"):
        monkeypatch.setattr(suites, stream, _no_seeded_stream)
    cfg = SuiteConfig(suites=(suite,), seed=42, tol=1e-9)
    rec = suites._Recorder((suite,))
    infos = ["first input", "second input"]
    if suite in _REPLAY:
        a, _ = _replay(suite, 2, 2, 0 if _REPLAY[suite][1] == "ppt" else 2, cfg.seed, cfg.tol)
        b, _ = _replay(suite, 2, 2, 4, cfg.seed, cfg.tol)
        stack = BlockStack(2, 2, np.stack([a.mat, b.mat]))
        suites._RUNNERS[suite](suite, cfg, rec, [(stack, infos, 5)])
        want = _REPLAY[suite][0](stack, cfg.tol)
        assert rec.reports[suite] == [replace(w, seed_info=i) for w, i in zip(want, infos)]
        assert all(rep.passed for rep in rec.reports[suite])
        assert rec.counterexamples == []
        return
    # a submatrix suite: one report per matrix, its failing pairs numbered by the batch's trial
    good = random_psd(3, 3, derive_seed(cfg.seed, suite, 3, 0))
    batches = [(good, infos[:1], 5), (_GAP_MATRIX, infos[1:], 9)]
    suites._RUNNERS[suite](suite, cfg, rec, batches)
    reports = rec.reports[suite]
    assert [rep.seed_info for rep in reports] == infos
    assert [rep.shape for rep in reports] == [3, 2]
    assert reports[0].passed
    checker = check_trace_submatrix if suite == "thm8_9" else check_det_submatrix
    pairs = exhaustive_pairs(3, distinct=suite == "eqlin")
    assert reports[0].scalar_gap == float(np.min(checker(good, pairs, tol=cfg.tol).scalar_gap))
    if suite == "thm8_9":
        assert not reports[1].passed
        assert rec.counterexamples
        assert {(ce.suite, ce.trial) for ce in rec.counterexamples} == {("thm8_9", 9)}
        assert all(ce.report.seed_info == infos[1] for ce in rec.counterexamples)
    else:
        assert rec.counterexamples == []


@pytest.mark.parametrize("suite", ["thm8_9", "eqlin"])
def test_psd_inputs_are_each_trials_draw_in_batches_of_one_check_chunk(monkeypatch, suite):
    # a dimension's trials are drawn as one stack; each member is the draw of
    # its trial's seed alone, and a batch holds one check chunk of members,
    # so the run's report does not depend on where the batches split
    cfg = SuiteConfig(suites=(suite,), dims=(2, 4, 5), trials=8, seed=42)
    want = []
    for n in cfg.dims:
        for t in range(cfg.trials):
            rank = suites._rank_for_trial(n, t)
            s = derive_seed(cfg.seed, suite, n, t)
            want.append((random_psd(n, rank, s), f"random_psd(dim={n}, rank={rank}, seed={s})", t))
    docs = []
    for budget, batches in ((inequalities._CHUNK_BYTES, 3), (1, 24)):
        monkeypatch.setattr(inequalities, "_CHUNK_BYTES", budget)
        got = list(suites._psd_inputs(cfg, suite))
        assert len(got) == batches
        members = [
            (mat, info, first + k)
            for mats, infos, first in got
            for k, (mat, info) in enumerate(zip(mats, infos, strict=True))
        ]
        assert len(members) == len(want)
        for (mat, info, trial), (w_mat, w_info, w_trial) in zip(members, want):
            assert mat.tobytes() == w_mat.tobytes() and mat.shape == w_mat.shape
            assert (info, trial) == (w_info, w_trial)
        docs.append(_doc_without_duration(run_suite(cfg)))
    assert docs[0] == docs[1]


def test_record_numbers_failures_from_the_batch_first_trial():
    rec = suites._Recorder(("upper_bound",))
    report = CheckReport(
        check_name="upper_bound", passed=True, residual_min_eig=0.0, scalar_gap=None,
        tolerance=1e-9, shape=(2, 2),
    )
    failing = replace(report, passed=False, residual_min_eig=-1.0)
    inputs = [np.eye(4) * k for k in (1, 2, 3)]
    got = rec.record("upper_bound", [report, failing, failing], inputs, ["a", "b", "c"], 10)
    assert [rep.seed_info for rep in got] == ["a", "b", "c"]
    assert rec.reports["upper_bound"] == got
    assert [(ce.trial, ce.report.seed_info) for ce in rec.counterexamples] == [(11, "b"), (12, "c")]
    assert [doc_to_obj(ce.input_doc)[0, 0] for ce in rec.counterexamples] == [2, 3]
    # one report of one input is a batch of one
    (single,) = rec.record("upper_bound", failing, np.eye(4), ["d"], 4)
    assert single.seed_info == "d"
    assert (rec.counterexamples[-1].trial, rec.counterexamples[-1].report) == (4, single)
    assert len(rec.reports["upper_bound"]) == 4


def test_report_doc_shape_and_json():
    report = run_suite(TINY)
    doc = report.to_doc()
    assert set(doc) == {"config", "suites", "counterexamples", "summary", "duration_seconds"}
    assert doc["summary"] == {"checks": 31, "failed": 0, "passed": True}
    assert doc["config"]["seed"] == 42
    rep_doc = report_to_doc(report.reports["theorem2"][0])
    assert isinstance(rep_doc["shape"], list)
    assert set(rep_doc) >= {"check_name", "passed", "residual_min_eig", "tolerance"}
    parsed = json.loads(report.to_json())
    assert parsed["summary"]["passed"] is True


def test_report_text_format():
    text = run_suite(SuiteConfig(suites=("choi_certs",), trials=1)).to_text()
    assert "blockineq verification report" in text
    assert "suite choi_certs: checks=15 failed=0" in text
    assert "passed=yes" in text
    assert "duration_seconds=" in text


# ---------------------------------------------------------------------------
# run_files
# ---------------------------------------------------------------------------


def _save_block_psd(tmp_path, name="block.json", m=2, n=2, seed=5):
    path = tmp_path / name
    save(path, BlockMatrix(m, n, random_psd(m * n, m * n, seed)))
    return path


def test_run_files_block_suites_pass(tmp_path):
    path = _save_block_psd(tmp_path)
    cfg = SuiteConfig(suites=("theorem2", "block2"), trials=1)
    report = run_files(cfg, [path])
    assert report.passed
    assert len(report.reports["theorem2"]) == len(report.reports["block2"]) == 1
    assert report.reports["theorem2"][0].seed_info == f"file {path}"


def test_run_files_all_drops_choi_certs(tmp_path):
    # separable, hence PPT: acceptable to every block suite including corollary3
    path = tmp_path / "sep.json"
    save(path, random_separable(2, 2, 3, 5))
    report = run_files(SuiteConfig(suites=("all",)), [path])
    assert "choi_certs" not in report.reports
    assert set(report.reports) == set(SUITE_NAMES) - {"choi_certs"}
    assert report.passed


def test_run_files_explicit_choi_certs_rejected(tmp_path):
    path = _save_block_psd(tmp_path)
    with pytest.raises(UsageError, match="does not consume matrix files"):
        run_files(SuiteConfig(suites=("choi_certs",)), [path])


def test_run_files_plain_matrix_ok_for_submatrix_suites(tmp_path):
    path = tmp_path / "plain.json"
    save(path, random_psd(3, 3, 11))
    report = run_files(SuiteConfig(suites=("thm8_9", "eqlin")), [path])
    assert report.passed
    assert report.reports["thm8_9"][0].details["pairs"] == 19  # sum_k C(3,k)^2
    assert report.reports["eqlin"][0].details["pairs"] == 19 - 7  # minus alpha == beta


def test_run_files_plain_matrix_rejected_by_block_suite(tmp_path):
    path = tmp_path / "plain.json"
    save(path, random_psd(4, 4, 11))
    with pytest.raises(UsageError, match="needs a block-matrix document"):
        run_files(SuiteConfig(suites=("theorem2",)), [path])


def test_run_files_map_document_rejected(tmp_path):
    path = tmp_path / "map.json"
    from blockineq.maps import builtin_map

    save(path, builtin_map("phi", 2))
    with pytest.raises(UsageError, match="expected a matrix document, found a linear map"):
        run_files(SuiteConfig(suites=("thm8_9",)), [path])


def test_run_files_requires_paths():
    with pytest.raises(UsageError, match="no input files given"):
        run_files(SuiteConfig(suites=("thm8_9",)), [])


def test_submatrix_suites_refuse_a_dimension_too_large_to_enumerate(tmp_path, capsys):
    # all pairs of a 16 x 16 matrix would take gigabytes; they are refused
    # by name, through the API and the CLI, before any is built
    path = tmp_path / "big.json"
    save(path, BlockMatrix(2, 8, np.eye(16)))
    refusal = "enumerated up to dimension 11, got dimension 16"
    tracemalloc.start()
    try:
        for refuse in (
            lambda: exhaustive_pairs(16),
            lambda: exhaustive_pairs(16, distinct=True),
            lambda: run_suite(SuiteConfig(suites=("thm8_9", "eqlin"), dims=(16,), trials=1)),
            lambda: run_files(SuiteConfig(suites=("eqlin", "thm8_9")), [path]),
        ):
            with pytest.raises(UsageError, match=refusal):
                refuse()
        assert main(["verify", "--suite", "thm8_9", "--suite", "eqlin", "--dims", "16"]) == 2
        assert main(["verify", "--suite", "thm8_9", "--suite", "eqlin", str(path)]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22
    assert capsys.readouterr().err.count(refusal) == 2
    assert len(exhaustive_pairs(11)) == math.comb(22, 11) - 1


def test_run_files_failing_matrix_yields_counterexamples(tmp_path):
    # PSD within the relative tolerance (min eig -1e-4 against scale 1e6) but
    # with a decisively violated trace bound on the {2} x {2} submatrix pair.
    path = tmp_path / "gap.json"
    save(path, np.array([[1e6, 0.0], [0.0, -1e-4]]))
    report = run_files(SuiteConfig(suites=("thm8_9",)), [path])
    assert not report.passed
    assert report.failed >= 1
    assert report.counterexamples
    ce = report.counterexamples[0]
    assert ce.suite == "thm8_9"
    replayed = doc_to_obj(ce.input_doc)
    assert np.array_equal(replayed, np.array([[1e6, 0.0], [0.0, -1e-4]]))


# ---------------------------------------------------------------------------
# run_files: a document's residuals are solved as one stack
# ---------------------------------------------------------------------------

_FILE_SHAPES = ((2, 4), (3, 3), (4, 4))
_FILE_KINDS = ("full_rank", "half_rank", "separable")


def _file_document(tmp_path, kind, m, n, seed=17):
    """A saved document of ``kind``, read back, and the block suites that apply to it."""
    d = m * n
    if kind == "separable":
        a = random_separable(m, n, 2, seed)
    else:
        a = BlockMatrix(m, n, random_psd(d, d if kind == "full_rank" else -(-d // 2), seed))
    path = tmp_path / f"{kind}-{m}x{n}.json"
    save(path, a)
    names = [
        name
        for name in SUITE_NAMES
        if name in _REPLAY
        and (kind == "separable" or _REPLAY[name][1] != "ppt")
        and (name != "block2" or m == 2)
    ]
    return path, load(path), names


class _Solves:
    """Counts eigensolves: scalar ones, and the sizes of stacked ones, of one matrix too."""

    def __init__(self, monkeypatch):
        self.scalar = 0
        self.stacked = []
        real_scalar = densemat.hermitian_eigenvalues
        real_stack = densemat.hermitian_eigenvalues_stack

        def scalar(x):
            self.scalar += 1
            return real_scalar(x)

        def stack(x):
            self.stacked.append(len(x))
            return real_stack(x)

        for module in (densemat, inequalities):
            monkeypatch.setattr(module, "hermitian_eigenvalues", scalar)
            monkeypatch.setattr(module, "hermitian_eigenvalues_stack", stack)

    def counts(self):
        return self.scalar, list(self.stacked)


@pytest.mark.parametrize("kind", _FILE_KINDS)
@pytest.mark.parametrize("m, n", _FILE_SHAPES)
def test_run_files_matches_each_checker_alone(tmp_path, monkeypatch, m, n, kind):
    path, a, names = _file_document(tmp_path, kind, m, n)
    tol = 1e-9
    wants = {name: _REPLAY[name][0](a, tol) for name in names}
    solves = _Solves(monkeypatch)
    after_checks = []
    real_check_blocks = suites._check_blocks

    def check_blocks(*args):
        checked = real_check_blocks(*args)
        after_checks.append(solves.counts())
        return checked

    monkeypatch.setattr(suites, "_check_blocks", check_blocks)
    report = run_files(SuiteConfig(suites=tuple(names), tol=tol), [path])
    # the block checks are evaluated once for the document; the checkers
    # return the reports it carries and solve nothing more
    assert after_checks == [solves.counts()]
    scalar, stacked = solves.counts()
    assert report.passed
    if densemat.solves_in_round_robin(m * n):
        # the input joins the one stack of its partial transpose and every
        # residual, as in a lone check, so every value is the lone check's
        assert scalar == 0 and len(stacked) == 1
        for name in names:
            (got,) = report.reports[name]
            assert json.dumps(report_to_doc(replace(got, seed_info=None))) == json.dumps(
                report_to_doc(wants[name])
            )
        return
    # the input alone, then every residual (and the partial transpose) in one stack
    assert scalar == 1 and len(stacked) == 1
    for name in names:
        (got,) = report.reports[name]
        _assert_agrees(got, wants[name], a, exact=("input_min_eig",))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_refuses_a_document_whose_determinant_terms_overflow(tmp_path, capsys):
    # the 2 x 2 block document's minors multiply past float64 at 1e100: eqlin
    # refuses it as a numerical failure, names the pair, and writes no report
    # and no counterexample; its trace terms are finite, so thm8_9 passes it
    path = tmp_path / "big.json"
    save(path, BlockMatrix(2, 2, random_psd(4, 4, 3) * 1e100))
    out = tmp_path / "report.json"
    args = ["--format", "json", "--out", str(out), str(path)]
    assert main(["verify", "--suite", "eqlin", *args]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: input is too large to check: a determinant term of pair "
        "alpha=[1, 2], beta=[1, 3] overflows float64\n"
    )
    assert not out.exists() and not list(tmp_path.glob("counterexample-*"))
    assert main(["verify", "--suite", "thm8_9", *args]) == 0
    assert json.loads(out.read_text())["summary"]["passed"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_refuses_a_document_whose_trace_sides_overflow(tmp_path, capsys, fmt):
    # diag(1e154, 0, 0, 0) is PSD and its norm fits in float64, and so does
    # each trace term of alpha = beta = {1}, 1e308, but x + y and R+ do not:
    # thm8_9 refuses it as a numerical failure, naming that pair, and writes
    # no report and no counterexample
    path = tmp_path / "big.json"
    save(path, np.diag([1e154, 0.0, 0.0, 0.0]))
    out = tmp_path / "report.out"
    assert main(["verify", "--suite", "thm8_9", "--format", fmt, "--out", str(out), str(path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: input is too large to check: a trace term of pair "
        "alpha=[1], beta=[1] overflows float64\n"
    )
    assert not out.exists() and not list(tmp_path.glob("counterexample-*"))


def test_run_files_reports_are_byte_identical_run_to_run(tmp_path, monkeypatch):
    # each run makes the same solves: the input alone, with the scalar
    # solver, then one stack of its partial transpose and the ten residuals
    # of the six block suites
    path, _, names = _file_document(tmp_path, "separable", 2, 4)
    cfg = SuiteConfig(suites=tuple(names))
    solves = _Solves(monkeypatch)
    runs = [_doc_without_duration(run_files(cfg, [path])) for _ in range(2)]
    assert solves.counts() == (2, [11, 11])
    assert runs[0] == runs[1]


def test_run_files_assembles_each_block_suite_once_per_document(tmp_path, monkeypatch):
    # _check_blocks assembles every requested check's terms and residuals
    # once, and each checker returns its report from the document it is handed
    path, a, names = _file_document(tmp_path, "separable", 2, 4)
    assert len(names) == len(inequalities._BLOCK_INEQUALITIES) == 6
    calls = dict.fromkeys(inequalities._BLOCK_INEQUALITIES, 0)
    for check, (hypothesis, terms) in inequalities._BLOCK_INEQUALITIES.items():

        def counting(stack, check=check, terms=terms):
            calls[check] += 1
            return terms(stack)

        monkeypatch.setitem(inequalities._BLOCK_INEQUALITIES, check, (hypothesis, counting))
    psd_tests = []
    real_is_psd = inequalities.is_psd

    def is_psd_counting(x, tol):
        psd_tests.append(x.shape)
        return real_is_psd(x, tol)

    monkeypatch.setattr(inequalities, "is_psd", is_psd_counting)
    report = run_files(SuiteConfig(suites=tuple(names)), [path])
    assert report.passed
    assert calls == dict.fromkeys(calls, 1)
    assert psd_tests == [(8, 8)]  # the input, alone
    # what travels with a document is its block matrix and its reports alone
    assert [f.name for f in fields(inequalities._Checked)] == ["m", "n", "mat", "reports"]


@pytest.mark.parametrize(
    "suite, a, tol",
    [
        # PSD within tol only, as _GAP_MATRIX: its 1 x 1 trace bounds on the
        # negative diagonal entry fail outright
        ("thm8_9", BlockMatrix(2, 2, np.diag([1e6, 1.0, 1.0, -1e-4])), 1e-9),
        # a tol far below rounding fails the pairs whose gap rounds below 0
        ("eqlin", random_separable(2, 2, 2, 4), 1e-300),
    ],
)
def test_run_files_checks_a_block_document_as_a_submatrix_suite_alone(
    tmp_path, monkeypatch, suite, a, tol
):
    # the submatrix checker gets the document's plain matrix and tests it for
    # PSD itself, as when it runs alone. The document has counterexamples;
    # they and every report are those of the suite run alone
    path = tmp_path / "doc.json"
    save(path, a)
    alone = run_files(SuiteConfig(suites=(suite,), tol=tol), [path])
    solves = _Solves(monkeypatch)
    both = run_files(SuiteConfig(suites=("theorem2", suite), tol=tol), [path])
    # theorem2, one check below the crossover, solves the input and its two
    # residuals each alone; then the submatrix suite solves the input
    assert solves.counts() == (4, [])
    assert both.reports[suite] == alone.reports[suite]
    got = [ce.to_doc() for ce in both.counterexamples if ce.suite == suite]
    assert got and got == [ce.to_doc() for ce in alone.counterexamples]
    want = hermitian_eigenvalues(a.mat).values[0]
    assert all(doc["check"]["details"]["input_min_eig"] == want for doc in got)
    assert all(doc["input"] == to_doc(a.mat) for doc in got)


def test_run_files_on_a_fresh_draw_reports_as_a_fresh_process(tmp_path):
    # the checker reads no value of the draw from an earlier solve in the
    # process, in place of the checker's own solve
    path = tmp_path / "draw.json"
    save(path, random_separable(3, 3, [2, 3, 1], [101, 102, 103])[0])
    cfg = SuiteConfig(suites=("theorem2",))
    first = run_files(cfg, [path]).reports["theorem2"][0]
    again = run_files(cfg, [path]).reports["theorem2"][0]
    assert first.details["input_min_eig"] == again.details["input_min_eig"]
    assert report_to_doc(first) == report_to_doc(again)


def test_run_files_on_an_accepted_ppt_draw_reports_as_a_fresh_process(tmp_path):
    # random_ppt decides its candidates with LAPACK; the document's report
    # must carry the input's own Jacobi solve, not a value from that decision
    draws, paths = random_ppt(2, 2, range(200, 240), max_attempts=2)
    assert paths[1] == "rejection"
    path = tmp_path / "accepted.json"
    save(path, draws[1])
    (got,) = run_files(SuiteConfig(suites=("corollary3",)), [path]).reports["corollary3"]
    assert got.details["input_min_eig"] == hermitian_eigenvalues(draws[1].mat).values[0]


def _errors_one_suite_at_a_time(a, names, tol):
    """The suites completed, and the error raised, when each suite's checker runs
    alone in turn, as run_files ran them before it solved a document's
    residuals together."""
    done = []
    for name in names:
        try:
            _REPLAY[name][0](a, tol)
        except BlockineqError as exc:
            return done, exc
        done.append(name)
    raise AssertionError("no suite refused the document")


def _rank_one_block(m, n, seed):
    return BlockMatrix(m, n, random_psd(m * n, 1, seed))


def _diagonal_block(m, diagonal):
    return BlockMatrix(m, len(diagonal) // m, np.diag(diagonal).astype(np.complex128))


@pytest.mark.parametrize(
    "doc, error, stacked",
    [
        # Hermitian, eigenvalue -1: every block suite refuses it
        (lambda: partial_transpose(entangled_pattern(2)), PreconditionError, False),
        (lambda: entangled_pattern(2), PreconditionError, True),  # PSD, not PPT
        (lambda: entangled_pattern(3), PreconditionError, True),
        (lambda: _rank_one_block(2, 2, 5), PreconditionError, True),  # a generic pure state
        (lambda: BlockMatrix(2, 2, np.triu(np.ones((4, 4)))), HermiticityError, False),
        # every suite but block2 applies: check_block2 refuses three block rows
        (lambda: random_separable(3, 2, 2, 5), UsageError, True),
        # at 4 x 4 the input is solved in its residuals' stack
        (lambda: partial_transpose(entangled_pattern(4)), PreconditionError, True),
        (lambda: entangled_pattern(4), PreconditionError, True),
        (lambda: _rank_one_block(4, 4, 5), PreconditionError, True),
        (lambda: BlockMatrix(4, 4, np.triu(np.ones((16, 16)))), HermiticityError, True),
        # PSD, but its theorem2 residual's norm overflows: the stack raises and
        # each entry is solved alone; not PSD too, it is refused before that error
        (lambda: _diagonal_block(4, [1e154] + [0.0] * 15), NormOverflowError, True),
        (lambda: _diagonal_block(4, [1e154] + [0.0] * 14 + [-1e152]), PreconditionError, True),
    ],
    ids=[
        "not_psd", "pattern_2", "pattern_3", "rank_one", "not_hermitian", "block2_3x2",
        "not_psd_4x4", "pattern_4", "rank_one_4x4", "not_hermitian_4x4", "overflow_4x4",
        "not_psd_overflow_4x4",
    ],  # fmt: skip
)
def test_run_files_raises_as_each_checker_alone(tmp_path, monkeypatch, doc, error, stacked):
    a = doc()
    path = tmp_path / "doc.json"
    save(path, a)
    a = load(path)
    names = [name for name in SUITE_NAMES if name in _REPLAY]
    done_alone, want = _errors_one_suite_at_a_time(a, names, 1e-9)
    assert type(want) is error
    completed = []
    for name in names:
        runner = suites._RUNNERS[name]

        def recording(suite, cfg, rec, batches, name=name, runner=runner):
            runner(suite, cfg, rec, batches)
            completed.append(name)

        monkeypatch.setitem(suites._RUNNERS, name, recording)
    solves = _Solves(monkeypatch)
    with pytest.raises(error) as got:
        run_files(SuiteConfig(suites=tuple(names)), [path])
    assert str(got.value) == str(want)
    assert completed == done_alone
    assert len(solves.stacked) == (1 if stacked else 0)


def test_block2_on_a_scaled_rank_one_document_passes(tmp_path, monkeypatch, capsys):
    # G's products cancel to rounding noise of about 1e-9 from terms of about
    # 1e7. The solvers judge Hermiticity against G's own norm, so unless G is
    # symmetrized first (by code that the document's stacked solve and the
    # checkers share) the run exits 3, "not Hermitian".
    path = tmp_path / "rank1.json"
    save(path, BlockMatrix(2, 2, random_psd(4, 1, derive_seed(9, "b", 2, 2, 3)) * 1e3))
    solves = _Solves(monkeypatch)
    assert main(["verify", "--suite", "block2", str(path)]) == 0
    assert "suite block2: checks=1 failed=0" in capsys.readouterr().out
    # one check below the crossover: the input, then its one residual, each
    # alone; the checker returns the report the document carries
    assert solves.counts() == (2, [])
    solves.scalar, solves.stacked = 0, []
    names = ("theorem2", "upper_bound", "corollary6", "block2")
    assert run_files(SuiteConfig(suites=names), [path]).passed
    assert solves.counts() == (1, [6])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_verify_a_document_whose_side_squares_overflow(tmp_path, capsys, fmt):
    # diag(x, 0, 0, 0) with x^2 just below the float64 maximum: its sides'
    # norms are finite, though their squares overflow, so the report holds
    # no inf and writes in either format
    big = np.zeros((4, 4), dtype=np.complex128)
    big[0, 0] = 1e154
    path = tmp_path / "big.json"
    save(path, BlockMatrix(2, 2, big))
    assert main(["verify", "--suite", "theorem2", "--format", fmt, str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and re.search(r"\binf\b|Infinity", out) is None
    if fmt == "json":
        details = json.loads(out)["suites"]["theorem2"]["reports"][0]["details"]
        assert 1e154 < details["scale_tr2_side"] < 1e155


def test_run_files_block2_alone_on_three_block_rows_is_a_usage_error(tmp_path, monkeypatch):
    path = tmp_path / "sep.json"
    save(path, random_separable(3, 2, 2, 5))
    solves = _Solves(monkeypatch)
    with pytest.raises(UsageError, match="check_block2 requires block shape m=2, got m=3"):
        run_files(SuiteConfig(suites=("block2",)), [path])
    assert solves.counts() == (0, [])


def test_verify_refuses_a_non_psd_three_block_row_document_at_theorem2_first(tmp_path, capsys):
    # block2 is left out of the document's one evaluation; theorem2 refuses
    # the document at its turn, before check_block2 refuses three block rows
    a = _diagonal_block(3, [1.0, 2.0, 3.0, 4.0, 5.0, -1.0])
    path = tmp_path / "doc.json"
    save(path, a)
    with pytest.raises(PreconditionError) as want:
        check_copositive_partial_trace(load(path))
    assert str(want.value).startswith("input is not PSD within tol")
    assert main(["verify", "--suite", "theorem2", "--suite", "block2", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {want.value}\n")


@pytest.mark.parametrize("suite", ["theorem2", "corollary3", "combined", "corollary6"])
def test_run_files_of_one_block_suite_is_bitwise_the_lone_check(tmp_path, monkeypatch, suite):
    # one check below the crossover solves each of its entries alone, as a
    # lone check_* call does, so each of its several residuals' minima is the
    # lone call's, bitwise, and not a stacked solve's
    path, a, _ = _file_document(tmp_path, "separable", 2, 4)
    checker, kind = _REPLAY[suite]
    want = checker(a, 1e-9)
    entries = (2 if kind == "ppt" else 1) + 2  # the hypothesis, then two residuals
    solves = _Solves(monkeypatch)
    (got,) = run_files(SuiteConfig(suites=(suite,)), [path]).reports[suite]
    assert solves.counts() == (entries, [])
    assert json.dumps(report_to_doc(replace(got, seed_info=None))) == json.dumps(
        report_to_doc(want)
    )


_BLOCK_SUITE_NAMES = ("theorem2", "upper_bound", "corollary6", "block2", "corollary3", "combined")


@pytest.mark.parametrize(
    "suite, shape",
    [
        pytest.param(suite, shape, id=f"{suite}-{shape[0]}x{shape[1]}")
        for suite in _BLOCK_SUITE_NAMES
        for shape in ((2, 2), (3, 3))
        if suite != "block2" or shape[0] == 2
    ],
)
def test_block_suite_solve_budget(monkeypatch, suite, shape):
    # a check solves its draws and their residuals as one stack, and that is
    # the suite's one solve: random_ppt decides its rejection attempts with
    # LAPACK, not the Jacobi. A duplicated solve fails this test.
    solves = _Solves(monkeypatch)
    run_suite(SuiteConfig(suites=(suite,), trials=25, shapes=(shape,), seed=42))
    assert solves.scalar == 0 and len(solves.stacked) == 1


# ---------------------------------------------------------------------------
# CLI: verify
# ---------------------------------------------------------------------------


def test_cli_verify_text_exit0(capsys):
    rc = main(
        ["verify", "--suite", "block2", "--trials", "1", "--shapes", "2x2", "--seed", "42"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite block2: checks=1 failed=0" in out
    assert "passed=yes" in out


def test_cli_verify_json_report_to_file(tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--suite",
            "choi_certs",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["summary"]["passed"] is True
    assert doc["suites"]["choi_certs"]["checks"] == 15


def test_cli_verify_repeatable_suite_flag(capsys):
    rc = main(
        [
            "verify",
            "--suite",
            "theorem2",
            "--suite",
            "corollary6",
            "--trials",
            "1",
            "--shapes",
            "2x2",
            "--dims",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite theorem2:" in out
    assert "suite corollary6:" in out
    assert "suite block2:" not in out


def test_cli_verify_exit1_and_counterexample_files(tmp_path, capsys):
    mat_path = tmp_path / "gap.json"
    save(mat_path, np.array([[1e6, 0.0], [0.0, -1e-4]]))
    out = tmp_path / "report.json"
    rc = main(
        ["verify", "--suite", "thm8_9", "--format", "json", "--out", str(out), str(mat_path)]
    )
    captured = capsys.readouterr()
    assert rc == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["summary"]["passed"] is False
    assert doc["counterexamples"]
    written = sorted(tmp_path.glob("counterexample-thm8_9-*.json"))
    assert written
    assert "counterexample file(s)" in captured.err
    ce_doc = json.loads(written[0].read_text(encoding="utf-8"))
    assert ce_doc == doc["counterexamples"][0]  # the report's own entry
    assert ce_doc["check"]["passed"] is False
    assert np.array_equal(
        doc_to_obj(ce_doc["input"]), np.array([[1e6, 0.0], [0.0, -1e-4]])
    )


def test_cli_verify_replays_a_counterexample_file(tmp_path, capsys):
    mat_path = tmp_path / "gap.json"
    save(mat_path, np.array([[1e6, 0.0], [0.0, -1e-4]]))
    rc = main(["verify", "--suite", "thm8_9", "--out", str(tmp_path / "report.txt"), str(mat_path)])
    assert rc == 1
    written = tmp_path / "counterexample-thm8_9-000.json"
    first = json.loads(written.read_text(encoding="utf-8"))
    replay = tmp_path / "replay"
    replay.mkdir()
    out = replay / "report.json"
    rc = main(["verify", "--suite", "thm8_9", "--format", "json", "--out", str(out), str(written)])
    capsys.readouterr()
    assert rc == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    again = doc["counterexamples"][0]
    assert again["input"] == first["input"]
    for key in ("alpha", "beta", "gap_thm8", "gap_thm9"):
        assert again["check"]["details"][key] == first["check"]["details"][key], key


def test_cli_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("checker defect")

    monkeypatch.setattr(suites, "check_trace_submatrix", broken)
    path = tmp_path / "plain.json"
    save(path, random_psd(3, 3, 11))
    rc = main(["verify", "--suite", "thm8_9", str(path)])
    err = capsys.readouterr().err
    assert rc == 4
    assert "internal error: RuntimeError: checker defect" in err


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 4.00 GiB"), "out of memory: Unable to allocate 4.00 GiB\n"),
        (MemoryError(), "out of memory: an allocation failed\n"),
    ],
)
def test_cli_out_of_memory_exits_5_without_a_traceback(tmp_path, capsys, monkeypatch, exc, line):
    # running out of memory is a resource limit, not a defect (exit 4)
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(suites, "check_trace_submatrix", exhausted)
    path = tmp_path / "plain.json"
    save(path, random_psd(3, 3, 11))
    rc = main(["verify", "--suite", "thm8_9", str(path)])
    assert rc == 5
    assert capsys.readouterr().err == line


def test_cli_verify_exit2_on_precondition(tmp_path, capsys):
    # PSD but not PPT: corollary3 refuses the input rather than reporting failure.
    path = tmp_path / "pattern.json"
    save(path, entangled_pattern(2))
    rc = main(["verify", "--suite", "corollary3", str(path)])
    assert rc == 2
    assert "error: input is not PPT" in capsys.readouterr().err


def test_cli_verify_exit2_on_missing_file(capsys):
    rc = main(["verify", "--suite", "thm8_9", "/nonexistent/mat.json"])
    assert rc == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_cli_unreadable_input_names_its_path_once(tmp_path, capsys):
    path = tmp_path / "missing" / "mat.json"
    assert main(["verify", "--suite", "thm8_9", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read {path}: No such file or directory\n"
    assert err.count(str(path)) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["choi", "--map", "psi", "--n", "2", "--tol=nan"],
        ["choi", "--map", "psi", "--n", "2", "--tol=inf"],
        ["choi", "--map", "psi", "--n", "2", "--tol=-1"],
        ["verify", "--suite", "theorem2", "--trials", "2", "--tol=inf"],
    ],
    ids=["choi_nan", "choi_inf", "choi_negative", "verify_inf"],
)
def test_cli_non_finite_or_negative_tol_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tol") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "theorem2", "--trials", "1", "--shapes", "2x2"],
        ["gen", "--kind", "separable", "--m", "2", "--n", "2"],
        ["choi", "--map", "psi", "--n", "2"],
    ],
    ids=["verify", "gen", "choi"],
)
def test_cli_unwritable_out_path_exits_2(tmp_path, argv, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No such file or directory\n"


def test_cli_verify_exit2_on_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    rc = main(["verify", "--suite", "thm8_9", str(path)])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_verify_exit2_on_bad_trials(capsys):
    rc = main(["verify", "--suite", "theorem2", "--trials", "0"])
    assert rc == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_cli_verify_exit3_on_non_hermitian_input(tmp_path, capsys):
    path = tmp_path / "nonherm.json"
    save(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
    rc = main(["verify", "--suite", "thm8_9", str(path)])
    assert rc == 3
    assert "numerical failure: matrix is not Hermitian" in capsys.readouterr().err


def test_cli_verify_exit3_on_overflowing_input(tmp_path, capsys):
    # finite entries of 1e200, but the Frobenius norm overflows float64
    path = tmp_path / "big.json"
    save(path, BlockMatrix(2, 2, np.full((4, 4), 1e200)))
    assert main(["verify", "--suite", "theorem2", str(path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: matrix is too large to solve: ||X||_F = inf overflows" in err
    assert "did not converge" not in err
    # a finite norm, but block2's products overflow: the document's stacked
    # solve gives up, and block2's own solve of its residual refuses it
    path = tmp_path / "products.json"
    save(path, BlockMatrix(2, 2, random_psd(4, 4, 3) * 1e100))
    assert main(["verify", "--suite", "theorem2", "--suite", "block2", str(path)]) == 3
    err = capsys.readouterr().err
    want = "numerical failure: matrix is too large to solve: ||X||_F = inf overflows float64\n"
    assert err == want


def test_cli_verify_refuses_a_non_ppt_document_before_another_suite_overflows(tmp_path, capsys):
    # block2's residual overflows on this rank-1 document, which is not PPT;
    # with corollary3 requested the run must refuse it as corollary3 alone does
    path = tmp_path / "rank1.json"
    save(path, BlockMatrix(2, 2, random_psd(4, 1, 5) * 1e100))
    assert main(["verify", "--suite", "corollary3", str(path)]) == 2
    alone = capsys.readouterr().err
    assert "error: input is not PPT within tol 1e-09" in alone
    suites_ = ["--suite", "theorem2", "--suite", "corollary3", "--suite", "block2"]
    assert main(["verify", *suites_, str(path)]) == 2
    assert capsys.readouterr().err == alone


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "theorem2", "big.json"],
        ["--suite", "theorem2", "--suite", "block2", "products.json"],
        ["--suite", "all", "big.json"],
    ],
)
def test_cli_overflow_is_reported_without_a_numpy_warning(tmp_path, args, capsys):
    save(tmp_path / "big.json", BlockMatrix(2, 2, np.full((4, 4), 1e200)))
    save(tmp_path / "products.json", BlockMatrix(2, 2, random_psd(4, 4, 3) * 1e100))
    assert main(["verify", *args[:-1], str(tmp_path / args[-1])]) == 3
    assert "too large to solve" in capsys.readouterr().err


def test_cli_bad_shape_token_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--shapes", "2y3"])
    assert exc.value.code == 2


def test_cli_bad_dims_token_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dims", "4,x"])
    assert exc.value.code == 2


def test_cli_unknown_suite_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_cli_calls_share_one_parser_but_not_their_arguments(tmp_path, monkeypatch):
    def no_build():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", no_build)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    common = ["verify", "--trials", "1", "--seed", "42", "--format", "json"]
    assert main([*common, "--suite", "theorem2", "--shapes", "2x2", "--out", str(first)]) == 0
    assert main([*common, "--suite", "corollary6", "--shapes", "3x2", "--out", str(second)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--shapes", "2y3"])
    assert exc.value.code == 2
    third = tmp_path / "third.json"
    assert main([*common, "--suite", "theorem2", "--shapes", "2x2", "--out", str(third)]) == 0
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in (first, second, third)]
    for doc in docs:
        doc.pop("duration_seconds")
    # --suite appends: a call's list must not start from an earlier call's
    assert [list(doc["suites"]) for doc in docs] == [["theorem2"], ["corollary6"], ["theorem2"]]
    assert [doc["config"]["shapes"] for doc in docs] == [[[2, 2]], [[3, 2]], [[2, 2]]]
    assert docs[2] == docs[0]


_BIG_INT = "1" + "0" * 400  # 10**400: valid JSON, beyond float64


@pytest.mark.parametrize(
    "argv, text, where",
    [
        (["verify", "--suite", "thm8_9"], f'{{"rows":1,"cols":1,"data":[[{_BIG_INT},0]]}}', 0),
        (
            ["verify", "--suite", "theorem2"],
            f'{{"m":2,"n":1,"rows":2,"cols":2,"data":[[1,0],[0,0],[0,0],[{_BIG_INT},0]]}}',
            3,
        ),
        (
            ["choi", "--map-file"],
            f'{{"n":1,"k":1,"basis_images":[{{"rows":1,"cols":1,"data":[[0,{_BIG_INT}]]}}]}}',
            0,
        ),
    ],
    ids=["plain", "block", "map"],
)
def test_cli_exit2_on_an_integer_too_large_for_float64(tmp_path, capsys, argv, text, where):
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    assert f"data[{where}]: integer too large for float64" in err


# ---------------------------------------------------------------------------
# CLI: choi
# ---------------------------------------------------------------------------


def test_cli_choi_builtin_json(capsys):
    rc = main(["choi", "--map", "psi", "--n", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["map"] == {"source": "builtin:psi", "n": 2, "k": 2}
    assert doc["completely_positive"]["certified"] is False
    assert doc["completely_positive"]["min_eig"] == pytest.approx(-1.0, abs=1e-10)
    assert doc["completely_copositive"]["certified"] is True
    choi = doc_to_obj(doc["choi"])
    assert isinstance(choi, BlockMatrix)
    want = np.array(
        [
            [0, 0, 0, -1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [-1, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(choi.mat, want)
    co = doc_to_obj(doc["co_choi"])
    assert np.array_equal(co.mat, partial_transpose(choi).mat)


def test_cli_choi_builtin_text(capsys):
    rc = main(["choi", "--map", "identity", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "map: builtin:identity (M_3 -> M_3)" in out
    assert "completely positive: yes" in out
    assert "completely copositive: no" in out
    assert "completely PPT: no" in out


# (map, n) -> the Choi and co-Choi minima `choi --format json` printed before
# the kernel took over from n * n = 12 up; below that they must not move
_CHOI_MINIMA_BELOW_THE_CROSSOVER = {
    ("phi", 2): (0.9999999999999998, 0.0),
    ("phi", 3): (0.9999999999999998, 0.0),
    ("psi", 2): (-0.9999999999999998, 0.0),
    ("psi", 3): (-2.0000000000000004, 0.0),
    ("identity", 2): (0.0, -0.9999999999999998),
    ("identity", 3): (-3.7548182058203043e-17, -0.9999999999999998),
    ("transpose", 2): (-0.9999999999999998, 0.0),
    ("transpose", 3): (-0.9999999999999998, -3.7548182058203043e-17),
    ("trace_map", 2): (1.0, 1.0),
    ("trace_map", 3): (1.0, 1.0),
}


@pytest.mark.parametrize("name, n", sorted(_CHOI_MINIMA_BELOW_THE_CROSSOVER))
def test_cli_choi_minima_below_the_crossover_are_unchanged(capsys, name, n):
    assert not densemat.solves_in_round_robin(n * n)
    assert main(["choi", "--map", name, "--n", str(n), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = (doc["completely_positive"]["min_eig"], doc["completely_copositive"]["min_eig"])
    assert got == _CHOI_MINIMA_BELOW_THE_CROSSOVER[name, n]


def test_cli_choi_map_file(tmp_path, capsys):
    from blockineq.maps import builtin_map

    path = tmp_path / "phi.json"
    save(path, builtin_map("phi", 2))
    rc = main(["choi", "--map-file", str(path), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["map"]["source"] == f"file:{path}"
    assert doc["completely_positive"]["certified"] is True
    assert doc["completely_copositive"]["certified"] is True


def test_cli_choi_requires_exactly_one_source(tmp_path, capsys):
    rc = main(["choi"])
    assert rc == 2
    assert "exactly one of --map or --map-file" in capsys.readouterr().err
    path = tmp_path / "phi.json"
    save(path, np.eye(2))
    rc = main(["choi", "--map", "phi", "--map-file", str(path)])
    assert rc == 2


def test_cli_choi_rejects_matrix_document(tmp_path, capsys):
    path = tmp_path / "mat.json"
    save(path, np.eye(2))
    rc = main(["choi", "--map-file", str(path)])
    assert rc == 2
    assert "expected a linear-map document" in capsys.readouterr().err


def test_cli_choi_rejects_bad_n(capsys):
    rc = main(["choi", "--map", "phi", "--n", "0"])
    assert rc == 2
    assert "--n must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: gen (and gen -> verify round trip)
# ---------------------------------------------------------------------------


def test_cli_gen_stdout_json(capsys):
    rc = main(["gen", "--kind", "gram_psd", "--m", "2", "--n", "3", "--seed", "9"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    obj = doc_to_obj(doc)
    assert isinstance(obj, BlockMatrix)
    assert (obj.m, obj.n) == (2, 3)
    psd, _ = is_psd(obj.mat)
    assert psd


def test_cli_gen_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--kind", "separable", "--m", "2", "--n", "2", "--seed", "7"]
    assert main(argv + ["--out", str(p1)]) == 0
    assert main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_gen_then_verify_roundtrip(tmp_path):
    gen_path = tmp_path / "sep.json"
    rc = main(
        [
            "gen",
            "--kind",
            "separable",
            "--m",
            "2",
            "--n",
            "2",
            "--rank-or-terms",
            "2",
            "--seed",
            "3",
            "--out",
            str(gen_path),
        ]
    )
    assert rc == 0
    block = load(gen_path)
    assert is_ppt(block)[0]
    out = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--suite",
            "corollary3",
            "--suite",
            "combined",
            "--format",
            "json",
            "--out",
            str(out),
            str(gen_path),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["summary"]["passed"] is True
    assert doc["suites"]["corollary3"]["checks"] == 1
    assert doc["suites"]["combined"]["checks"] == 1


def test_cli_gen_rejects_bad_rank(capsys):
    rc = main(
        ["gen", "--kind", "gram_psd", "--m", "2", "--n", "2", "--rank-or-terms", "9"]
    )
    assert rc == 2
    assert "rank" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: installed entry point (subprocess smoke test)
# ---------------------------------------------------------------------------


def _module_env(**env) -> dict:
    """The environment of a ``python -m blockineq`` child, which imports the package from ``src``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def test_console_script_smoke():
    proc = subprocess.run(
        [
            "blockineq",
            "verify",
            "--suite",
            "choi_certs",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["summary"] == {"checks": 15, "failed": 0, "passed": True}


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "gram_psd", "--m", "2", "--n", "2"],
        ["choi", "--map", "phi", "--n", "2"],
        ["verify", "--suite", "block2", "--trials", "1", "--shapes", "2x2"],
    ],
    ids=["gen", "choi", "verify"],
)
def test_cli_closed_stdout_exits_2_without_a_traceback(argv, unbuffered):
    # an output that cannot be written, not a defect (exit 4); the pipe has
    # no reader before the child starts, so its first write to stdout fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "blockineq", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=_module_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: standard output was closed before the output was written\n"


def test_module_entry_matches_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "blockineq", "choi", "--map", "transpose", "--n", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_module_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "completely positive: no" in proc.stdout
    assert "completely copositive: yes" in proc.stdout
