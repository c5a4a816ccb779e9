"""Smoke test of the benchmark at tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric listed in BENCHMARK.json is emitted with its
unit on every workload, that layer metrics read non-zero on the workloads
that exercise their layer, that the tracer times every call of its target
functions, and that the correctness checks trip on a corrupted report.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# metric -> workloads whose inputs exercise it; there it must read > 0
APPLIES = {
    "densemat.eig.calls": run.WORKLOADS,
    "densemat.is_psd.calls": run.WORKLOADS,
    "densemat.determinant.calls": ("submatrix-suites",),
    "randgen.psd_draws": ("block-suites", "submatrix-suites"),
    "randgen.ppt.calls": ("block-suites",),
    "blockops.calls": ("block-suites", "file-replay"),
    "inequalities.check.calls": ("block-suites", "file-replay"),
    "inequalities.pair.calls": ("submatrix-suites",),
    "inequalities.pair.us_per_call": ("submatrix-suites",),
    "suites.suite_s.theorem2": ("block-suites", "file-replay"),
    "suites.suite_s.eqlin": ("submatrix-suites",),
    "suites.suite_s.choi_certs": ("block-suites",),
    "suites.to_json.s": run.WORKLOADS,
    "suites.report.bytes": run.WORKLOADS,
    "matio.load.calls": ("file-replay",),
    "matio.load.bytes": ("file-replay",),
    "cli.main.self_s": ("file-replay",),
    "maps.certify.self_s": ("block-suites",),
    "pairs_per_s": ("submatrix-suites",),
    "latency.samples": run.WORKLOADS,
}


def _run(workload, trace):
    result, _, _, stderr = run.spawn(workload, run.DEFAULT_SEED, 0, trace, tiny=True)
    assert result["correct"] is True, stderr
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = _run(workload, 0)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_metrics_emitted(workload):
    result = _run(workload, 1)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == want
    for name, workloads in APPLIES.items():
        if workload in workloads:
            assert metrics[name]["value"] > 0, name
    # the outermost spans account for the traced wall time
    assert 0.95 <= metrics["trace.self_coverage"]["value"] <= 1.0 + 1e-9
    assert metrics["failed_frac"]["value"] == 0


def _original_calls(tracer, action):
    """Calls of the tracer's original targets during ``action``, by name, whatever the call site."""
    names = {fn.__code__: name for name, fn in tracer.targets.items()}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracer_times_every_call(bi, workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    loop = run.Loop(bi, run.build_round(workload, run.DEFAULT_SEED, tiny=True))
    with Tracer() as tracer:
        assert tracer.unwrapped == [] and tracer.missing == []
        calls = _original_calls(tracer, loop.run_round)
    assert loop.failed == 0
    assert calls and calls == Counter({k: v for k, v in tracer.fn_calls.items() if v})


def test_missed_binding_site_is_caught(bi, monkeypatch):
    stash = (bi.densemat.is_psd,)
    monkeypatch.setattr(bi.blockops, "_stash", stash, raising=False)
    with Tracer() as tracer:
        assert tracer.unwrapped == ["blockineq.blockops._stash: is_psd"]
        calls = _original_calls(tracer, lambda: stash[0](bi.densemat.as_matrix([[1.0]])))
    assert calls["is_psd"] == 1 and tracer.fn_calls["is_psd"] == 0


def _suite_report(bi, suite, **config):
    return bi.suites.run_suite(
        bi.suites.SuiteConfig(suites=(suite,), trials=2, seed=7, output_format="json", **config)
    ).to_json()


@pytest.fixture(scope="module")
def bi():
    return run.import_package()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.replace('"passed":true', '"passed":false', 1),
        lambda t: t.replace('"checks":2', '"checks":3', 1),
        lambda t: t.replace('"counterexamples":[]', '"counterexamples":[{}]'),
        lambda t: t.replace('"failed_pairs":0', '"failed_pairs":1', 1),
        lambda t: t.replace('"pairs":69', '"pairs":68', 1),
        lambda t: t[: len(t) // 2],
    ],
)
def test_corrupted_report_is_caught(bi, corrupt):
    text = _suite_report(bi, "thm8_9", dims=(4,))
    assert run.check_report(text, {"thm8_9": 2})[0] == []
    bad = corrupt(text)
    assert bad != text
    assert run.check_report(bad, {"thm8_9": 2})[0]


def test_counterexample_is_named(bi):
    text = _suite_report(bi, "eqlin", dims=(4,))
    cx = {
        "suite": "eqlin", "trial": 1,
        "check": {
            "check_name": "det_submatrix", "scalar_gap": -2e-09, "tolerance": 1e-09,
            "seed_info": "random_psd(dim=5, rank=3, seed=1)",
            "details": {"alpha": [1, 4, 5], "beta": [3, 4, 5]},
        },
    }
    bad = text.replace('"counterexamples":[]', f'"counterexamples":[{json.dumps(cx)}]')
    problems = run.check_report(bad, {"eqlin": 2})[0]
    assert problems == [
        "counterexample in eqlin trial 1: det_submatrix gap -2e-09 (tolerance 1e-09) on "
        "random_psd(dim=5, rank=3, seed=1), alpha [1, 4, 5] beta [3, 4, 5]"
    ]


def test_wrong_certification_is_caught(bi):
    text = _suite_report(bi, "choi_certs")
    assert run.check_report(text, {"choi_certs": run.CHOI_CHECKS})[0] == []
    bad = text.replace('"completely_positive":false', '"completely_positive":true', 1)
    assert run.check_report(bad, {"choi_certs": run.CHOI_CHECKS})[0]


def test_reports_repeat_apart_from_duration(bi):
    first = _suite_report(bi, "theorem2", shapes=((2, 2),))
    second = _suite_report(bi, "theorem2", shapes=((2, 2),))
    assert run.strip_duration(first) == run.strip_duration(second)
    assert '"duration_seconds"' in first and '"duration_seconds"' not in run.strip_duration(first)
    tampered = first.replace('"seed_info":"', '"seed_info":"x', 1)
    assert run.strip_duration(tampered) != run.strip_duration(first)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "block-suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
