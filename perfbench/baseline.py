#!/usr/bin/env python3
"""Record the benchmark's numbers for the checked-out commit.

Run from the repository root:

    python3 perfbench/baseline.py

Each workload runs once per seed 1-10 with ``--trace 0`` and once at seed
42 with ``--trace 1``, one run at a time, for the ``run_seconds`` set in
``BENCHMARK.json``. ``perfbench/baseline.json`` then holds, for every
end-to-end metric, the ten values, their median and quartiles and the
spread (interquartile range / median); and the traced run's layer metrics.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, RUN_SECONDS, WORKLOADS, spawn  # noqa: E402

SEEDS = tuple(range(1, 11))


def run_once(workload, seed, trace):
    result, env, _, stderr = spawn(workload, seed, RUN_SECONDS, trace)
    if not result["correct"]:
        raise SystemExit(f"{workload} at seed {seed} failed {result['failed']} requests:\n{stderr}")
    return result, env


def main() -> int:
    doc = {"seeds": list(SEEDS), "seconds": RUN_SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        for seed in SEEDS:
            result, env = run_once(workload, seed, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
            print(workload, seed, {k: round(v[0][-1], 4) for k, v in values.items()}, flush=True)
        summary = {}
        for name, (vals, unit) in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {
                "unit": unit, "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals), "values": vals,
            }
            print(f"  {name}: median {statistics.median(vals):.6g} {unit}, "
                  f"spread {summary[name]['spread']:.3f}", flush=True)
        traced, _ = run_once(workload, DEFAULT_SEED, 1)
        doc["env"] = {k: env[k] for k in ("nproc", "python", "numpy", "blas_threads", "git_commit")}
        doc["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
