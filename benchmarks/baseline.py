"""Run the benchmark on seeds 0-9 of every workload and write ``BENCH_baseline.json``.

    python3 benchmarks/baseline.py

Each workload of ``BENCHMARK.json`` runs once per seed with tracing off, for
``run_seconds``, then once traced at seed 0. The file records every run's
result line, the median and quartiles of each end-to-end metric with the
quartile spread as a share of the median, the traced per-layer metrics, every
check of the first seed's first instance (for diffing residuals between
commits), and the environment.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its full result file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    full = json.loads((ROOT / ".bench_work" /
                       f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, full


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            line, full = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, **line})
            if seed == SEEDS[0]:
                report["environment"] = full["environment"]
                checks = full["passes"][0]["checks"]
                raised = full["passes"][0]["raised"]
            print(workload, seed, {k: round(m["value"], 4) for k, m in line["metrics"].items()},
                  file=sys.stderr)
        traced, _ = run(workload, SEEDS[0], seconds, 1)
        names = runs[0]["metrics"]
        report["workloads"][workload] = {
            "end_to_end": {k: summarise([r["metrics"][k]["value"] for r in runs]) | {
                "unit": names[k]["unit"]} for k in names},
            "runs": runs,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced_correct": traced["correct"],
            "checks_first_instance": checks,
            "raised_first_instance": raised,
        }
    out = HERE / "BENCH_baseline.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
