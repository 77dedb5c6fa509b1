"""End-to-end and per-layer benchmark of the ``bpl`` verification lab.

    python3 benchmarks/run.py --workload all_L4n2 --seed 0 --seconds 30 --trace 0

Run from the repository root.  A run covers a fixed number of problem
instances per workload, drawn with ``SpectralConfig.random_instance(L, n,
seed_i)``: the first uses ``--seed`` itself, the later ones seeds drawn from
it, so the same seed always gives the same instances whatever the speed of
the host.  A pass writes one instance to a config file and runs the
workload's suites on it through ``bpl.cli.run_suite``, one suite at a time so
that a suite that raises is counted as a failed operation and the rest still
run.

``--trace 0`` runs one pass per instance, then repeats the same instances in
turn, for timing only, until the next pass would end after ``--seconds``;
every repeat must reproduce its instance's residuals bit for bit. wall_s is
the mean over instances of each instance's median pass time, corrected for
host speed; quality and count metrics come from the first pass of each
instance.
``--trace 1`` runs each suite of every instance untraced and traced back to
back, in alternating order, requires both to give the same residuals bit for
bit, and reports the per-layer metrics (medians over instances) plus the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
checks plus suites that raised, ``failed`` the checks that missed their gate
plus the suites that raised.  Every check with its residual, tolerance and
verdict, the environment, and (traced) the spans are written under
``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

# BLAS thread count changes both speed and rounding; pin it before numpy loads
# (bpl, and with it numpy, is imported later, from this checkout's src).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 7

#: Host speed on shared machines drifts by up to 2x over minutes (on a shared
#: 2-vCPU x86_64 VM one instance of all_L4n2 took 3.5 s and 7.1 s within a
#: minute, CPU time tracking wall time).  Times are therefore corrected with
#: a reference kernel that shares no code with bpl: pass times are multiplied
#: by (REFERENCE_S / r) ** speed_exponent, where r is the mean of every kernel
#: sample taken during the run, and set-up time by REFERENCE_S / r with the
#: samples taken before each start.  Single samples are noisy and the host
#: switches between fast and slow phases within seconds, so one mean over the
#: whole run tracks it better than samples taken next to each suite.  How
#: strongly a workload follows the kernel depends on its operations: on that
#: VM all_L4n2 and spectral_L7n2 (small Kronecker products and Python loops,
#: like the kernel) followed it in full: over five runs each, the exponent 1
#: left wall_s spreads of 7% and 2%, against 32% and 14% uncorrected.
#: verify_L9n3 (dense 512x512 products) followed it only in part, with
#: log-log slopes of 0.35 to 0.38 against this kernel and against a dense
#: product of the same size; there the exponent 0.5 left 6%, against 7%
#: uncorrected and 14% with the exponent 1.  The correction does not depend
#: on bpl, so a change in bpl's speed shows in full.  The raw seconds go to
#: the result file.
REFERENCE_S = 0.005
#: Kernel samples before the first suite and after the last, and between suites.
REFERENCE_REPEATS = 10
REFERENCE_BETWEEN = 3

SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from bpl.cli import load_config
load_config(sys.argv[2], {}).check_dense_capacity()
"""


@dataclass(frozen=True)
class Workload:
    L: int
    n: int
    #: Suites in run order; ``None`` runs every suite of ``bpl all``.
    suites: tuple[str, ...] | None
    #: Problem instances per run.
    instances: int
    #: Checks that may fail by any amount without making the run incorrect.
    may_fail: frozenset[str] = frozenset()
    #: How strongly pass times follow the reference kernel (see REFERENCE_S).
    speed_exponent: float = 1.0


#: Checks of the closed-form operator that fail for L >= 7 (ROADMAP item 1).
CLOSED_FORM_DEFECT = frozenset({"closedform-vs-extracted", "closedform-pde-on-eigenfunctions",
                                "upsilon-on-eigenfunctions"})
#: Checks on fitted polynomials and on eigenvector bases, on every workload.
#: Their residuals grow with the condition number of the fit, and a small
#: share of random instances misses the gate (ROADMAP item 2): zbar-holdout
#: failed on 1 of 138 sampled L=4 instances (2.0e-9 against 1e-9), and the
#: F_n, Omega and joint-spectrum checks on 12 of 42 L=7 instances, by at most
#: 2.8 decades.
CONDITIONING = frozenset({"overlap-polynomial-holdout", "omega-commutators",
                          "omega-top-scalar", "lbar-polynomiality-holdout",
                          "lbar-symmetry-defect", "joint-eigenvalue-problems",
                          "joint-spectrum-containment", "zbar-holdout", "zbar-symmetry",
                          "zbar-degree-bound", "dwbc-pde-residual", "dwbc-upsilon-residual"})
#: A conditioning failure loses a few digits; a wrong result misses by more
#: (the closed-form defect by 6.4 to 8.4 decades), so a conditioning check
#: that misses its gate by more than this many decades makes the run incorrect.
CONDITIONING_DECADES = 5

# Why each workload: see BENCHMARK.json.
WORKLOADS = {
    "all_L4n2": Workload(4, 2, None, instances=5),
    "spectral_L7n2": Workload(7, 2, ("spectrum", "fz", "omega-extract", "omega-eigk",
                                     "omega-compare", "pde-residual", "pde-special",
                                     "reduce"),
                              instances=3, may_fail=CLOSED_FORM_DEFECT),
    "verify_L9n3": Workload(9, 3, ("verify-ybe", "verify-rtt", "verify-off"), instances=3,
                            speed_exponent=0.5),
}


def suites_of(workload: Workload) -> tuple[str, ...]:
    from bpl.suites import SUITES

    return tuple(SUITES) if workload.suites is None else workload.suites


def per_layer_names() -> list[str]:
    """Per-layer metrics of a traced run, besides trace.overhead_frac and
    suites.margin_min_dec.  ``<layer>.self_s`` sums the self time of the
    layer's traced functions."""
    from bpl.suites import SUITES

    return (
        [f"{layer}.self_s" for layer in ("ybcore", "functional", "omega", "closedform",
                                         "reduction", "dwbc", "polyengine", "suites")]
        + ["ybcore.monodromy." + q for q in ("calls", "distinct", "reuse_frac", "self_s",
                                             "bytes_computed")]
        + ["ybcore.transfer.calls", "ybcore.spectrum.calls", "ybcore.spectrum.s",
           "ybcore.check_off_relations.self_s", "ybcore.check_rtt.s",
           "functional.FnSampler.value.calls", "functional.check_fz_residual.s",
           "functional.lambda_bar_coefficients.s", "functional.extract_fbar.calls",
           "functional.extract_fbar.s", "functional.extract_fbar.cond_max",
           "omega.build_lbar.calls", "omega.build_lbar.self_s", "omega.extract_omegas.calls",
           "omega.extract_omegas.s", "omega.check_eigk.calls", "omega.check_eigk.s",
           "closedform.eval_q.calls", "closedform.eval_q.self_s",
           "closedform.closedform_operator.s", "closedform.closedform_residual.s",
           "reduction.upsilon_residual.calls", "reduction.upsilon_residual.s",
           "dwbc.dwbc_partition.calls", "dwbc.dwbc_partition.s",
           "dwbc.dwbc_configuration_sum.s", "dwbc.extract_zbar.calls", "dwbc.extract_zbar.s",
           "dwbc.extract_zbar.cond_max",
           "polyengine.tensor_interpolate.calls", "polyengine.tensor_interpolate.self_s",
           "polyengine.MultiPoly.eval_many.calls", "polyengine.MultiPoly.eval_many.self_s"]
        + [f"suites.{suite}.s" for suite in SUITES])


def per_layer_unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    return {"calls": "count", "distinct": "count", "s": "s", "self_s": "s",
            "bytes_computed": "B", "reuse_frac": "frac", "cond_max": "1",
            "overhead_frac": "frac", "margin_min_dec": "dec"}[quantity]


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "check_pass_frac": "frac", "margin_mean_dec": "dec"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_bpl():
    """Import ``bpl`` from this checkout's ``src``; exit with an error if it is missing."""
    if not (SRC / "bpl" / "__init__.py").is_file():
        sys.exit(f"bpl sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bpl

    if Path(bpl.__file__).resolve().parent != (SRC / "bpl").resolve():
        sys.exit(f"imported bpl from {bpl.__file__}, not from {SRC}")


def instance_seeds(seed: int, count: int) -> list[int]:
    """``seed`` first, then ``count - 1`` seeds drawn from it."""
    import numpy as np

    rng = np.random.default_rng(seed & 0x7FFFFFFF)
    return [seed] + [int(rng.integers(0, 2**31)) for _ in range(count - 1)]


def write_config(workload: Workload, seed: int) -> Path:
    from bpl.config import SpectralConfig

    cfg = SpectralConfig.random_instance(workload.L, workload.n, seed)
    path = WORK / f"config-L{cfg.L}n{cfg.n}-seed{seed}.json"
    path.write_text(json.dumps({
        "L": cfg.L, "n": cfg.n, "seed": cfg.seed, "tol": cfg.tol,
        "gamma": {"re": cfg.gamma.real, "im": cfg.gamma.imag},
        "mu": [{"re": m.real, "im": m.imag} for m in cfg.mu],
    }))
    return path


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(6)]
    dense = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    return blocks, dense


def reference_kernel() -> float:
    """Seconds taken by a fixed kernel that shares no code with bpl but has
    the workloads' mix: chains of small complex Kronecker products (like a
    monodromy build), one dense complex product and a scalar complex loop."""
    import numpy as np

    blocks, dense = _reference_inputs()
    t0 = time.perf_counter()
    for _ in range(10):
        a = np.eye(1, dtype=complex)
        for b in blocks:
            a = np.kron(a, b) + np.kron(a, b.T)
    dense @ dense
    z = 0j
    for k in range(3000):
        z += cmath.exp(1j * k * 0.001) * (k % 7)
    return time.perf_counter() - t0


def reference_samples(count: int = REFERENCE_REPEATS) -> list[float]:
    return [reference_kernel() for _ in range(count)]


def setup_seconds(config: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreter through ``import bpl`` and config validation, each
    start preceded by reference kernel samples."""
    times, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference += reference_samples()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config)],
                       check=True, env=os.environ.copy())
        times.append(time.perf_counter() - t0)
    return times, reference


def run_suite_into(p: dict, suite: str, config: Path):
    """Run one suite and add its checks, or the error it raised, to pass ``p``."""
    from bpl.cli import run_suite

    t0 = time.perf_counter()
    try:
        report = run_suite(str(config), suite)
    except Exception as exc:  # a raising suite is a failed operation, not an abort
        p["raised"].append({"suite": suite, "error": type(exc).__name__, "message": str(exc),
                            "bpl": type(exc).__module__.startswith("bpl.")})
    else:
        p["checks"] += [{"suite": suite, "name": c.name, "residual": c.residual,
                         "tolerance": c.tolerance, "passed": c.passed} for c in report.checks]
    p["suite_s"][suite] = time.perf_counter() - t0


def run_pass(suites, config: Path, tracer=None) -> list[dict]:
    """Run every suite on one instance and return ``[pass]``.

    With a tracer, each suite also runs traced right beside its untraced run,
    traced first on every other suite, so that host drift cancels out of the
    tracing overhead; the untraced and the traced pass are returned, with the
    places the tracer left unwrapped in the traced one.
    """
    from tracer import unwrapped_aliases

    passes = [{"suite_s": {}, "checks": [], "raised": []} for _ in range(2 if tracer else 1)]
    if tracer:
        passes[1]["unwrapped"] = []
    reference = reference_samples()  # before, between and after the suites
    for i, suite in enumerate(suites):
        if i:
            reference += reference_samples(REFERENCE_BETWEEN)
        if not tracer:
            run_suite_into(passes[0], suite, config)
            continue
        for traced in ((True, False) if i % 2 else (False, True)):
            if traced:
                with tracer:
                    passes[1]["unwrapped"] += unwrapped_aliases()
                    run_suite_into(passes[1], suite, config)
            else:
                run_suite_into(passes[0], suite, config)
    reference += reference_samples()
    for p in passes:
        p["wall_s"] = sum(p["suite_s"].values())
        p["reference_s"] = reference
    return passes


def pass_is_sound(p: dict) -> bool:
    """The report is well formed: every verdict agrees with its residual and
    tolerance, and every suite that raised raised one of bpl's own errors."""
    for c in p["checks"]:
        r, tol = c["residual"], c["tolerance"]
        if not (math.isfinite(tol) and tol > 0) or math.isnan(r) or r < 0:
            return False
        if c["passed"] != (r < tol):
            return False
    return all(e["bpl"] for e in p["raised"])


def speed(reference: list[float], exponent: float = 1.0) -> float:
    """Factor that scales times measured alongside these reference kernel
    samples towards a host on which the kernel takes REFERENCE_S."""
    return (REFERENCE_S / statistics.mean(reference)) ** exponent


def headroom(passes, passing_only: bool) -> dict[str, list[float]]:
    """Per check, max(0, log10(tolerance / residual)) on each pass, for checks
    with a nonzero residual: a failing check has no headroom left."""
    out: dict[str, list[float]] = {}
    for p in passes:
        for c in p["checks"]:
            if c["residual"] > 0 and (c["passed"] or not passing_only):
                out.setdefault(f"{c['suite']}/{c['name']}", []).append(
                    max(0.0, math.log10(c["tolerance"] / c["residual"])))
    return out


def margin_mean_dec(passes) -> float:
    """Mean over checks of each check's mean headroom over the instances.

    Averaging per check first weights every check alike, whether or not its
    residual is 0 on some instances.  Failing checks count with zero
    headroom, so a check that starts to fail lowers the figure.
    """
    return statistics.mean(statistics.mean(v) for v in headroom(passes, False).values())


def expected_failure(workload: Workload, c: dict) -> bool:
    """A known defect: a check in ``workload.may_fail``, or a conditioning
    check within CONDITIONING_DECADES of its gate."""
    return c["name"] in workload.may_fail or (
        c["name"] in CONDITIONING
        and c["residual"] < c["tolerance"] * 10.0 ** CONDITIONING_DECADES)


def unexpected_failures(workload: Workload, passes) -> list[str]:
    """Failed checks that are not a known defect, and suites that raised."""
    return sorted({f"{c['suite']}/{c['name']}" for p in passes for c in p["checks"]
                   if not c["passed"] and not expected_failure(workload, c)}
                  | {f"{e['suite']} raised {e['error']}" for p in passes for e in p["raised"]})


def residual_signature(p: dict):
    return [(c["suite"], c["name"], c["residual"].hex(), c["passed"]) for c in p["checks"]] + \
        [(e["suite"], e["error"]) for e in p["raised"]]


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    """Run the workload's instances; see the module docstring.

    Returns the first pass of each instance, the raw times of every untraced
    pass per instance, the repeats, and, traced, the tracer
    summaries, the (untraced, traced) pairs and the spans.  ``complete`` is
    false if the tracer left any alias of a traced function unwrapped.
    """
    from tracer import Tracer

    suites = suites_of(workload)
    seeds = instance_seeds(seed, workload.instances)
    configs = [write_config(workload, s) for s in seeds]
    firsts, times, repeats, summaries, pairs, spans = [], [], [], [], [], []
    complete = True
    tracer = Tracer()
    start = time.perf_counter()
    for s, config in zip(seeds, configs):
        if trace:
            tracer.reset()
            tracer.run = f"{workload.L}-{workload.n}-{s}"
            p, traced = run_pass(suites, config, tracer)
            complete = complete and not traced["unwrapped"]
            summaries.append(tracer.summary())
            pairs.append((p, traced))
            offset = len(spans)
            spans += [[name, t0, t1, parent + offset if parent >= 0 else -1, run]
                      for name, t0, t1, parent, run in tracer.spans]
        else:
            [p] = run_pass(suites, config)
        p["seed"] = s
        firsts.append(p)
        times.append([p["wall_s"]])
    while not trace:
        elapsed = time.perf_counter() - start
        done = len(firsts) + len(repeats)
        if elapsed + elapsed / done > seconds:
            break
        k = len(repeats) % len(configs)
        [p] = run_pass(suites, configs[k])
        p["seed"] = seeds[k]
        repeats.append(p)
        times[k].append(p["wall_s"])
    return firsts, times, repeats, summaries, pairs, spans, complete


def per_layer(summaries, pairs) -> dict[str, float]:
    """Medians over the traced instances; a function never called reads 0."""
    out = {name: statistics.median(s.get(name, 0.0) for s in summaries)
           for name in per_layer_names()}
    out["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in pairs) - 1
    out["suites.margin_min_dec"] = statistics.median(
        min((v[0] for v in headroom([u], True).values()), default=0.0) for u, _ in pairs)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_bpl()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    warnings.simplefilter("ignore")
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)

    setup, setup_reference = setup_seconds(write_config(workload, args.seed))
    firsts, times, repeats, summaries, pairs, spans, complete = measure(
        workload, args.seed, args.seconds, bool(args.trace))

    attempted = sum(len(p["checks"]) + len(p["raised"]) for p in firsts)
    failed = sum(sum(not c["passed"] for c in p["checks"]) + len(p["raised"]) for p in firsts)
    unexpected = unexpected_failures(workload, firsts)
    names = {tuple((c["suite"], c["name"]) for c in p["checks"]) for p in firsts if not p["raised"]}
    signature = {p["seed"]: residual_signature(p) for p in firsts}
    correct = (all(pass_is_sound(p) for p in firsts + repeats) and len(names) <= 1
               and attempted > 0 and complete and not unexpected
               and all(residual_signature(p) == signature[p["seed"]] for p in repeats)
               and all(residual_signature(u) == residual_signature(t) for u, t in pairs))

    reference = [r for p in firsts + repeats for r in p["reference_s"]]
    if args.trace:
        values = per_layer(summaries, pairs)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = {
            "wall_s": statistics.mean(statistics.median(t) for t in times)
            * speed(reference, workload.speed_exponent),
            "setup_s": statistics.median(setup) * speed(setup_reference),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "check_pass_frac": 1 - failed / attempted,
            "margin_mean_dec": margin_mean_dec(firsts),
        }
        units = END_TO_END_UNITS

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed), "setup_raw_s": setup,
        "setup_reference_s": setup_reference, "pass_raw_s": times,
        "correct": correct, "attempted": attempted, "failed": failed,
        "unexpected_failures": unexpected, "metrics": metrics,
        "passes": firsts, "repeats": repeats,
    }
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    if args.trace:
        (WORK / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run"], "spans": spans}))

    print(f"workload {args.workload}: instances {[p['seed'] for p in firsts]}, "
          f"{len(repeats)} timing repeats")
    for c in firsts[0]["checks"]:
        verdict = "pass" if c["passed"] else "FAIL"
        print(f"  {c['suite']:15} {c['name']:36} {c['residual']:10.3e} {c['tolerance']:8.1e} {verdict}")
    for e in firsts[0]["raised"]:
        print(f"  {e['suite']:15} raised {e['error']}: {e['message']}")
    print(f"checks failed {failed} of {attempted} (check_fail_frac {failed / attempted:.4f})")
    for u in unexpected:
        print(f"  unexpected failure: {u}")
    raw = [p["wall_s"] for p in firsts + repeats]
    print(f"raw wall_s per pass {statistics.median(raw):.4f} s, raw setup_s "
          f"{statistics.median(setup):.4f} s, reference kernel "
          f"{statistics.mean(reference):.5f} s")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"full result: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
