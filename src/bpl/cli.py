"""Batch front-end: config ingestion, suite orchestration, JSON reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .config import MAX_DENSE_L, SpectralConfig, check_dense_length
from .errors import CapacityError, ConfigError, UnsupportedShapeError
from .suites import SUITES, CheckRecord, run_checks_timed

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


@dataclass
class RunReport:
    """Structured result of one suite run.  ``artifacts`` maps each pipeline
    artifact the run built to its build seconds, which no check's time
    includes."""

    suite: str
    config: dict
    checks: list[CheckRecord]
    artifacts: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "artifacts": {name: round(sec, 4) for name, sec in self.artifacts.items()},
            "summary": {
                "total": len(self.checks),
                "passed": sum(c.passed for c in self.checks),
                "failed": sum(not c.passed for c in self.checks),
                "status": "pass" if self.passed else "fail",
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _complex_from_json(value, fieldname: str) -> complex:
    """A number or a {re, im} object; booleans are rejected, not read as 0/1."""
    if isinstance(value, dict):
        if any(isinstance(part, bool) for part in value.values()):
            raise ConfigError(fieldname, f"bad complex entry {value!r}")
        try:
            return complex(float(value.get("re", 0.0)), float(value.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(fieldname, f"bad complex entry {value!r}") from exc
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    raise ConfigError(fieldname, f"expected number or {{re, im}} object, got {value!r}")


def _config_echo(cfg: SpectralConfig) -> dict:
    return {
        "L": cfg.L,
        "n": cfg.n,
        "gamma": {"re": cfg.gamma.real, "im": cfg.gamma.imag},
        "mu": [{"re": m.real, "im": m.imag} for m in cfg.mu],
        "tol": cfg.tol,
        "seed": cfg.seed,
        "max_dense_L": MAX_DENSE_L,
    }


def load_config(path: str | None, overrides: dict) -> SpectralConfig:
    """Build the problem instance from an optional JSON file plus CLI flags.

    Flags override file values.  Parameters not pinned by either source are
    drawn from the seed (the seeded instance is drawn only if gamma or mu
    is left unpinned), except ``tol`` (default 1e-9), the degeneracy
    threshold of ``SpectralConfig``, which gates no check.  A mu list of the
    wrong length is rejected with the field named.  A lattice beyond the
    dense capacity cap is rejected before anything is drawn; the remaining
    field checks are ``SpectralConfig``'s.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config", "top level must be a JSON object")

    def pick(key, default=None):
        if overrides.get(key) is not None:
            return overrides[key]
        return data.get(key, default)

    L = pick("L", 3)
    n = pick("n", 1)
    seed = pick("seed", 0)
    tol = pick("tol", 1e-9)
    for key, val in (("L", L), ("n", n), ("seed", seed)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(key, f"must be an integer, got {val!r}")
    if not isinstance(tol, (int, float)) or isinstance(tol, bool):
        raise ConfigError("tol", f"must be a number, got {tol!r}")
    check_dense_length(L)

    gamma = overrides.get("gamma")
    if gamma is None and "gamma" in data:
        gamma = _complex_from_json(data["gamma"], "gamma")

    mu = None
    if "mu" in data:
        if not isinstance(data["mu"], list) or len(data["mu"]) != L:
            raise ConfigError("mu", f"must be a list of exactly L={L} entries")
        mu = tuple(_complex_from_json(v, "mu") for v in data["mu"])

    if gamma is None or mu is None:
        drawn = SpectralConfig.random_instance(L, n, seed, tol=float(tol))
        gamma = drawn.gamma if gamma is None else gamma
        mu = drawn.mu if mu is None else mu

    return SpectralConfig(L=L, n=n, gamma=gamma, mu=mu, tol=float(tol), seed=seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpl",
        description="Six-vertex transfer-matrix verification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--L", type=int, help="lattice length")
        p.add_argument("--n", type=int, help="excitation number")
        p.add_argument("--gamma-re", type=float, help="Re(gamma)")
        p.add_argument("--gamma-im", type=float, help="Im(gamma)")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--tol", type=float, help="degeneracy threshold of |sinh(gamma)| and of "
                       "the spectrum's eigenpair residuals (at least 1e-9); gates no check")
        p.add_argument("--out", metavar="PATH", help="write the JSON report here")
        p.add_argument("--json", action="store_true", help="print the JSON report to stdout")

    verify = sub.add_parser("verify", help="algebraic identities")
    verify.add_argument("relation", choices=["ybe", "rtt", "off"])
    add_common(verify)

    for name, helptext in (
        ("spectrum", "sector spectra and eigenpair residuals"),
        ("fz", "functional relation for eigenvector overlaps"),
        ("reduce", "first-order reduction of the explicit PDE"),
        ("all", "every suite in sequence"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_common(p)

    om = sub.add_parser("omega", help="commuting operator family")
    om.add_argument("action", choices=["extract", "eigk", "compare"])
    add_common(om)

    pde = sub.add_parser("pde", help="explicit order-(L-1) PDE")
    pde.add_argument("action", choices=["residual", "special"])
    add_common(pde)

    dw = sub.add_parser("dwbc", help="domain-wall partition function")
    dw.add_argument("action", choices=["partition", "pde", "upsilon"])
    add_common(dw)
    return parser


def _suite_name(args) -> str:
    if args.command == "verify":
        return f"verify-{args.relation}"
    if args.command in ("omega", "pde", "dwbc"):
        return f"{args.command}-{args.action}"
    return args.command


def _overrides(args) -> dict:
    gamma = None
    if args.gamma_re is not None or args.gamma_im is not None:
        gamma = complex(args.gamma_re or 0.0, args.gamma_im or 0.0)
    return {
        "L": args.L,
        "n": args.n,
        "seed": args.seed,
        "tol": args.tol,
        "gamma": gamma,
    }


def _print_table(report: RunReport, stream=None):
    stream = stream or sys.stdout
    print(f"suite: {report.suite}", file=stream)
    width = max((len(c.name) for c in report.checks), default=4)
    print(f"{'check'.ljust(width)}  {'residual':>12}  {'tolerance':>10}  {'margin':>6}  status  time",
          file=stream)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        margin = c.margin_dec
        margin = "-" if margin is None else f"{margin:+.1f}"
        print(
            f"{c.name.ljust(width)}  {c.residual:12.3e}  {c.tolerance:10.1e}  {margin:>6}  "
            f"{status:6}  {c.seconds:6.2f}s",
            file=stream,
        )
    if report.artifacts:
        built = ", ".join(f"{name} {sec:.2f}s" for name, sec in report.artifacts.items())
        print(f"artifacts: {built}", file=stream)
    print(f"overall: {'pass' if report.passed else 'FAIL'}", file=stream)


def run_suite(config_path: str | None, suite: str, out_path: str | None = None,
              overrides: dict | None = None) -> RunReport:
    """Execute one suite against a config file and optionally write the report."""
    if suite != "all" and suite not in SUITES:
        raise ConfigError("suite", f"unknown suite {suite!r}")
    cfg = load_config(config_path, overrides or {})
    checks, artifacts = run_checks_timed(suite, cfg)
    report = RunReport(suite=suite, config=_config_echo(cfg), checks=checks, artifacts=artifacts)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    suite = _suite_name(args)
    try:
        report = run_suite(args.config, suite, args.out, _overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedShapeError as exc:
        print(f"unsupported shape: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    if args.json:
        print(report.to_json())
    else:
        _print_table(report)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
