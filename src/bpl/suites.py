"""Check suites behind the command-line front-end.

Each suite maps a problem instance to a list of named checks with residuals,
tolerances and wall times.  Random draws are derived deterministically from
the instance seed and the check name, so a fixed config reproduces identical
numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import closedform, dwbc, omega, reduction, ybcore
from .config import SpectralConfig, random_complex
from .functional import (
    FnSampler,
    check_fz_residual,
    extract_fbar,
    fbar_b_ops,
    lambda_bar_coefficients,
    spectrum,
)
from .polyengine import MultiPoly


@dataclass
class CheckRecord:
    name: str
    residual: float
    tolerance: float
    passed: bool
    seconds: float
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seconds": round(self.seconds, 4),
        }
        if self.extra:
            out["extra"] = self.extra
        return out


class _Recorder:
    def __init__(self):
        self.records: list[CheckRecord] = []

    def add(self, name: str, residual: float, tolerance: float, started: float, **extra):
        self.records.append(
            CheckRecord(
                name=name,
                residual=float(residual),
                tolerance=float(tolerance),
                passed=bool(residual < tolerance),
                seconds=time.perf_counter() - started,
                extra=extra,
            )
        )


def _draws(cfg: SpectralConfig, tag: str, count: int, width: int = 1):
    rng = cfg.rng(tag)
    for _ in range(count):
        yield [random_complex(rng) for _ in range(width)]


# -- individual suites ---------------------------------------------------------------

def suite_verify_ybe(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    rng = cfg.rng("ybe")
    worst = 0.0
    for _ in range(100):
        x, y, g = (random_complex(rng) for _ in range(3))
        worst = max(worst, ybcore.check_ybe(x, y, g))
    rec.add("ybe-random-draws", worst, 1e-11, t0, draws=100)
    t0 = time.perf_counter()
    rec.add("ybe-at-origin", ybcore.check_ybe(0.0, 0.0, cfg.gamma), 1e-14, t0)
    return rec.records


def suite_verify_rtt(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    rtt_cfg = cfg if cfg.L <= 5 else SpectralConfig.random_instance(5, 0, cfg.seed)
    t0 = time.perf_counter()
    worst = 0.0
    for x, y in _draws(rtt_cfg, "rtt", 20, width=2):
        worst = max(worst, ybcore.check_rtt(x, y, rtt_cfg))
    rec.add("rtt-random-draws", worst, 1e-10, t0, L=rtt_cfg.L, draws=20)

    comm_cfg = cfg if cfg.L <= 8 else SpectralConfig.random_instance(8, 0, cfg.seed)
    t0 = time.perf_counter()
    worst = 0.0
    for x, y in _draws(comm_cfg, "commutator", 5, width=2):
        t1 = ybcore.transfer(x, comm_cfg).entries
        t2 = ybcore.transfer(y, comm_cfg).entries
        num = np.max(np.abs(t1 @ t2 - t2 @ t1))
        worst = max(worst, num / max(np.max(np.abs(t1)) * np.max(np.abs(t2)), 1e-300))
    rec.add("transfer-commutator", worst, 1e-10, t0, L=comm_cfg.L, draws=5)

    t0 = time.perf_counter()
    worst = 0.0
    for x, y in _draws(rtt_cfg, "bb-commute", 5, width=2):
        b1 = ybcore.monodromy(x, rtt_cfg).b.entries
        b2 = ybcore.monodromy(y, rtt_cfg).b.entries
        num = np.max(np.abs(b1 @ b2 - b2 @ b1))
        worst = max(worst, num / max(np.max(np.abs(b1)) * np.max(np.abs(b2)), 1e-300))
    rec.add("b-operators-commute", worst, 1e-12, t0, L=rtt_cfg.L)
    return rec.records


def suite_verify_off(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    worst = 0.0
    for draw in _draws(cfg, "off", 10, width=cfg.n + 1):
        res = ybcore.check_off_relations(draw[0], draw[1:], cfg)
        worst = max(worst, res.a_relation, res.d_relation, res.transfer_identity)
    rec.add("exchange-relations", worst, 1e-9, t0, n=cfg.n, L=cfg.L, draws=10)
    return rec.records


def suite_spectrum(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    total = sum(len(ybcore.sector_indices(cfg.L, s)) for s in range(cfg.L + 1))
    rec.add("sector-dimensions-sum", abs(total - cfg.quantum_dim), 0.5, t0)

    t0 = time.perf_counter()
    eigs = spectrum(cfg, cfg.n)
    rng = cfg.rng("spectrum-extra")
    worst = 0.0
    for lam in [random_complex(rng) for _ in range(3)]:
        t = ybcore.transfer(lam, cfg).entries
        for eig in eigs:
            worst = max(worst, *eig.residuals_from(t))
    rec.add("eigenpair-residuals-extra-probes", worst, 1e-8, t0, sector=cfg.n)
    return rec.records


def suite_fz(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    eigs = spectrum(cfg, cfg.n)
    worst = 0.0
    for eig in eigs:
        sampler = FnSampler(cfg, eig)
        for draw in _draws(cfg, f"fz-{eig.index}", 5, width=cfg.n + 1):
            worst = max(worst, check_fz_residual(sampler, draw[0], draw[1:]))
    rec.add("functional-relation", worst, 1e-8, t0, n=cfg.n, L=cfg.L, eigenvectors=len(eigs))

    t0 = time.perf_counter()
    worst = 0.0
    b_ops = fbar_b_ops(cfg, cfg.n)
    for eig in eigs:
        fit = extract_fbar(FnSampler(cfg, eig, b_ops))
        worst = max(worst, fit.holdout_residual)
    rec.add("overlap-polynomial-holdout", worst, 1e-9, t0)
    return rec.records


def suite_omega_extract(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    family = omega.extract_omegas(cfg)
    comm = float(np.max(family.commutator_norms))
    rec.add(
        "omega-commutators",
        comm,
        1e-9,
        t0,
        commutator_norms=[[float(v) for v in row] for row in family.commutator_norms],
    )
    t0 = time.perf_counter()
    rec.add(
        "omega-top-scalar",
        family.omega_top_identity_residual,
        1e-9,
        t0,
        scalar=[family.omega_top_scalar.real, family.omega_top_scalar.imag],
    )
    t0 = time.perf_counter()
    rec.add("lbar-polynomiality-holdout", family.lbar.polynomiality_residual, 1e-9, t0)
    t0 = time.perf_counter()
    rec.add("lbar-symmetry-defect", family.lbar.symmetry_defect, 1e-8, t0)
    return rec.records


def suite_omega_eigk(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    report = omega.check_eigk(cfg)
    delta_tables = [
        {"eig": r.eig_index, "vanishing": r.vanishing,
         "delta": None if r.delta is None else [[d.real, d.imag] for d in r.delta]}
        for r in report.records
    ]
    rec.add(
        "joint-eigenvalue-problems",
        report.max_residual,
        1e-8,
        t0,
        deltas=delta_tables,
        surplus_dimension=report.surplus_dimension,
    )
    t0 = time.perf_counter()
    rec.add("joint-spectrum-containment", report.max_containment_distance, 1e-7, t0)
    return rec.records


def suite_omega_compare(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    rec.add("closedform-vs-extracted", closedform.compare_omega_closedform(cfg), 1e-7, t0,
            n=cfg.n, L=cfg.L)
    return rec.records


def suite_pde_residual(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    eigs = spectrum(cfg, cfg.n)
    lam_bars = lambda_bar_coefficients(eigs, cfg)
    worst = 0.0
    used = 0
    b_ops = fbar_b_ops(cfg, cfg.n)
    for eig, coeffs in zip(eigs, lam_bars):
        fit = extract_fbar(FnSampler(cfg, eig, b_ops))
        if fit.poly.max_abs() < 1e-12:
            continue
        used += 1
        worst = max(worst, closedform.closedform_residual(cfg, fit.poly, coeffs[cfg.L - 1]))
    rec.add("closedform-pde-on-eigenfunctions", worst, 1e-8, t0, eigenfunctions=used)
    return rec.records


def suite_pde_special(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()

    t0 = time.perf_counter()
    n0_cfg = cfg.replace(n=0)
    sol = closedform.special_solutions("n0", n0_cfg)
    resid = closedform.closedform_residual(n0_cfg, sol.eigenfunctions[0], sol.deltas[0])
    rec.add("special-n0", resid, 1e-10, t0, L=cfg.L)

    for case, nn in (("n1L2", 1), ("n2L2", 2)):
        t0 = time.perf_counter()
        case_cfg = (
            cfg.replace(n=nn)
            if cfg.L == 2
            else SpectralConfig.random_instance(2, nn, cfg.seed, tol=cfg.tol)
        )
        sol = closedform.special_solutions(case, case_cfg)
        worst = 0.0
        for f, d in zip(sol.eigenfunctions, sol.deltas):
            worst = max(worst, closedform.closedform_residual(case_cfg, f, d))
        rec.add(f"special-{case}", worst, 1e-10, t0)
    return rec.records


def suite_reduce(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    system = reduction.spectral_reduction(cfg)
    report = omega.check_eigk(cfg)
    rng = cfg.rng("reduce-points")
    worst = 0.0
    used = 0
    for r in report.records:
        if r.vanishing:
            continue
        used += 1
        for _ in range(3):
            point = closedform._distinct_sample_points(cfg, 1, f"reduce-{r.eig_index}-{used}")[0]
            worst = max(
                worst,
                reduction.upsilon_residual(system, r.fbar_fit.poly, r.delta[cfg.L - 1], point),
            )
    rec.add("upsilon-on-eigenfunctions", worst, 1e-8, t0, eigenfunctions=used)

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        coeffs = rng.standard_normal((cfg.L,) * cfg.n) + 1j * rng.standard_normal((cfg.L,) * cfg.n)
        fbar = MultiPoly(coeffs)
        delta = random_complex(rng)
        point = closedform._distinct_sample_points(cfg, 1, "reduce-equivalence")[0]
        psi = reduction.build_psi(fbar, cfg)
        row = system.upsilon_apply(psi, delta, point)[0]
        direct = system.pde_row(fbar, delta, point)
        worst = max(worst, abs(row - direct) / max(abs(direct), 1e-300))
    rec.add("pde-row-equivalence", worst, 1e-12, t0)
    return rec.records


def suite_dwbc_partition(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    enum_cfg = cfg if cfg.L <= 3 else SpectralConfig.random_instance(3, 0, cfg.seed)
    t0 = time.perf_counter()
    rng = enum_cfg.rng("dwbc-oracles")
    worst = 0.0
    for _ in range(3):
        lams = [random_complex(rng) for _ in range(enum_cfg.L)]
        zb = dwbc.dwbc_partition(lams, enum_cfg)
        zc = dwbc.dwbc_configuration_sum(lams, enum_cfg)
        worst = max(worst, abs(zb - zc) / max(abs(zb), 1e-300))
    rec.add("configuration-sum-vs-b-product", worst, 1e-10, t0, L=enum_cfg.L)

    t0 = time.perf_counter()
    lams = [random_complex(rng) for _ in range(enum_cfg.L)]
    z1 = dwbc.dwbc_partition(lams, enum_cfg)
    z2 = dwbc.dwbc_partition(list(reversed(lams)), enum_cfg)
    rec.add("permutation-symmetry", abs(z1 - z2) / max(abs(z1), 1e-300), 1e-12, t0)
    return rec.records


def suite_dwbc_pde(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    instance = dwbc.extract_zbar(cfg)
    rec.add("zbar-holdout", instance.fit.holdout_residual, 1e-9, t0)
    t0 = time.perf_counter()
    rec.add("zbar-symmetry", instance.symmetry_defect, 1e-9, t0)
    t0 = time.perf_counter()
    rec.add("zbar-degree-bound", instance.top_coefficient, 1e-9, t0)
    t0 = time.perf_counter()
    rec.add("dwbc-pde-residual", dwbc.dwbc_pde_residual(cfg, instance), 1e-8, t0, L=cfg.L)
    return rec.records


def suite_dwbc_upsilon(cfg: SpectralConfig) -> list[CheckRecord]:
    rec = _Recorder()
    t0 = time.perf_counter()
    instance = dwbc.extract_zbar(cfg)
    rec.add("dwbc-upsilon-residual", dwbc.dwbc_upsilon_residual(cfg, instance), 1e-8, t0,
            dimension=dwbc.dwbc_upsilon(cfg).dim)
    return rec.records


SUITES = {
    "verify-ybe": suite_verify_ybe,
    "verify-rtt": suite_verify_rtt,
    "verify-off": suite_verify_off,
    "spectrum": suite_spectrum,
    "fz": suite_fz,
    "omega-extract": suite_omega_extract,
    "omega-eigk": suite_omega_eigk,
    "omega-compare": suite_omega_compare,
    "pde-residual": suite_pde_residual,
    "pde-special": suite_pde_special,
    "reduce": suite_reduce,
    "dwbc-partition": suite_dwbc_partition,
    "dwbc-pde": suite_dwbc_pde,
    "dwbc-upsilon": suite_dwbc_upsilon,
}


def run_checks(suite: str, cfg: SpectralConfig) -> list[CheckRecord]:
    if suite == "all":
        records = []
        for name, fn in SUITES.items():
            records.extend(fn(cfg))
        return records
    return SUITES[suite](cfg)
