"""Check suites behind the command-line front-end.

Each suite maps a problem instance to a list of named checks with residuals,
tolerances and wall times.  Random draws are derived deterministically from
the instance seed and the check name, so a fixed config reproduces identical
numbers.

The pipeline's artifacts -- the sector spectrum, its overlap and
Lambda_bar(x0) fits, the Omega family, the joint spectral problems and
Zbar -- live in one ``Artifacts`` store per instance.  Each is built the
first time a suite reads it and then shared, so a run of every suite
builds each once, and a run of one suite builds only what that suite
reads.  ``run_checks_timed`` (and
``run_checks``, which drops the build times) makes a fresh store per call,
so nothing outlives the call.  The store times each build apart from
the checks, and every check's clock starts after its artifacts are read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import closedform, dwbc, omega, reduction, ybcore
from .config import SpectralConfig, random_complex
from .errors import CapacityError, UnsupportedShapeError
from .functional import (
    annulus_points,
    check_fz_residual,
    extract_fbars,
    lambda_bar_coefficients,
    spectrum,
    vanishing,
)
from .polyengine import GridFit


@dataclass
class CheckRecord:
    name: str
    residual: float
    tolerance: float
    passed: bool
    seconds: float
    extra: dict = field(default_factory=dict)

    @property
    def margin_dec(self) -> float | None:
        """Decades of headroom, log10(tolerance / residual): negative when
        the check fails, None when the residual is 0."""
        return None if self.residual == 0 else math.log10(self.tolerance / self.residual)

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "margin_dec": self.margin_dec,
            "passed": self.passed,
            "seconds": round(self.seconds, 4),
        }
        if self.extra:
            out["extra"] = self.extra
        return out


class _Recorder:
    """Check records, each timed from the one before it; the first is timed
    from the recorder's creation, so a suite makes its recorder after
    reading its artifacts."""

    def __init__(self):
        self.records: list[CheckRecord] = []
        self._clock = time.perf_counter()

    def add(self, name: str, residual: float, tolerance: float, **extra):
        now = time.perf_counter()
        self.records.append(
            CheckRecord(
                name=name,
                residual=float(residual),
                tolerance=float(tolerance),
                passed=bool(residual < tolerance),
                seconds=now - self._clock,
                extra=extra,
            )
        )
        self._clock = now


def _draws(cfg: SpectralConfig, tag: str, count: int, width: int = 1) -> np.ndarray:
    """``count`` draws of ``width`` parameters each, shape (count, width),
    from the generator of ``tag``: one ``random_complex`` call, equal to
    drawing the values one at a time in row order."""
    return random_complex(cfg.rng(tag), (count, width))


def _on_sites(cfg: SpectralConfig, L: int, n: int) -> SpectralConfig:
    """The instance on ``L`` sites with ``n`` excitations: its own gamma,
    tol, seed and first L inhomogeneities, any missing ones drawn as
    ``random_instance(L, n, seed)`` draws them (which it thus equals for a
    seeded instance)."""
    drawn = SpectralConfig.random_instance(L, n, cfg.seed).mu[cfg.L:] if L > cfg.L else ()
    return cfg.replace(L=L, n=n, mu=(cfg.mu + drawn)[:L])


def _commutator(x, y, shift: int) -> float:
    """max |[X, Y]| / (max |X| max |Y|) of two operators given as sector
    blocks that both move the down-spin count by ``shift`` (0 or 1); the
    commutator maps sector k to k + 2 shift, one sector at a time."""
    num = max(
        (np.max(np.abs(x[k + shift] @ y[k] - y[k + shift] @ x[k]))
         for k in range(len(x) - 2 * shift)),
        default=0.0,
    )
    return num / max(ybcore.max_abs(x) * ybcore.max_abs(y), 1e-300)


class Artifacts:
    """The pipeline artifacts of one instance, each built on first read.

    ``eigs`` is the sector-n spectrum, one ``ybcore.SectorEigenpairs``;
    ``fits`` reads its left vectors and ``lam_bars`` its eigenpairs, both
    one row per eigenpair in ``eigs`` order.  ``eigk`` reads them and the
    Omega family, which reads nothing else, nor does ``zbar``.  Only
    ``omega-eigk`` reads ``eigk``: the PDE suites read the fits.

    Of ``family``, ``omega-extract`` reads the Lbar fit's diagnostics, the
    commutator norms and the top operator against the identity;
    ``omega-eigk`` (through ``eigk``) the operators, their norms and the
    joint diagonalisation; ``omega-compare`` Omega_{L-1} and the basis
    labels.  The family computes each joint diagnostic on its first read,
    so one store computes it at most once, and only if a suite reads it.

    ``seconds`` maps each artifact built so far to its build time, which
    excludes the artifacts it reads.
    """

    def __init__(self, cfg: SpectralConfig):
        self.cfg = cfg
        self.seconds: dict[str, float] = {}

    def _build(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.seconds[name] = time.perf_counter() - t0
        return out

    @cached_property
    def eigs(self) -> ybcore.SectorEigenpairs:
        """Sector-n eigenpairs of the transfer matrix."""
        return self._build("eigs", spectrum, self.cfg, self.cfg.n)

    @cached_property
    def fits(self) -> GridFit:
        """Overlap fits of the eigenpairs, in ``eigs`` order."""
        return self._build("fits", extract_fbars, self.cfg, self.cfg.n, self.eigs.lefts)

    @cached_property
    def lam_bars(self) -> GridFit:
        """Lambda_bar(x0) fits of the eigenpairs, in ``eigs`` order."""
        return self._build("lam_bars", lambda_bar_coefficients, self.eigs, self.cfg)

    @cached_property
    def family(self) -> omega.OmegaFamily:
        return self._build("family", omega.extract_omegas, self.cfg)

    @cached_property
    def eigk(self) -> omega.EigkReport:
        return self._build("eigk", omega.check_eigk, self.family, self.fits, self.lam_bars)

    @cached_property
    def zbar(self) -> dwbc.DwbcInstance:
        return self._build("zbar", dwbc.extract_zbar, self.cfg)


# -- individual suites ---------------------------------------------------------------

def suite_verify_ybe(art: Artifacts) -> list[CheckRecord]:
    cfg, rec = art.cfg, _Recorder()
    x, y, g = _draws(cfg, "ybe", 100, width=3).T
    rec.add("ybe-random-draws", ybcore.check_ybe(x, y, g), 1e-11, draws=100)
    rec.add("ybe-at-origin", ybcore.check_ybe(0.0, 0.0, cfg.gamma), 1e-14)
    return rec.records


def suite_verify_rtt(art: Artifacts) -> list[CheckRecord]:
    cfg, rec = art.cfg, _Recorder()
    rtt_cfg = cfg if cfg.L <= 5 else _on_sites(cfg, 5, 0)
    x, y = _draws(rtt_cfg, "rtt", 20, width=2).T
    rec.add("rtt-random-draws", ybcore.check_rtt(x, y, rtt_cfg), 1e-10, L=rtt_cfg.L, draws=20)

    # one build pass over every draw, read two rapidities at a time
    comm_cfg = cfg if cfg.L <= 8 else _on_sites(cfg, 8, 0)
    ts = (m.transfer() for m in ybcore.monodromies(
        _draws(comm_cfg, "commutator", 5, width=2).ravel(), comm_cfg, ops="ad"))
    worst = max(_commutator(tx, ty, 0) for tx, ty in zip(ts, ts))
    rec.add("transfer-commutator", worst, 1e-10, L=comm_cfg.L, draws=5)

    bs = (m.b for m in ybcore.monodromies(
        _draws(rtt_cfg, "bb-commute", 5, width=2).ravel(), rtt_cfg, ops="b"))
    worst = max(_commutator(bx, by, 1) for bx, by in zip(bs, bs))
    rec.add("b-operators-commute", worst, 1e-12, L=rtt_cfg.L)
    return rec.records


def suite_verify_off(art: Artifacts) -> list[CheckRecord]:
    cfg, rec = art.cfg, _Recorder()
    res = ybcore.check_off_relations(_draws(cfg, "off", 10, width=cfg.n + 1), cfg)
    rec.add("exchange-relations", max(res), 1e-9, n=cfg.n, L=cfg.L, draws=10,
            probes=ybcore._OFF_PROBES, **res._asdict())
    return rec.records


def suite_spectrum(art: Artifacts) -> list[CheckRecord]:
    cfg, eigs = art.cfg, art.eigs
    rec = _Recorder()
    total = sum(len(ybcore.sector_indices(cfg.L, s)) for s in range(cfg.L + 1))
    rec.add("sector-dimensions-sum", abs(total - cfg.quantum_dim), 0.5)

    rng = cfg.rng("spectrum-extra")
    worst = 0.0
    for m in ybcore.monodromies(random_complex(rng, (3,)), cfg, top=cfg.n, ops="ad"):
        t = m.transfer()
        worst = max(worst, float(np.max(eigs.residuals(t, ybcore.max_abs(t)))))
    rec.add("eigenpair-residuals-extra-probes", worst, 1e-8, sector=cfg.n)
    return rec.records


def suite_fz(art: Artifacts) -> list[CheckRecord]:
    """The functional relation of every sector-n eigenpair at the same five
    draws (rng tag ``fz-draws``), checked for the whole sector in one
    ``check_fz_residual`` call, and the holdout of the overlap fits.  The
    ``functional-relation`` record is the worst over the eigenpairs and the
    five shared draws of each draw's residual normalised by its largest
    term."""
    cfg, eigs, fits = art.cfg, art.eigs, art.fits
    rec = _Recorder()
    draws = _draws(cfg, "fz-draws", 5, width=cfg.n + 1)
    worst = float(np.max(check_fz_residual(eigs, draws), initial=0.0))
    rec.add("functional-relation", worst, 1e-8, n=cfg.n, L=cfg.L, eigenvectors=len(eigs),
            draws=len(draws))

    rec.add("overlap-polynomial-holdout", np.max(fits.holdouts), 1e-9,
            grid_condition=fits.grid_condition)
    return rec.records


def suite_omega_extract(art: Artifacts) -> list[CheckRecord]:
    family = art.family
    floor = family.precision_floor
    rec = _Recorder()
    rec.add("omega-commutators", float(np.max(family.commutator_norms)), 1e-9,
            commutator_norms=[[float(v) for v in row] for row in family.commutator_norms],
            precision_floor=floor)
    rec.add("omega-top-scalar", family.omega_top_identity_residual, 1e-9,
            scalar=[family.omega_top_scalar.real, family.omega_top_scalar.imag],
            precision_floor=floor)
    rec.add("lbar-polynomiality-holdout", family.lbar.polynomiality_residual, 1e-9,
            grid_condition=family.lbar.grid_condition)
    rec.add("lbar-symmetry-defect", family.lbar.symmetry_defect, 1e-8, precision_floor=floor)
    return rec.records


def suite_omega_eigk(art: Artifacts) -> list[CheckRecord]:
    report, lam_bars = art.eigk, art.lam_bars
    rec = _Recorder()
    delta_tables = [
        {"eig": e, "vanishing": bool(skip),
         "delta": None if skip else [[d.real, d.imag] for d in deltas]}
        for e, (deltas, skip) in enumerate(zip(lam_bars.coeffs, report.vanishing))
    ]
    rec.add("joint-eigenvalue-problems", report.max_residual, 1e-8,
            deltas=delta_tables, surplus_dimension=report.surplus_dimension)
    rec.add("joint-spectrum-containment", report.max_containment_distance, 1e-7)
    return rec.records


def suite_omega_compare(art: Artifacts) -> list[CheckRecord]:
    cfg, family = art.cfg, art.family
    rec = _Recorder()
    tol = 1e-7
    closed = closedform.closedform_operator(cfg)
    deviations = closedform.compare_omega_closedform(family, closed)
    columns = [list(label) for label, d in zip(family.basis.labels, deviations) if d > tol]
    rec.add("closedform-vs-extracted", np.max(deviations), tol, n=cfg.n, L=cfg.L,
            columns=columns, holdout=closed.polynomiality_residual,
            symmetry_defect=closed.symmetry_defect, grid_condition=closed.grid_condition)
    return rec.records


def _worst_point(residuals: np.ndarray, magnitudes: np.ndarray, eig_indices) -> tuple[float, dict]:
    """The largest residual over eigenpairs (axis 0) and points (axis 1),
    and the extra that locates it: ``worst_eig``, the index of its
    eigenpair, and ``terms``, the normalised magnitudes of
    [V f, Q_i d^{L-1} f ..., Delta f] at its point."""
    if residuals.size == 0:
        return 0.0, {}
    e, p = np.unravel_index(np.argmax(residuals), residuals.shape)
    return float(residuals[e, p]), {"worst_eig": int(eig_indices[e]),
                                    "terms": [float(t) for t in magnitudes[e, p]]}


def suite_pde_residual(art: Artifacts) -> list[CheckRecord]:
    cfg, fits, lam_bars = art.cfg, art.fits, art.lam_bars
    rec = _Recorder()
    used = np.flatnonzero(~vanishing(fits))
    residuals, magnitudes = closedform.closedform_residual(cfg, fits.coeffs[used],
                                                           lam_bars.coeffs[used, cfg.L - 1])
    worst, extra = _worst_point(residuals, magnitudes, used)
    rec.add("closedform-pde-on-eigenfunctions", worst, 1e-8, eigenfunctions=len(used),
            lambda_bar_holdout=float(np.max(lam_bars.holdouts)),
            lambda_bar_grid_condition=lam_bars.grid_condition, **extra)
    return rec.records


def _special_residual(cfg: SpectralConfig, sol: closedform.SpecialSolutions) -> float:
    fbars = np.array(sol.eigenfunctions)
    return float(np.max(closedform.closedform_residual(cfg, fbars, np.array(sol.deltas))[0]))


def suite_pde_special(art: Artifacts) -> list[CheckRecord]:
    cfg, rec = art.cfg, _Recorder()
    n0_cfg = cfg.replace(n=0)
    rec.add("special-n0", _special_residual(n0_cfg, closedform.special_solutions("n0", n0_cfg)),
            1e-10, L=cfg.L)

    for case, nn in (("n1L2", 1), ("n2L2", 2)):
        case_cfg = _on_sites(cfg, 2, nn)
        rec.add(f"special-{case}",
                _special_residual(case_cfg, closedform.special_solutions(case, case_cfg)), 1e-10)
    return rec.records


def suite_reduce(art: Artifacts) -> list[CheckRecord]:
    """Upsilon on the chains of every non-vanishing eigenfunction (its
    overlap fit, with the Delta_{L-1} of its Lambda_bar(x0) fit: the inputs
    of ``pde-residual``, read without the Omega family), each at its own
    three points (rng tag ``reduce-{index}-{k}``, index its eigenpair's
    row in ``eigs`` and k counting those eigenfunctions from 1), in
    one batched ``upsilon_residual`` call; and the reduced PDE row of five
    random polynomials, each at its own point, in one batched
    ``upsilon_apply`` call, against the unreduced equation."""
    cfg, fits, lam_bars = art.cfg, art.fits, art.lam_bars
    system = reduction.spectral_reduction(cfg)
    rec = _Recorder()
    used = np.flatnonzero(~vanishing(fits))
    points = np.array([annulus_points(cfg, cfg.n, 3, f"reduce-{index}-{k + 1}")
                       for k, index in enumerate(used)]).reshape(len(used), 3, cfg.n)
    residuals, magnitudes = reduction.upsilon_residual(
        system, fits.coeffs[used], lam_bars.coeffs[used, cfg.L - 1], points)
    worst, extra = _worst_point(residuals, magnitudes, used)
    rec.add("upsilon-on-eigenfunctions", worst, 1e-8, eigenfunctions=len(used), **extra)

    # each random polynomial at its own point: the reduced PDE row against
    # the unreduced equation's terms (every polynomial at every point, read
    # on the diagonal)
    rng = cfg.rng("reduce-points")
    points = annulus_points(cfg, cfg.n, 5, "reduce-equivalence")
    box = (cfg.L,) * cfg.n
    fbars = np.empty((len(points),) + box, dtype=complex)
    deltas = np.empty(len(points), dtype=complex)
    for k in range(len(points)):
        fbars[k] = rng.standard_normal(box) + 1j * rng.standard_normal(box)
        deltas[k] = random_complex(rng)
    rows = reduction.upsilon_apply(system, reduction.build_psi(fbars, cfg.L, cfg.n), deltas,
                                   points[:, None])[:, 0, 0]
    direct = np.diagonal(np.sum(system.terms(fbars, points, deltas), axis=-1))
    worst = float(np.max(np.abs(rows - direct) / np.maximum(np.abs(direct), 1e-300)))
    rec.add("pde-row-equivalence", worst, 1e-12)
    return rec.records


def suite_dwbc_partition(art: Artifacts) -> list[CheckRecord]:
    cfg, rec = art.cfg, _Recorder()
    enum_cfg = cfg if cfg.L <= 3 else _on_sites(cfg, 3, 0)
    rng = enum_cfg.rng("dwbc-oracles")
    worst = 0.0
    for lams in random_complex(rng, (3, enum_cfg.L)).tolist():
        zb = dwbc.dwbc_partition(lams, enum_cfg)
        zc = dwbc.dwbc_configuration_sum(lams, enum_cfg)
        worst = max(worst, abs(zb - zc) / max(abs(zb), 1e-300))
    rec.add("configuration-sum-vs-b-product", worst, 1e-10, L=enum_cfg.L)

    lams = random_complex(rng, (enum_cfg.L,)).tolist()
    z1 = dwbc.dwbc_partition(lams, enum_cfg)
    z2 = dwbc.dwbc_partition(list(reversed(lams)), enum_cfg)
    rec.add("permutation-symmetry", abs(z1 - z2) / max(abs(z1), 1e-300), 1e-12)
    return rec.records


def suite_dwbc_pde(art: Artifacts) -> list[CheckRecord]:
    cfg, instance = art.cfg, art.zbar
    rec = _Recorder()
    rec.add("zbar-holdout", instance.fit.holdouts[0], 1e-9,
            grid_condition=instance.fit.grid_condition)
    rec.add("zbar-symmetry", instance.symmetry_defect, 1e-9)
    rec.add("zbar-degree-bound", instance.top_coefficient, 1e-9)
    rec.add("dwbc-pde-residual", dwbc.dwbc_pde_residual(instance), 1e-8, L=cfg.L)
    return rec.records


def suite_dwbc_upsilon(art: Artifacts) -> list[CheckRecord]:
    cfg, instance = art.cfg, art.zbar
    rec = _Recorder()
    rec.add("dwbc-upsilon-residual", dwbc.dwbc_upsilon_residual(instance), 1e-8,
            dimension=reduction.block_dimensions(cfg.L, cfg.L)[0])
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


#: suites that read the Omega family
OMEGA_SUITES = ("omega-extract", "omega-eigk", "omega-compare")

#: suites that read a capped artifact: (suites, admits the config, why not)
CAPACITY_LIMITS = (
    (("dwbc-pde", "dwbc-upsilon"), lambda cfg: cfg.L <= dwbc.MAX_PARTITION_L,
     f"read Zbar, which is built up to L = {dwbc.MAX_PARTITION_L} only"),
    (OMEGA_SUITES, lambda cfg: cfg.L**cfg.n <= omega.MAX_TENSOR_DIM,
     f"read the Omega family, which is built up to L^n = {omega.MAX_TENSOR_DIM} only"),
)

#: suites defined only on some shapes: (suites, admits the config, why not)
SHAPE_LIMITS = (
    (OMEGA_SUITES + ("reduce",), lambda cfg: cfg.n >= 1,
     "need n >= 1: the Omega family and the reduction act on polynomials in n variables"),
    (("reduce", "dwbc-upsilon"), lambda cfg: cfg.L >= 3,
     "need L >= 3: below that the PDE has order L - 1 <= 1, so there is no "
     "first-order reduction to build"),
)


def run_checks_timed(suite: str, cfg: SpectralConfig) -> tuple[list[CheckRecord], dict]:
    """Run one suite, or every suite for ``"all"``, on one instance through
    one fresh ``Artifacts`` store.  Returns the check records and the build
    seconds of each artifact the run built.

    A run that includes a suite whose artifact the instance exceeds
    (``CAPACITY_LIMITS``) is rejected with ``CapacityError``, and one that
    includes a suite the shape (L, n) does not admit (``SHAPE_LIMITS``)
    with ``UnsupportedShapeError``, before anything is built.
    """
    names = list(SUITES) if suite == "all" else [suite]
    for error, limits in ((CapacityError, CAPACITY_LIMITS), (UnsupportedShapeError, SHAPE_LIMITS)):
        refused = [f"{', '.join(hit)} {why}" for limited, admits, why in limits
                   if not admits(cfg) and (hit := [name for name in names if name in limited])]
        if refused:
            raise error(f"{'; '.join(refused)}; got L = {cfg.L}, n = {cfg.n} "
                        "(run the other suites one at a time)")
    art = Artifacts(cfg)
    records = [record for name in names for record in SUITES[name](art)]
    return records, dict(art.seconds)


def run_checks(suite: str, cfg: SpectralConfig) -> list[CheckRecord]:
    """The check records of ``run_checks_timed``."""
    return run_checks_timed(suite, cfg)[0]
