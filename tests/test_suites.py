"""The per-instance artifact store: under ``run_checks("all")`` each artifact
is built once, a single suite builds only what it reads, and sharing the
store changes no residual."""

import sys

import numpy as np
import pytest

import bpl.dwbc
import bpl.functional
import bpl.omega
import bpl.ybcore
from bpl import suites
from bpl.cli import run_suite
from bpl.closedform import closedform_residual
from bpl.config import SpectralConfig
from bpl.functional import lambda_bar_coefficients, vanishing
from bpl.suites import SUITES, Artifacts, run_checks, run_checks_timed

CFG = SpectralConfig.random_instance(4, 2, seed=0)

COUNTED = {
    "spectrum": bpl.ybcore.spectrum,
    "extract_omegas": bpl.omega.extract_omegas,
    "build_lbar": bpl.omega.build_lbar,
    "extract_zbar": bpl.dwbc.extract_zbar,
    "lambda_bar_coefficients": bpl.functional.lambda_bar_coefficients,
}

#: the artifacts each suite reads from the store
READS = {
    "verify-ybe": set(),
    "verify-rtt": set(),
    "verify-off": set(),
    "spectrum": {"eigs"},
    "fz": {"eigs", "fits"},
    "omega-extract": {"family"},
    "omega-eigk": {"family", "eigs", "fits", "lam_bars", "eigk"},
    "omega-compare": {"family"},
    "pde-residual": {"eigs", "fits", "lam_bars"},
    "pde-special": set(),
    "reduce": {"eigs", "fits", "lam_bars"},
    "dwbc-partition": set(),
    "dwbc-pde": {"zbar"},
    "dwbc-upsilon": {"zbar"},
}


@pytest.fixture
def calls(monkeypatch):
    """Arguments of every call to the counted builders, per builder, counted
    at every module attribute that holds one."""
    seen = {name: [] for name in COUNTED}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for modname, module in list(sys.modules.items()):
        if not modname.startswith("bpl"):
            continue
        for name, fn in COUNTED.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    return seen


def test_all_builds_each_artifact_once(calls):
    run_checks("all", CFG)
    assert sum(1 for args in calls["spectrum"] if args[1] == CFG.n) == 1
    assert len(calls["extract_omegas"]) == 1
    assert len(calls["build_lbar"]) == 1
    assert len(calls["extract_zbar"]) == 1
    assert len(calls["lambda_bar_coefficients"]) == 1


def test_spectrum_suite_builds_no_family(calls):
    run_checks("spectrum", CFG)
    assert len(calls["spectrum"]) == 1
    assert calls["extract_omegas"] == calls["build_lbar"] == calls["extract_zbar"] == []
    assert calls["lambda_bar_coefficients"] == []


@pytest.mark.parametrize("suite", list(SUITES))
def test_single_suite_builds_only_what_it_reads(suite):
    _, built = run_checks_timed(suite, CFG)
    assert set(built) == READS[suite]


def test_all_reports_every_artifact_time():
    _, built = run_checks_timed("all", CFG)
    assert set(built) == set().union(*READS.values())
    assert all(sec >= 0.0 for sec in built.values())


def test_shared_store_leaves_residuals_unchanged():
    alone = [(c.name, c.residual.hex()) for suite in SUITES for c in run_checks(suite, CFG)]
    together = [(c.name, c.residual.hex()) for c in run_checks("all", CFG)]
    assert together == alone


def test_fit_checks_report_their_grid_condition():
    # the Vandermonde condition number of each fit family rides in the
    # report next to its holdout residual
    records = {c.name: c for c in run_checks("all", CFG)}
    for name in ("overlap-polynomial-holdout", "lbar-polynomiality-holdout", "zbar-holdout"):
        assert 1.0 <= records[name].extra["grid_condition"] < 1e3


def test_operator_and_lambda_bar_fits_report_their_diagnostics():
    records = {c.name: c for c in run_checks("all", CFG)}
    closed = records["closedform-vs-extracted"].extra
    assert closed["holdout"] < 1e-12 and closed["symmetry_defect"] < 1e-12
    assert 1.0 <= closed["grid_condition"] < 1e3
    pde = records["closedform-pde-on-eigenfunctions"].extra
    assert pde["lambda_bar_holdout"] < 1e-12
    assert 1.0 <= pde["lambda_bar_grid_condition"] < 1e3


def test_vanishing_overlaps_are_skipped_alike():
    # the joint spectral problems and the PDE residual skip the same
    # eigenpairs: those whose overlap fit is the zero polynomial
    art = Artifacts(CFG)
    [pde] = SUITES["pde-residual"](art)
    assert pde.extra["eigenfunctions"] == np.count_nonzero(~art.eigk.vanishing)
    assert art.eigk.vanishing.tolist() == vanishing(art.fits).tolist()


@pytest.mark.parametrize("L,n,size,m", [(4, 2, 3, 0), (7, 1, 5, 0), (9, 3, 8, 0), (12, 2, 2, 1),
                                        (1, 0, 2, 2), (1, 0, 2, 1)])
def test_seeded_substitute_is_the_seeded_instance(L, n, size, m):
    # the benchmark instances are seeded, so their substitutes are unchanged
    for seed in range(10):
        cfg = SpectralConfig.random_instance(L, n, seed=seed)
        assert suites._on_sites(cfg, size, m) == SpectralConfig.random_instance(size, m, seed)


@pytest.mark.parametrize("suite,L,names", [
    ("verify-rtt", 9, ["rtt-random-draws", "transfer-commutator", "b-operators-commute"]),
    ("pde-special", 5, ["special-n1L2", "special-n2L2"]),
    ("dwbc-partition", 4, ["configuration-sum-vs-b-product", "permutation-symmetry"]),
])
def test_substitute_instances_keep_the_users_gamma(suite, L, names):
    # the checks run at a fixed smaller size read the instance's own gamma
    runs = [{c.name: c.residual for c in run_suite(
        None, suite, overrides={"L": L, "n": 1, "seed": 0, "gamma": complex(re, 0.0)}).checks}
        for re in (0.3, 0.7)]
    for name in names:
        assert runs[0][name].hex() != runs[1][name].hex(), name


def test_pde_checks_locate_their_worst_eigenpair_and_point():
    art = Artifacts(CFG)
    [pde] = SUITES["pde-residual"](art)
    lam_bars = lambda_bar_coefficients(art.eigs, CFG)
    per_eig = {
        k: closedform_residual(CFG, fbar, coeffs[CFG.L - 1])
        for k, (fbar, coeffs) in enumerate(zip(art.fits.coeffs, lam_bars.coeffs))
        if np.max(np.abs(fbar)) >= 1e-12
    }
    worst = max(per_eig, key=lambda k: np.max(per_eig[k][0]))
    residuals, magnitudes = per_eig[worst]
    point = np.argmax(residuals)
    assert pde.extra["worst_eig"] == worst
    assert pde.residual == pytest.approx(residuals[point], rel=1e-12)
    assert np.allclose(pde.extra["terms"], magnitudes[point], rtol=1e-12, atol=0)

    upsilon, _ = SUITES["reduce"](art)
    used = np.flatnonzero(~vanishing(art.fits))
    assert upsilon.extra["worst_eig"] in set(used.tolist())
    for record in (pde, upsilon):
        # [V f, Q_0 d^{L-1} f, Q_1 d^{L-1} f, Delta f] over the point's scale
        assert len(record.extra["terms"]) == CFG.n + 2
        assert max(record.extra["terms"]) == pytest.approx(1.0)
