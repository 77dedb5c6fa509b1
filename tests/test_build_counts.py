"""Each artifact builds the monodromy once per distinct rapidity it uses,
capped at the highest sector it reads, and no cache outlives the call that
made it."""

import itertools
import sys

import numpy as np
import pytest

import bpl.ybcore
from bpl import cli
from bpl.cli import run_suite
from bpl.config import SpectralConfig
from bpl.dwbc import extract_zbar
from bpl.functional import (
    check_fz_residual,
    extract_fbars,
    lambda_bar_coefficients,
    spectrum,
)

from conftest import eigenpair_rows

ORIGINAL = bpl.ybcore.monodromies


@pytest.fixture
def builds(monkeypatch):
    """(rapidity, top, batch, ops) of every monodromy build, in call order,
    the batch numbering the calls, counted at every module attribute that
    holds the batched builder (``monodromy`` is its batch of one)."""
    seen = []
    batches = itertools.count()

    def counting(lams, cfg, top=None, ops="abcd", out=None):
        lams = [complex(lam) for lam in lams]
        batch = next(batches)
        seen.extend((lam, cfg.L if top is None else top, batch, ops) for lam in lams)
        return ORIGINAL(lams, cfg, top, ops, out)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("bpl") and getattr(module, "monodromies", None) is ORIGINAL:
            monkeypatch.setattr(module, "monodromies", counting)
            patched.add(name)
    assert {"bpl.ybcore", "bpl.functional", "bpl.dwbc"} <= patched
    return seen


def rapidities(builds):
    return [lam for lam, *_ in builds]


def tops(builds):
    return {top for _, top, *_ in builds}


def batches(builds):
    return {batch for _, _, batch, _ in builds}


def operators(builds):
    return {ops for *_, ops in builds}


@pytest.fixture
def grid_products(monkeypatch):
    """Every ``np.matmul`` call with a matrix on the left, the one product
    of a B-chain step; the stacked overlap dots that read the chains
    (4-D operands) are not chain steps."""
    seen = []
    original = np.matmul

    def counting(*args, **kwargs):
        if np.ndim(args[0]) == 2:
            seen.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    return seen


def test_extract_zbar_builds_each_node_once(builds):
    cfg = SpectralConfig.random_instance(4, 0, seed=2)
    extract_zbar(cfg)
    # 4 grids of 4 nodes, the 5-node degree grid, and the 4 holdout draws,
    # all in one batch
    assert len(builds) == len(set(rapidities(builds))) == 16 + 5 + 4
    assert tops(builds) == {4}
    assert len(batches(builds)) == 1
    assert operators(builds) == {"b"}


def test_spectrum_builds_each_probe_once(builds):
    cfg = SpectralConfig.random_instance(4, 2, seed=2)
    eigs = spectrum(cfg, 2)
    assert len(eigs) == 6
    assert len(builds) == len(set(rapidities(builds))) == 2
    assert tops(builds) == {4}
    assert operators(builds) == {"ad"}


def test_sector_overlap_fits_share_their_operators(builds):
    cfg = SpectralConfig.random_instance(4, 2, seed=2)
    eigs = spectrum(cfg, 2)
    builds.clear()
    fits = extract_fbars(cfg, 2, eigs.lefts)
    assert len(fits.coeffs) == len(fits.holdouts) == 6
    # two 4-node grids plus the two-variable holdout point, for all six
    # fits, in one batch
    assert len(builds) == len(set(rapidities(builds))) == 4 * 2 + 2
    assert tops(builds) == {2}
    assert len(batches(builds)) == 1
    assert operators(builds) == {"b"}


@pytest.mark.parametrize("L,n", [(4, 2), (3, 3), (5, 1)])
def test_sector_overlap_fits_compute_each_chain_suffix_once(L, n, builds, grid_products):
    cfg = SpectralConfig.random_instance(L, n, seed=8)
    lefts = spectrum(cfg, n).lefts
    # every suffix of the L^n grid points, one product each, and the n
    # suffixes of the held-out point, whatever the number of eigenvectors
    suffixes = sum(L**k for k in range(1, n + 1)) + n
    fits = []
    for count in (1, len(lefts)):
        builds.clear()
        grid_products.clear()
        fits.append(extract_fbars(cfg, n, lefts[:count]))
        assert len(grid_products) == suffixes
        assert len(builds) == len(set(rapidities(builds))) == L * n + n
    assert fits[0].coeffs[0].tobytes() == fits[1].coeffs[0].tobytes()
    assert fits[0].holdouts[0].hex() == fits[1].holdouts[0].hex()


def test_lambda_bar_nodes_build_once_up_to_the_sector(builds):
    cfg = SpectralConfig.random_instance(4, 2, seed=2)
    eigs = spectrum(cfg, 2)
    builds.clear()
    lambda_bar_coefficients(eigs, cfg)
    # the L + 1 x0 nodes and the held-out x0, in one batch
    assert len(builds) == len(set(rapidities(builds))) == cfg.L + 2
    assert len(batches(builds)) == 1
    assert tops(builds) == {2}
    assert operators(builds) == {"ad"}


def test_functional_relation_builds_each_rapidity_once(builds):
    # lam0 with A, B and D (T and the swapped chains' B), the others with B
    cfg = SpectralConfig.random_instance(4, 2, seed=2)
    eig = eigenpair_rows(spectrum(cfg, 2), [0])
    builds.clear()
    check_fz_residual(eig, [[0.3 + 0.1j, -0.2 + 0.05j, 0.5 - 0.2j]])
    assert len(builds) == len(set(rapidities(builds))) == 3
    assert tops(builds) == {2}
    assert [(lam, ops) for lam, _, _, ops in builds] == [
        (0.3 + 0.1j, "abd"), (-0.2 + 0.05j, "b"), (0.5 - 0.2j, "b")]


def test_functional_relation_over_draws_builds_each_rapidity_once(builds):
    cfg = SpectralConfig.random_instance(4, 2, seed=2)
    eigs = spectrum(cfg, 2)
    builds.clear()
    draws = [[0.1 * i + 0.3j, 0.1 * i - 0.2j, 0.1 * i + 0.45 + 0.1j] for i in range(5)]
    # one draw repeated: its rapidities are not built again
    check_fz_residual(eigenpair_rows(eigs, [0]), draws + draws[:1])
    assert len(builds) == len(set(rapidities(builds))) == 5 * 3
    assert tops(builds) == {2}
    assert len(batches(builds)) == 2


@pytest.mark.parametrize("L,n", [(4, 2), (7, 2), (6, 3)])
def test_functional_relation_builds_its_draws_once_per_sector(L, n, builds):
    # the eigenpairs share the draws: 5 lam0s with A, B and D in one call
    # and the 5n other rapidities with B alone in another, whatever the
    # eigenpair count
    cfg = SpectralConfig.random_instance(L, n, seed=0)
    eigs = spectrum(cfg, n)
    draws = [[complex(0.01 * i, 0.02 * j + 0.003) for j in range(n + 1)] for i in range(1, 6)]
    seen = []
    for count in (1, len(eigs)):
        builds.clear()
        check_fz_residual(eigenpair_rows(eigs, slice(count)), draws)
        seen.append(list(builds))
        assert len(builds) == len(set(rapidities(builds))) == 5 * (n + 1)
        assert tops(builds) == {n}
        assert len(batches(builds)) == 2
        assert [ops for *_, ops in builds] == ["abd"] * 5 + ["b"] * 5 * n
    assert [(lam, ops) for lam, _, _, ops in seen[0]] == [(lam, ops) for lam, _, _, ops in seen[1]]


@pytest.mark.parametrize("argv", [["all", "--L", "6", "--n", "5"],
                                  ["omega", "compare", "--L", "9", "--n", "4"],
                                  ["omega", "eigk", "--L", "7", "--n", "5"]])
def test_over_cap_omega_suites_exit_before_any_build(argv, builds, capsys):
    # L^n above the Omega tensor cap: refused before the suites that run
    # first (verify, spectrum, fz) build anything
    assert cli.main(argv) == cli.EXIT_CAPACITY
    assert builds == []
    assert "Omega family" in capsys.readouterr().err


def test_back_to_back_runs_build_alike(builds):
    counts, residuals = [], []
    for _ in range(2):
        builds.clear()
        report = run_suite(None, "all", overrides={"L": 3, "n": 1, "seed": 4})
        counts.append(len(builds))
        residuals.append([c.residual for c in report.checks])
    assert counts[0] == counts[1] > 0
    assert residuals[0] == residuals[1]
