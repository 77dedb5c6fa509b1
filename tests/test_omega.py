"""Extraction of the commuting operator family and its joint spectra."""

import tracemalloc
from functools import partial
from itertools import permutations, product as iproduct

import numpy as np
import pytest

from bpl.closedform import closedform_operator, pde_coefficients
from bpl.config import SpectralConfig, random_complex
from bpl.functional import (
    FnSampler,
    circle_grid,
    extract_fbar,
    fz_coefficients,
    lambda_bar_coefficients,
    lbar_x0_nodes,
    spectral_grids,
    spectrum,
)
from bpl import blockbuild, suites
from bpl.omega import (MAX_TENSOR_DIM, SymmetricBasis, build_lbar, check_eigk, extract_omegas,
                        lbar_action, lbar_grid_action)
from bpl.polyengine import (GridFit, MultiPoly, derivative_tensor, eval_tensors, fit_grid,
                            grid_points, tensor_interpolate)
from bpl.suites import Artifacts, run_checks
from bpl.ybcore import transfer

from conftest import (bits, draw_complex, eigenpair_rows, reference_basis_tensors, reference_embed,
                      reference_eigenvalue, scalar_fz_coefficients)


# -- the former column-by-column assembly, kept as the reference ----------------

def _einsum_eval(coeffs, points):
    """One polynomial at many points, by one einsum over per-variable powers."""
    n = coeffs.ndim
    letters = "abcdefghijkl"[:n]
    spec = ",".join(f"p{c}" for c in letters) + f",{letters}->p"
    powers = [np.vander(points[:, i], coeffs.shape[0], increasing=True) for i in range(n)]
    return np.einsum(spec, *powers, coeffs)


def _unit_tensor(basis, col):
    c = np.zeros((basis.degree_bound + 1,) * basis.nvars, dtype=complex)
    for perm in set(permutations(basis.labels[col])):
        c[perm] += 1.0
    return c


def _grid_tuples(grids):
    n = len(grids)
    return np.array([[grids[i][t[i]] for i in range(n)] for t in iproduct(range(len(grids[0])), repeat=n)])


def reference_lbar(cfg):
    """Omega_0..Omega_L, one basis column and one x0 node at a time."""
    n, L = cfg.n, cfg.L
    lam_grids, lam0_nodes = spectral_grids(L, n), lbar_x0_nodes(cfg)
    x_grids = [np.exp(2 * g) for g in lam_grids]
    x0_nodes = np.exp(2 * lam0_nodes)
    lam_tuples = _grid_tuples(lam_grids)
    x_tuples = np.exp(2 * lam_tuples)
    jbar = np.zeros((L + 1, len(lam_tuples)), dtype=complex)
    kbar = np.zeros((L + 1, len(lam_tuples), n), dtype=complex)
    for a0, lam0 in enumerate(lam0_nodes):
        for t, lams in enumerate(lam_tuples):
            j0, ks = scalar_fz_coefficients(lam0, lams, cfg)
            jbar[a0, t] = j0 * np.exp(L * lam0)
            for i in range(n):
                kbar[a0, t, i] = ks[i] * np.exp(lam0) * np.exp((L - 1) * lams[i])
    basis = SymmetricBasis(n, L - 1)
    mats = np.zeros((L + 1, basis.dim, basis.dim), dtype=complex)
    for col in range(basis.dim):
        p = _unit_tensor(basis, col)
        images = np.zeros((L + 1, len(lam_tuples)), dtype=complex)
        for a0 in range(L + 1):
            images[a0] = jbar[a0] * _einsum_eval(p, x_tuples)
            for i in range(n):
                subbed = x_tuples.copy()
                subbed[:, i] = x0_nodes[a0]
                images[a0] -= kbar[a0, :, i] * _einsum_eval(p, subbed)
        table = tensor_interpolate(images.reshape((L + 1,) + (L,) * n), [x0_nodes] + x_grids)
        for k in range(L + 1):
            mats[k, :, col] = [table[k][label] for label in basis.labels]
    return mats


def reference_closedform(cfg):
    """The closed-form operator matrix, one basis column at a time."""
    n, L = cfg.n, cfg.L
    x_grids = [np.exp(2 * g) for g in spectral_grids(L, n)]
    x_tuples = _grid_tuples(x_grids)
    coeff_table = pde_coefficients(cfg)(x_tuples)
    basis = SymmetricBasis(n, L - 1)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col in range(basis.dim):
        p = _unit_tensor(basis, col)
        parts = [p] + [derivative_tensor(p, i, L - 1) for i in range(n)]
        vals = sum(c * _einsum_eval(g, x_tuples) for c, g in zip(coeff_table.T, parts))
        table = tensor_interpolate(vals.reshape((L,) * n), x_grids)
        mat[:, col] = [table[label] for label in basis.labels]
    return mat


@pytest.mark.parametrize("L,n", [(3, 2), (4, 3), (5, 2)])
def test_batched_assembly_matches_per_column_reference(L, n):
    cfg = SpectralConfig.random_instance(L, n, seed=300 + 10 * L + n)
    for new, ref in (
        (build_lbar(cfg).coefficient_matrices, reference_lbar(cfg)),
        (closedform_operator(cfg).coefficient_matrices, reference_closedform(cfg)),
    ):
        assert new.shape == ref.shape
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("L,n", [(3, 1), (4, 2), (6, 3), (7, 2), (5, 4)])
def test_grid_images_equal_the_point_form(L, n):
    # the per-axis products and in-place assembly against lbar_action at
    # every grid point, every basis tensor
    cfg = SpectralConfig.random_instance(L, n, seed=L + n)
    basis = SymmetricBasis(n, L - 1)
    lam_grids, lam0s = spectral_grids(L, n), lbar_x0_nodes(cfg)
    got = lbar_grid_action(cfg, lam0s, lam_grids, basis.tensors)
    assert got.shape == (basis.dim, L + 1) + (L,) * n
    ref = lbar_action(cfg, lam0s, grid_points(lam_grids), partial(eval_tensors, basis.tensors))
    assert np.max(np.abs(got.reshape(ref.shape) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("build,bound", [(build_lbar, 76.30e6), (closedform_operator, 54.40e6)])
def test_grid_assembly_peak_stays_below_the_point_form(build, bound):
    # tracemalloc peaks of the point-evaluation assembly this replaced, at
    # (6, 4) seed 0: 76.30 MB for Lbar and 54.40 MB for the closed form
    cfg = SpectralConfig.random_instance(6, 4, seed=0)
    tracemalloc.start()
    try:
        build(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_lbar_fit_lets_go_of_its_images():
    # tracemalloc peak at (6, 4) seed 0: 48.86 MB; 67.14 MB while build_lbar
    # held the images through the projection of their fit
    cfg = SpectralConfig.random_instance(6, 4, seed=0)
    tracemalloc.start()
    try:
        build_lbar(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50.0e6


def _pipeline_bases(nvars):
    """The bases of every Omega family and closed-form operator in
    ``nvars`` variables up to L = 12: degree bound L - 1, L^nvars within
    the tensor cap."""
    return [SymmetricBasis(nvars, L - 1) for L in range(1, 13) if L**nvars <= MAX_TENSOR_DIM]


class TestSymmetricBasis:
    def test_dimensions(self):
        assert SymmetricBasis(1, 2).dim == 3
        assert SymmetricBasis(2, 2).dim == 6   # partitions in a 2x2 box
        assert SymmetricBasis(3, 2).dim == 10

    @pytest.mark.parametrize("nvars", range(5))
    def test_labels_match_recursive_enumeration(self, nvars):
        # reference: weakly decreasing tuples, each entry counting down from
        # the previous one (the first from the degree bound)
        def reference(bound):
            out = []

            def rec(prefix, ceiling):
                if len(prefix) == nvars:
                    out.append(tuple(prefix))
                    return
                for v in range(ceiling, -1, -1):
                    rec(prefix + [v], v)

            rec([], bound)
            return tuple(out)

        for bound in range(7):
            assert SymmetricBasis(nvars, bound).labels == reference(bound)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_tensors_equal_the_permutation_sums(self, nvars):
        for basis in _pipeline_bases(nvars):
            ref = reference_basis_tensors(basis)
            assert basis.tensors.dtype == ref.dtype and basis.tensors.shape == ref.shape
            assert basis.tensors.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_embed_equals_the_contraction_bit_for_bit(self, nvars, rng):
        # each entry of the contraction is one product x * 1 plus exact
        # zeros (a zero coefficient may differ in its sign, which no norm reads)
        for basis in _pipeline_bases(nvars):
            vecs = draw_complex(rng, (3, basis.dim))
            got, ref = basis.embed(vecs), reference_embed(basis, vecs)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_embed_project_round_trip(self, rng):
        basis = SymmetricBasis(2, 3)
        vec = draw_complex(rng, basis.dim)
        back, defect = basis.project(basis.embed(vec))
        assert np.max(np.abs(back - vec)) < 1e-14
        assert defect < 1e-14

    def test_batched_embed_project_round_trip(self, rng):
        basis = SymmetricBasis(3, 2)
        vecs = draw_complex(rng, (4, 2, basis.dim))
        tensors = basis.embed(vecs)
        assert tensors.shape == (4, 2, 3, 3, 3)
        for idx in np.ndindex(4, 2):
            assert np.array_equal(tensors[idx], basis.embed(vecs[idx]))
        back, defect = basis.project(tensors)
        assert np.array_equal(back, vecs)
        assert defect.shape == (4, 2) and np.max(defect) == 0.0

    def test_project_flags_asymmetric_input(self):
        basis = SymmetricBasis(2, 1)
        lopsided = np.array([[0.0, 0.0], [1.0, 0.0]])  # x_0, not symmetric
        _, defect = basis.project(lopsided)
        assert defect > 0.5


class TestLbar:
    def test_action_on_eigenfunction(self, rng):
        # Lbar(x0) applied to the overlap polynomial reproduces the
        # eigenvalue polynomial pointwise (functional-layer oracle)
        cfg = SpectralConfig.random_instance(2, 1, seed=31)
        lbar = build_lbar(cfg)
        eigs = eigenpair_rows(spectrum(cfg, 1), [0])
        fit = extract_fbar(FnSampler(cfg, 1, eigs.lefts[0]))
        vec, _ = lbar.basis.project(fit.coeffs[0])
        deltas = lambda_bar_coefficients(eigs, cfg).coeffs[0]
        for _ in range(4):
            lam0 = draw_complex(rng)
            x0 = np.exp(2 * lam0)
            powers = x0 ** np.arange(cfg.L + 1)
            lhs = np.tensordot(powers, lbar.coefficient_matrices, axes=(0, 0)) @ vec
            lam_bar = np.polyval(deltas[::-1], x0)
            assert np.max(np.abs(lhs - lam_bar * vec)) < 1e-9 * max(
                abs(lam_bar) * np.max(np.abs(vec)), 1e-30
            )

    def test_action_equals_one_point_coefficients_bit_for_bit(self, rng):
        # lbar_action takes every x0 node's coefficients from one batched
        # call; the action equals the one built from one-point coefficients
        # exactly
        cfg = SpectralConfig.random_instance(4, 2, seed=41)
        L = cfg.L
        lam_grids, lam0_nodes = spectral_grids(L, cfg.n), lbar_x0_nodes(cfg)
        points = _grid_tuples(lam_grids)
        xs = np.exp(2 * points)
        p = MultiPoly(draw_complex(rng, (L, L)))
        action = lbar_action(cfg, lam0_nodes, points, p.eval_many)
        assert action.shape == (L + 1, len(points))
        for lam0, got in zip(lam0_nodes, action):
            coeffs = [scalar_fz_coefficients(lam0, lams, cfg) for lams in points]
            jbar = np.array([j0 for j0, _ in coeffs]) * np.exp(L * lam0)
            kbar = np.array([ks for _, ks in coeffs]) * np.exp(lam0) * np.exp((L - 1) * points)
            ref = jbar * p.eval_many(xs)
            for i in range(cfg.n):
                subbed = xs.copy()
                subbed[:, i] = np.exp(2 * lam0)
                ref = ref - kbar[:, i] * p.eval_many(subbed)
            assert got.tobytes() == ref.tobytes()

    def test_degree_bound_in_x0(self):
        # sampling at two extra x0 nodes: coefficients above degree L vanish
        cfg = SpectralConfig.random_instance(2, 1, seed=13)
        L = cfg.L
        lam0s = circle_grid(L + 3, slot=0, nslots=2)
        lams = circle_grid(L, slot=1, nslots=2)
        p = MultiPoly(np.array([0.3 - 0.2j, 1.1 + 0.4j], dtype=complex))
        vals = lbar_action(cfg, lam0s, lams[:, None], p.eval_many)
        coeffs = tensor_interpolate(vals, [np.exp(2 * lam0s), np.exp(2 * lams)])
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(coeffs[L + 1 :])) < 1e-9 * scale

    @staticmethod
    def _polynomiality_residual(cfg, coeffs):
        """Held-out residual of a degree-(L-1) fit of the Lbar action on one
        probe polynomial, at the first x0 node."""
        L, n = cfg.L, cfg.n
        probe = MultiPoly(coeffs)
        lam_grids, lam0 = spectral_grids(L, n), lbar_x0_nodes(cfg)[0]
        vals = lbar_action(cfg, [lam0], grid_points(lam_grids), probe.eval_many)[0]
        rng = cfg.rng("monomial-holdout")
        held = np.array([[random_complex(rng) for _ in range(n)]])
        direct = lbar_action(cfg, [lam0], held, probe.eval_many)[0, 0]
        x_grids = [np.exp(2 * g) for g in lam_grids]
        fit = fit_grid(vals.reshape((1,) + (L,) * n), x_grids, np.exp(2 * held[0]), [direct])
        return fit.holdouts[0]

    def test_polynomiality_is_checked_not_assumed(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=17)
        basis = SymmetricBasis(2, 2)
        # symmetric input m_(2,1): held-out residual at roundoff
        symmetric = basis.tensors[basis.labels.index((2, 1))]
        assert self._polynomiality_residual(cfg, symmetric) < 1e-10
        # bare non-symmetric monomial x_0^2: the action is genuinely rational
        bare = np.zeros((3, 3))
        bare[2, 0] = 1.0
        assert self._polynomiality_residual(cfg, bare) > 1e-3

    def test_build_diagnostics(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=19)
        lbar = build_lbar(cfg)
        assert lbar.polynomiality_residual < 1e-9
        assert lbar.symmetry_defect < 1e-9

    def test_vacuum_coefficient_equals_eigenvalue(self, cfg2, rng):
        # with no variables the relation collapses to its J-part
        eigs = spectrum(cfg2, 0)
        lam0 = draw_complex(rng)
        j0 = fz_coefficients([lam0], [[]], cfg2)[0][0]
        jbar = j0 * np.exp(cfg2.L * lam0)
        blk = transfer(lam0, cfg2)[0]
        lam_bar = reference_eigenvalue(eigs.lefts[0], eigs.rights[0], blk) * np.exp(cfg2.L * lam0)
        assert abs(jbar - lam_bar) < 1e-11 * abs(lam_bar)


class TestOmegaFamily:
    def test_commutators(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=29)
        family = extract_omegas(cfg)
        assert np.max(family.commutator_norms) < 1e-9

    def test_top_operator_scalar(self):
        cfg = SpectralConfig.random_instance(2, 1, seed=37)
        family = extract_omegas(cfg)
        assert family.omega_top_identity_residual < 1e-9
        # the scalar equals the leading eigenvalue coefficient for every
        # eigenvector in the sector
        eigs = spectrum(cfg, 1)
        coeffs = lambda_bar_coefficients(eigs, cfg).coeffs
        for row in coeffs:
            assert abs(row[cfg.L] - family.omega_top_scalar) < 1e-9 * abs(row[cfg.L])

    def test_top_scalar_sector_formula(self):
        # leading transfer asymptotics: 2^-L prod y^-1/2 (q^(L-n) + q^n)
        cfg = SpectralConfig.random_instance(3, 2, seed=41)
        family = extract_omegas(cfg)
        expect = 2.0**-cfg.L / cfg.sqrt_y_prod * (cfg.q ** (cfg.L - cfg.n) + cfg.q**cfg.n)
        assert abs(family.omega_top_scalar - expect) < 1e-10 * abs(expect)

    def test_joint_diagonalization_full(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=43)
        family = extract_omegas(cfg)
        assert family.delta_table.shape == (family.basis.dim, cfg.L + 1)
        assert family.joint_defect < 1e-8

    def test_diagnostics_do_not_depend_on_read_order(self):
        cfg = SpectralConfig.random_instance(4, 2, seed=5)
        # the joint diagonalisation read before the commutators, then after
        first, second = extract_omegas(cfg), extract_omegas(cfg)
        joint_first = (first.delta_table, first.joint_defect)
        comms = [first.commutator_norms, second.commutator_norms]
        joint_second = (second.delta_table, second.joint_defect)
        assert bits(joint_first[0]) == bits(joint_second[0])
        assert joint_first[1].hex() == joint_second[1].hex()
        assert comms[0].tobytes() == comms[1].tobytes()


class TestJointSpectralProblems:
    @pytest.mark.parametrize("L,n,tol", [(2, 1, 1e-9), (4, 2, 1e-8)])
    def test_eigenfunction_residuals(self, L, n, tol):
        cfg = SpectralConfig.random_instance(L, n, seed=100 + L * 10 + n)
        report = Artifacts(cfg).eigk
        assert not report.vanishing.all(), "no nonvanishing overlap polynomials found"
        assert report.max_residual < tol

    def test_top_delta_constant_across_sector(self):
        cfg = SpectralConfig.random_instance(3, 1, seed=53)
        art = Artifacts(cfg)
        tops = art.lam_bars.coeffs[~art.eigk.vanishing, cfg.L]
        assert len(tops) >= 2
        for t in tops[1:]:
            assert abs(t - tops[0]) < 1e-9 * abs(tops[0])

    def test_containment_and_surplus_reported(self):
        cfg = SpectralConfig.random_instance(3, 2, seed=59)
        report = Artifacts(cfg).eigk
        assert report.max_containment_distance < 1e-7
        # the symmetric space is larger than the sector: surplus spectrum
        assert report.surplus_dimension == report.family.basis.dim - sum(
            not skip for skip in report.vanishing
        )
        assert report.surplus_dimension >= 0


def _eigk_reference(family, fbar, deltas):
    """(residual, containment distance) of one eigenpair, one Omega_k
    matrix-vector product at a time, every norm recomputed: the former
    per-eigenpair loop."""
    vec, _ = family.basis.project(fbar)
    norm = np.max(np.abs(vec))
    resid = 0.0
    for k in range(family.cfg.L + 1):
        num = np.max(np.abs(family.omegas[k] @ vec - deltas[k] * vec))
        den = (np.max(np.abs(family.omegas[k])) + abs(deltas[k])) * norm
        resid = max(resid, num / max(den, 1e-300))
    dist = np.min(np.max(np.abs(family.delta_table - deltas[None, :]), axis=1)
                  / (1.0 + np.max(np.abs(deltas))))
    return resid, dist


def _zeroed(fits, rows):
    coeffs = fits.coeffs.copy()
    coeffs[rows] = 0.0
    return GridFit(coeffs, fits.grid_condition, fits.holdouts)


class TestBatchedEigk:
    @pytest.mark.parametrize("L,n", [(4, 2), (7, 2), (5, 3)])
    def test_sector_batch_equals_the_per_eigenpair_loop(self, L, n, monkeypatch):
        # the batched products round differently; the containment distance
        # is elementwise and stays bit for bit, in one chunk or in many
        art = Artifacts(SpectralConfig.random_instance(L, n, seed=0))
        family, fits, lam_bars = art.family, art.fits, art.lam_bars
        report = check_eigk(family, fits, lam_bars)
        monkeypatch.setattr(blockbuild, "BATCH_ENTRIES", 1)
        chunked = check_eigk(family, fits, lam_bars)
        assert not report.vanishing.any() and not chunked.vanishing.any()
        for e, (fbar, deltas) in enumerate(zip(fits.coeffs, lam_bars.coeffs)):
            resid, dist = _eigk_reference(family, fbar, deltas)
            assert abs(report.residuals[e] - resid) < 1e-13
            assert chunked.residuals[e] == pytest.approx(report.residuals[e], rel=1e-12, abs=1e-16)
            assert report.distances[e].hex() == float(dist).hex()
            assert chunked.distances[e].hex() == float(dist).hex()

    def test_vanishing_eigenpairs_are_reported_and_skipped(self):
        art = Artifacts(SpectralConfig.random_instance(4, 2, seed=0))
        full = art.eigk
        fits = _zeroed(art.fits, [1, 4])
        report = check_eigk(art.family, fits, art.lam_bars)
        assert report.vanishing.tolist() == [k in (1, 4) for k in range(6)]
        for k in range(6):
            if k in (1, 4):
                assert report.residuals[k] == 0.0 and report.distances[k] == np.inf
            else:
                assert report.distances[k] == full.distances[k]
                assert report.residuals[k] == pytest.approx(full.residuals[k], rel=1e-12,
                                                            abs=1e-16)
        assert report.surplus_dimension == full.surplus_dimension + 2

    @pytest.mark.parametrize("zeroed", [[], [1, 4]])
    def test_deltas_extra_is_the_lambda_bar_rows_and_the_vanishing_mask(self, zeroed):
        # one entry per eigenpair in spectrum order: its Delta vector, the
        # row of its Lambda_bar(x0) fit, unless its overlap fit vanishes
        art = Artifacts(SpectralConfig.random_instance(4, 2, seed=0))
        art.fits = _zeroed(art.fits, zeroed)
        [problems, _] = suites.suite_omega_eigk(art)
        deltas = problems.extra["deltas"]
        assert [d["eig"] for d in deltas] == list(range(6))
        assert [d["vanishing"] for d in deltas] == [k in zeroed for k in range(6)]
        for d, row in zip(deltas, art.lam_bars.coeffs):
            if d["vanishing"]:
                assert d["delta"] is None
            else:
                assert d["delta"] == [[v.real, v.imag] for v in row.tolist()]
        assert problems.extra["surplus_dimension"] == art.family.basis.dim - 6 + len(zeroed)

    def test_a_sector_of_vanishing_overlaps_reads_zero(self):
        # every overlap fit zero: no eigenpair is checked, the joint checks
        # and the Upsilon check read 0.0
        cfg = SpectralConfig.random_instance(4, 2, seed=0)
        art = Artifacts(cfg)
        art.fits = _zeroed(art.fits, slice(None))
        assert art.eigk.vanishing.all()
        assert art.eigk.max_residual == art.eigk.max_containment_distance == 0.0
        assert art.eigk.surplus_dimension == art.family.basis.dim
        upsilon = suites.suite_reduce(art)[0]
        assert upsilon.name == "upsilon-on-eigenfunctions"
        assert upsilon.residual == 0.0 and upsilon.extra["eigenfunctions"] == 0


class TestPrecisionFloor:
    @pytest.mark.parametrize("L,n", [(4, 2), (6, 3)])
    def test_family_checks_report_the_floor_and_commutators_lie_near_it(self, L, n):
        # f = eps kappa rho, from the fit's condition number and the
        # family's range; omega-commutators reads between f / 2 and 20 f
        cfg = SpectralConfig.random_instance(L, n, seed=0)
        family = extract_omegas(cfg)
        norms = [np.max(np.abs(omega)) for omega in family.omegas]
        assert family.omega_norms.tolist() == norms
        floor = np.finfo(float).eps * family.lbar.grid_condition * max(norms) / min(norms)
        assert family.precision_floor == pytest.approx(floor, rel=1e-14)
        records = {r.name: r for r in run_checks("omega-extract", cfg)}
        for name in ("omega-commutators", "omega-top-scalar", "lbar-symmetry-defect"):
            assert records[name].extra["precision_floor"] == family.precision_floor
        assert "precision_floor" not in records["lbar-polynomiality-holdout"].extra
        commutators = records["omega-commutators"].residual
        assert family.precision_floor / 2 <= commutators <= 20 * family.precision_floor
