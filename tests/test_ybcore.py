"""Yang-Baxter core: R-matrix structure, monodromy blocks, exchange
relations, and sector spectra."""

import numpy as np
import pytest

from bpl.config import SpectralConfig
from bpl.errors import CapacityError, CoincidentRapiditiesError
from bpl.ybcore import (
    b_product,
    check_off_relations,
    check_rtt,
    exchange_m_factors,
    check_ybe,
    monodromy,
    permutation_matrix,
    r_matrix,
    sector_block_residual,
    sector_indices,
    spectrum,
    transfer,
    weight_a,
    weight_b,
    weight_c,
)

from conftest import draw_complex


def kron_monodromy(lam, cfg):
    """Reference build: Kronecker-extend every block by the site blocks of
    P R(lambda - mu_j), one site at a time."""
    a, b = np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex)
    c, d = np.zeros((1, 1), dtype=complex), np.eye(1, dtype=complex)
    for mu in cfg.mu:
        rs = permutation_matrix() @ r_matrix(lam - mu, cfg.gamma).entries
        aj, bj, cj, dj = rs[0:2, 0:2], rs[0:2, 2:4], rs[2:4, 0:2], rs[2:4, 2:4]
        a, b, c, d = (
            np.kron(a, aj) + np.kron(b, cj),
            np.kron(a, bj) + np.kron(b, dj),
            np.kron(c, aj) + np.kron(d, cj),
            np.kron(c, bj) + np.kron(d, dj),
        )
    return a, b, c, d


def two_pass_off_relations(lam0, lams, cfg):
    """Reference formulation of ``check_off_relations``: each line builds its
    own B-products, every product starting from the identity."""
    lams = list(lams)
    ma0, md0, ma, md = exchange_m_factors(lam0, lams, cfg.gamma)
    ops = {lam0: monodromy(lam0, cfg)}
    for l in lams:
        ops.setdefault(l, monodromy(l, cfg))

    def bprod(ls):
        out = np.eye(cfg.quantum_dim, dtype=complex)
        for l in ls:
            out = out @ ops[l].b.entries
        return out

    x_full = bprod(lams)

    def one_line(block, m0, mlist):
        op0 = getattr(ops[lam0], block).entries
        lhs = op0 @ x_full
        rhs = m0 * (x_full @ op0)
        for i, l in enumerate(lams):
            rest = [t for j, t in enumerate(lams) if j != i]
            rhs = rhs - mlist[i] * (bprod([lam0] + rest) @ getattr(ops[l], block).entries)
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        return lhs, rhs, float(np.max(np.abs(lhs - rhs)) / scale)

    lhs_a, rhs_a, res_a = one_line("a", ma0, ma)
    lhs_d, rhs_d, res_d = one_line("d", md0, md)
    lhs_t, rhs_t = lhs_a + lhs_d, rhs_a + rhs_d
    scale_t = max(np.max(np.abs(lhs_t)), np.max(np.abs(rhs_t)), 1e-300)
    return res_a, res_d, float(np.max(np.abs(lhs_t - rhs_t)) / scale_t)


class TestRMatrix:
    def test_zero_argument_is_scalar_identity(self, rng):
        g = draw_complex(rng)
        r = r_matrix(0.0, g).entries
        assert np.max(np.abs(r - np.sinh(g) * np.eye(4))) < 1e-15

    def test_zero_anisotropy_is_scaled_swap(self, rng):
        x = draw_complex(rng)
        r = r_matrix(x, 0.0).entries
        assert np.max(np.abs(r - np.sinh(x) * permutation_matrix())) < 1e-15

    def test_entry_layout(self, rng):
        x, g = draw_complex(rng), draw_complex(rng)
        r = r_matrix(x, g).entries
        assert r[0, 0] == r[3, 3] == weight_a(x, g)
        assert r[1, 1] == r[2, 2] == weight_c(g)  # middle diagonal carries c
        assert r[1, 2] == r[2, 1] == weight_b(x)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            r_matrix(np.inf, 0.3)


class TestYangBaxterEquation:
    def test_brute_force_both_sides(self, rng):
        # independent oracle: assemble both sides with raw kron products
        eye = np.eye(2)
        for _ in range(20):
            x, y, g = (draw_complex(rng) for _ in range(3))
            r = lambda z: r_matrix(z, g).entries
            lhs = np.kron(r(x), eye) @ np.kron(eye, r(x + y)) @ np.kron(r(y), eye)
            rhs = np.kron(eye, r(y)) @ np.kron(r(x + y), eye) @ np.kron(eye, r(x))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            assert check_ybe(x, y, g) < 1e-12

    def test_exact_zero_at_origin(self, rng):
        assert check_ybe(0.0, 0.0, draw_complex(rng)) == 0.0

    def test_argument_swap_symmetry(self, rng):
        x, y, g = (draw_complex(rng) for _ in range(3))
        assert check_ybe(x, y, g) == pytest.approx(check_ybe(y, x, g), abs=1e-13)


class TestMonodromy:
    def test_single_site_equals_direct_product(self, rng):
        # one site: the blocks are slices of P R(lambda - mu_1)
        cfg = SpectralConfig.random_instance(1, 0, seed=3)
        lam = draw_complex(rng)
        m = monodromy(lam, cfg)
        direct = permutation_matrix() @ r_matrix(lam - cfg.mu[0], cfg.gamma).entries
        assert np.allclose(m.a.entries, direct[0:2, 0:2])
        assert np.allclose(m.b.entries, direct[0:2, 2:4])
        assert np.allclose(m.c.entries, direct[2:4, 0:2])
        assert np.allclose(m.d.entries, direct[2:4, 2:4])

    def test_vacuum_action(self, cfg3, rng):
        lam = draw_complex(rng)
        m = monodromy(lam, cfg3)
        vac = np.zeros(cfg3.quantum_dim, dtype=complex)
        vac[0] = 1.0
        pa = np.prod([weight_a(lam - mu, cfg3.gamma) for mu in cfg3.mu])
        pb = np.prod([weight_b(lam - mu) for mu in cfg3.mu])
        assert np.max(np.abs(m.a.entries @ vac - pa * vac)) < 1e-12 * abs(pa)
        assert np.max(np.abs(m.d.entries @ vac - pb * vac)) < 1e-12 * max(abs(pb), 1)
        assert np.max(np.abs(m.c.entries @ vac)) < 1e-14
        assert np.max(np.abs(m.b.entries @ vac)) > 0

    def test_sector_block_structure(self, cfg3, rng):
        m = monodromy(draw_complex(rng), cfg3)
        for op, shift in ((m.a, 0), (m.b, +1), (m.c, -1), (m.d, 0)):
            assert sector_block_residual(op, cfg3.L, shift) < 1e-12

    @pytest.mark.parametrize("L", range(1, 7))
    def test_equals_kronecker_reference_exactly(self, L, rng):
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        homogeneous = [cfg.replace(mu=(0.0,) * L, gamma=g) for g in (0.4, 0.7j)]
        for case in [cfg] + homogeneous:
            for lam in (draw_complex(rng), draw_complex(rng), 0.0):
                built = monodromy(lam, case)
                for block, ref in zip(built, kron_monodromy(lam, case)):
                    assert np.array_equal(block.entries, ref)

    def test_blocks_are_read_only(self, cfg3, rng):
        m = monodromy(draw_complex(rng), cfg3)
        for op in m:
            with pytest.raises(ValueError, match="read-only"):
                op.entries[0, 0] = 1.0

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setenv("BPL_MAX_L", "4")
        cfg = SpectralConfig.random_instance(5, 0, seed=1)
        with pytest.raises(CapacityError):
            monodromy(0.1, cfg)


class TestTransfer:
    def test_commuting_family(self, rng):
        for L in (2, 4, 6):
            cfg = SpectralConfig.random_instance(L, 0, seed=L)
            t1 = transfer(draw_complex(rng), cfg).entries
            t2 = transfer(draw_complex(rng), cfg).entries
            num = np.max(np.abs(t1 @ t2 - t2 @ t1))
            assert num / (np.max(np.abs(t1)) * np.max(np.abs(t2))) < 1e-11

    def test_vacuum_expectation(self, cfg3, rng):
        lam = draw_complex(rng)
        t = transfer(lam, cfg3).entries
        pa = np.prod([weight_a(lam - mu, cfg3.gamma) for mu in cfg3.mu])
        pb = np.prod([weight_b(lam - mu) for mu in cfg3.mu])
        assert abs(t[0, 0] - (pa + pb)) < 1e-12 * abs(pa + pb)

    def test_entries_are_degree_L_polynomials(self, cfg3):
        # e^{L lam} T(lam) interpolates at degree L in x = e^{2 lam}; a fresh
        # sample point must match the interpolant
        L = cfg3.L
        nodes = 0.31 * np.arange(L + 1) + 0.17j * np.arange(L + 1)
        samples = np.array(
            [np.exp(L * lam) * transfer(lam, cfg3).entries for lam in nodes]
        )
        vand = np.vander(np.exp(2 * nodes), L + 1, increasing=True)
        coeffs = np.linalg.solve(vand, samples.reshape(L + 1, -1))
        extra = 0.11 + 0.23j
        direct = np.exp(L * extra) * transfer(extra, cfg3).entries
        fitted = (np.exp(2 * extra) ** np.arange(L + 1)) @ coeffs
        scale = max(np.max(np.abs(direct)), 1.0)
        assert np.max(np.abs(fitted.reshape(direct.shape) - direct)) / scale < 1e-9


class TestRtt:
    def test_equal_arguments_exact(self, cfg3):
        assert check_rtt(0.37 - 0.21j, 0.37 - 0.21j, cfg3) == 0.0

    def test_random_draws(self, rng):
        cfg = SpectralConfig.random_instance(3, 0, seed=23)
        for _ in range(5):
            assert check_rtt(draw_complex(rng), draw_complex(rng), cfg) < 1e-11

    def test_b_operators_commute(self, cfg3, rng):
        x, y = draw_complex(rng), draw_complex(rng)
        bx = monodromy(x, cfg3).b.entries
        by = monodromy(y, cfg3).b.entries
        num = np.max(np.abs(bx @ by - by @ bx))
        assert num / (np.max(np.abs(bx)) * np.max(np.abs(by))) < 1e-12


class TestBProduct:
    def test_order_independence(self, cfg3, rng):
        lams = [draw_complex(rng), draw_complex(rng)]
        p1 = b_product(lams, cfg3).entries
        p2 = b_product(lams[::-1], cfg3).entries
        assert np.max(np.abs(p1 - p2)) < 1e-12 * max(np.max(np.abs(p1)), 1)

    def test_empty_product_is_identity(self, cfg3):
        assert np.allclose(b_product([], cfg3).entries, np.eye(cfg3.quantum_dim))

    def test_too_many_factors_warn_and_vanish(self, rng):
        cfg = SpectralConfig.random_instance(2, 0, seed=5)
        lams = [draw_complex(rng) for _ in range(3)]
        with pytest.warns(UserWarning, match="annihilate"):
            op = b_product(lams, cfg)
        vac = np.zeros(cfg.quantum_dim, dtype=complex)
        vac[0] = 1.0
        assert np.max(np.abs(op.entries @ vac)) == 0.0

    def test_entries_are_degree_Lm1_polynomials(self, rng):
        # e^{(L-1) lam} B(lam) interpolates at degree L-1 in x = e^{2 lam}
        cfg = SpectralConfig.random_instance(3, 0, seed=9)
        L = cfg.L
        nodes = 0.33 * np.arange(L) + 0.19j * np.arange(L)
        samples = np.array(
            [np.exp((L - 1) * lam) * monodromy(lam, cfg).b.entries for lam in nodes]
        )
        vand = np.vander(np.exp(2 * nodes), L, increasing=True)
        coeffs = np.linalg.solve(vand, samples.reshape(L, -1))
        extra = draw_complex(rng)
        direct = np.exp((L - 1) * extra) * monodromy(extra, cfg).b.entries
        fitted = ((np.exp(2 * extra) ** np.arange(L)) @ coeffs).reshape(direct.shape)
        assert np.max(np.abs(fitted - direct)) / max(np.max(np.abs(direct)), 1) < 1e-9


class TestOffRelations:
    @pytest.mark.parametrize("n,L", [(1, 2), (2, 3), (3, 4)])
    def test_random_draws(self, n, L, rng):
        cfg = SpectralConfig.random_instance(L, n, seed=L * 10 + n)
        res = check_off_relations(
            draw_complex(rng), [draw_complex(rng) for _ in range(n)], cfg
        )
        assert res.a_relation < 1e-10
        assert res.d_relation < 1e-10
        assert res.transfer_identity < 1e-10

    @pytest.mark.parametrize("L,n", [(4, 0), (4, 2), (5, 3)])
    def test_equals_two_pass_reference_exactly(self, L, n, rng):
        cfg = SpectralConfig.random_instance(L, n, seed=L * 10 + n)
        for _ in range(3):
            lam0 = draw_complex(rng)
            lams = [draw_complex(rng) for _ in range(n)]
            assert tuple(check_off_relations(lam0, lams, cfg)) == two_pass_off_relations(
                lam0, lams, cfg
            )

    def test_empty_set_trivial(self, cfg3, rng):
        res = check_off_relations(draw_complex(rng), [], cfg3)
        assert res.a_relation == 0.0
        assert res.d_relation == 0.0

    def test_coincident_rapidities_rejected(self, cfg3):
        lam = 0.4 + 0.1j
        with pytest.raises(CoincidentRapiditiesError, match="singular"):
            check_off_relations(lam, [lam + 1e-9], cfg3)


class TestSpectrum:
    def test_sector_dimensions(self):
        for L in (2, 3, 4):
            total = sum(len(sector_indices(L, s)) for s in range(L + 1))
            assert total == 2**L

    def test_single_site_vacuum_sector(self, rng):
        cfg = SpectralConfig.random_instance(1, 0, seed=2)
        eigs = spectrum(cfg, 0)
        assert len(eigs) == 1
        lam = draw_complex(rng)
        expect = weight_a(lam - cfg.mu[0], cfg.gamma) + weight_b(lam - cfg.mu[0])
        assert abs(eigs[0].eigenvalue(lam) - expect) < 1e-12 * abs(expect)

    def test_third_probe_consistency(self, cfg3, rng):
        eigs = spectrum(cfg3, 2)
        assert len(eigs) == 3
        lam3 = draw_complex(rng)
        for eig in eigs:
            right, left = eig.residuals(lam3)
            assert right < 1e-10 and left < 1e-10

    def test_left_vector_probe_independent(self, cfg3, rng):
        # the dual eigenvector serves every rapidity at once
        eigs = spectrum(cfg3, 1)
        for lam in [draw_complex(rng) for _ in range(3)]:
            for eig in eigs:
                _, left_resid = eig.residuals(lam)
                assert left_resid < 1e-10
