"""Yang-Baxter core: R-matrix structure, monodromy blocks, exchange
relations, and sector spectra."""

import tracemalloc
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np
import pytest

from bpl.config import SpectralConfig, random_complex
import bpl.blockbuild
import bpl.splitlattice
import bpl.ybcore
from bpl.errors import CapacityError, CoincidentRapiditiesError, DegeneracyError
from bpl.suites import Artifacts, _draws, _on_sites, suite_verify_off, suite_verify_rtt
from bpl.ybcore import (
    check_off_relations,
    check_rtt,
    check_ybe,
    monodromies,
    monodromy,
    r_matrix,
    sector_indices,
    spectrum,
    transfer,
    weight_a,
    weight_b,
    weight_c,
)

from conftest import (
    SWAP,
    bits,
    dense_operator,
    draw_complex,
    eigenpair_rows,
    reference_build,
    reference_eigen_residuals,
    reference_eigenvalue,
    scalar_exchange_m_factors,
)

#: down-spin count change of A, B, C and D
SHIFTS = (0, 1, -1, 0)


def kron_monodromy(lam, cfg):
    """Reference build: Kronecker-extend every block by the site blocks of
    P R(lambda - mu_j), one site at a time."""
    a, b = np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex)
    c, d = np.zeros((1, 1), dtype=complex), np.eye(1, dtype=complex)
    for mu in cfg.mu:
        rs = SWAP @ r_matrix(lam - mu, cfg.gamma)
        aj, bj, cj, dj = rs[0:2, 0:2], rs[0:2, 2:4], rs[2:4, 0:2], rs[2:4, 2:4]
        a, b, c, d = (
            np.kron(a, aj) + np.kron(b, cj),
            np.kron(a, bj) + np.kron(b, dj),
            np.kron(c, aj) + np.kron(d, cj),
            np.kron(c, bj) + np.kron(d, dj),
        )
    return a, b, c, d


def two_pass_off_relations(lam0, lams, cfg):
    """Dense reference of ``check_off_relations``: each side formed as a
    dense operator assembled from the blocks, each line building its own
    B-products from the identity, and each residual max |L - R| over
    max(|L|, |R|) where the check applies both sides to probe vectors.
    The sides are the built blocks themselves, so the operator agreement
    is exactly 0."""
    lams = list(lams)
    ma0, md0, ma, md = scalar_exchange_m_factors(lam0, lams, cfg.gamma)
    ops = {lam0: monodromy(lam0, cfg)}
    for l in lams:
        ops.setdefault(l, monodromy(l, cfg))

    def bprod(ls):
        out = np.eye(cfg.quantum_dim, dtype=complex)
        for l in ls:
            out = out @ dense_operator(ops[l].b, 1)
        return out

    x_full = bprod(lams)

    def one_line(block, m0, mlist):
        op0 = dense_operator(getattr(ops[lam0], block), 0)
        lhs = op0 @ x_full
        rhs = m0 * (x_full @ op0)
        for i, l in enumerate(lams):
            rest = [t for j, t in enumerate(lams) if j != i]
            rhs = rhs - mlist[i] * (bprod([lam0] + rest) @ dense_operator(getattr(ops[l], block), 0))
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        return lhs, rhs, float(np.max(np.abs(lhs - rhs)) / scale)

    lhs_a, rhs_a, res_a = one_line("a", ma0, ma)
    lhs_d, rhs_d, res_d = one_line("d", md0, md)
    lhs_t, rhs_t = lhs_a + lhs_d, rhs_a + rhs_d
    scale_t = max(np.max(np.abs(lhs_t)), np.max(np.abs(rhs_t)), 1e-300)
    return res_a, res_d, float(np.max(np.abs(lhs_t - rhs_t)) / scale_t), 0.0


def scalar_r_matrix(x, gamma):
    """The R-matrix of one argument, written out entry by entry."""
    a, b, c = weight_a(x, gamma), weight_b(x), weight_c(gamma)
    return np.array([[a, 0, 0, 0], [0, c, b, 0], [0, b, c, 0], [0, 0, 0, a]], dtype=complex)


def scalar_ybe(x, y, gamma):
    """The Yang-Baxter residual of one draw, from raw Kronecker products."""
    eye = np.eye(2)
    r = lambda z: scalar_r_matrix(z, gamma)
    lhs = np.kron(r(x), eye) @ np.kron(eye, r(x + y)) @ np.kron(r(y), eye)
    rhs = np.kron(eye, r(y)) @ np.kron(r(x + y), eye) @ np.kron(eye, r(x))
    return float(np.max(np.abs(lhs - rhs)))


def dense_rtt(x, y, cfg, r_of=None):
    """The RTT residual from dense 4 * 2^L operators in ascending basis
    order: R(x-y) (x) 1 times an einsum of the auxiliary products, R from
    ``r_of`` if given."""
    d = cfg.quantum_dim
    mx, my = (
        np.block([[dense_operator(m.a, 0), dense_operator(m.b, 1)],
                  [dense_operator(m.c, -1), dense_operator(m.d, 0)]])
        for m in monodromies([x, y], cfg)
    )

    def aux_product(m1, m2):
        t1, t2 = m1.reshape(2, d, 2, d), m2.reshape(2, d, 2, d)
        return np.einsum("isjt,ktlu->iksjlu", t1, t2).reshape(4 * d, 4 * d)

    r = np.kron((r_of or scalar_r_matrix)(x - y, cfg.gamma), np.eye(d))
    lhs = r @ aux_product(mx, my)
    rhs = aux_product(my, mx) @ r
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def wrong_r_matrices():
    """R-matrices that break both relations: the argument shifted by 0.01,
    and b and c swapped."""
    right = bpl.ybcore.r_matrix

    def swapped(x, gamma):
        r = right(x, gamma).copy()
        b, c = r[..., 1, 2].copy(), r[..., 1, 1].copy()
        r[..., 1, 2] = r[..., 2, 1] = c
        r[..., 1, 1] = r[..., 2, 2] = b
        return r

    return [lambda x, gamma: right(np.asarray(x) + 0.01, gamma), swapped]


class TestRMatrix:
    def test_zero_argument_is_scalar_identity(self, rng):
        g = draw_complex(rng)
        r = r_matrix(0.0, g)
        assert np.max(np.abs(r - np.sinh(g) * np.eye(4))) < 1e-15

    def test_zero_anisotropy_is_scaled_swap(self, rng):
        x = draw_complex(rng)
        r = r_matrix(x, 0.0)
        assert np.max(np.abs(r - np.sinh(x) * SWAP)) < 1e-15

    def test_entry_layout(self, rng):
        x, g = draw_complex(rng), draw_complex(rng)
        r = r_matrix(x, g)
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
            r = lambda z: r_matrix(z, g)
            lhs = np.kron(r(x), eye) @ np.kron(eye, r(x + y)) @ np.kron(r(y), eye)
            rhs = np.kron(eye, r(y)) @ np.kron(r(x + y), eye) @ np.kron(eye, r(x))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            assert check_ybe(x, y, g) < 1e-12

    def test_exact_zero_at_origin(self, rng):
        assert check_ybe(0.0, 0.0, draw_complex(rng)) == 0.0

    def test_argument_swap_symmetry(self, rng):
        x, y, g = (draw_complex(rng) for _ in range(3))
        assert check_ybe(x, y, g) == pytest.approx(check_ybe(y, x, g), abs=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_the_largest_one_draw_residual_exactly(self, seed):
        rng = SpectralConfig.random_instance(4, 2, seed=seed).rng("ybe")
        draws = np.array([[random_complex(rng) for _ in range(3)] for _ in range(100)])
        worst = max(scalar_ybe(*draw) for draw in draws)
        assert check_ybe(*draws.T).hex() == worst.hex()

    def test_non_finite_draw_rejected(self, rng):
        draws = draw_complex(rng, (3, 5))
        draws[1, 3] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite parameter"):
            check_ybe(*draws)

    def test_wrong_r_matrix_fails(self, rng, monkeypatch):
        draws = draw_complex(rng, (3, 20))
        for wrong in wrong_r_matrices():
            monkeypatch.setattr(bpl.ybcore, "r_matrix", wrong)
            assert check_ybe(*draws) > 1e-3


class TestMonodromy:
    def test_single_site_equals_direct_product(self, rng):
        # one site: the blocks are slices of P R(lambda - mu_1)
        cfg = SpectralConfig.random_instance(1, 0, seed=3)
        lam = draw_complex(rng)
        m = monodromy(lam, cfg)
        direct = SWAP @ r_matrix(lam - cfg.mu[0], cfg.gamma)
        assert np.allclose(dense_operator(m.a, 0), direct[0:2, 0:2])
        assert np.allclose(dense_operator(m.b, 1), direct[0:2, 2:4])
        assert np.allclose(dense_operator(m.c, -1), direct[2:4, 0:2])
        assert np.allclose(dense_operator(m.d, 0), direct[2:4, 2:4])

    def test_vacuum_action(self, cfg3, rng):
        lam = draw_complex(rng)
        m = monodromy(lam, cfg3)
        vac = np.zeros(cfg3.quantum_dim, dtype=complex)
        vac[0] = 1.0
        pa = np.prod([weight_a(lam - mu, cfg3.gamma) for mu in cfg3.mu])
        pb = np.prod([weight_b(lam - mu) for mu in cfg3.mu])
        a, b, c, d = (dense_operator(blocks, shift) for blocks, shift in zip(m, SHIFTS))
        assert np.max(np.abs(a @ vac - pa * vac)) < 1e-12 * abs(pa)
        assert np.max(np.abs(d @ vac - pb * vac)) < 1e-12 * max(abs(pb), 1)
        assert np.max(np.abs(c @ vac)) < 1e-14
        assert np.max(np.abs(b @ vac)) > 0

    def test_sector_block_structure(self, cfg3, rng):
        # every block has its sector shape, and the Kronecker form holds
        # nothing outside the blocks
        lam, L = draw_complex(rng), cfg3.L
        pop = np.array([bin(i).count("1") for i in range(2**L)])
        for blocks, shift, ref in zip(monodromy(lam, cfg3), SHIFTS, kron_monodromy(lam, cfg3)):
            shapes = [(comb(L, k + shift) if k + shift >= 0 else 0, comb(L, k)) for k in range(L + 1)]
            assert [blk.shape for blk in blocks] == shapes
            assert np.all(ref[pop[:, None] != pop[None, :] + shift] == 0)

    @pytest.mark.parametrize("L", range(1, 7))
    def test_equals_kronecker_reference_exactly(self, L, rng):
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        homogeneous = [cfg.replace(mu=(0.0,) * L, gamma=g) for g in (0.4, 0.7j)]
        for case in [cfg] + homogeneous:
            for lam in (draw_complex(rng), draw_complex(rng), 0.0):
                built = monodromy(lam, case)
                for blocks, shift, ref in zip(built, SHIFTS, kron_monodromy(lam, case)):
                    for k, blk in enumerate(blocks):
                        if blk.size:
                            rows, cols = sector_indices(L, k + shift), sector_indices(L, k)
                            assert np.array_equal(blk, ref[np.ix_(rows, cols)])
                    assert np.array_equal(dense_operator(blocks, shift), ref)

    def test_blocks_are_read_only(self, cfg3, rng):
        m = monodromy(draw_complex(rng), cfg3)
        for blocks in m:
            for blk in blocks:
                if blk.size:
                    with pytest.raises(ValueError, match="read-only"):
                        blk[0, 0] = 1.0

    @pytest.mark.parametrize("L", range(1, 7))
    def test_capped_batches_equal_the_full_build_exactly(self, L, rng):
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        homogeneous = [cfg.replace(mu=(0.0,) * L, gamma=g) for g in (0.4, 0.7j)]
        for case in [cfg] + homogeneous:
            lams = [draw_complex(rng), draw_complex(rng), 0.0]
            full = [monodromy(lam, case) for lam in lams]
            for top in range(L + 1):
                for batch in ([lams[0]], lams):
                    built = list(monodromies(batch, case, top))
                    assert len(built) == len(batch)
                    for ref, got in zip(full, built):
                        for ref_blocks, blocks in zip(ref, got):
                            assert len(blocks) == top + 1
                            for k, blk in enumerate(blocks[:top]):
                                assert np.array_equal(blk, ref_blocks[k])
                        # b[top] maps past the cap: no rows; the others are whole
                        for name in "acd":
                            assert np.array_equal(getattr(got, name)[top], getattr(ref, name)[top])
                        assert got.b[top].shape == (0, comb(L, top))
                        if top < L:
                            assert ref.b[top].shape[0] > 0

    @pytest.mark.parametrize("L", range(1, 7))
    def test_operator_subsets_equal_the_full_build_exactly(self, L, rng):
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        lams = [draw_complex(rng), draw_complex(rng), 0.0]
        subsets = ["".join(ops) for r in range(1, 5) for ops in combinations("abcd", r)]
        for top in range(L + 1):
            full = list(monodromies(lams, cfg, top))
            for ops in subsets:
                for ref, got in zip(full, monodromies(lams, cfg, top, ops), strict=True):
                    for name, ref_blocks, blocks in zip("abcd", ref, got):
                        if name not in ops:
                            assert blocks == ()
                            continue
                        assert [b.shape for b in blocks] == [r.shape for r in ref_blocks]
                        assert [b.tobytes() for b in blocks] == [r.tobytes() for r in ref_blocks]
                        for blk in blocks:
                            assert not blk.flags.writeable

    def test_one_pair_carries_that_pair_alone(self):
        full = bpl.blockbuild.build_plan(6, 6)
        for ops in ("b", "ab", "cd", "c"):
            plan = bpl.blockbuild.build_plan(6, 6, ops)
            assert [op is not None for op in plan.layout] == [name in ops for name in "abcd"]
            for step, full_step in zip(plan.steps[:-1], full.steps[:-1]):
                # A and B hold as many entries as D and C
                assert 2 * step[0].size == full_step[0].size
            assert [w.size for w in plan.steps[-1]] == [
                w.size for name, w in zip("abcd", full.steps[-1]) if name in ops
            ]
        # operators from both pairs need all four before the last site
        for step, full_step in zip(bpl.blockbuild.build_plan(6, 6, "ad").steps[:-1], full.steps):
            assert step[0].source.tobytes() == full_step[0].source.tobytes()
        for bad in ("", "da", "abx", "aab"):
            with pytest.raises(ValueError, match="ops"):
                bpl.blockbuild.build_plan(3, 3, bad)

    @pytest.mark.parametrize(
        "L,top,batch", [(9, 9, 1), (8, 8, 1), (7, 2, 12), (9, 3, 6), (10, 2, 4), (5, 5, 2)]
    )
    def test_equals_the_gather_scatter_reference_bit_for_bit(self, L, top, batch, rng):
        cfg = SpectralConfig.random_instance(L, 0, seed=L + top)
        lams = [draw_complex(rng) for _ in range(batch - 1)] + [0.0]
        x = np.array(lams, dtype=complex)[:, None] - np.array(cfg.mu, dtype=complex)
        weights = weight_a(x, cfg.gamma), weight_b(x), weight_c(cfg.gamma)
        stacked = bpl.blockbuild.build_batch(*weights, bpl.blockbuild.build_plan(L, top))
        assert all(len(blk) == batch for blocks in stacked for blk in blocks)
        built = [stacked.row(i) for i in range(batch)]
        for ref, got in zip(reference_build(lams, cfg, top), built, strict=True):
            for ref_blocks, blocks in zip(ref, got, strict=True):
                assert [b.tobytes() for b in blocks] == [r.tobytes() for r in ref_blocks]

    @pytest.mark.parametrize("L,top", [(1, 1), (4, 2), (6, 6), (7, 0), (9, 3)])
    def test_writes_index_inside_their_tables_and_leave_plus_zeros(self, L, top, rng):
        plan = bpl.blockbuild.build_plan(L, top)
        width = 2
        for writes in plan.steps:
            old = draw_complex(rng, (3, width))
            weights = (draw_complex(rng, (3, 1)), draw_complex(rng, (3, 1)), draw_complex(rng))
            for write in writes:
                assert all(0 <= lo <= hi <= width for lo, hi in write.spans)
                zero = sum(hi - lo for lo, hi in write.spans)
                # clip never clips: every index addresses the table
                assert np.all((write.source >= 0) & (write.source <= zero))
                new = bpl.blockbuild._apply_write(old, write, weights)
                unwritten = new[:, write.source == zero]
                assert unwritten.tobytes() == bytes(unwritten.nbytes)
            width = writes[0].size

    def test_capped_build_has_no_blocks_past_the_cap(self, cfg3):
        m = monodromy(0.2 + 0.1j, cfg3, top=1)
        for blocks in m:
            assert len(blocks) == 2
            with pytest.raises(IndexError):
                blocks[2]
        assert m.b[1].shape == (0, 3)
        with pytest.raises(ValueError, match="top"):
            monodromy(0.2, cfg3, top=cfg3.L + 1)

    def test_non_finite_rapidity_in_a_batch_rejected(self, cfg3):
        for lams in ([np.inf, 0.1], [0.1, 0.2, complex(0.3, np.nan)]):
            with pytest.raises(ValueError, match="non-finite parameter"):
                monodromies(lams, cfg3, top=1)
        with pytest.raises(ValueError, match="non-finite parameter"):
            monodromy(np.inf, cfg3)

    def test_batched_blocks_are_read_only(self, cfg3, rng):
        for m in monodromies([draw_complex(rng) for _ in range(3)], cfg3, top=2):
            for blocks in m:
                for blk in blocks:
                    if blk.size:
                        with pytest.raises(ValueError, match="read-only"):
                            blk[0, 0] = 1.0

    def test_long_batch_splits_under_the_entry_budget(self, monkeypatch):
        cfg = SpectralConfig.random_instance(4, 0, seed=6)
        lams = [0.1 * k + 0.05j for k in range(7)]
        full = [monodromy(lam, cfg, top=2) for lam in lams]
        entries = bpl.blockbuild.build_plan(4, 2).entries
        batches = []
        original = bpl.blockbuild.build_batch

        def recording(wa, wb, c, plan):
            batches.append(len(wa))
            return original(wa, wb, c, plan)

        monkeypatch.setattr(bpl.blockbuild, "BATCH_ENTRIES", 3 * entries)
        monkeypatch.setattr(bpl.blockbuild, "build_batch", recording)
        built = list(monodromies(lams, cfg, top=2))
        assert batches == [3, 3, 1]
        for ref, got in zip(full, built):
            for ref_blocks, blocks in zip(ref, got):
                for r, g in zip(ref_blocks, blocks):
                    assert np.array_equal(r, g)
        # a budget below one rapidity's entries still builds one at a time
        batches.clear()
        monkeypatch.setattr(bpl.blockbuild, "BATCH_ENTRIES", 1)
        assert len(list(monodromies(lams[:2], cfg, top=2))) == 2
        assert batches == [1, 1]

    def test_capacity_cap(self):
        cfg = SpectralConfig.random_instance(13, 0, seed=1)
        with pytest.raises(CapacityError, match="length 13 exceeds the dense capacity cap 12$"):
            monodromy(0.1, cfg)

    def test_entries_are_degree_Lm1_polynomials(self, rng):
        # e^{(L-1) lam} B(lam) interpolates at degree L-1 in x = e^{2 lam}
        cfg = SpectralConfig.random_instance(3, 0, seed=9)
        L = cfg.L
        nodes = 0.33 * np.arange(L) + 0.19j * np.arange(L)
        samples = np.array(
            [np.exp((L - 1) * lam) * dense_operator(monodromy(lam, cfg).b, 1) for lam in nodes]
        )
        vand = np.vander(np.exp(2 * nodes), L, increasing=True)
        coeffs = np.linalg.solve(vand, samples.reshape(L, -1))
        extra = draw_complex(rng)
        direct = np.exp((L - 1) * extra) * dense_operator(monodromy(extra, cfg).b, 1)
        fitted = ((np.exp(2 * extra) ** np.arange(L)) @ coeffs).reshape(direct.shape)
        assert np.max(np.abs(fitted - direct)) / max(np.max(np.abs(direct)), 1) < 1e-9


class TestTransfer:
    def test_commuting_family(self, rng):
        for L in (2, 4, 6):
            cfg = SpectralConfig.random_instance(L, 0, seed=L)
            t1 = dense_operator(transfer(draw_complex(rng), cfg), 0)
            t2 = dense_operator(transfer(draw_complex(rng), cfg), 0)
            num = np.max(np.abs(t1 @ t2 - t2 @ t1))
            assert num / (np.max(np.abs(t1)) * np.max(np.abs(t2))) < 1e-11

    def test_vacuum_expectation(self, cfg3, rng):
        lam = draw_complex(rng)
        t = dense_operator(transfer(lam, cfg3), 0)
        pa = np.prod([weight_a(lam - mu, cfg3.gamma) for mu in cfg3.mu])
        pb = np.prod([weight_b(lam - mu) for mu in cfg3.mu])
        assert abs(t[0, 0] - (pa + pb)) < 1e-12 * abs(pa + pb)

    def test_entries_are_degree_L_polynomials(self, cfg3):
        # e^{L lam} T(lam) interpolates at degree L in x = e^{2 lam}; a fresh
        # sample point must match the interpolant
        L = cfg3.L
        nodes = 0.31 * np.arange(L + 1) + 0.17j * np.arange(L + 1)
        samples = np.array(
            [np.exp(L * lam) * dense_operator(transfer(lam, cfg3), 0) for lam in nodes]
        )
        vand = np.vander(np.exp(2 * nodes), L + 1, increasing=True)
        coeffs = np.linalg.solve(vand, samples.reshape(L + 1, -1))
        extra = 0.11 + 0.23j
        direct = np.exp(L * extra) * dense_operator(transfer(extra, cfg3), 0)
        fitted = (np.exp(2 * extra) ** np.arange(L + 1)) @ coeffs
        scale = max(np.max(np.abs(direct)), 1.0)
        assert np.max(np.abs(fitted.reshape(direct.shape) - direct)) / scale < 1e-9


class TestRtt:
    def test_equal_arguments_exact(self, cfg3):
        assert check_rtt(0.37 - 0.21j, 0.37 - 0.21j, cfg3) == 0.0

    @pytest.mark.parametrize("L", range(1, 6))
    def test_matches_the_dense_einsum_form(self, L, rng):
        # the products sum in sector order rather than ascending order, so
        # the residuals agree at roundoff
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        for _ in range(4):
            x, y = draw_complex(rng), draw_complex(rng)
            assert abs(check_rtt(x, y, cfg) - dense_rtt(x, y, cfg)) <= 1e-15
        assert check_rtt(x, x, cfg) == 0.0

    def test_wrong_r_matrix_fails(self, cfg3, rng, monkeypatch):
        x, y = draw_complex(rng), draw_complex(rng)
        for wrong in wrong_r_matrices():
            monkeypatch.setattr(bpl.ybcore, "r_matrix", wrong)
            assert check_rtt(x, y, cfg3) > 1e-3

    def test_random_draws(self, rng):
        cfg = SpectralConfig.random_instance(3, 0, seed=23)
        for _ in range(5):
            assert check_rtt(draw_complex(rng), draw_complex(rng), cfg) < 1e-11

    @pytest.mark.parametrize("L", range(1, 6))
    def test_batch_equals_the_worst_one_draw_call_bit_for_bit(self, L, rng, monkeypatch):
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        x, y = draw_complex(rng, (2, 7))
        y[2] = x[2]
        alone = max(check_rtt(a, b, cfg) for a, b in zip(x, y))
        assert check_rtt(x, y, cfg).hex() == alone.hex()
        # chunks of three draws: a chunk boundary falls inside the batch
        entries = bpl.blockbuild.rtt_entries(L)
        monkeypatch.setattr(bpl.blockbuild, "BATCH_ENTRIES", 3 * entries)
        assert check_rtt(x, y, cfg).hex() == alone.hex()
        # the draws broadcast: one x against every y
        assert check_rtt(x[0], y, cfg).hex() == max(check_rtt(x[0], b, cfg) for b in y).hex()

    def test_suite_draws_cross_a_chunk_boundary(self):
        cfg = SpectralConfig.random_instance(4, 2, seed=0)
        assert bpl.blockbuild.chunks(20, bpl.blockbuild.rtt_entries(4)) == [slice(0, 15),
                                                                          slice(15, 20)]
        x, y = _draws(cfg, "rtt", 20, width=2).T
        alone = max(check_rtt(a, b, cfg) for a, b in zip(x, y))
        assert check_rtt(x, y, cfg).hex() == alone.hex()

    def test_suite_draws_on_five_sites_match_the_dense_form(self):
        # the draws of verify-rtt on a larger instance, in chunks of five
        cfg = _on_sites(SpectralConfig.random_instance(9, 3, seed=0), 5, 0)
        assert [c.stop - c.start for c in bpl.blockbuild.chunks(20, bpl.blockbuild.rtt_entries(5))] \
            == [5, 5, 5, 5]
        x, y = _draws(cfg, "rtt", 20, width=2).T
        alone = [check_rtt(a, b, cfg) for a, b in zip(x, y)]
        for a, b, one in zip(x, y, alone):
            assert abs(one - dense_rtt(a, b, cfg)) <= 1e-15
        assert check_rtt(x, y, cfg).hex() == max(alone).hex()

    def test_zeros_of_one_draws_r_skip_no_cell_of_the_others(self, cfg3, rng, monkeypatch):
        # a charge-breaking entry that vanishes at x = y: a batch opening with
        # x = y must still reach the cells it breaks in the other draws
        right = bpl.ybcore.r_matrix

        def breaking(x, gamma):
            r = right(x, gamma).copy()
            r[..., 0, 3] = 0.3 * np.sinh(x)
            return r

        monkeypatch.setattr(bpl.ybcore, "r_matrix", breaking)
        x, y = draw_complex(rng, (2, 4))
        y[0] = x[0]
        alone = max(check_rtt(a, b, cfg3) for a, b in zip(x, y))
        assert alone > 1e-3
        assert check_rtt(x, y, cfg3).hex() == alone.hex()

    @pytest.mark.parametrize("L", range(1, 6))
    def test_reversed_r_argument_fails(self, L, rng, monkeypatch):
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        right = bpl.ybcore.r_matrix
        monkeypatch.setattr(bpl.ybcore, "r_matrix", lambda x, gamma: right(-np.asarray(x), gamma))
        x, y = draw_complex(rng, (2, 3))
        assert check_rtt(x, y, cfg) > 1e-3

    @pytest.mark.parametrize("L", range(1, 6))
    def test_r_matrix_without_zeros_matches_the_dense_form(self, L, rng, monkeypatch):
        # every auxiliary cell of both sides is reached, none is skipped
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        right = bpl.ybcore.r_matrix

        def full(x, gamma):
            return right(x, gamma) + 0.1 + 0.2j

        x, y = draw_complex(rng, (2, 3))
        monkeypatch.setattr(bpl.ybcore, "r_matrix", full)
        alone = [check_rtt(a, b, cfg) for a, b in zip(x, y)]
        for a, b, one in zip(x, y, alone):
            assert one == pytest.approx(dense_rtt(a, b, cfg, full), rel=1e-12)
        assert check_rtt(x, y, cfg).hex() == max(alone).hex()

    @pytest.mark.parametrize("L", range(1, 6))
    def test_arrays_of_draws_match_the_dense_einsum_form(self, L, rng):
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        x, y = draw_complex(rng, (2, 4))
        dense = max(dense_rtt(a, b, cfg) for a, b in zip(x, y))
        assert abs(check_rtt(x, y, cfg) - dense) <= 1e-15

    def test_equal_arguments_inside_a_batch_exact(self, rng):
        for L in range(1, 6):
            cfg = SpectralConfig.random_instance(L, 0, seed=L)
            x = draw_complex(rng, (6,))
            assert check_rtt(x, x, cfg) == 0.0

    def test_charge_breaking_r_matrix_fails(self, cfg3, rng, monkeypatch):
        right = bpl.ybcore.r_matrix

        def breaking(x, gamma):
            r = right(x, gamma).copy()
            r[..., 0, 3] = 0.3
            return r

        x, y = draw_complex(rng, (2, 3))
        monkeypatch.setattr(bpl.ybcore, "r_matrix", breaking)
        assert check_rtt(x, y, cfg3) > 1e-3
        assert check_rtt(x, x, cfg3) > 1e-3
        # every entry of R is mixed in, as in the dense form
        for a, b in zip(x, y):
            assert check_rtt(a, b, cfg3) == pytest.approx(dense_rtt(a, b, cfg3, breaking),
                                                          rel=1e-12)

    def test_memory_stays_below_the_dense_form(self):
        # tracemalloc peaks of the dense sector-ordered form this replaced:
        # 447 KiB for the suite at L = 4, 1,563 KiB for its 20 draws at L = 5
        cfg = SpectralConfig.random_instance(4, 2, seed=0)
        rtt5 = _on_sites(SpectralConfig.random_instance(9, 3, seed=0), 5, 0)
        x, y = _draws(rtt5, "rtt", 20, width=2).T
        runs = [(lambda: suite_verify_rtt(Artifacts(cfg)), 447 * 1024),
                (lambda: check_rtt(x, y, rtt5), 1563 * 1024)]
        for run, bound in runs:
            run()  # compiled plans and index caches are built once per process
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_b_operators_commute(self, cfg3, rng):
        x, y = draw_complex(rng), draw_complex(rng)
        bx = dense_operator(monodromy(x, cfg3).b, 1)
        by = dense_operator(monodromy(y, cfg3).b, 1)
        num = np.max(np.abs(bx @ by - by @ bx))
        assert num / (np.max(np.abs(bx)) * np.max(np.abs(by))) < 1e-12


def random_draws(rng, count, width):
    return [[draw_complex(rng) for _ in range(width)] for _ in range(count)]


class TestOffRelations:
    @pytest.mark.parametrize("n,L", [(1, 2), (2, 3), (3, 4)])
    def test_random_draws(self, n, L, rng):
        cfg = SpectralConfig.random_instance(L, n, seed=L * 10 + n)
        res = check_off_relations(random_draws(rng, 1, n + 1), cfg)
        assert res.a_relation < 1e-10
        assert res.d_relation < 1e-10
        assert res.transfer_identity < 1e-10

    @pytest.mark.parametrize("L,n", [(4, 0), (4, 2), (5, 3), (5, 0), (4, 4), (9, 3)])
    def test_matches_two_pass_reference(self, L, n, rng):
        # each draw alone, then the maximum over the draws in one call.  The
        # reference forms every side densely and the check applies it to
        # probe vectors, a different measure of the same roundoff, so both
        # read below 1e-12 and agree to 1e-13 rather than bit for bit
        cfg = SpectralConfig.random_instance(L, n, seed=L * 10 + n)
        draws = random_draws(rng, 3 if L < 9 else 1, n + 1)
        refs = [two_pass_off_relations(d[0], d[1:], cfg) for d in draws]
        for d, ref in zip(draws, refs):
            got = check_off_relations([d], cfg)
            assert max(got) < 1e-12 and max(ref) < 1e-12
            assert np.max(np.abs(np.subtract(got, ref))) <= 1e-13
        got = check_off_relations(draws, cfg)
        assert np.max(np.abs(np.subtract(got, np.max(refs, axis=0)))) <= 1e-13

    def test_error_in_one_b_entry_fails_both_forms(self, monkeypatch):
        # a relative error of 1e-6 in the largest entry of every built B[3];
        # at the suite's first draw at L = 9, n = 3 the check reads 5.2e-7
        # in its comparison with the block build, and the dense form 8.6e-6
        cfg = SpectralConfig.random_instance(9, 3, seed=0)
        original = bpl.ybcore.monodromies

        def perturbed(lams, cfg, top=None, ops="abcd"):
            for m in original(lams, cfg, top, ops):
                b = list(m.b)
                b[3] = b[3].copy()
                b[3][np.unravel_index(np.argmax(np.abs(b[3])), b[3].shape)] *= 1 + 1e-6
                yield m._replace(b=tuple(b))

        monkeypatch.setattr(bpl.ybcore, "monodromies", perturbed)
        draw = next(iter(_draws(cfg, "off", 1, width=4)))
        assert max(check_off_relations([draw], cfg)) > 1e-9
        assert max(two_pass_off_relations(draw[0], draw[1:], cfg)) > 1e-9

    def test_empty_set_trivial(self, cfg3, rng):
        res = check_off_relations([[draw_complex(rng)]], cfg3)
        assert res.a_relation == 0.0
        assert res.d_relation == 0.0
        assert 0 < res.operator_agreement < 1e-14
        assert check_off_relations([], cfg3) == (0.0, 0.0, 0.0, 0.0)
        # more B operators than sites: every side is zero, and the operator
        # is still compared with the block build
        res = check_off_relations(random_draws(rng, 1, cfg3.L + 2), cfg3)
        assert res[:3] == (0.0, 0.0, 0.0)
        assert 0 < res.operator_agreement < 1e-14

    def test_coincident_rapidities_rejected(self, cfg3, rng):
        lam = 0.4 + 0.1j
        for draws in ([[lam, lam + 1e-9]], random_draws(rng, 2, 2) + [[lam, lam]]):
            with pytest.raises(CoincidentRapiditiesError, match="singular"):
                check_off_relations(draws, cfg3)

    def test_draws_of_any_shape_equal_the_per_draw_results(self, rng):
        # draws of other widths take other chains and probe blocks; the
        # operator is compared at the first draw's lam0 only
        cfg = SpectralConfig.random_instance(5, 2, seed=12)
        draws = random_draws(rng, 2, 3) + random_draws(rng, 1, 1) + random_draws(rng, 2, 2)
        got = check_off_relations(draws, cfg)
        alone = [check_off_relations([draw], cfg) for draw in draws]
        for field, values in zip(got[:3], zip(*alone)):
            assert field.hex() == max(values).hex()
        assert got.operator_agreement.hex() == alone[0].operator_agreement.hex()


def to_split(v):
    """A (2^L, c) block of full-space vectors as a C-contiguous split block,
    (2^(L // 2), c, 2^(L - L // 2))."""
    L = len(v).bit_length() - 1
    return np.ascontiguousarray(v.reshape(2 ** (L // 2), -1, v.shape[1]).transpose(0, 2, 1))


def from_split(w):
    """A split block as (2^L, c) full-space vectors."""
    return w.transpose(0, 2, 1).reshape(-1, w.shape[1])


def split_at(lams, cfg):
    """The split monodromies at ``lams``, one row each."""
    return bpl.splitlattice.split_monodromies(*bpl.ybcore._weights(np.array(lams, complex), cfg))


class TestSplitLattice:
    @pytest.mark.parametrize("L", range(1, 10))
    def test_every_operator_equals_the_kronecker_reference(self, L, rng):
        # each M_ab applied to the identity, against the dense Kronecker
        # build; at L = 1 the left half has no site.  Every product reuses
        # one output block and one scratch buffer, both first filled with
        # NaN, and writes its columns in two blocks of that output
        cfg = SpectralConfig.random_instance(L, 0, seed=L)
        eye = to_split(np.eye(2**L, dtype=complex))
        out = np.full(eye.shape, np.nan, dtype=complex)
        scratch = np.full(2 * eye.size, np.nan, dtype=complex)
        cut = 2**L // 3
        for lam in (draw_complex(rng), draw_complex(rng), 0.0):
            split = split_at([lam], cfg)
            assert split.left.shape[-1] == 2 ** (L // 2)
            for (a, b), ref in zip([(0, 0), (0, 1), (1, 0), (1, 1)], kron_monodromy(lam, cfg)):
                split.apply(0, a, b, eye, [out[:, :cut], out[:, cut:]], scratch)
                assert np.max(np.abs(from_split(out) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_wrong_half_fails_the_operator_agreement(self, monkeypatch):
        # the right half's sites in reverse order, the weights a and b
        # swapped, and the left half's auxiliary indices swapped.  The
        # reversed lattice still satisfies the exchange relations; only the
        # comparison with the block build sees it
        cfg = SpectralConfig.random_instance(6, 2, seed=0)
        draws = _draws(cfg, "off", 3, width=3)
        original = bpl.splitlattice.split_monodromies

        def reversed_right(wa, wb, c):
            wa, wb = (np.concatenate([w[:, :3], w[:, :2:-1]], axis=1) for w in (wa, wb))
            return original(wa, wb, c)

        def swapped_aux(wa, wb, c):
            split = original(wa, wb, c)
            return split._replace(left=split.left.swapaxes(1, 2))

        wrongs = [reversed_right, lambda wa, wb, c: original(wb, wa, c), swapped_aux]
        assert check_off_relations(draws, cfg).operator_agreement < 1e-14
        for wrong in wrongs:
            monkeypatch.setattr(bpl.splitlattice, "split_monodromies", wrong)
            res = check_off_relations(draws, cfg)
            assert res.operator_agreement > 1e-9
            [record] = suite_verify_off(Artifacts(cfg))
            assert not record.passed and record.residual == max(record.extra[f] for f in res._fields)
        monkeypatch.setattr(bpl.splitlattice, "split_monodromies", reversed_right)
        assert max(check_off_relations(draws, cfg)[:3]) < 1e-12

    @pytest.mark.parametrize("L,n", [(1, 1), (2, 0), (4, 2), (7, 3), (9, 3)])
    def test_batch_equals_the_worst_one_draw_call_bit_for_bit(self, L, n):
        cfg = SpectralConfig.random_instance(L, n, seed=L + n)
        draws = _draws(cfg, "off", 10 if L < 9 else 3, width=n + 1)
        got = check_off_relations(draws, cfg)
        alone = [check_off_relations([draw], cfg) for draw in draws]
        for field, values in zip(got[:3], zip(*alone)):
            assert field.hex() == max(values).hex()
        assert got.operator_agreement.hex() == alone[0].operator_agreement.hex()

    def test_mixed_widths_share_one_workspace(self, rng):
        # widths 1 .. L + 2 in one call: the workspace is sized for the
        # widest draw that runs (L + 1) and sliced for each narrower one, and
        # the first draw, too wide to run, still gives the agreement.  Both
        # forms read up to 6e-13 at n = L (two measures of the same
        # roundoff, as in test_matches_two_pass_reference), so they agree to
        # 1e-12 here
        cfg = SpectralConfig.random_instance(6, 2, seed=5)
        draws = [random_draws(rng, 1, width)[0] for width in (8, 3, 1, 7, 5, 2, 4, 6)]
        got = check_off_relations(draws, cfg)
        alone = [check_off_relations([draw], cfg) for draw in draws]
        for field, values in zip(got[:3], zip(*alone)):
            assert field.hex() == max(values).hex()
        assert got.operator_agreement.hex() == alone[0].operator_agreement.hex()
        refs = [two_pass_off_relations(d[0], d[1:], cfg) for d in draws]
        assert max(got) < 1e-11 and np.max(refs) < 1e-11
        assert np.max(np.abs(np.subtract(got, np.max(refs, axis=0)))) <= 1e-12

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_one_site_matches_the_two_pass_reference(self, width, rng):
        # n = 0, n = L and n > L on the lattice whose left half is empty
        cfg = SpectralConfig.random_instance(1, 1, seed=3)
        draws = random_draws(rng, 3, width)
        got = check_off_relations(draws, cfg)
        refs = [two_pass_off_relations(d[0], d[1:], cfg) for d in draws]
        assert max(got) < 1e-12
        assert np.max(np.abs(np.subtract(got, np.max(refs, axis=0)))) <= 1e-13
        if width > 2:
            assert got[:3] == (0.0, 0.0, 0.0)

    def test_memory_stays_below_the_block_build_form(self):
        # the tracemalloc peak of the form this replaced, which built A, B
        # and D of every draw into one reused set of result buffers:
        # 10,952,288 B for the suite's draws at L = 9, n = 3
        cfg = SpectralConfig.random_instance(9, 3, seed=0)
        draws = _draws(cfg, "off", 10, width=4)
        check_off_relations(draws, cfg)  # compiled plans and index caches
        tracemalloc.start()
        try:
            check_off_relations(draws, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10_952_288

    def test_draws_add_no_memory_to_one_call(self):
        # every draw runs in one workspace, and each draw's halves are
        # dropped before the next draw's are built, so the suite's ten draws
        # at L = 9, n = 3 peak within 64 KB of its first draw alone, and no
        # higher than the form that allocated per product (3,938,520 B on
        # numpy 2.4, x86_64; the bound leaves 70 KB for other builds)
        cfg = SpectralConfig.random_instance(9, 3, seed=0)
        draws = _draws(cfg, "off", 10, width=4)
        peaks = []
        for batch in (draws[:1], draws):
            check_off_relations(batch, cfg)  # compiled plans and index caches
            tracemalloc.start()
            try:
                check_off_relations(batch, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024
        assert peaks[1] <= 4_010_000

    @pytest.mark.parametrize("L", range(17))
    def test_sector_indices_equal_the_loop_over_states(self, L):
        counts = [bin(i).count("1") for i in range(2**L)]
        for k in range(-1, L + 2):
            got = sector_indices.__wrapped__(L, k)
            ref = np.array([i for i, c in enumerate(counts) if c == k], dtype=int)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert not got.flags.writeable


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
        assert abs(eigs.eigenvalues(transfer(lam, cfg)[0])[0] - expect) < 1e-12 * abs(expect)

    def test_third_probe_consistency(self, cfg3, rng):
        eigs = spectrum(cfg3, 2)
        assert len(eigs) == 3
        lam3 = draw_complex(rng)
        for e in range(len(eigs)):
            right, left = reference_eigen_residuals(eigs, e, transfer(lam3, cfg3))
            assert right < 1e-10 and left < 1e-10

    @pytest.mark.parametrize("L,n", [(3, 2), (7, 2), (6, 3)])
    def test_sector_residuals_equal_the_one_eigenpair_residuals(self, L, n, rng):
        # one product per side for the sector against one eigenpair at a
        # time: the same residuals up to the rounding of the products
        cfg = SpectralConfig.random_instance(L, n, seed=4)
        eigs = spectrum(cfg, n)
        t = transfer(draw_complex(rng), cfg)
        norm = bpl.ybcore.max_abs(t)
        batched = eigs.residuals(t, norm)
        assert batched.shape == (len(eigs), 2)
        for e, row in enumerate(batched):
            assert np.allclose(row, reference_eigen_residuals(eigs, e, t, norm), rtol=0, atol=1e-14)
        assert eigenpair_rows(eigs, slice(0)).residuals(t, norm).shape == (0, 2)

    @pytest.mark.parametrize("L,n", [(3, 2), (7, 2), (6, 3), (9, 3)])
    def test_stacked_reads_equal_the_one_eigenpair_formula(self, L, n, rng):
        # every row's <left|right> and <left| T |right> / <left|right> is
        # the one-eigenpair value, hex for hex
        cfg = SpectralConfig.random_instance(L, n, seed=4)
        eigs = spectrum(cfg, n)
        blk = transfer(draw_complex(rng), cfg)[n]
        values = eigs.eigenvalues(blk)
        for e, (left, right) in enumerate(zip(eigs.lefts, eigs.rights)):
            assert bits(eigs.norms[e]) == bits(left @ right)
            assert bits(values[e]) == bits(reference_eigenvalue(left, right, blk))

    @pytest.mark.parametrize("L,n,seed", [(4, 2, 0), (6, 3, 5), (7, 2, 0), (8, 1, 3)])
    def test_rows_are_sorted_by_the_first_probe_eigenvalue(self, L, n, seed):
        # the sort key: each eigenvalue at probe 0, rounded to 9 decimals,
        # real part first; the rows are those of an unsorted decomposition
        cfg = SpectralConfig.random_instance(L, n, seed=seed)
        eigs = spectrum(cfg, n)
        blk = transfer(eigs.probes[0], cfg)[n]
        keys = []
        for left, right in zip(eigs.lefts, eigs.rights):
            val = reference_eigenvalue(left, right, blk)
            keys.append((round(val.real, 9), round(val.imag, 9)))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert eigs.lefts.flags.c_contiguous and eigs.rights.flags.c_contiguous
        assert np.allclose(eigs.lefts @ eigs.rights.T, np.diag(eigs.norms), rtol=0, atol=1e-10)

    def test_left_vector_probe_independent(self, cfg3, rng):
        # the dual eigenvector serves every rapidity at once
        eigs = spectrum(cfg3, 1)
        for lam in [draw_complex(rng) for _ in range(3)]:
            for e in range(len(eigs)):
                _, left_resid = reference_eigen_residuals(eigs, e, transfer(lam, cfg3))
                assert left_resid < 1e-10

    def test_clusters_equal_the_scalar_scan(self, rng):
        # the greedy scan this replaced, one abs per pair: the same clusters
        # in the same order, on exact repeats, near repeats and chains whose
        # ends lie more than tol apart
        def scan(ev, tol):
            used, out = [False] * len(ev), []
            for i in range(len(ev)):
                if not used[i]:
                    cluster = [j for j in range(len(ev)) if not used[j] and abs(ev[j] - ev[i]) < tol]
                    for j in cluster:
                        used[j] = True
                    out.append(cluster)
            return out

        base = draw_complex(rng, 6)
        chain = 0.3 + 0.6e-8 * np.arange(5)
        for ev in (base, np.repeat(base, 3), np.concatenate([base, base + 1e-10, chain]),
                   np.concatenate([chain[::-1], base[:2], chain])):
            ev = rng.permutation(ev)
            got = bpl.ybcore.eigenvalue_clusters(ev, 1e-8)
            assert [c.tolist() for c in got] == scan(ev, 1e-8)

    def test_unresolved_probes_raise_with_probes_and_cluster_sizes(self, monkeypatch):
        # the first probe's sector block is swapped for one with a doubly
        # degenerate eigenvalue that does not commute with the second
        # probe's, so the refined eigenpairs fail at the second probe however
        # loose the tolerance
        cfg = SpectralConfig.random_instance(4, 1, seed=0, tol=1e-3)
        seen = []
        original = bpl.ybcore.monodromies

        class Broken(NamedTuple):
            t: tuple

            def transfer(self):
                return self.t

        def broken(lams, cfg, top=None, ops="abcd"):
            for m in original(lams, cfg, top, ops):
                t = m.transfer()
                seen.append(lams[len(seen)])
                if len(seen) == 1:
                    t = t[:1] + (np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex),) + t[2:]
                yield Broken(t)

        monkeypatch.setattr(bpl.ybcore, "monodromies", broken)
        with pytest.raises(DegeneracyError, match="residual") as info:
            spectrum(cfg, 1)
        err = info.value
        assert err.probes == tuple(seen) and len(seen) == 2
        assert err.cluster_sizes == (2,)
        assert "[2]" in str(err)
        assert f"{err.probes[0]:.6g}" in str(err) and f"{err.probes[1]:.6g}" in str(err)
