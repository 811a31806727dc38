"""Dense-convolution and RK4 reference implementations."""

import numpy as np
import pytest

from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import oracle as orc
from intertwine import spectral as sp


@pytest.fixture
def dense_pair(grid16, rng):
    u = sp.random_field(grid16, rng, energy=1.0, kmax=4.0)
    v = sp.random_field(grid16, rng, energy=1.0, kmax=4.0)
    return (
        orc.dense_from_spectral(u, 4),
        orc.dense_from_spectral(v, 4),
        u,
        v,
    )


class TestDenseBilinear:
    def test_radius_cap(self):
        with pytest.raises(orc.RadiusTooLarge):
            orc.DenseModeSet(5)
        with pytest.raises(orc.RadiusTooLarge):
            orc.DenseModeSet(0)

    def test_shear_self_advection(self, grid16):
        shear = sp.field_from_modes(grid16, [(0, 1, (0.5 / 1j, 0.0))])
        d = orc.dense_from_spectral(shear, 2)
        assert orc.dense_l2(orc.dense_bilinear_B(d, d)) < 1e-16

    def test_skew_symmetry_tight(self, dense_pair, grid16, rng):
        du, dv, _, _ = dense_pair
        dw = orc.dense_from_spectral(sp.random_field(grid16, rng, kmax=4.0), 4)
        scale = orc.dense_l2(du) * orc.dense_l2(dv) * orc.dense_l2(dw)
        resid = orc.dense_trilinear_b(du, dv, dw) + orc.dense_trilinear_b(du, dw, dv)
        assert abs(resid) <= 1e-13 * scale

    def test_enstrophy_identities_tight(self, dense_pair):
        du, dv, _, _ = dense_pair
        Au = orc.dense_stokes(du, 2)
        Av = orc.dense_stokes(dv, 2)
        scale = orc.dense_l2(du) ** 2 * orc.dense_l2(Au)
        assert abs(orc.dense_trilinear_b(du, du, Au)) <= 1e-13 * scale
        miracle = (
            orc.dense_trilinear_b(dv, dv, Au)
            + orc.dense_trilinear_b(du, dv, Av)
            + orc.dense_trilinear_b(dv, du, Av)
        )
        assert abs(miracle) <= 1e-13 * scale

    def test_agreement_with_pseudospectral(self, grid16, rng):
        # this is the oracle cross-check: same Galerkin ball, two algorithms
        worst = 0.0
        for _ in range(10):
            u = sp.random_field(grid16, rng, kmax=4.0)
            v = sp.random_field(grid16, rng, kmax=4.0)
            dense = orc.dense_to_spectral(
                orc.dense_bilinear_B(
                    orc.dense_from_spectral(u, 4), orc.dense_from_spectral(v, 4)
                ),
                grid16,
            )
            pseudo = sp.project_low(sp.bilinear_B(u, v), 4.0)
            worst = max(worst, (pseudo - dense).l2 / max(dense.l2, 1e-30))
        assert worst <= 1e-11

    def test_agreement_at_n8(self, grid8, rng):
        keep = grid8.dealias_radius
        worst = 0.0
        for _ in range(10):
            u = sp.random_field(grid8, rng, kmax=keep)
            v = sp.random_field(grid8, rng, kmax=keep)
            dense = orc.dense_to_spectral(
                orc.dense_bilinear_B(
                    orc.dense_from_spectral(u, 2, keep_radius=keep),
                    orc.dense_from_spectral(v, 2, keep_radius=keep),
                ),
                grid8,
            )
            pseudo = sp.bilinear_B(u, v)
            worst = max(worst, (pseudo - dense).l2 / max(dense.l2, 1e-30))
        assert worst <= 1e-11

    def test_roundtrip_spectral_dense(self, grid16, rng):
        u = sp.random_field(grid16, rng, kmax=4.0)
        back = orc.dense_to_spectral(orc.dense_from_spectral(u, 4), grid16)
        assert np.array_equal(back.coeffs, u.coeffs)


class TestDenseTrajectory:
    def _adapter(self, grid, amplitude=0.2):
        pair = fr.ForcingPair.synchronized(
            fr.SteadyForcing(fr.kolmogorov_force(grid, amplitude, 2))
        )
        return pair, orc.DenseForcingAdapter(pair, radius=2, keep_radius=grid.dealias_radius)

    def test_pure_diffusion_exact(self, grid8):
        u = sp.field_from_modes(grid8, [(1, 1, (0.3 / 1j, -0.3 / 1j))])
        d0 = orc.dense_from_spectral(u, 2, keep_radius=grid8.dealias_radius)
        zero_pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid8)))
        adapter = orc.DenseForcingAdapter(zero_pair, radius=2)
        _, (final, _) = orc.dense_trajectory(
            "nse", d0, None, adapter, nu=0.4, t_end=1.0, dt_ref=1e-3
        )
        # linear problem: RK4 reproduces exp(-nu |k|^2 t) to high order
        expect = d0.coeffs * np.exp(-0.4 * 2.0 * 1.0)
        assert np.abs(final.coeffs - expect).max() <= 1e-10

    def test_rk4_self_convergence(self, grid8, rng):
        u0 = sp.random_field(grid8, rng, energy=0.6, kmax=grid8.dealias_radius)
        d0 = orc.dense_from_spectral(u0, 2, keep_radius=grid8.dealias_radius)
        _, adapter = self._adapter(grid8)
        finals = []
        for dt in (0.02, 0.01, 0.005):
            _, (final, _) = orc.dense_trajectory(
                "nse", d0, None, adapter, nu=0.3, t_end=0.5, dt_ref=dt
            )
            finals.append(final)
        gap_coarse = orc.dense_l2(finals[0] - finals[1])
        gap_fine = orc.dense_l2(finals[1] - finals[2])
        order = np.log2(gap_coarse / gap_fine)
        assert order >= 3.8

    def test_synchronized_manifold_preserved(self, grid8, rng):
        u0 = sp.random_field(grid8, rng, energy=0.6, kmax=grid8.dealias_radius)
        d0 = orc.dense_from_spectral(u0, 2, keep_radius=grid8.dealias_radius)
        _, adapter = self._adapter(grid8)
        matrix = dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75)
        _, (f1, f2) = orc.dense_trajectory(
            "direct_replacement", d0, d0.copy(), adapter, nu=0.3, t_end=1.0,
            dt_ref=1e-3, K=2.0, matrix=matrix,
        )
        assert orc.dense_l2(f1 - f2) <= 1e-12 * orc.dense_l2(f1)

    def test_blowup_guard(self, grid8):
        u = sp.field_from_modes(grid8, [(1, 0, (0.0, 1.0))]) * 1e7
        d0 = orc.dense_from_spectral(u, 2, keep_radius=grid8.dealias_radius)
        # strong linear amplification through a general coupling matrix
        matrix = dyn.IntertwiningMatrix.general(50.0, 0.0, 0.0, 50.0)
        zero_pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid8)))
        adapter = orc.DenseForcingAdapter(zero_pair, radius=2)
        with pytest.raises(orc.BlowupDetected):
            orc.dense_trajectory(
                "nudging", d0, d0.copy(), adapter, nu=0.1, t_end=5.0,
                dt_ref=1e-2, K=2.0, matrix=matrix,
            )


class TestHeatExact:
    def test_unforced_decay(self, grid16, rng):
        p0 = sp.project_low(sp.random_field(grid16, rng), 3.0)
        pt = orc.heat_exact(p0, None, nu=0.5, t=2.0)
        expect = p0.half * np.exp(-0.5 * grid16.k2 * 2.0)
        assert np.abs(pt.half - expect).max() == 0.0

    def test_long_time_steady_state(self, grid16, rng):
        p0 = sp.project_low(sp.random_field(grid16, rng), 3.0)
        h = sp.project_low(sp.random_field(grid16, rng), 3.0)
        nu = 0.7
        pt = orc.heat_exact(p0, h, nu=nu, t=500.0)
        steady = np.zeros_like(h.half)
        nz = grid16.nonzero
        steady[:, nz] = h.half[:, nz] / (nu * grid16.k2[nz])
        assert np.abs(pt.half - steady).max() <= 1e-12

    def test_tail_bound_after_burn_in(self, grid16, rng):
        # sup_{t >= t0} |p|_V^2 <= 2 nu^2 (sup |h| / nu^2)^2 once t0 clears
        # the ln(nu |p0|_V / sup|h|) / nu burn-in window
        nu, N = 0.8, 3.0
        p0 = sp.project_low(sp.random_field(grid16, rng, energy=5.0), N)
        h = sp.project_low(sp.random_field(grid16, rng, energy=0.5), N)
        sup_h = h.l2
        t0 = max(0.0, (2.0 / nu) * np.log(nu * p0.h1 / sup_h))
        bound = 2.0 * nu**2 * (sup_h / nu**2) ** 2
        for t in np.linspace(t0, t0 + 20.0, 50):
            pt = orc.heat_exact(p0, h, nu, float(t))
            assert pt.h1**2 <= bound * (1 + 1e-12)
