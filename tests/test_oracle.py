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

    def test_box_must_fit_grid(self, grid8, rng):
        # on n = 8 the rows ky = -4 and ky = +4 are one stored row, so a box of
        # radius 4 would read one mode twice and write two modes to one slot
        u = sp.random_field(grid8, rng, kmax=2.0)
        with pytest.raises(orc.RadiusTooLarge, match="radius 4.*n = 8"):
            orc.dense_from_spectral(u, 4)
        with pytest.raises(orc.RadiusTooLarge, match="radius 4.*n = 8"):
            orc.dense_to_spectral(orc.DenseModeSet(4), grid8)
        # the largest box that fits reads every row once
        back = orc.dense_to_spectral(orc.dense_from_spectral(u, 3), grid8)
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
            d0, None, adapter, nu=0.4, t_end=1.0, dt_ref=1e-3
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
                d0, None, adapter, nu=0.3, t_end=0.5, dt_ref=dt
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
            d0, d0.copy(), adapter, nu=0.3, t_end=1.0,
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
                d0, d0.copy(), adapter, nu=0.1, t_end=5.0,
                dt_ref=1e-2, K=2.0, matrix=matrix,
            )


    def test_blowup_guard_watches_second_copy(self, grid8):
        # only the second copy is amplified (m22 = 50 on its low modes) while
        # the first decays, so a guard on the first copy alone never fires
        u = sp.field_from_modes(grid8, [(1, 0, (0.0, 1.0))])
        d0 = orc.dense_from_spectral(u, 2, keep_radius=grid8.dealias_radius)
        matrix = dyn.IntertwiningMatrix.general(0.0, 0.0, 0.0, 50.0)
        zero_pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid8)))
        adapter = orc.DenseForcingAdapter(zero_pair, radius=2)
        with pytest.raises(orc.BlowupDetected) as caught:
            orc.dense_trajectory(
                d0, d0.copy(), adapter, nu=0.1, t_end=5.0,
                dt_ref=1e-2, K=2.0, matrix=matrix,
            )
        # |v2| grows like exp(49.9 t) from about 4.4, so it crosses 1e8 near t = 0.34
        assert caught.value.t < 0.5


def _boundary_rk4_step(d1, d2, adapter, nu, dt, K, matrix):
    """One RK4 step written with DenseModeSet arithmetic over the public functions."""

    def rhs(a, b, t):
        B1 = orc.dense_bilinear_B(a, a)
        f1 = adapter.g1_dense(t) - nu * orc.dense_stokes(a, 2) - B1
        if matrix is None:
            return f1, None
        B2 = orc.dense_bilinear_B(b, b)
        f2 = adapter.g2_dense(t) - nu * orc.dense_stokes(b, 2) - B2
        x1, x2 = (B1, B2) if matrix.is_direct_replacement else (a, b)
        c1, c2 = orc._dense_project_low(x1, K), orc._dense_project_low(x2, K)
        m = matrix.entries
        return f1 + (m[0, 0] * c1 + m[0, 1] * c2), f2 + (m[1, 0] * c1 + m[1, 1] * c2)

    def shift(a, b, h, k):
        return a + h * k[0], (b + h * k[1] if b is not None else None)

    k1 = rhs(d1, d2, 0.0)
    k2 = rhs(*shift(d1, d2, 0.5 * dt, k1), 0.5 * dt)
    k3 = rhs(*shift(d1, d2, 0.5 * dt, k2), 0.5 * dt)
    k4 = rhs(*shift(d1, d2, dt, k3), dt)
    ends = []
    for i, v in enumerate((d1, d2)):
        if v is None:
            ends.append(None)
            continue
        ends.append(v + (dt / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
    return ends


class TestDenseKernel:
    SYSTEMS = [
        ("nse", None),
        ("nudging", dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5)),
        ("direct_replacement", dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75)),
    ]

    @pytest.fixture
    def setup(self, grid8, rng):
        keep = grid8.dealias_radius
        pair = fr.ForcingPair.synchronized(
            fr.SteadyForcing(fr.kolmogorov_force(grid8, 0.2, 2))
        )
        adapter = orc.DenseForcingAdapter(pair, radius=2, keep_radius=keep)
        d1, d2 = (
            orc.dense_from_spectral(sp.random_field(grid8, rng, energy=0.6, kmax=keep), 2, keep_radius=keep)
            for _ in range(2)
        )
        return adapter, d1, d2

    @pytest.mark.parametrize("matrix", [m for _, m in SYSTEMS], ids=[s for s, _ in SYSTEMS])
    def test_one_step_matches_boundary_functions(self, setup, matrix):
        adapter, d1, d2 = setup
        dt, nu, K = 1e-2, 0.3, 2.0
        second = d2 if matrix is not None else None
        expect = _boundary_rk4_step(d1, second, adapter, nu, dt, K, matrix)
        _, final = orc.dense_trajectory(
            d1, second, adapter, nu, t_end=dt, dt_ref=dt, K=K, matrix=matrix
        )
        for got, want in zip(final, expect):
            if want is None:
                assert got is None
                continue
            assert orc.dense_l2(got - want) <= 1e-14 * orc.dense_l2(want)

    def test_sample_times_are_whole_steps(self, setup):
        adapter, d1, d2 = setup
        dt = 1e-2
        samples, _ = orc.dense_trajectory(
            d1, d2, adapter, nu=0.3, t_end=30 * dt, dt_ref=dt, K=2.0,
            matrix=dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5), sample_every=3 * dt,
        )
        assert [s[0] for s in samples] == [k * dt for k in range(0, 31, 3)]

    def test_final_time_is_sampled(self, setup):
        # sample_every = 0.25 is 62.5 steps of 4e-3: the stride rounds to 62,
        # and the last sample still lands at t_end = 1, as in dynamics.integrate
        adapter, d1, d2 = setup
        samples, _ = orc.dense_trajectory(
            d1, d2, adapter, nu=0.3, t_end=1.0, dt_ref=4e-3, K=2.0,
            matrix=dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5), sample_every=0.25,
        )
        assert [s[0] for s in samples] == [k * 4e-3 for k in (0, 62, 124, 186, 248, 250)]
        assert samples[-1][0] == 1.0

    def test_matrix_needs_second_copy(self, setup):
        adapter, d1, _ = setup
        matrix = dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75)
        with pytest.raises(ValueError, match="second copy"):
            orc.dense_trajectory(d1, None, adapter, nu=0.3, t_end=1e-2, dt_ref=1e-2, K=2.0, matrix=matrix)

    def test_partial_final_step_rejected(self, setup):
        adapter, d1, _ = setup
        with pytest.raises(ValueError, match="whole number of steps"):
            orc.dense_trajectory(d1, None, adapter, nu=0.3, t_end=0.055, dt_ref=1e-2)

    def test_members_bitwise_equal_to_lone_runs(self, setup, grid8):
        # the three systems, one with its own decaying-pair force and
        # cutoff, advance as one stack of five copies
        adapter, d1, d2 = setup
        keep = grid8.dealias_radius
        delta = sp.random_field(grid8, np.random.default_rng(5), energy=0.1, kmax=2.0)
        pair = fr.ForcingPair.decaying_delta(fr.SteadyForcing(fr.kolmogorov_force(grid8, 0.2, 2)), delta, 1.5)
        decaying = orc.DenseForcingAdapter(pair, radius=2, keep_radius=keep)
        systems = [(d1, None if m is None else d2, adapter, 2.0, m) for _, m in self.SYSTEMS]
        systems.append((d2, d1, decaying, 1.5, dyn.IntertwiningMatrix.nudge_mutual(2.0, 1.0)))
        runs = orc.dense_trajectories(systems, 0.3, 0.2, dt_ref=1e-2, sample_every=0.05)
        for (v1_0, v2_0, forcing, K, matrix), (samples, final) in zip(systems, runs):
            lone_samples, lone_final = orc.dense_trajectory(
                v1_0, v2_0, forcing, 0.3, 0.2, dt_ref=1e-2, K=K, matrix=matrix, sample_every=0.05
            )
            got = samples + [(None, *final)]
            want = lone_samples + [(None, *lone_final)]
            assert len(got) == len(want) == 6
            for (t, a, b), (t_lone, a_lone, b_lone) in zip(got, want):
                assert t == t_lone
                assert a.coeffs.tobytes() == a_lone.coeffs.tobytes()
                assert (b is None) == (v2_0 is None) == (b_lone is None)
                if b is not None:
                    assert b.coeffs.tobytes() == b_lone.coeffs.tobytes()

    def test_blown_up_member_frozen(self, setup, grid8):
        # the anti-damped pair of test_blowup_guard_watches_second_copy
        # diverges near t = 0.34; the others go on, bitwise as alone
        adapter, d1, d2 = setup
        u = sp.field_from_modes(grid8, [(1, 0, (0.0, 1.0))])
        d0 = orc.dense_from_spectral(u, 2, keep_radius=grid8.dealias_radius)
        wild = (d0, d0.copy(), adapter, 2.0, dyn.IntertwiningMatrix.general(0.0, 0.0, 0.0, 50.0))
        calm = [(d1, None if m is None else d2, adapter, 2.0, m) for _, m in self.SYSTEMS]
        runs = orc.dense_trajectories([calm[0], wild, *calm[1:]], 0.3, 0.5, dt_ref=1e-2)
        assert isinstance(runs[1], orc.BlowupDetected) and runs[1].t < 0.5
        for (v1_0, v2_0, forcing, K, matrix), (_, final) in zip(calm, runs[:1] + runs[2:]):
            _, lone = orc.dense_trajectory(v1_0, v2_0, forcing, 0.3, 0.5, dt_ref=1e-2, K=K, matrix=matrix)
            for got, want in zip(final, lone):
                assert (got is None and want is None) or got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_oracle_calls_no_transform(self, setup, monkeypatch):
        adapter, d1, d2 = setup
        adapter.g1_dense(0.0), adapter.g2_dense(0.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("the dense oracle called a transform")

        for name in dir(np.fft):
            if not name.startswith("_") and callable(getattr(np.fft, name)):
                monkeypatch.setattr(np.fft, name, forbidden)
        with pytest.raises(AssertionError, match="called a transform"):
            np.fft.rfft2(np.zeros((4, 4)))
        for _, matrix in self.SYSTEMS:
            orc.dense_trajectory(
                d1, d2 if matrix is not None else None, adapter, nu=0.3, t_end=0.05,
                dt_ref=1e-2, K=2.0, matrix=matrix,
            )
        orc.dense_bilinear_B(d1, d2)


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
