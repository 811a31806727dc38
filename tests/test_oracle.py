"""Dense-convolution and RK4 reference implementations."""

import math
from dataclasses import replace

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
    return u, v


def _b(u, v, w):
    """The trilinear form b(u, v, w) = (B(u, v), w) through the dense convolution on |k| <= 4."""
    return sp.inner(orc.dense_bilinear_B(u, v, keep=4.0), w)


class TestDenseBilinear:
    def test_radius_cap(self, grid16, rng):
        # keep = 5 needs a box of radius 5, above MAX_RADIUS; keep = 0.5 a box of radius 0
        u = sp.random_field(grid16, rng, kmax=4.0)
        for keep in (5.0, 0.5):
            with pytest.raises(orc.RadiusTooLarge):
                orc.dense_bilinear_B(u, u, keep=keep)

    def test_shear_self_advection(self, grid16):
        shear = sp.field_from_modes(grid16, [(0, 1, (0.5 / 1j, 0.0))])
        assert orc.dense_bilinear_B(shear, shear, keep=2.0).l2 < 1e-16

    def test_skew_symmetry_tight(self, dense_pair, grid16, rng):
        u, v = dense_pair
        w = sp.random_field(grid16, rng, kmax=4.0)
        scale = u.l2 * v.l2 * w.l2
        resid = _b(u, v, w) + _b(u, w, v)
        assert abs(resid) <= 1e-13 * scale

    def test_enstrophy_identities_tight(self, dense_pair):
        u, v = dense_pair
        Au = sp.stokes_apply(u, 2)
        Av = sp.stokes_apply(v, 2)
        scale = u.l2**2 * Au.l2
        assert abs(_b(u, u, Au)) <= 1e-13 * scale
        miracle = _b(v, v, Au) + _b(u, v, Av) + _b(v, u, Av)
        assert abs(miracle) <= 1e-13 * scale

    def test_agreement_with_pseudospectral(self, grid16, rng):
        # this is the oracle cross-check: same Galerkin ball, two algorithms
        worst = 0.0
        for _ in range(10):
            u = sp.random_field(grid16, rng, kmax=4.0)
            v = sp.random_field(grid16, rng, kmax=4.0)
            dense = orc.dense_bilinear_B(u, v, keep=4.0)
            pseudo = sp.project_low(sp.bilinear_B(u, v), 4.0)
            worst = max(worst, (pseudo - dense).l2 / max(dense.l2, 1e-30))
        assert worst <= 1e-11

    def test_agreement_at_n8(self, grid8, rng):
        # the default ball is the grid's dealias ball
        keep = grid8.dealias_radius
        worst = 0.0
        for _ in range(10):
            u = sp.random_field(grid8, rng, kmax=keep)
            v = sp.random_field(grid8, rng, kmax=keep)
            dense = orc.dense_bilinear_B(u, v)
            pseudo = sp.bilinear_B(u, v)
            worst = max(worst, (pseudo - dense).l2 / max(dense.l2, 1e-30))
        assert worst <= 1e-11

    def test_roundtrip_spectral_dense(self, grid16, rng):
        u = sp.random_field(grid16, rng, kmax=4.0)
        kern = orc._Kernel(4.0, 1)
        back = sp.SpectralField(grid16, kern.write(grid16, kern.read([u]))[0])
        assert np.array_equal(back.coeffs, u.coeffs)

    def test_box_must_fit_grid(self, grid8, rng):
        # on n = 8 the rows ky = -4 and ky = +4 are one stored row, so a box of
        # radius 4 would read one mode twice and write two modes to one slot
        u = sp.random_field(grid8, rng, kmax=2.0)
        kern = orc._Kernel(4.0, 1)
        with pytest.raises(orc.RadiusTooLarge, match="radius 4.*n = 8"):
            kern.read([u])
        with pytest.raises(orc.RadiusTooLarge, match="radius 4.*n = 8"):
            kern.write(grid8, np.zeros((1, 2, kern.size), dtype=np.complex128))
        # the largest box that fits reads every row once
        kern = orc._Kernel(3.0, 1)
        back = sp.SpectralField(grid8, kern.write(grid8, kern.read([u]))[0])
        assert np.array_equal(back.coeffs, u.coeffs)

    def test_ball_must_fit_grid(self, grid8, rng):
        u = sp.random_field(grid8, rng, kmax=2.0)
        with pytest.raises(orc.RadiusTooLarge, match="radius 4.*n = 8"):
            orc.dense_bilinear_B(u, u, keep=4.0)

    def test_fields_must_share_a_grid(self, grid8, grid16, rng):
        u = sp.random_field(grid8, rng, kmax=2.0)
        v = sp.random_field(grid16, rng, kmax=2.0)
        with pytest.raises(ValueError, match="different grids"):
            orc.dense_bilinear_B(u, v, keep=2.0)

    def test_box_is_the_dealias_box(self):
        # the smallest box that holds the ball is the stepper's dealias box,
        # also for radii just below and just above a whole number
        for n in range(4, 129, 2):
            whole = math.floor(n / 3)
            near = (whole - 1e-9, whole - 1e-13, whole + 1e-13, whole + 1e-9)
            for radius in (None, *(r for r in near if sp.in_ball(r, n / 3))):
                grid = sp.Grid(n, radius)
                assert orc._box_radius(grid.dealias_radius) == grid.box_cols - 1


def _state(grid, v1, v2, forcing=None, matrix=None, nu=0.3, K=2.0):
    """The state the oracle steps; a zero force and the zero matrix (the
    plain system) by default."""
    return dyn.IntertwinedState(
        grid=grid, t=0.0, nu=nu, K=K, matrix=matrix or dyn.IntertwiningMatrix.zero(), v1=v1, v2=v2,
        forcing=forcing or fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid))),
    )


def _kolmogorov(grid, amplitude=0.2):
    return fr.ForcingPair.synchronized(fr.SteadyForcing(fr.kolmogorov_force(grid, amplitude, 2)))


class TestDenseTrajectory:
    def test_pure_diffusion_exact(self, grid8):
        u = sp.field_from_modes(grid8, [(1, 1, (0.3 / 1j, -0.3 / 1j))])
        final = orc.dense_trajectory(_state(grid8, u, u.copy(), nu=0.4), t_end=1.0, dt_ref=1e-3)
        # linear problem: RK4 reproduces exp(-nu |k|^2 t) to high order
        expect = u.half * np.exp(-0.4 * 2.0 * 1.0)
        assert final.t == 1.0
        assert np.abs(final.v1.half - expect).max() <= 1e-10

    def test_rk4_self_convergence(self, grid8, rng):
        u0 = sp.random_field(grid8, rng, energy=0.6, kmax=grid8.dealias_radius)
        state = _state(grid8, u0, u0.copy(), _kolmogorov(grid8))
        finals = []
        for dt in (0.02, 0.01, 0.005):
            finals.append(orc.dense_trajectory(state, t_end=0.5, dt_ref=dt).v1)
        gap_coarse = (finals[0] - finals[1]).l2
        gap_fine = (finals[1] - finals[2]).l2
        order = np.log2(gap_coarse / gap_fine)
        assert order >= 3.8

    def test_synchronized_manifold_preserved(self, grid8, rng):
        u0 = sp.random_field(grid8, rng, energy=0.6, kmax=grid8.dealias_radius)
        matrix = dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75)
        state = _state(grid8, u0, u0.copy(), _kolmogorov(grid8), matrix)
        final = orc.dense_trajectory(state, t_end=1.0, dt_ref=1e-3)
        assert (final.v1 - final.v2).l2 <= 1e-12 * final.v1.l2

    def test_blowup_guard(self, grid8):
        u = sp.field_from_modes(grid8, [(1, 0, (0.0, 1.0))]) * 1e7
        # strong linear amplification through a general coupling matrix
        matrix = dyn.IntertwiningMatrix.general(50.0, 0.0, 0.0, 50.0)
        with pytest.raises(orc.BlowupDetected):
            orc.dense_trajectory(_state(grid8, u, u.copy(), matrix=matrix, nu=0.1), t_end=5.0, dt_ref=1e-2)


    def test_blowup_guard_watches_second_copy(self, grid8):
        # only the second copy is amplified (m22 = 50 on its low modes) while
        # the first decays, so a guard on the first copy alone never fires
        u = sp.field_from_modes(grid8, [(1, 0, (0.0, 1.0))])
        matrix = dyn.IntertwiningMatrix.general(0.0, 0.0, 0.0, 50.0)
        with pytest.raises(orc.BlowupDetected) as caught:
            orc.dense_trajectory(_state(grid8, u, u.copy(), matrix=matrix, nu=0.1), t_end=5.0, dt_ref=1e-2)
        # |v2| grows like exp(49.9 t) from about 4.4, so it crosses 1e8 near t = 0.34
        assert caught.value.t < 0.5

    def test_box_and_ball_from_the_grid(self, grid8, grid16, rng):
        # the box is the stepper's dealias box, capped at MAX_RADIUS
        u = sp.random_field(grid8, rng, energy=0.6)
        kern = orc._RK4([_state(grid8, u, u.copy())], 1e-2).kern
        assert kern.radius == grid8.box_cols - 1 == 2
        assert kern.keep == grid8.dealias_radius
        u = sp.random_field(grid16, rng, energy=0.6)
        with pytest.raises(orc.RadiusTooLarge, match="radius 5"):
            orc.dense_trajectory(_state(grid16, u, u.copy()), t_end=1e-2, dt_ref=1e-2)

    def test_states_must_share_grid_t_and_nu(self, grid8, rng):
        u = sp.random_field(grid8, rng, energy=0.6)
        state = _state(grid8, u, u.copy())
        narrow = sp.Grid(8, 2.5)
        w = sp.random_field(narrow, rng, energy=0.6)
        for name, other in (
            ("nu", replace(state, nu=0.5)),
            ("t", replace(state, t=0.1)),
            ("grid", _state(narrow, w, w.copy())),
        ):
            with pytest.raises(ValueError, match=name):
                orc.dense_trajectories([state, other], t_end=0.2, dt_ref=1e-2)


def _boundary_rk4_step(state, dt):
    """One RK4 step written with SpectralField arithmetic over the public functions."""
    nu, K, m = state.nu, state.K, state.matrix.entries

    def rhs(a, b, t):
        B1 = orc.dense_bilinear_B(a, a)
        f1 = state.forcing.g1(t) - nu * sp.stokes_apply(a, 2) - B1
        B2 = orc.dense_bilinear_B(b, b)
        f2 = state.forcing.g2(t) - nu * sp.stokes_apply(b, 2) - B2
        x1, x2 = (B1, B2) if state.matrix.is_direct_replacement else (a, b)
        c1, c2 = sp.project_low(x1, K), sp.project_low(x2, K)
        return f1 + (m[0, 0] * c1 + m[0, 1] * c2), f2 + (m[1, 0] * c1 + m[1, 1] * c2)

    def shift(a, b, h, k):
        return a + h * k[0], b + h * k[1]

    d1, d2 = state.v1, state.v2
    k1 = rhs(d1, d2, 0.0)
    k2 = rhs(*shift(d1, d2, 0.5 * dt, k1), 0.5 * dt)
    k3 = rhs(*shift(d1, d2, 0.5 * dt, k2), 0.5 * dt)
    k4 = rhs(*shift(d1, d2, dt, k3), dt)
    return [v + (dt / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i, v in enumerate((d1, d2))]


def _nested_loop_triples(radius: int, keep: float):
    """The triad table as nested loops, as the oracle built it before its
    vectorised form (with its own ball test on |k|^2)."""
    side = 2 * radius + 1
    ks = np.arange(-radius, radius + 1)
    ia, ib, ik, bx, by = [], [], [], [], []
    for ay in ks:
        for ax in ks:
            if ax == 0 and ay == 0:
                continue
            if ax * ax + ay * ay > keep**2 + 1e-9:
                continue
            for vy in ks:
                for vx in ks:
                    if vx == 0 and vy == 0:
                        continue
                    if vx * vx + vy * vy > keep**2 + 1e-9:
                        continue
                    kx, ky = ax + vx, ay + vy
                    if abs(kx) > radius or abs(ky) > radius:
                        continue
                    if kx == 0 and ky == 0:
                        continue
                    if kx * kx + ky * ky > keep**2 + 1e-9:
                        continue
                    ia.append((ay + radius) * side + (ax + radius))
                    ib.append((vy + radius) * side + (vx + radius))
                    ik.append((ky + radius) * side + (kx + radius))
                    bx.append(vx)
                    by.append(vy)
    return (
        np.array(ia, dtype=np.intp),
        np.array(ib, dtype=np.intp),
        np.array(ik, dtype=np.intp),
        np.array(bx, dtype=np.float64),
        np.array(by, dtype=np.float64),
    )


class TestDenseKernel:
    SYSTEMS = [
        ("nse", dyn.IntertwiningMatrix.zero()),
        ("nudging", dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5)),
        ("direct_replacement", dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75)),
    ]

    @pytest.fixture
    def setup(self, grid8, rng):
        """Build the state of a matrix: two random copies under a steady force."""
        keep = grid8.dealias_radius
        pair = _kolmogorov(grid8)
        v1, v2 = (sp.random_field(grid8, rng, energy=0.6, kmax=keep) for _ in range(2))
        return lambda matrix, K=2.0: _state(grid8, v1, v2, pair, matrix, K=K)

    @pytest.mark.parametrize("matrix", [m for _, m in SYSTEMS], ids=[s for s, _ in SYSTEMS])
    def test_one_step_matches_boundary_functions(self, setup, matrix):
        dt = 1e-2
        state = setup(matrix)
        expect = _boundary_rk4_step(state, dt)
        final = orc.dense_trajectory(state, t_end=dt, dt_ref=dt)
        for got, want in zip((final.v1, final.v2), expect):
            assert (got - want).l2 <= 1e-14 * want.l2

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_triples_equal_nested_loops(self, radius):
        # keep radii away from the ball's edge, where both ball tests agree
        for keep in (0.5, 1.0, 2**0.5, 2.0, 5**0.5, 8.0 / 3.0, radius + 0.5):
            got = orc._triples(radius, keep)
            want = _nested_loop_triples(radius, keep)
            assert len(got) == len(want) == 5
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_sample_times_are_whole_steps(self, setup):
        dt = 1e-2
        state = setup(dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5))
        times = []
        orc.dense_trajectory(state, t_end=30 * dt, dt_ref=dt, sample_every=3 * dt, sink=lambda s: times.append(s.t))
        assert times == [k * dt for k in range(0, 31, 3)]

    def test_final_time_is_sampled(self, setup):
        # sample_every = 0.25 is 62.5 steps of 4e-3: the stride rounds to 62,
        # and the last sample still lands at t_end = 1, as in dynamics.integrate
        state = setup(dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5))
        samples = []
        final = orc.dense_trajectory(state, t_end=1.0, dt_ref=4e-3, sample_every=0.25, sink=samples.append)
        assert [s.t for s in samples] == [k * 4e-3 for k in (0, 62, 124, 186, 248, 250)]
        assert samples[-1].t == final.t == 1.0
        assert samples[-1].v1.half.tobytes() == final.v1.half.tobytes()

    def test_partial_final_step_rejected(self, setup):
        with pytest.raises(ValueError, match="whole number of steps"):
            orc.dense_trajectory(setup(dyn.IntertwiningMatrix.zero()), t_end=0.055, dt_ref=1e-2)

    def test_members_bitwise_equal_to_lone_runs(self, setup, grid8):
        # the three systems and a fourth with its own decaying-pair force and
        # cutoff advance as one stack of eight copies
        delta = sp.random_field(grid8, np.random.default_rng(5), energy=0.1, kmax=2.0)
        pair = fr.ForcingPair.decaying_delta(fr.SteadyForcing(fr.kolmogorov_force(grid8, 0.2, 2)), delta, 1.5)
        states = [setup(m) for _, m in self.SYSTEMS]
        swapped = setup(dyn.IntertwiningMatrix.nudge_mutual(2.0, 1.0), K=1.5)
        states.append(replace(swapped, v1=swapped.v2, v2=swapped.v1, forcing=pair))
        runs = orc.dense_trajectories(states, 0.2, dt_ref=1e-2)
        assert len(runs) == len(states)
        for state, final in zip(states, runs):
            lone = orc.dense_trajectory(state, 0.2, dt_ref=1e-2)
            assert final.t == lone.t == 0.2
            assert final.matrix is state.matrix and final.K == state.K
            for got, want in ((final.v1, lone.v1), (final.v2, lone.v2)):
                assert got.half.tobytes() == want.half.tobytes()

    def test_blown_up_member_frozen(self, setup, grid8):
        # the anti-damped pair of test_blowup_guard_watches_second_copy
        # diverges near t = 0.34; the others go on, bitwise as alone
        u = sp.field_from_modes(grid8, [(1, 0, (0.0, 1.0))])
        wild = replace(setup(dyn.IntertwiningMatrix.general(0.0, 0.0, 0.0, 50.0)), v1=u, v2=u.copy())
        calm = [setup(m) for _, m in self.SYSTEMS]
        runs = orc.dense_trajectories([calm[0], wild, *calm[1:]], 0.5, dt_ref=1e-2)
        assert isinstance(runs[1], orc.BlowupDetected) and runs[1].t < 0.5
        for state, final in zip(calm, runs[:1] + runs[2:]):
            lone = orc.dense_trajectory(state, 0.5, dt_ref=1e-2)
            for got, want in ((final.v1, lone.v1), (final.v2, lone.v2)):
                assert got.half.tobytes() == want.half.tobytes()

    def test_oracle_calls_no_transform(self, setup, monkeypatch):
        states = [setup(matrix) for _, matrix in self.SYSTEMS]

        def forbidden(*args, **kwargs):
            raise AssertionError("the dense oracle called a transform")

        for name in dir(np.fft):
            if not name.startswith("_") and callable(getattr(np.fft, name)):
                monkeypatch.setattr(np.fft, name, forbidden)
        with pytest.raises(AssertionError, match="called a transform"):
            np.fft.rfft2(np.zeros((4, 4)))
        for state in states:
            orc.dense_trajectory(state, t_end=0.05, dt_ref=1e-2)
        orc.dense_bilinear_B(states[0].v1, states[0].v2)


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
