"""Coupled-pair right-hand sides, change-of-variable views, time stepping."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import harness as hz
from intertwine import oracle as orc
from intertwine import spectral as sp
from intertwine.dynamics import (
    BlowupDetected,
    IntertwinedState,
    IntertwiningMatrix,
    StepGuardViolation,
    WrongMatrixClass,
    derived_views,
    integrate,
    residual_half_DB,
    residual_twisted,
    rhs_general,
)

NUDGE_N128 = """\
[grid]
n = 128

[physics]
nu = 0.05
K = 16.0

[coupling]
class = nudge_mutual
mu1 = 2.0
mu2 = 2.0

[forcing]
kind = kolmogorov
amplitude = 0.04
wavenumber = 2

[initial]
energy = 0.5
spectrum_slope = 2.0
max_wavenumber = 8.0
difference = random
difference_scale = 0.5

[time]
dt = 0.02
t_end = 2.0

[output]
seed = 42
"""


def plain(u, f, nu):
    """The plain Navier-Stokes right-hand side f - nu A u - B(u, u), as
    either copy's under the zero matrix with v1 = v2 = u and g1 = g2 = f."""
    state = IntertwinedState(
        grid=u.grid, t=0.0, nu=nu, K=0.0, matrix=IntertwiningMatrix.zero(), v1=u, v2=u,
        forcing=fr.ForcingPair.synchronized(fr.SteadyForcing(f)),
    )
    f1, f2 = rhs_general(state)
    assert f1.half.tobytes() == f2.half.tobytes()
    return f1


def make_state(grid, rng, matrix, nu=0.2, K=2.0, amplitude=0.1, energy=0.6, same=False):
    pair = fr.ForcingPair.synchronized(
        fr.SteadyForcing(fr.kolmogorov_force(grid, amplitude, 2))
    )
    v1 = sp.random_field(grid, rng, energy=energy, kmax=grid.dealias_radius)
    v2 = v1.copy() if same else sp.random_field(grid, rng, energy=energy, kmax=grid.dealias_radius)
    return IntertwinedState(
        grid=grid, t=0.0, nu=nu, K=K, matrix=matrix, v1=v1, v2=v2, forcing=pair
    )


def held_bytes(ws) -> int:
    """The bytes of the arrays a workspace holds, its kernel's included once
    it has stepped."""

    def size(x):
        if isinstance(x, np.ndarray):
            return x.nbytes
        return sum(map(size, x)) if isinstance(x, (list, tuple)) else 0

    return sum(size(a) for owner in (ws, ws.forces, ws.kernel) if owner for a in vars(owner).values())


class TestIntertwiningMatrix:
    def test_symmetric_nudging_entries_and_eigenvalues(self):
        m = IntertwiningMatrix.nudge_symmetric(3.0, 1.0)
        assert np.array_equal(m.entries, [[-3.0, 1.0], [1.0, -3.0]])
        evals = np.linalg.eigvalsh(-m.entries)  # of the damping matrix -M
        assert tuple(evals) == (2.0, 4.0)
        assert min(evals) >= 0.0

    def test_mutual_nudging_entries(self):
        m = IntertwiningMatrix.nudge_mutual(2.0, 0.5)
        assert np.array_equal(m.entries, [[-2.0, 2.0], [0.5, -0.5]])

    def test_dr_entries(self):
        m = IntertwiningMatrix.dr_symmetric(0.7, 0.3)
        assert np.allclose(m.entries, [[0.7, -0.3], [-0.3, 0.7]])
        m = IntertwiningMatrix.dr_mutual(0.25, 0.75)
        assert np.allclose(m.entries, [[0.25, -0.25], [-0.75, 0.75]])

    def test_constraints_rejected(self):
        with pytest.raises(ValueError):
            IntertwiningMatrix.nudge_symmetric(1.0, 2.0)  # mu1 < mu2
        with pytest.raises(ValueError):
            IntertwiningMatrix.nudge_mutual(-1.0, 1.0)
        with pytest.raises(ValueError):
            IntertwiningMatrix.dr_symmetric(0.7, 0.2)  # sum != 1
        with pytest.raises(ValueError):
            IntertwiningMatrix.dr_mutual(1.5, -0.5)  # negative entry

    def test_dr_symmetric_allows_signed_weights(self):
        m = IntertwiningMatrix.dr_symmetric(1.5, -0.5)
        assert np.allclose(m.entries, [[1.5, 0.5], [0.5, 1.5]])


class TestRightHandSides:
    def test_nse_zero_state_returns_force(self, grid16):
        f = fr.kolmogorov_force(grid16, 0.3, 2)
        out = plain(sp.zero_field(grid16), f, nu=0.1)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_nse_shear_pure_diffusion(self, grid16):
        shear = sp.field_from_modes(grid16, [(0, 2, (0.5 / 1j, 0.0))])
        out = plain(shear, sp.zero_field(grid16), nu=0.3)
        expect = -0.3 * sp.stokes_apply(shear, 2)
        assert (out - expect).l2 <= 1e-15

    def test_nse_matches_dense_oracle(self, grid8, rng):
        u = sp.random_field(grid8, rng, energy=0.7, kmax=grid8.dealias_radius)
        f = fr.kolmogorov_force(grid8, 0.2, 2)
        nu = 0.25
        mine = plain(u, f, nu)
        dense = f - nu * sp.stokes_apply(u, 2) - orc.dense_bilinear_B(u, u)
        gap = (mine - dense).l2
        assert gap <= 1e-11 * max(mine.l2, 1.0)

    def test_zero_matrix_decouples(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.zero())
        f1, f2 = rhs_general(state)
        e1 = plain(state.v1, state.forcing.g1(0.0), state.nu)
        e2 = plain(state.v2, state.forcing.g2(0.0), state.nu)
        assert np.array_equal(f1.coeffs, e1.coeffs)
        assert np.array_equal(f2.coeffs, e2.coeffs)

    def test_zero_gain_nudging_decouples(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(0.0, 0.0))
        f1, f2 = rhs_general(state)
        assert np.array_equal(f1.coeffs, plain(state.v1, state.forcing.g1(0.0), state.nu).coeffs)
        assert np.array_equal(f2.coeffs, plain(state.v2, state.forcing.g2(0.0), state.nu).coeffs)

    def test_one_sided_nudging_endpoint(self, grid16, rng):
        # mu1 = 0 leaves the first copy untouched and nudges the second
        # toward low-mode observations of the first
        mu = 1.7
        state = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(0.0, mu))
        f1, f2 = rhs_general(state)
        plain1 = plain(state.v1, state.forcing.g1(0.0), state.nu)
        assert np.array_equal(f1.coeffs, plain1.coeffs)
        plain2 = plain(state.v2, state.forcing.g2(0.0), state.nu)
        feedback = mu * sp.project_low(state.v1 - state.v2, state.K)
        assert (f2 - plain2 - feedback).l2 <= 1e-14 * f2.l2

    def test_one_sided_dr_matches_independent_observer_rhs(self, grid8, rng):
        # theta1 = 0: first copy is plain truth, second is the low-mode
        # replacement observer; compare against a separately coded observer
        state = make_state(grid8, rng, IntertwiningMatrix.dr_mutual(0.0, 1.0))
        f1, f2 = rhs_general(state)
        plain1 = plain(state.v1, state.forcing.g1(0.0), state.nu)
        assert np.array_equal(f1.coeffs, plain1.coeffs)
        g2 = state.forcing.g2(0.0)
        observer = (
            g2
            - state.nu * sp.stokes_apply(state.v2, 2)
            - sp.bilinear_B(state.v2, state.v2)
            + sp.project_low(
                sp.bilinear_B(state.v2, state.v2) - sp.bilinear_B(state.v1, state.v1),
                state.K,
            )
        )
        assert (f2 - observer).l2 <= 1e-13 * max(f2.l2, 1.0)

    @pytest.mark.parametrize("kind", sorted(dyn.COUPLING_CLASSES))
    def test_rhs_matches_dense_oracle_every_class(self, grid8, rng, kind):
        # both paths read the intertwining function off the same matrix
        params = {
            dyn.NUDGE_SYMMETRIC: (2.0, 1.0),
            dyn.NUDGE_MUTUAL: (1.3, 0.4),
            dyn.DR_SYMMETRIC: (1.5, -0.5),
            dyn.DR_MUTUAL: (0.25, 0.75),
            dyn.GENERAL: (0.3, -0.2, 0.5, -1.1),
            dyn.NONE: (),
        }[kind]
        state = make_state(grid8, rng, dyn.COUPLING_CLASSES[kind].build(*params), nu=0.25)
        f1, f2 = rhs_general(state)
        e1, e2 = orc._dense_pair_rhs(state)
        gap1 = (f1 - e1).l2
        gap2 = (f2 - e2).l2
        assert max(gap1, gap2) <= 1e-11 * max(f1.l2, 1.0)

    @pytest.mark.parametrize(
        "grid, K",
        [(sp.Grid(8), 5**0.5 - 1e-10), (sp.Grid(16, 8**0.5 - 1e-10), 2.0)],
        ids=["cutoff_on_edge", "dealias_radius_on_edge"],
    )
    def test_rhs_matches_dense_oracle_on_the_ball_edge(self, grid, K):
        # both paths read |k| <= R through spectral.in_ball, so a radius just
        # below a shell of modes (|k| = sqrt(5), sqrt(8)) leaves it out of both
        rng = np.random.default_rng(3)
        for matrix in (IntertwiningMatrix.nudge_mutual(1.3, 0.4), IntertwiningMatrix.dr_mutual(0.25, 0.75)):
            state = make_state(grid, rng, matrix, nu=0.25, K=K)
            f1, f2 = rhs_general(state)
            e1, e2 = orc._dense_pair_rhs(state)
            gap1 = (f1 - e1).l2
            gap2 = (f2 - e2).l2
            assert max(gap1, gap2) <= 1e-11 * max(f1.l2, 1.0)

    def test_dr_synchronized_manifold_rhs(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.3, 0.7), same=True)
        f1, f2 = rhs_general(state)
        assert np.array_equal(f1.coeffs, f2.coeffs)

    def test_dr_low_mode_heat_structure(self, grid16, rng):
        # P_K of the rhs difference equals P_K(g1 - g2) - nu A P_K w
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.25, 0.75))
        f1, f2 = rhs_general(state)
        p = sp.project_low(state.v1 - state.v2, state.K)
        h_low = sp.project_low(state.forcing.g1(0.0) - state.forcing.g2(0.0), state.K)
        expect = h_low - state.nu * sp.stokes_apply(p, 2)
        gap = (sp.project_low(f1 - f2, state.K) - expect).l2
        assert gap <= 1e-13 * max(f1.l2, 1.0)


class TestDerivedViews:
    def test_synchronized_state(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.5, 0.5), same=True)
        views = derived_views(state)
        assert views["w"].l2 == 0.0 and views["p"].l2 == 0.0 and views["q"].l2 == 0.0
        assert np.array_equal(views["z"].coeffs, 2.0 * state.v1.coeffs)

    def test_balanced_theta_views(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.5, 0.5))
        views = derived_views(state)
        assert (views["v_theta"] - 0.5 * views["z"]).l2 <= 1e-15
        assert (views["w_theta"] - 0.5 * views["w"]).l2 <= 1e-15

    def test_reconstruction_roundtrip(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_symmetric(0.8, 0.2))
        views = derived_views(state)
        r1 = 0.5 * (views["z"] + views["w"])
        r2 = 0.5 * (views["z"] - views["w"])
        assert np.allclose(r1.coeffs, state.v1.coeffs, atol=1e-16)
        assert np.allclose(r2.coeffs, state.v2.coeffs, atol=1e-16)

    def test_theta_views_require_dr_matrix(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 1.0))
        views = derived_views(state)
        assert "v_theta" not in views
        assert "w_theta" not in views

    def test_degenerate_theta_returns_unscaled_error(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.0, 1.0))
        views = derived_views(state)
        assert np.array_equal(views["w_theta"].coeffs, views["w"].coeffs)

    def test_low_high_splits(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.25, 0.75))
        views = derived_views(state)
        assert np.array_equal((views["p"] + views["q"]).coeffs, views["w"].coeffs)
        assert np.array_equal((views["r"] + views["s"]).coeffs, views["z"].coeffs)


class TestResiduals:
    def test_twisted_identity_random_state(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.3, 0.7))
        f1, f2 = rhs_general(state)
        assert residual_twisted(state) <= 1e-10 * (f1.l2 + f2.l2)

    def test_twisted_identity_synchronized(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.3, 0.7), same=True)
        f1, f2 = rhs_general(state)
        assert residual_twisted(state) <= 1e-10 * (f1.l2 + f2.l2)

    def test_twisted_identity_balanced_against_dense(self, grid8, rng):
        # independent recomputation of both sides with the dense oracle
        state = make_state(grid8, rng, IntertwiningMatrix.dr_mutual(0.5, 0.5))
        assert residual_twisted(state) <= 1e-10

        d1, d2, g1, g2 = state.v1, state.v2, state.forcing.g1(0.0), state.forcing.g2(0.0)
        f1, f2 = orc._dense_pair_rhs(state)
        combo = 0.5 * f1 + 0.5 * f2
        v_th = 0.5 * d1 + 0.5 * d2
        w_th = 0.5 * (d1 - d2)
        g_th = 0.5 * g1 + 0.5 * g2
        closed = (
            g_th
            - state.nu * sp.stokes_apply(v_th, 2)
            - orc.dense_bilinear_B(v_th, v_th)
            - orc.dense_bilinear_B(w_th, w_th)
        )
        assert (combo - closed).l2 <= 1e-12

    def test_twisted_requires_mutual_dr(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.dr_symmetric(0.5, 0.5))
        with pytest.raises(WrongMatrixClass):
            residual_twisted(state)
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.0, 1.0))
        with pytest.raises(WrongMatrixClass):
            residual_twisted(state)

    def test_half_db_cases(self, grid16, rng):
        v1 = sp.random_field(grid16, rng)
        assert residual_half_DB(v1, v1) == 0.0
        zero = sp.zero_field(grid16)
        assert residual_half_DB(v1, zero) <= 1e-13 * sp.bilinear_B(v1, v1).l2
        v2 = sp.random_field(grid16, rng)
        scale = sp.bilinear_B(v1, v1).l2 + sp.bilinear_B(v2, v2).l2
        assert residual_half_DB(v1, v2) <= 1e-10 * scale


class TestStepping:
    def test_pure_diffusion_exact_per_step(self, grid16):
        mode = sp.field_from_modes(grid16, [(2, 1, (1.0 / 1j, -2.0 / 1j))])
        zero_pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid16)))
        state = IntertwinedState(
            grid=grid16, t=0.0, nu=0.6, K=2.0, matrix=IntertwiningMatrix.zero(),
            v1=mode, v2=mode.copy(), forcing=zero_pair,
        )
        out = integrate(state, 0.25, dt=0.25, cfl_factor=None)
        expect = mode.coeffs * np.exp(-0.6 * 5.0 * 0.25)
        assert np.abs(out.v1.coeffs - expect).max() <= 1e-16

    def test_zero_stays_zero(self, grid16):
        zero_pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid16)))
        state = IntertwinedState(
            grid=grid16, t=0.0, nu=0.6, K=2.0, matrix=IntertwiningMatrix.zero(),
            v1=sp.zero_field(grid16), v2=sp.zero_field(grid16), forcing=zero_pair,
        )
        out = integrate(state, 1.0, dt=0.05)
        assert out.v1.l2 == 0.0 and out.v2.l2 == 0.0

    @pytest.mark.parametrize(
        "matrix",
        [
            IntertwiningMatrix.nudge_symmetric(2.0, 1.0),
            IntertwiningMatrix.nudge_mutual(1.0, 0.5),
            IntertwiningMatrix.dr_symmetric(0.75, 0.25),
            IntertwiningMatrix.dr_mutual(0.25, 0.75),
        ],
    )
    def test_synchronized_manifold_invariance(self, grid16, rng, matrix):
        state = make_state(grid16, rng, matrix, same=True)
        out = integrate(state, 1.0, dt=0.02)
        assert np.abs(out.v1.coeffs - out.v2.coeffs).max() == 0.0

    def test_folded_manifold_invariance_roundoff(self, grid16, rng):
        # large-gain path goes through the matrix exponential; stays on the
        # manifold to roundoff rather than exactly
        state = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(40.0, 40.0), same=True)
        out = integrate(state, 1.0, dt=0.05, cfl_factor=None)
        drift = np.abs(out.v1.coeffs - out.v2.coeffs).max()
        assert drift <= 1e-12 * max(np.abs(out.v1.coeffs).max(), 1e-30)

    def test_large_gain_sync_without_step_collapse(self, rng):
        # feedback gains with mu * dt well above 1 stay stable through the
        # folded propagator and still synchronize the pair
        grid = sp.Grid(32)
        pair = fr.ForcingPair.synchronized(
            fr.SteadyForcing(fr.kolmogorov_force(grid, 0.05, 2))
        )
        v1 = sp.random_field(grid, rng, energy=0.4, kmax=6.0)
        v2 = sp.random_field(grid, rng, energy=0.4, kmax=6.0)
        state = IntertwinedState(
            grid=grid, t=0.0, nu=0.1, K=8.0,
            matrix=IntertwiningMatrix.nudge_mutual(40.0, 40.0),
            v1=v1, v2=v2, forcing=pair,
        )
        w0 = (v1 - v2).l2
        out = integrate(state, 5.0, dt=0.05)
        ratio = (out.v1 - out.v2).l2 / w0
        assert np.isfinite(out.v1.l2)
        assert ratio <= 1e-6

    def test_folded_matches_unfolded_limit(self, grid16, rng, monkeypatch):
        # with moderate gains both paths integrate the same flow at O(dt^2)
        base = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(3.0, 2.0))
        fine = integrate(base, 0.5, dt=1e-3)
        monkeypatch.setattr(dyn, "FOLD_GAIN_DT", 0.0)  # fold at every gain
        ws = dyn.Workspace([base], dt=0.01)
        assert ws.folded and not ws.coupling
        for k in range(int(0.5 / 0.01)):
            ws.step(k * 0.01)
        folded = sp.SpectralField(grid16, sp.from_box(grid16, ws.V)[0])
        assert (fine.v1 - folded).l2 <= 5e-3 * max(fine.v1.l2, 1e-30)

    def test_heat_law_along_trajectory(self, grid16, rng):
        # d/dt P_K w + nu A P_K w - P_K h stays at the scheme's order
        state = make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.5, 0.5))
        dt = 0.01
        ps = []
        snap = state
        for _ in range(3):
            ps.append(sp.project_low(snap.v1 - snap.v2, snap.K))
            snap = integrate(snap, snap.t + dt, dt=dt, cfl_factor=None)
        dpdt = (1.0 / (2 * dt)) * (ps[2] - ps[0])
        mid = ps[1]
        resid = dpdt + state.nu * sp.stokes_apply(mid, 2)  # h = 0 here
        assert resid.l2 <= 10.0 * dt**2 * max(mid.h1, 1.0)

    def test_largest_norm_on_the_box(self, grid16, rng):
        # the blow-up guard's norm, computed on the box stack
        state = replace(
            make_state(grid16, rng, IntertwiningMatrix.zero()),
            v2=sp.random_field(grid16, rng, energy=2.0),
        )
        ws = dyn.Workspace([state], dt=0.01)
        ws.step(0.0)
        v1, v2 = (sp.SpectralField(grid16, h) for h in sp.from_box(grid16, ws.V))
        norms = np.sqrt(sp.PLANCHEREL * ws._square_norms())
        assert norms == pytest.approx([v1.l2, v2.l2], rel=1e-14)

    def test_blowup_detected(self, grid16):
        # strong anti-damping through a general coupling matrix
        pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid16)))
        u = sp.field_from_modes(grid16, [(1, 0, (0.0, 1.0))])
        state = IntertwinedState(
            grid=grid16, t=0.0, nu=0.1, K=2.0,
            matrix=IntertwiningMatrix.general(60.0, 0.0, 0.0, 60.0),
            v1=u, v2=u.copy(), forcing=pair,
        )
        with pytest.raises(BlowupDetected):
            integrate(state, 5.0, dt=0.01, cfl_factor=None)

    def test_step_guard(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.zero(), nu=1.0, energy=6.0)
        assert dyn.cfl_limit(state) < 0.5  # the advective limit dx / |u|_inf
        with pytest.raises(StepGuardViolation):
            integrate(state, 1.0, dt=0.5)

    def test_no_diffusive_step_limit(self):
        # the acceptance nudging config at n = 128: a diffusive limit
        # 1 / (nu k_max^2) = 0.011 used to reject dt = 0.02, although the
        # integrating factor takes diffusion exactly and the run is stable
        state = hz.build_state(hz.parse_config_text(NUDGE_N128))
        coarse = integrate(state, 2.0, dt=0.02)
        fine = integrate(state, 2.0, dt=0.01)
        for u, ref in ((coarse.v1, fine.v1), (coarse.v2, fine.v2)):
            assert (u - ref).l2 <= 1e-5 * ref.l2

    def test_invariants_preserved(self, grid16, rng):
        state = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 0.5))
        out = integrate(state, 0.5, dt=0.01)
        sp.check_field(out.v1)
        sp.check_field(out.v2)

    @pytest.mark.parametrize(
        "matrix, dt",
        [
            (IntertwiningMatrix.nudge_mutual(1.0, 0.5), 0.02),
            (IntertwiningMatrix.nudge_symmetric(40.0, 40.0), 0.05),  # folded
            (IntertwiningMatrix.dr_mutual(0.25, 0.75), 0.02),
            (IntertwiningMatrix.dr_symmetric(0.75, 0.25), 0.02),
        ],
    )
    def test_integrate_equals_step_loop(self, grid16, rng, matrix, dt):
        # one-step integrate calls sum t, so step k starts at a running sum
        state = make_state(grid16, rng, matrix)
        out = integrate(state, 0.5, dt=dt, cfl_factor=None)
        looped = state
        for _ in range(round(0.5 / dt)):
            looped = integrate(looped, looped.t + dt, dt=dt, cfl_factor=None)
        assert out.v1.coeffs.tobytes() == looped.v1.coeffs.tobytes()
        assert out.v2.coeffs.tobytes() == looped.v2.coeffs.tobytes()
        assert out.t == pytest.approx(looped.t, rel=1e-14)

    @pytest.mark.parametrize("kind", ["time_periodic", "decaying_delta"])
    def test_integrate_equals_step_loop_time_dependent_forcing(self, grid16, rng, kind):
        # forces that change with t are packed again at every stage
        base = fr.kolmogorov_force(grid16, 0.3, 2)
        if kind == "time_periodic":
            pair = fr.ForcingPair.synchronized(fr.TimePeriodicForcing(base, omega=3.0))
        else:
            delta = sp.random_field(grid16, rng, energy=0.2, kmax=3.0)
            pair = fr.ForcingPair.decaying_delta(fr.SteadyForcing(base), delta, rate=1.5)
        state = replace(
            make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 0.5)), forcing=pair
        )
        out = integrate(state, 0.5, dt=0.02, cfl_factor=None)
        looped = state
        for k in range(1, 26):
            # integrate starts step k at exactly (k - 1) dt, not at a running sum
            looped = replace(integrate(looped, k * 0.02, dt=0.02, cfl_factor=None), t=k * 0.02)
        assert out.v1.coeffs.tobytes() == looped.v1.coeffs.tobytes()
        assert out.v2.coeffs.tobytes() == looped.v2.coeffs.tobytes()

    def test_steady_force_packed_once(self, grid16, rng, monkeypatch):
        calls = []
        pack = sp.pack
        monkeypatch.setattr(sp, "pack", lambda *fields: calls.append(len(fields)) or pack(*fields))
        state = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 0.5))
        integrate(state, 0.2, dt=0.02)
        assert len(calls) == 2  # the initial pair and the force pair
        periodic = fr.ForcingPair.synchronized(
            fr.TimePeriodicForcing(fr.kolmogorov_force(grid16, 0.3, 2), omega=3.0)
        )
        calls.clear()
        integrate(replace(state, forcing=periodic), 0.2, dt=0.02)
        # the initial pair and the force field: the force is formed from its
        # weight at each stage, not packed again
        assert len(calls) == 2

    def test_integrate_catches_aliased_forcing(self, grid16, rng):
        bad = np.zeros((2, 16, 9), dtype=complex)
        bad[1, 0, 7] = 0.1  # |k| = 7 > 16/3
        force = sp.leray_project(grid16, bad)
        state = replace(
            make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 1.0)),
            forcing=fr.ForcingPair.synchronized(fr.SteadyForcing(force)),
        )
        with pytest.raises(sp.AliasingViolation):
            integrate(state, 0.1, dt=0.01)

    def test_integrate_catches_force_aliased_after_t0(self, grid16, rng):
        # cos(omega t) a with a aliased, from t0 = pi / (2 omega): g(t0) is
        # clean to roundoff, so the guard must run on the force's field, not
        # on g(t0)
        bad = np.zeros((2, 16, 9), dtype=complex)
        bad[1, 0, 7] = 0.1  # |k| = 7 > 16/3
        forcing = fr.TimePeriodicForcing(sp.leray_project(grid16, bad), omega=3.0)
        t0 = np.pi / 6.0
        sp._require_dealiased(grid16, sp.pack(forcing(t0)))
        state = replace(
            make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 1.0)),
            t=t0, forcing=fr.ForcingPair.synchronized(forcing),
        )
        with pytest.raises(sp.AliasingViolation):
            integrate(state, t0 + 0.1, dt=0.01)

    def test_sub_tolerance_content_outside_box_dropped_at_pack(self, grid16, rng):
        # content below ALIAS_RTOL passes the guard; outside the box it is
        # dropped, so the run is bitwise the run of the clean pair
        clean = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 0.5))
        raw = clean.v1.half.copy()
        raw[1, 0, 7] = 1e-15  # kx = 7 lies outside the box (kx <= 5)
        dirty_v1 = sp.SpectralField(grid16, raw)
        assert 0.0 < sp.alias_energy(grid16, raw[None])[0] <= sp.ALIAS_RTOL
        dirty = replace(clean, v1=dirty_v1)
        out = integrate(dirty, 0.1, dt=0.01)
        ref = integrate(clean, 0.1, dt=0.01)
        assert out.v1.half[1, 0, 7] == 0.0
        assert out.v1.half.tobytes() == ref.v1.half.tobytes()
        assert out.v2.half.tobytes() == ref.v2.half.tobytes()

    def test_sink_states_own_their_values(self, grid16, rng):
        # the pair is stepped in place; each sampled state must keep the
        # values it had when it was sampled
        state = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 0.5))
        kept, copies = [], []

        def sink(s):
            kept.append(s)
            copies.append((s.v1.half.copy(), s.v2.half.copy()))

        out = integrate(state, 0.2, dt=0.01, sample_every=0.05, sink=sink)
        assert len(kept) == 5
        for s, (h1, h2) in zip(kept, copies):
            assert s.v1.half.tobytes() == h1.tobytes()
            assert s.v2.half.tobytes() == h2.tobytes()
        assert kept[-1].v1.half.tobytes() == out.v1.half.tobytes()
        assert not np.shares_memory(kept[-1].v1.half, out.v1.half)

    @pytest.mark.parametrize("members", [1, 2], ids=["integrate", "integrate_many"])
    def test_step_loop_allocates_nothing(self, members):
        # a sink-less run at n = 64 peaks at the workspace's own arrays plus
        # small change, where an allocating step makes about 1 MB of
        # temporaries, and the returned states are built once the workspace
        # is freed.  The step-size guard runs once, before the loop, and
        # transforms one refined field at a time, which peaks below the
        # workspace, so the default path is measured
        import tracemalloc

        state = hz.build_state(hz.parse_config_text(NUDGE_N128.replace("n = 128", "n = 64")))
        states = [state, replace(state, K=8.0)][:members]

        def run(t_end):
            if members == 1:
                return integrate(state, t_end, dt=0.02)
            return dyn.integrate_many(states, t_end, dt=0.02)

        ws = dyn.Workspace(states, dt=0.02)
        ws.step(0.0)
        run(0.04)  # numpy's first-call caches
        tracemalloc.start()
        try:
            run(2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held_bytes(ws) + 64 * 1024

    def test_sample_times_do_not_drift(self, grid16, rng):
        # a stride of 12 steps (sample_every 0.25 is not a multiple of dt):
        # step k lands at exactly k * dt, not at a running sum of dt
        state = make_state(grid16, rng, IntertwiningMatrix.nudge_mutual(1.0, 1.0))
        times = []
        out = integrate(state, 1.0, dt=0.02, sample_every=0.25, sink=lambda s: times.append(s.t))
        assert times == [0.0, 12 * 0.02, 24 * 0.02, 36 * 0.02, 48 * 0.02, 50 * 0.02]
        assert out.t == 1.0

    def test_partial_final_step_rejected(self, grid16, rng):
        # 1.0 / 0.3 steps would stop at t = 0.9 without reaching t_end
        state = make_state(grid16, rng, IntertwiningMatrix.zero())
        with pytest.raises(ValueError, match="whole number of steps"):
            integrate(state, 1.0, dt=0.3, cfl_factor=None)
        assert dyn.step_count(1.0, 0.25) == 4
        assert dyn.step_count(30.0, 0.008) == 3750
        # from 2^53 on every float is whole, so the test above proves nothing
        assert dyn.step_count(2.0**53 - 1, 1.0) == 2**53 - 1
        with pytest.raises(ValueError, match="2\\^53"):
            dyn.step_count(2.0**53, 1.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_dt_must_be_finite_and_positive(self, grid16, rng, dt):
        # dt = inf once gave 0 steps, and integrate returned its state unstepped
        state = make_state(grid16, rng, IntertwiningMatrix.zero())
        with pytest.raises(ValueError, match="finite and positive"):
            integrate(state, 1.0, dt=dt, cfl_factor=None)

    @pytest.mark.parametrize(
        "name, value", [("nu", np.nan), ("nu", np.inf), ("nu", 0.0), ("K", np.nan), ("K", np.inf), ("K", -1.0), ("K", 5.5)]
    )
    def test_state_refuses_bad_nu_and_K(self, grid16, rng, name, value):
        # checks written as "nu <= 0 fails" once let NaN and infinities through
        state = make_state(grid16, rng, IntertwiningMatrix.zero())
        with pytest.raises(ValueError, match=f"{name} = {value}"):
            replace(state, **{name: value})

    def test_time_dependent_force_at_stage_times(self, grid16):
        # linear check: v' = cos(omega t) f with diffusion disabled on the
        # mean flow scale; second-order accuracy requires stage evaluation
        f = fr.kolmogorov_force(grid16, 0.5, 2)
        pair = fr.ForcingPair.synchronized(fr.TimePeriodicForcing(f, omega=3.0))
        state = IntertwinedState(
            grid=grid16, t=0.0, nu=1e-12, K=2.0, matrix=IntertwiningMatrix.zero(),
            v1=sp.zero_field(grid16), v2=sp.zero_field(grid16), forcing=pair,
        )
        out = integrate(state, 1.0, dt=0.005, cfl_factor=None)
        expect = (np.sin(3.0 * 1.0) / 3.0) * f
        assert (out.v1 - expect).l2 <= 1e-4 * expect.l2


def ensemble(grid, rng, nu=0.2):
    """Members that share grid, t and nu and differ in everything else: a
    zero matrix, unfolded and folded mutual nudging (mu dt > 1 at dt = 0.02),
    mutual direct replacement, and a decaying-pair force."""
    base = fr.SteadyForcing(fr.kolmogorov_force(grid, 0.3, 2))
    delta = sp.random_field(grid, rng, energy=0.2, kmax=3.0)
    members = [
        (IntertwiningMatrix.zero(), 2.0, fr.ForcingPair.synchronized(base)),
        (IntertwiningMatrix.nudge_mutual(1.0, 0.5), 2.0, fr.ForcingPair.synchronized(base)),
        (IntertwiningMatrix.nudge_mutual(60.0, 60.0), 2.5, fr.ForcingPair.synchronized(base)),
        (IntertwiningMatrix.dr_mutual(0.25, 0.75), 2.5, fr.ForcingPair.synchronized(base)),
        (IntertwiningMatrix.dr_mutual(0.5, 0.5), 2.0, fr.ForcingPair.decaying_delta(base, delta, 1.5)),
    ]
    return [
        IntertwinedState(
            grid=grid, t=0.0, nu=nu, K=K, matrix=matrix, forcing=pair,
            v1=sp.random_field(grid, rng, energy=0.6), v2=sp.random_field(grid, rng, energy=0.6),
        )
        for matrix, K, pair in members
    ]


def assert_same_pair(a, b):
    assert a.t == b.t
    assert a.v1.half.tobytes() == b.v1.half.tobytes()
    assert a.v2.half.tobytes() == b.v2.half.tobytes()


class TestEnsemble:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_members_bitwise_equal_to_lone_runs(self, rng, n):
        states = ensemble(sp.Grid(n), rng)
        assert dyn.folds(states[2].matrix, 0.02) and not dyn.folds(states[1].matrix, 0.02)
        finals = dyn.integrate_many(states, 0.5, dt=0.02, cfl_factor=None)
        for state, final in zip(states, finals):
            assert_same_pair(final, integrate(state, 0.5, dt=0.02, cfl_factor=None))

    def test_blown_up_member_frozen_and_reported(self, grid16, rng):
        # strong anti-damping through a general coupling matrix, as in
        # test_blowup_detected, among members that stay bounded
        states = ensemble(grid16, rng, nu=0.1)
        u = sp.field_from_modes(grid16, [(1, 0, (0.0, 1.0))])
        wild = replace(states[0], matrix=IntertwiningMatrix.general(60.0, 0.0, 0.0, 60.0), v1=u, v2=u.copy())
        with pytest.raises(BlowupDetected) as lone:
            integrate(wild, 1.0, dt=0.01, cfl_factor=None)
        finals = dyn.integrate_many(states[:2] + [wild] + states[2:], 1.0, dt=0.01, cfl_factor=None)
        assert isinstance(finals[2], BlowupDetected)
        assert finals[2].t == lone.value.t < 1.0
        for state, final in zip(states, finals[:2] + finals[3:]):
            assert_same_pair(final, integrate(state, 1.0, dt=0.01, cfl_factor=None))

    def test_step_guard_checks_every_member(self, grid16, rng):
        calm = make_state(grid16, rng, IntertwiningMatrix.zero(), nu=1.0)
        fast = make_state(grid16, rng, IntertwiningMatrix.zero(), nu=1.0, energy=6.0)
        with pytest.raises(StepGuardViolation):
            dyn.integrate_many([calm, fast], 1.0, dt=0.5)

    @pytest.mark.parametrize("field, value", [
        ("grid", sp.Grid(32)), ("t", 0.1), ("nu", 0.3),
    ])
    def test_members_must_share(self, grid16, rng, field, value):
        states = ensemble(grid16, rng)[:2]
        if field == "grid":
            other = replace(states[1], grid=value, v1=sp.random_field(value, rng),
                            v2=sp.random_field(value, rng),
                            forcing=fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(value))))
        else:
            other = replace(states[1], **{field: value})
        with pytest.raises(ValueError, match=f"share {field}"):
            dyn.integrate_many([states[0], other], 0.5, dt=0.02)
        with pytest.raises(ValueError, match=f"share {field}"):
            dyn.Workspace([states[0], other], dt=0.02)

    def test_no_steps_returns_the_states(self, grid16, rng):
        states = ensemble(grid16, rng)
        assert dyn.integrate_many(states, 0.0, dt=0.02) == states

    def test_kernel_built_at_first_rhs(self, grid16, rng):
        # after the fields are packed, so that the packing's temporaries and
        # the transform buffers are never live together
        ws = dyn.Workspace([make_state(grid16, rng, IntertwiningMatrix.dr_mutual(0.25, 0.75))], dt=0.01)
        assert ws.kernel is None
        ws.step(0.0)
        assert isinstance(ws.kernel, sp.BoxAdvection)


class TestNumpyOnly:
    """The stepper needs numpy alone; SciPy serves only as a test reference."""

    @pytest.mark.parametrize("mu", [60.0, 100.0, 400.0])
    @pytest.mark.parametrize("dt", [0.02, 0.05])
    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    @pytest.mark.parametrize("build", [IntertwiningMatrix.nudge_mutual, IntertwiningMatrix.nudge_symmetric])
    def test_expm_2x2_matches_scipy(self, build, mu, dt, ratio):
        linalg = pytest.importorskip("scipy.linalg")
        a = dt * build(mu, ratio * mu).entries
        assert mu * dt > 1.0  # integrate folds at these step sizes
        ref = linalg.expm(a)
        assert np.abs(dyn.expm_2x2(a) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_expm_2x2_branches(self):
        # d^2 < 0: a rotation; d = 0: a scalar and a nilpotent part
        t = 0.7
        rot = dyn.expm_2x2([[0.0, t], [-t, 0.0]])
        assert np.allclose(rot, [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]], rtol=0, atol=1e-16)
        assert np.array_equal(dyn.expm_2x2([[-2.0, 0.0], [0.0, -2.0]]), np.exp(-2.0) * np.eye(2))
        assert np.array_equal(dyn.expm_2x2([[0.0, 3.0], [0.0, 0.0]]), [[1.0, 3.0], [0.0, 1.0]])
        # large gains stay finite: exp(dt M) of mutual nudging tends to the
        # projector onto the synchronized manifold
        big = dyn.expm_2x2(IntertwiningMatrix.nudge_mutual(1e4, 1e4).entries)
        assert np.allclose(big, 0.5, rtol=1e-15, atol=0)

    def test_expm_2x2_huge_gains(self):
        # d^2 of the unscaled b overflowed past |b| ~ 1e154, and the result
        # was NaN; e^(tr/2 - d) underflows to 0 as it should
        with np.errstate(over="raise", invalid="raise"):
            mutual = dyn.expm_2x2(0.02 * IntertwiningMatrix.nudge_mutual(1e300, 1e300).entries)
            symmetric = dyn.expm_2x2(0.02 * IntertwiningMatrix.nudge_symmetric(1e300, 1e299).entries)
        assert np.array_equal(mutual, [[0.5, 0.5], [0.5, 0.5]])
        assert np.array_equal(symmetric, np.zeros((2, 2)))

    def test_runtime_path_imports_no_scipy(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import intertwine, intertwine.harness, intertwine.cli, intertwine.verify\n"
            "from intertwine import dynamics as dyn, forcing as fr, spectral as sp\n"
            "grid = sp.Grid(16)\n"
            "rng = np.random.default_rng(0)\n"
            "force = fr.SteadyForcing(fr.kolmogorov_force(grid, 0.1, 2))\n"
            "state = dyn.IntertwinedState(\n"
            "    grid=grid, t=0.0, nu=0.2, K=2.0,\n"
            "    matrix=dyn.IntertwiningMatrix.nudge_mutual(60.0, 60.0),\n"
            "    v1=sp.random_field(grid, rng), v2=sp.random_field(grid, rng),\n"
            "    forcing=fr.ForcingPair.synchronized(force),\n"
            ")\n"
            "dyn.integrate(state, 0.2, dt=0.02)  # 60 * 0.02 > 1: folded\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(dyn.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
