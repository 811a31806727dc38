"""Built-in verification suites: algebraic identities, oracle agreement, heat.

These are the same checks the test suite runs; the `verify` CLI subcommand
executes them in-process and exits nonzero on any failure.  Each check
returns its worst observed residual so regressions are visible even while
still under tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import forcing as fr
from . import oracle as orc
from . import spectral as sp

# the tolerances of the identity residuals, of the bilinear term against the
# dense convolution, and of the trajectories against the dense RK4 reference
IDENTITY_TOL = 1e-10
BILINEAR_TOL = 1e-11
TRAJECTORY_TOL = 1e-6


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: worst {self.worst:.3e} (tol {self.tol:.1e}) {self.detail}"


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-300)


def identity_suite(sizes=(16, 32), count: int = 50):
    """Quadratic-form identities on random dealiased fields.

    Per field: skew symmetry of the trilinear form, b(u,v,v) = 0, the
    enstrophy identities, and the difference-of-squares identity
    B(v1,v1) - B(v2,v2) = (1/2) DB(v1+v2)(v1-v2).
    """
    results = []
    worst = {"skew": 0.0, "bvv": 0.0, "enstrophy": 0.0, "miracle": 0.0, "half_db": 0.0}
    for n in sizes:
        grid = sp.Grid(n)
        rng = np.random.default_rng(n)
        for _ in range(count):
            u = sp.random_field(grid, rng, energy=1.0, slope=1.0)
            v = sp.random_field(grid, rng, energy=1.0, slope=1.0)
            w = sp.random_field(grid, rng, energy=1.0, slope=1.0)
            scale3 = u.h1 * v.h1 * w.h1
            buvw = sp.trilinear_b(u, v, w)
            buwv = sp.trilinear_b(u, w, v)
            worst["skew"] = max(worst["skew"], _rel(abs(buvw + buwv), scale3))
            worst["bvv"] = max(
                worst["bvv"], _rel(abs(sp.trilinear_b(u, v, v)), u.h1 * v.h1 * v.h1)
            )
            Au = sp.stokes_apply(u, 2)
            Av = sp.stokes_apply(v, 2)
            scale_e = u.h1 * u.h1 * Au.l2
            worst["enstrophy"] = max(
                worst["enstrophy"], _rel(abs(sp.trilinear_b(u, u, Au)), scale_e)
            )
            miracle = (
                sp.trilinear_b(v, v, Au)
                + sp.trilinear_b(u, v, Av)
                + sp.trilinear_b(v, u, Av)
            )
            worst["miracle"] = max(
                worst["miracle"], _rel(abs(miracle), v.h1 * v.h1 * Au.l2)
            )
            half = dyn.residual_half_DB(u, v)
            scale_b = sp.bilinear_B(u, u).l2 + sp.bilinear_B(v, v).l2
            worst["half_db"] = max(worst["half_db"], _rel(half, scale_b))
    names = {
        "skew": "trilinear skew symmetry",
        "bvv": "b(u,v,v) = 0",
        "enstrophy": "b(u,u,Au) = 0",
        "miracle": "enstrophy polarization identity",
        "half_db": "difference equals half derivative of B",
    }
    for key, val in worst.items():
        results.append(CheckResult(names[key], val <= IDENTITY_TOL, val, IDENTITY_TOL))
    return results


def oracle_suite(cases: int = 20, dt_main: float = 2e-4, dt_ref: float = 1e-4):
    """Cross-validation of the pseudospectral path against the dense oracle.

    Bilinear-term agreement at n = 16 on the ball |k| <= 4, then full
    trajectories (plain system plus both coupling families) at n = 8 to
    T = 1 against the dense RK4 reference.  The one list of states runs as
    one ensemble in each path, each member bitwise its lone run, and both
    paths return states.
    """
    results = []
    grid = sp.Grid(16)
    rng = np.random.default_rng(0)
    worst_b = 0.0
    for _ in range(cases):
        u = sp.random_field(grid, rng, energy=1.0, kmax=4.0)
        v = sp.random_field(grid, rng, energy=1.0, kmax=4.0)
        dense = orc.dense_bilinear_B(u, v, keep=4.0)
        pseudo = sp.project_low(sp.bilinear_B(u, v), 4.0)
        worst_b = max(worst_b, _rel((pseudo - dense).l2, dense.l2))
    results.append(
        CheckResult("bilinear term: pseudospectral vs dense convolution", worst_b <= BILINEAR_TOL, worst_b,
                    BILINEAR_TOL)
    )

    g8 = sp.Grid(8)
    rng = np.random.default_rng(1)
    v1 = sp.random_field(g8, rng, energy=0.6, kmax=g8.dealias_radius)
    v2 = sp.random_field(g8, rng, energy=0.6, kmax=g8.dealias_radius)
    pair = fr.ForcingPair.synchronized(fr.SteadyForcing(fr.kolmogorov_force(g8, 0.2, 2)))
    # the plain system is the zero matrix
    matrices = {
        "nse": dyn.IntertwiningMatrix.zero(),
        "nudge_mutual": dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5),
        "dr_mutual": dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75),
    }
    states = [
        dyn.IntertwinedState(grid=g8, t=0.0, nu=0.3, K=2.0, matrix=matrix, v1=v1, v2=v2, forcing=pair)
        for matrix in matrices.values()
    ]
    finals = dyn.integrate_many(states, 1.0, dt=dt_main)
    refs = orc.dense_trajectories(states, 1.0, dt_ref=dt_ref)
    for label, final, ref in zip(matrices, finals, refs):
        for out in (final, ref):
            if isinstance(out, dyn.BlowupDetected):
                raise out
        gap = max((final.v1 - ref.v1).l2, (final.v2 - ref.v2).l2)
        results.append(
            CheckResult(f"trajectory vs dense RK4 ({label})", gap <= TRAJECTORY_TOL, gap, TRAJECTORY_TOL)
        )
    return results


def heat_suite():
    """Low-mode heat behaviour of the direct-replacement error.

    (a) With a constant force mismatch the simulated low-mode error matches
    the exact heat solution at second order in dt (halving slope 2 +/- 0.2).
    (b) With a decaying mismatch all low-mode Sobolev norms through order 2
    fall below 1e-8 by T = 20 at nu = 1, K = 4.
    """
    results = []
    grid = sp.Grid(16)
    rng = np.random.default_rng(0)
    nu, K = 1.0, 4.0
    base = fr.SteadyForcing(fr.kolmogorov_force(grid, 0.2, 2))
    h_field = sp.random_field(grid, rng, energy=0.1, kmax=K)
    pair = fr.ForcingPair(
        fr.SteadyForcing(base.field + h_field), fr.SteadyForcing(base.field)
    )
    v1 = sp.random_field(grid, rng, energy=0.4, kmax=grid.dealias_radius)
    v2 = sp.random_field(grid, rng, energy=0.4, kmax=grid.dealias_radius)
    matrix = dyn.IntertwiningMatrix.dr_mutual(0.5, 0.5)

    errors = []
    dts = (0.02, 0.01, 0.005)
    for dt in dts:
        samples = []

        def sink(s):
            samples.append((s.t, sp.project_low(s.v1 - s.v2, K)))

        state = dyn.IntertwinedState(
            grid=grid, t=0.0, nu=nu, K=K, matrix=matrix, v1=v1, v2=v2, forcing=pair
        )
        dyn.integrate(state, 1.0, dt=dt, sample_every=0.1, sink=sink)
        from .diagnostics import heat_compare

        errors.append(heat_compare(samples, h_field, nu, K))
    slopes = [
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    slope_ok = all(abs(s - 2.0) <= 0.2 for s in slopes)
    results.append(
        CheckResult(
            "low-mode error matches exact heat flow at order dt^2",
            slope_ok,
            max(abs(s - 2.0) for s in slopes),
            0.2,
            detail=f"errors {['%.3e' % e for e in errors]}, slopes {['%.2f' % s for s in slopes]}",
        )
    )

    # decaying mismatch: all low-mode norms through order 2 must vanish
    delta = sp.random_field(rng=np.random.default_rng(2), grid=grid, energy=0.01, kmax=2.0)
    pair2 = fr.ForcingPair.decaying_delta(base, delta, rate=2.0)
    v2b = v1 + sp.random_field(grid, np.random.default_rng(3), energy=0.01, kmax=K)
    state = dyn.IntertwinedState(
        grid=grid, t=0.0, nu=nu, K=K, matrix=matrix, v1=v1, v2=v2b, forcing=pair2
    )
    final = dyn.integrate(state, 20.0, dt=0.01)
    p_final = sp.project_low(final.v1 - final.v2, K)
    worst = max(sp.hm_norm(p_final, m) for m in range(3))
    results.append(
        CheckResult(
            "vanishing mismatch drives all low-mode norms below 1e-8 by T=20",
            worst <= 1e-8,
            worst,
            1e-8,
        )
    )
    return results


def suites(fast: bool = False):
    """(name, run) for every suite in order; fast mode trims batch sizes."""
    return [
        ("identity", lambda: identity_suite(count=10 if fast else 50)),
        ("oracle", lambda: oracle_suite(cases=5 if fast else 20, dt_main=1e-3 if fast else 2e-4,
                                        dt_ref=5e-4 if fast else 1e-4)),
        ("heat", heat_suite),
    ]
