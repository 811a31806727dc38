"""Coupled pairs of 2D Navier-Stokes copies and their time integration.

Two coupling families are implemented through a 2x2 intertwining matrix M
acting on an intertwining function F of each copy; the class of M fixes F:

  * nudging:            F(v) = P_K v          (linear low-mode feedback)
  * direct replacement: F(v) = P_K B(v, v)    (low-mode nonlinearity swap)

Each equation reads dv_i/dt + nu A v_i + B(v_i, v_i) = g_i + sum_j m_ij F(v_j).
The stepper removes the stiff diffusion exactly with an integrating factor
and advances the remaining terms with Heun's method (second order); for
strongly damped nudging runs the linear coupling can be folded into a
per-mode 2x2 matrix exponential so large feedback gains do not force tiny
steps.  The stepper holds the pair as one (2, 2, n, n//2+1) stack of half
spectra (see `spectral`), so each right-hand side costs one batched inverse
and one batched forward real FFT for both copies.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .forcing import ForcingPair
from .spectral import Grid, SpectralField, project_high, project_low

NUDGE_SYMMETRIC = "nudge_symmetric"
NUDGE_MUTUAL = "nudge_mutual"
DR_SYMMETRIC = "dr_symmetric"
DR_MUTUAL = "dr_mutual"
GENERAL = "general"
NONE = "none"

NUDGING_CLASSES = (NUDGE_SYMMETRIC, NUDGE_MUTUAL)
DR_CLASSES = (DR_SYMMETRIC, DR_MUTUAL)

# a nudging coupling is folded into the propagator once max gain * dt exceeds this
FOLD_GAIN_DT = 1.0
# a step whose largest copy norm exceeds this (or is not finite) is a blow-up
BLOWUP_LIMIT = 1e8


class WrongMatrixClass(ValueError):
    """Operation requires a coupling matrix from a different class."""


class StepGuardViolation(ValueError):
    """Requested step size exceeds the configured stability guard."""


class BlowupDetected(RuntimeError):
    """Trajectory left the finite ball; expected in misconfigured regimes."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"solution norm diverged at t={t:g}")


class IntertwiningMatrix:
    """Tagged 2x2 coupling matrix with its class constraints enforced.

    entries[i][j] multiplies F(v_{j+1}) in the equation for v_{i+1}.
    """

    __slots__ = ("kind", "params", "entries")

    def __init__(self, kind, params, entries):
        self.kind = kind
        self.params = tuple(float(p) for p in params)
        self.entries = np.asarray(entries, dtype=np.float64).reshape(2, 2)

    @classmethod
    def nudge_symmetric(cls, mu1: float, mu2: float) -> "IntertwiningMatrix":
        if not mu1 >= mu2 >= 0:
            raise ValueError(f"symmetric nudging requires mu1 >= mu2 >= 0, got ({mu1}, {mu2})")
        return cls(NUDGE_SYMMETRIC, (mu1, mu2), [[-mu1, mu2], [mu2, -mu1]])

    @classmethod
    def nudge_mutual(cls, mu1: float, mu2: float) -> "IntertwiningMatrix":
        if mu1 < 0 or mu2 < 0:
            raise ValueError(f"mutual nudging requires mu1, mu2 >= 0, got ({mu1}, {mu2})")
        return cls(NUDGE_MUTUAL, (mu1, mu2), [[-mu1, mu1], [mu2, -mu2]])

    @classmethod
    def dr_symmetric(cls, theta1: float, theta2: float) -> "IntertwiningMatrix":
        if abs(theta1 + theta2 - 1.0) > 1e-12:
            raise ValueError(f"direct replacement requires theta1 + theta2 = 1, got {theta1 + theta2}")
        return cls(DR_SYMMETRIC, (theta1, theta2), [[theta1, -theta2], [-theta2, theta1]])

    @classmethod
    def dr_mutual(cls, theta1: float, theta2: float) -> "IntertwiningMatrix":
        if abs(theta1 + theta2 - 1.0) > 1e-12:
            raise ValueError(f"direct replacement requires theta1 + theta2 = 1, got {theta1 + theta2}")
        if theta1 < 0 or theta2 < 0:
            raise ValueError(f"mutual direct replacement requires theta1, theta2 >= 0, got ({theta1}, {theta2})")
        return cls(DR_MUTUAL, (theta1, theta2), [[theta1, -theta1], [-theta2, theta2]])

    @classmethod
    def general(cls, m11, m12, m21, m22) -> "IntertwiningMatrix":
        return cls(GENERAL, (m11, m12, m21, m22), [[m11, m12], [m21, m22]])

    @classmethod
    def zero(cls) -> "IntertwiningMatrix":
        """The trivial intertwinement (uncoupled copies)."""
        return cls.general(0.0, 0.0, 0.0, 0.0)

    @property
    def is_nudging(self):
        return self.kind in NUDGING_CLASSES

    @property
    def is_direct_replacement(self):
        return self.kind in DR_CLASSES

    @property
    def eigenvalues(self):
        """Eigenvalues of the damping matrix -M, ordered (lambda1, lambda2).

        For the symmetric nudging class these are (mu1 - mu2, mu1 + mu2) and
        -M is non-negative definite.
        """
        lams = np.linalg.eigvals(-self.entries)
        lams = np.sort(np.real_if_close(lams))
        return float(np.real(lams[0])), float(np.real(lams[1]))

    def damping(self) -> np.ndarray:
        """The matrix -entries (non-negative definite for symmetric nudging)."""
        return -self.entries

    def __repr__(self):
        return f"IntertwiningMatrix({self.kind}, params={self.params})"


@dataclass(frozen=True)
class CouplingClass:
    """One row of the coupling-class registry.

    code is the class byte of a checkpoint; build is the IntertwiningMatrix
    constructor; params are its argument names, which are also the config's
    [coupling] keys for the class.
    """

    code: int
    build: Callable[..., IntertwiningMatrix]
    params: tuple[str, ...]


COUPLING_CLASSES = {
    NUDGE_SYMMETRIC: CouplingClass(0, IntertwiningMatrix.nudge_symmetric, ("mu1", "mu2")),
    NUDGE_MUTUAL: CouplingClass(1, IntertwiningMatrix.nudge_mutual, ("mu1", "mu2")),
    DR_SYMMETRIC: CouplingClass(2, IntertwiningMatrix.dr_symmetric, ("theta1", "theta2")),
    DR_MUTUAL: CouplingClass(3, IntertwiningMatrix.dr_mutual, ("theta1", "theta2")),
    GENERAL: CouplingClass(4, IntertwiningMatrix.general, ("m11", "m12", "m21", "m22")),
    # the config alias for uncoupled copies builds a zero general matrix,
    # so it shares the general code
    NONE: CouplingClass(4, IntertwiningMatrix.zero, ()),
}
# reversed, so that a shared code maps to the first row that has it
COUPLING_BY_CODE = {spec.code: spec for spec in reversed(COUPLING_CLASSES.values())}


@dataclass(frozen=True)
class IntertwinedState:
    """Snapshot of the coupled pair: (v1, v2) plus time and parameters.

    States are immutable; stepping returns a new state.  Setting advect=False
    drops both B terms, turning each copy into a driven heat equation (used by
    the low-mode heat checks).
    """

    grid: Grid
    t: float
    nu: float
    K: float
    matrix: IntertwiningMatrix
    v1: SpectralField
    v2: SpectralField
    forcing: ForcingPair
    advect: bool = True

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.K < 0:
            raise ValueError("cutoff K must be >= 0")
        if self.K > self.grid.dealias_radius + 1e-12:
            raise ValueError(
                f"cutoff K={self.K} exceeds the dealias radius {self.grid.dealias_radius:g}"
            )
        if self.v1.grid != self.grid or self.v2.grid != self.grid:
            raise ValueError("v1, v2 must live on the state's grid")


def rhs_nse(u: SpectralField, f: SpectralField, nu: float) -> SpectralField:
    """Plain Navier-Stokes right-hand side f - nu A u - B(u, u)."""
    grid = u.grid
    U = spectral.pack(u)
    out = spectral.pack(f) - nu * (grid.k2 * U) - spectral.self_advection(grid, U)
    return SpectralField(grid, out[0])


def expm_2x2(a) -> np.ndarray:
    """exp(a) of a real 2x2 matrix in closed form.

    With a = (tr/2) I + b and d^2 = b00^2 + b01 b10 (b is trace-free, so
    b^2 = d^2 I), exp(a) = e^(tr/2) (cosh(d) I + sinh(d)/d b); cos and sin
    take over when d^2 < 0, and sinh(d)/d -> 1 at d = 0.  For d > 1 the
    factors are formed as e^(tr/2 +- d), so that large gains, where cosh(d)
    would overflow while e^(tr/2) underflows, stay finite.
    """
    a = np.asarray(a, dtype=np.float64)
    half_tr = 0.5 * (a[0, 0] + a[1, 1])
    b = a - half_tr * np.eye(2)
    d2 = b[0, 0] ** 2 + b[0, 1] * b[1, 0]
    d = np.sqrt(abs(d2))
    if d2 > 0 and d > 1.0:
        up, down = np.exp(half_tr + d), np.exp(half_tr - d)
        return 0.5 * ((up + down) * np.eye(2) + (up - down) / d * b)
    if d2 > 0:
        even, odd = np.cosh(d), np.sinh(d) / d
    elif d2 < 0:
        even, odd = np.cos(d), np.sin(d) / d
    else:
        even, odd = 1.0, 1.0
    return np.exp(half_tr) * (even * np.eye(2) + odd * b)


class _PackedPair:
    """Constants of the coupled right-hand side on packed (2, 2, n, n//2+1)
    stacks, built once per call: the low-mode mask P_K, whether F is
    P_K B(., .) (bilinear, for a direct-replacement matrix) or P_K, and
    whether any coupling acts.  It also keeps the last packed force pair,
    which is reused while the forcing returns the same two fields (a steady
    force is packed once per call).

    With dt set it also holds the propagator of the stepper: the decay
    exp(-nu |k|^2 dt), and with fold the 2x2 exp(dt M) applied across the
    copies on low modes, which moves the linear nudging coupling out of the
    explicit stages.
    """

    def __init__(self, state: IntertwinedState, dt=None, fold=False):
        grid = state.grid
        self.state = state
        self.bilinear = state.matrix.is_direct_replacement
        self.low = grid.low_mode_mask(state.K)
        self.coupled = not fold and bool(np.any(state.matrix.entries != 0.0))
        self._forces = (None, None)
        self._packed_forces = None
        if dt is not None:
            self.dt = dt
            self.decay = np.exp(-state.nu * grid.k2 * dt)
            self.pair_block = expm_2x2(dt * state.matrix.entries) if fold else None

    def forces(self, t):
        """The packed force pair (g1(t), g2(t)); do not modify it in place."""
        forcing = self.state.forcing
        g = (forcing.g1(t), forcing.g2(t))
        if g[0] is not self._forces[0] or g[1] is not self._forces[1]:
            self._forces = g
            self._packed_forces = spectral.pack(*g)
        return self._packed_forces

    def propagate(self, V):
        out = V * self.decay
        if self.pair_block is not None:
            low = out[:, :, self.low]
            out[:, :, self.low] = np.tensordot(self.pair_block, low, axes=(1, 0))
        return out

    def step(self, V, t):
        """One integrating-factor Heun step of the packed pair from time t."""
        dt = self.dt
        K1 = _rhs_terms(self, V, t, diffuse=False)
        pred = self.propagate(V + dt * K1)
        K2 = _rhs_terms(self, pred, t + dt, diffuse=False)
        return self.propagate(V + 0.5 * dt * K1) + 0.5 * dt * K2


def _rhs_terms(pair: _PackedPair, V, t, diffuse: bool):
    """The coupled right-hand sides of the packed pair V at t: the one kernel.

    f_i = g_i [- nu A v_i] - B(v_i, v_i) [+ m_i1 F(v1) + m_i2 F(v2)], with
    F = P_K B(., .) when bilinear and P_K otherwise.  Diffusion enters only
    when diffuse (the stepper integrates it exactly); coupling only when the
    pair is coupled and the coupling is not folded into the propagator.
    """
    state = pair.state
    F = pair.forces(t)
    if diffuse:
        F = F - state.nu * (state.grid.k2 * V)
    B = None
    if state.advect or (pair.coupled and pair.bilinear):
        B = spectral.self_advection(state.grid, V)
    if state.advect:
        F = F - B
    if pair.coupled:
        m = state.matrix.entries
        c1, c2 = (B if pair.bilinear else V) * pair.low
        # sum each row's coupling first: commutativity of addition then keeps
        # the two equations bitwise equal on the synchronized manifold
        F = F + np.stack([m[0, 0] * c1 + m[0, 1] * c2, m[1, 0] * c1 + m[1, 1] * c2])
    return F


def rhs_general(state: IntertwinedState):
    """Right-hand sides of the intertwined system.

    Returns (f1, f2) with f_i = g_i - nu A v_i - B(v_i, v_i)
    + m_i1 F(v1) + m_i2 F(v2).  The matrix fixes F: P_K B(., .) for a
    direct-replacement matrix, P_K for every other.
    """
    pair = _PackedPair(state)
    F = _rhs_terms(pair, spectral.pack(state.v1, state.v2), state.t, diffuse=True)
    return SpectralField(state.grid, F[0]), SpectralField(state.grid, F[1])


def derived_views(state: IntertwinedState) -> dict:
    """The linear change-of-variable views of the pair.

    w = v1 - v2, p/q its low/high parts, z = v1 + v2 with parts r/s.  The
    twisted combination v_theta = theta2 v1 + theta1 v2 and the rescaled error
    w_theta = sqrt(theta1 theta2) w exist only for direct-replacement
    matrices; when theta1 * theta2 = 0 the unscaled w is returned in place of
    w_theta (the rescaling degenerates there).
    """
    w = state.v1 - state.v2
    z = state.v1 + state.v2
    views = {
        "w": w,
        "p": project_low(w, state.K),
        "q": project_high(w, state.K),
        "z": z,
        "r": project_low(z, state.K),
        "s": project_high(z, state.K),
    }
    if state.matrix.is_direct_replacement:
        theta1, theta2 = state.matrix.params
        views["v_theta"] = theta2 * state.v1 + theta1 * state.v2
        scale = theta1 * theta2
        views["w_theta"] = np.sqrt(scale) * w if scale > 0 else w
    return views


def residual_twisted(state: IntertwinedState) -> float:
    """Check the closed equation satisfied by the twisted combination.

    For the mutual direct-replacement coupling, theta2*rhs1 + theta1*rhs2 must
    equal g_theta - nu A v_theta - B(v_theta, v_theta) - B(w_theta, w_theta)
    with g_theta = theta2 g1 + theta1 g2.  Returns the L2 norm of the gap.
    """
    if state.matrix.kind != DR_MUTUAL:
        raise WrongMatrixClass("the twisted-variable identity is for mutual direct replacement")
    theta1, theta2 = state.matrix.params
    if theta1 == 0.0:
        raise WrongMatrixClass("theta1 must be nonzero for the rescaled error variable")
    f1, f2 = rhs_general(state)
    combo = theta2 * f1 + theta1 * f2
    views = derived_views(state)
    v_th = views["v_theta"]
    w_th = views["w_theta"]
    g_th = theta2 * state.forcing.g1(state.t) + theta1 * state.forcing.g2(state.t)
    closed = (
        g_th
        - state.nu * spectral.stokes_apply(v_th, 2)
        - spectral.bilinear_B(v_th, v_th)
        - spectral.bilinear_B(w_th, w_th)
    )
    return (combo - closed).l2


def residual_half_DB(v1: SpectralField, v2: SpectralField) -> float:
    """L2 gap in B(v1,v1) - B(v2,v2) = (1/2) DB(v1+v2)(v1-v2)."""
    lhs = spectral.bilinear_B(v1, v1) - spectral.bilinear_B(v2, v2)
    rhs = 0.5 * spectral.frechet_DB(v1 + v2, v1 - v2)
    return (lhs - rhs).l2


def cfl_limit(state: IntertwinedState, c: float = 1.0) -> float:
    """Largest admissible step c * dx / |u|_inf (the advective limit).

    There is no diffusive limit: the integrating factor integrates the
    viscous term exactly at any step size.
    """
    dx = 2.0 * np.pi / state.grid.n
    umax = max(spectral.linf_norm(state.v1, state.v2), 1e-30)
    return c * dx / umax


def step_count(span: float, dt: float) -> int:
    """The number of steps of size dt in span.

    Raises ValueError unless span / dt is a whole number to 1e-9 relative,
    so that a run never ends short of its end time without saying so.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = span / dt
    whole = round(steps)
    if abs(steps - whole) > 1e-9 * max(whole, 1):
        raise ValueError(
            f"the span {span:g} is not a whole number of steps of dt = {dt:g} ({steps:.6g})"
        )
    return int(whole)


def sample_steps(span: float, dt: float, sample_every: float | None = None):
    """A run's step count and sampling rule, as (nsteps, sampled).

    nsteps is step_count(span, dt); sampled(k) holds at the last step and at
    every sample_every (the whole span when None), rounded to whole steps.
    """
    nsteps = step_count(span, dt)
    stride = max(1, int(round((sample_every or span) / dt)))
    return nsteps, lambda k: k % stride == 0 or k == nsteps


def _with_pair(state: IntertwinedState, V, t: float) -> IntertwinedState:
    """The state at t whose pair is the stack V (the fields share V's memory)."""
    return replace(state, t=t, v1=SpectralField(state.grid, V[0]), v2=SpectralField(state.grid, V[1]))


def integrate(
    state: IntertwinedState,
    t_end: float,
    dt: float,
    sample_every: float | None = None,
    sink=None,
    cfl_factor: float | None = 1.0,
) -> IntertwinedState:
    """Advance the state to t_end, sampling diagnostics along the way.

    t_end - state.t must be a whole number of steps (ValueError otherwise);
    step k lands at t = state.t + k dt.  sink(state) is invoked at t = start
    and at each step that sample_steps samples.  Aborts with BlowupDetected
    when any norm exceeds BLOWUP_LIMIT or turns non-finite (diverging
    trajectories are an expected outcome for some symmetric
    direct-replacement parameters).  cfl_factor=None disables the step-size
    guard.

    The pair is advanced as one (2, 2, n, n//2+1) half-spectrum stack.  A
    nudging coupling with max gain * dt > FOLD_GAIN_DT is folded into the
    propagator.
    """
    if t_end < state.t:
        raise ValueError("t_end precedes the state's current time")
    nsteps, sampled = sample_steps(t_end - state.t, dt, sample_every)
    if nsteps == 0:
        return state
    if cfl_factor is not None and state.advect:
        limit = cfl_limit(state, cfl_factor)
        if dt > limit:
            raise StepGuardViolation(
                f"dt={dt:g} violates the step guard {limit:g}; "
                "reduce dt or raise cfl_factor explicitly"
            )
    fold = state.matrix.is_nudging and max(abs(p) for p in state.matrix.params) * dt > FOLD_GAIN_DT
    pair = _PackedPair(state, dt, fold)
    # allocate and drop a buffer the size of a step's temporaries: unmapping it
    # raises glibc malloc's trim threshold, so the heap the loop frees each step
    # is reused, not returned and refaulted (n = 64 stepped 25-30% faster)
    np.empty(16 * state.v1.half.nbytes, dtype=np.uint8)
    t0 = state.t
    V = spectral.pack(state.v1, state.v2)
    if sink is not None:
        sink(state)
    for k in range(1, nsteps + 1):
        V = pair.step(V, t0 + (k - 1) * dt)
        norms = spectral.packed_l2(state.grid, V)
        if not np.all(np.isfinite(norms)) or norms.max() > BLOWUP_LIMIT:
            raise BlowupDetected(t0 + k * dt)
        if sink is not None and sampled(k):
            sink(_with_pair(state, V, t0 + k * dt))
    return _with_pair(state, V, t0 + nsteps * dt)
