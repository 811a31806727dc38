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
steps.  A `Workspace` holds the pair as one stack on the dealias box (see
`spectral.BoxAdvection`) with every buffer the steps need, so each
right-hand side costs one batched pruned inverse and forward transform for
both copies and a step allocates nothing.
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


class Workspace:
    """Every array of the coupled right-hand side and of its stepper, built
    once per call and reused: the one kernel of `integrate`, `rhs_general`
    and `rhs_nse`.

    The copies live as one (c, 2, 2r+1, r+1) stack on the dealias box (see
    `spectral.BoxAdvection`, which supplies B(v, v)).  The initial fields
    and each newly packed force stack pass the alias guard
    (`spectral.ALIAS_RTOL`), and nothing inside a step checks it again:
    every right-hand-side term is masked to the dealias ball, so content
    outside it only decays.  After the check only the box is kept, so
    content below ALIAS_RTOL outside the box is dropped when it is packed.

    forces holds one callable t -> SpectralField per copy; the packed force
    stack is reused while they return the same fields (a steady force is
    packed once).  The matrix fixes the intertwining function F: P_K B(., .)
    for a direct-replacement matrix, P_K for every other; a zero matrix, or
    one folded into the propagator, adds no coupling term.  With dt set the
    workspace steps: the propagator is the decay exp(-nu |k|^2 dt), and with
    fold the 2x2 exp(dt M) across the copies on low modes, which moves the
    linear nudging coupling out of the explicit stages.

    Each entry's arithmetic (F = g - B, the row sums m_i1 c1 + m_i2 c2, the
    Heun combination, one 2x2 matrix product for the folded propagator)
    does not depend on the layout, so results on the box are bitwise those
    of the half-spectrum stack.  A step allocates nothing.  The transform
    buffers are allocated at the first right-hand side, after the first
    force stack is packed, so that the packing's temporaries and those
    buffers are never live together.
    """

    def __init__(self, grid: Grid, nu: float, fields, forces, matrix: IntertwiningMatrix,
                 K: float = 0.0, advect: bool = True, dt=None, fold: bool = False):
        self.grid = grid
        self.nu = nu
        self.advect = advect
        self.forcing = tuple(forces)
        self.bilinear = matrix.is_direct_replacement
        self.coupled = not fold and bool(np.any(matrix.entries != 0.0))
        self.entries = matrix.entries
        self.V = self._pack(fields)
        self.shape = self.V.shape
        self.G, self.K1, self.X, self.B = (np.empty(self.shape, dtype=np.complex128) for _ in range(4))
        self._forces = (None,) * len(self.forcing)
        self.kernel = None
        # masks and decays enter the ufuncs at the stack's own shape (see
        # BoxAdvection), and as complex numbers, which is what numpy casts
        # them to against a complex operand
        self.low = self._stack(grid.low_mode_mask(K)) if self.coupled else None
        self.decay = self._stack(np.exp(-nu * grid.k2 * dt)) if dt is not None else None
        self.dt = dt
        self.pair_block = None
        if fold:
            self.pair_block = expm_2x2(dt * matrix.entries).astype(np.complex128)
            self.low_modes = np.flatnonzero(spectral.to_box(grid, grid.low_mode_mask(K)))
            self.low_values = np.empty((2, 2, len(self.low_modes)), dtype=np.complex128)
            self.low_mixed = np.empty((2, 2 * len(self.low_modes)), dtype=np.complex128)
        cols, rows = self.shape[-1], self.shape[-2]
        self.norm_weight = np.tile(np.repeat(grid.weight[:cols], 2), 2 * rows)
        self.norms = np.empty(len(self.V))

    @classmethod
    def of(cls, state: IntertwinedState, dt=None, fold: bool = False) -> "Workspace":
        """The workspace of a state's pair, its forces and its matrix."""
        return cls(state.grid, state.nu, (state.v1, state.v2), (state.forcing.g1, state.forcing.g2),
                   state.matrix, state.K, state.advect, dt, fold)

    def _stack(self, a) -> np.ndarray:
        box = np.broadcast_to(spectral.to_box(self.grid, a), self.shape)
        return np.ascontiguousarray(box, dtype=np.complex128)

    def _pack(self, fields, out=None) -> np.ndarray:
        V = spectral.pack(*fields)
        spectral._require_dealiased(self.grid, V)
        return spectral.to_box(self.grid, V, out)

    @property
    def nbytes(self) -> int:
        """The bytes of the arrays the workspace holds, its kernel's included
        once it has stepped."""
        owners = (self, self.kernel) if self.kernel else (self,)
        return sum(a.nbytes for o in owners for a in vars(o).values() if isinstance(a, np.ndarray))

    def forces(self, t) -> np.ndarray:
        """The packed force stack at t; do not modify it in place."""
        g = tuple(f(t) for f in self.forcing)
        if any(a is not b for a, b in zip(g, self._forces)):
            self._forces = g
            self._pack(g, self.G)
        return self.G

    def rhs(self, V, t, out, diffuse=False) -> np.ndarray:
        """Write the right-hand sides of the box stack V at t into out, which
        may be V; returns out.

        f_i = g_i [- nu A v_i] - B(v_i, v_i) [+ m_i1 F(v1) + m_i2 F(v2)].
        Diffusion enters only when diffuse (the stepper integrates it
        exactly).
        """
        F = self.forces(t)
        if self.kernel is None:
            self.kernel = spectral.BoxAdvection(self.grid, len(V))
        B, (c, s) = self.B, self.kernel.work
        # every read of V comes before out is written
        if self.advect or (self.coupled and self.bilinear):
            self.kernel.advect(V, B)
        if self.coupled:
            np.multiply(B if self.bilinear else V, self.low, out=c)
        if diffuse:
            F = np.subtract(F, self.nu * (spectral.to_box(self.grid, self.grid.k2) * V), out=out)
        if self.advect:
            F = np.subtract(F, B, out=out)
        if F is not out:
            np.copyto(out, F)
        if self.coupled:
            # sum each row's coupling first: commutativity of addition then
            # keeps the two equations bitwise equal on the synchronized manifold
            m, scratch = self.entries, B[0]
            for i in range(2):
                np.multiply(m[i, 0], c[0], out=s[i])
                np.multiply(m[i, 1], c[1], out=scratch)
                np.add(s[i], scratch, out=s[i])
            np.add(out, s, out=out)
        return out

    def propagate(self, V) -> None:
        """Apply the propagator to the box stack V in place."""
        np.multiply(V, self.decay, out=V)
        if self.pair_block is not None:
            flat = V.reshape(2, 2, -1)
            np.take(flat, self.low_modes, axis=-1, out=self.low_values, mode="clip")
            # the np.dot that np.tensordot(pair_block, values, axes=(1, 0)) runs
            np.dot(self.pair_block, self.low_values.reshape(2, -1), out=self.low_mixed)
            flat[..., self.low_modes] = self.low_mixed.reshape(2, 2, -1)

    def step(self, t) -> None:
        """One integrating-factor Heun step of V from time t, in place."""
        dt, V, K1, X = self.dt, self.V, self.K1, self.X
        self.rhs(V, t, K1)
        np.multiply(dt, K1, out=X)
        np.add(V, X, out=X)
        self.propagate(X)
        K2 = self.rhs(X, t + dt, X)
        np.multiply(0.5 * dt, K2, out=K2)
        np.multiply(0.5 * dt, K1, out=K1)
        np.add(V, K1, out=V)
        self.propagate(V)
        np.add(V, K2, out=V)

    def largest_norm(self) -> float:
        """The largest L2 norm of the copies after a step; NaN when one is
        not finite."""
        floats = self.V.reshape(len(self.V), -1).view(np.float64)
        squares = self.kernel.work[0].reshape(len(self.V), -1).view(np.float64)
        np.multiply(floats, floats, out=squares)
        np.dot(squares, self.norm_weight, out=self.norms)
        return float(np.sqrt(spectral.PLANCHEREL * self.norms.max()))

    def right_hand_sides(self, t) -> np.ndarray:
        """The full right-hand sides of the packed fields at t, diffusion
        included, as a fresh half-spectrum stack."""
        return spectral.from_box(self.grid, self.rhs(self.V, t, self.K1, diffuse=True))


def rhs_nse(u: SpectralField, f: SpectralField, nu: float) -> SpectralField:
    """Plain Navier-Stokes right-hand side f - nu A u - B(u, u)."""
    ws = Workspace(u.grid, nu, (u,), (lambda t: f,), IntertwiningMatrix.zero())
    return SpectralField(u.grid, ws.right_hand_sides(0.0)[0])


def rhs_general(state: IntertwinedState):
    """Right-hand sides of the intertwined system.

    Returns (f1, f2) with f_i = g_i - nu A v_i - B(v_i, v_i)
    + m_i1 F(v1) + m_i2 F(v2).  The matrix fixes F: P_K B(., .) for a
    direct-replacement matrix, P_K for every other.
    """
    F = Workspace.of(state).right_hand_sides(state.t)
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
    """The state at t whose pair is the box stack V, in fresh arrays."""
    v1, v2 = spectral.from_box(state.grid, V)
    return replace(state, t=t, v1=SpectralField(state.grid, v1), v2=SpectralField(state.grid, v2))


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
    and at each step that sample_steps samples; each state it gets holds its
    own arrays.  Aborts with BlowupDetected when any norm exceeds
    BLOWUP_LIMIT or turns non-finite (diverging trajectories are an expected
    outcome for some symmetric direct-replacement parameters).
    cfl_factor=None disables the step-size guard.  Raises AliasingViolation
    when the pair or a force carries energy outside the dealias radius.

    The pair is advanced in place on one `Workspace`.  A nudging coupling
    with max gain * dt > FOLD_GAIN_DT is folded into the propagator.
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
    ws = Workspace.of(state, dt, fold)
    t0 = state.t
    if sink is not None:
        sink(state)
    for k in range(1, nsteps + 1):
        ws.step(t0 + (k - 1) * dt)
        # a NaN norm fails the comparison too
        if not ws.largest_norm() <= BLOWUP_LIMIT:
            raise BlowupDetected(t0 + k * dt)
        if sink is not None and sampled(k):
            sink(_with_pair(state, ws.V, t0 + k * dt))
    V = ws.V
    del ws  # frees the buffers before the returned fields are built
    return _with_pair(state, V, t0 + nsteps * dt)
