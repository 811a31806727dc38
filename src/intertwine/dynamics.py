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
steps.  A `Workspace` holds the pair, or an ensemble of pairs that share
grid, time, viscosity and step (`integrate_many`), as one stack on the
dealias box (see `spectral.BoxAdvection`) with every buffer the steps need,
so each right-hand side costs one batched pruned inverse and forward
transform for all copies and a step allocates nothing.  A `Workspace` also
samples each member's `TimeSeriesRecord` on the box (`Workspace.sample`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .forcing import ForceStack, ForcingPair
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

    def __init__(self, t):
        self.t = t
        super().__init__(f"solution norm diverged at t={t:g}")


def diverged(square_norms, members) -> list:
    """The blow-up rule of the stepper and the dense oracle: the members
    whose largest copy norm exceeds BLOWUP_LIMIT or is not finite.

    square_norms holds each copy's squared L2 norm over PLANCHEREL, and
    members each member's slice of the copies.  One reduction when no
    member has diverged.
    """
    # a NaN norm fails the comparison too
    if np.sqrt(spectral.PLANCHEREL * square_norms.max()) <= BLOWUP_LIMIT:
        return []
    norms = np.sqrt(spectral.PLANCHEREL * square_norms)
    return [p for p, copies in enumerate(members) if not norms[copies].max() <= BLOWUP_LIMIT]


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

    States are immutable; stepping returns a new state.
    """

    grid: Grid
    t: float
    nu: float
    K: float
    matrix: IntertwiningMatrix
    v1: SpectralField
    v2: SpectralField
    forcing: ForcingPair

    def __post_init__(self):
        # in positive form, so that NaN fails them too
        if not 0.0 < self.nu < np.inf:
            raise ValueError(f"viscosity nu = {self.nu} must be finite and positive")
        if not (0.0 <= self.K and spectral.in_ball(self.K, self.grid.dealias_radius)):
            raise ValueError(
                f"cutoff K = {self.K} lies outside [0, {self.grid.dealias_radius:g}], the dealias radius"
            )
        if self.v1.grid != self.grid or self.v2.grid != self.grid:
            raise ValueError("v1, v2 must live on the state's grid")


@dataclass
class TimeSeriesRecord:
    """One sampled diagnostics row; the budget_* fields stay out of the CSV."""

    t: float
    l2_v1: float
    h1_v1: float
    l2_v2: float
    h1_v2: float
    l2_w: float
    h1_w: float
    l2_p: float
    l2_q: float
    h1_vtheta: float
    h1_wtheta: float
    energy_residual: float
    force_l2_g1: float
    force_l2_g2: float
    force_l2_h: float
    budget_energy: float = math.nan
    budget_dissipation: float = math.nan
    budget_pump: float = math.nan
    budget_penalty: float = math.nan


def expm_2x2(a) -> np.ndarray:
    """exp(a) of a real 2x2 matrix in closed form.

    With a = (tr/2) I + b and d^2 = b00^2 + b01 b10 (b is trace-free, so
    b^2 = d^2 I), exp(a) = e^(tr/2) (cosh(d) I + sinh(d)/d b); cos and sin
    take over when d^2 < 0, and sinh(d)/d -> 1 at d = 0.  For d > 1 the
    factors are formed as e^(tr/2 +- d), so that large gains, where cosh(d)
    would overflow while e^(tr/2) underflows, stay finite.  d^2 is formed on
    b scaled by the power of two at its largest entry, which is exact, so
    that it neither overflows nor underflows when the entries do squared.
    """
    a = np.asarray(a, dtype=np.float64)
    half_tr = 0.5 * (a[0, 0] + a[1, 1])
    b = a - half_tr * np.eye(2)
    scale = np.ldexp(1.0, np.frexp(np.abs(b).max())[1])
    unit = b / scale
    d2 = unit[0, 0] ** 2 + unit[0, 1] * unit[1, 0]
    d = np.sqrt(abs(d2)) * scale
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


def folds(matrix: IntertwiningMatrix, dt: float) -> bool:
    """Whether the stepper folds matrix into the propagator at step dt: a
    nudging coupling with max gain * dt > FOLD_GAIN_DT."""
    return matrix.is_nudging and max(abs(p) for p in matrix.params) * dt > FOLD_GAIN_DT


def _shared(states, name: str):
    """The value of attribute name that every state has; ValueError otherwise."""
    first = getattr(states[0], name)
    if any(getattr(s, name) != first for s in states[1:]):
        raise ValueError(f"the members of an ensemble must share {name}")
    return first


class Workspace:
    """Every array of the coupled right-hand side and of its stepper at step
    dt, built once per call and reused: the one kernel of `integrate`,
    `integrate_many` and `rhs_general`.

    It holds the states as its members, member p's copies v1 and v2 being
    copies 2p and 2p + 1 of one (2P, 2, 2r+1, r+1) stack on the dealias box,
    and `spectral.BoxAdvection` supplies B(v, v) for all of them at once.
    The members share grid, t and nu (ValueError naming the attribute
    otherwise) and the step dt, and each keeps its own matrix, cutoff K and
    forces, and is folded when `folds` says so at dt.

    The copies' forces are one `forcing.ForceStack` on the box.  Its
    distinct fields are packed once and pass the alias guard
    (`spectral.ALIAS_RTOL`) with the initial fields, and nothing inside a
    step checks it again: every right-hand-side term is masked to the
    dealias ball, so content outside it only decays.  After the check only
    the box is kept, so content below ALIAS_RTOL outside the box is dropped
    when it is packed.

    A member's matrix fixes its intertwining function F: P_K B(., .) for a
    direct-replacement matrix, P_K for every other; a zero matrix, or one
    folded into the propagator, adds no coupling term.  The propagator is
    the decay exp(-nu |k|^2 dt), and for a folded member also the 2x2
    exp(dt M) across its copies on low modes, which moves the linear nudging
    coupling out of the explicit stages.  At dt = 0 nothing is folded.

    Each entry's arithmetic (the force's fold, F = g - B, the row sums
    m_i1 c1 + m_i2 c2, the Heun combination, one 2x2 matrix product for a
    folded propagator) depends neither on the layout nor on the other
    members.  So results on the box are bitwise those of the half-spectrum
    stack, and each member is bitwise its lone run.  A step allocates
    nothing.  The transform buffers are allocated at the first right-hand
    side, after the fields are packed, so that the packing's temporaries and
    those buffers are never live together.  sample(p, t) computes member p's
    record on the box, with buffers of its own allocated at the first
    sample, so a run that samples nothing holds none of them.
    """

    def __init__(self, states, dt):
        grid, t, nu = (_shared(states, name) for name in ("grid", "t", "nu"))
        self.grid, self.dt = grid, dt
        self.V = self._pack([v for s in states for v in (s.v1, s.v2)])
        self.shape = self.V.shape
        self.K1, self.X, self.B = (np.empty(self.shape, dtype=np.complex128) for _ in range(3))
        forces = [g for s in states for g in (s.forcing.g1, s.forcing.g2)]
        self.forces = ForceStack(forces, self._pack, np.empty(self.shape, dtype=np.complex128), t)
        self.kernel = None
        # masks and decays enter the ufuncs at the stack's own shape (see
        # BoxAdvection), and as complex numbers, which is what numpy casts
        # them to against a complex operand
        self.decay = self._stack(np.exp(-nu * grid.k2 * dt))
        cols, rows = self.shape[-1], self.shape[-2]
        self.norm_weight = np.tile(np.repeat(grid.weight[:cols], 2), 2 * rows)
        self.norms = np.empty(len(self.V))
        self.members = [slice(c, c + 2) for c in range(0, len(self.V), 2)]
        folding = [folds(s.matrix, dt) for s in states]
        # each member's (matrix, K), which its records read
        self.member_couplings = [(s.matrix, s.K) for s in states]
        self.sampler = None
        # (first copy, entries, bilinear) of each member with a coupling term
        self.coupling = [
            (2 * p, s.matrix.entries, s.matrix.is_direct_replacement)
            for p, s in enumerate(states) if not folding[p] and np.any(s.matrix.entries != 0.0)
        ]
        self.low = None
        if self.coupling:
            self.low = np.empty(self.shape, dtype=np.complex128)
            for p, s in enumerate(states):
                self.low[2 * p : 2 * p + 2] = spectral.to_box(grid, grid.low_mode_mask(s.K))
        # (first copy, exp(dt M), low modes and their two buffers) of each folded member
        self.folded = []
        for p, s in enumerate(states):
            if folding[p]:
                modes = np.flatnonzero(spectral.to_box(grid, grid.low_mode_mask(s.K)))
                self.folded.append((
                    2 * p, expm_2x2(dt * s.matrix.entries).astype(np.complex128), modes,
                    np.empty((2, 2, len(modes)), dtype=np.complex128),
                    np.empty((2, 2 * len(modes)), dtype=np.complex128),
                ))

    def _stack(self, a) -> np.ndarray:
        box = np.broadcast_to(spectral.to_box(self.grid, a), self.shape)
        return np.ascontiguousarray(box, dtype=np.complex128)

    def _pack(self, fields) -> np.ndarray:
        V = spectral.pack(*fields)
        spectral._require_dealiased(self.grid, V)
        return spectral.to_box(self.grid, V)

    def rhs(self, V, t, out) -> np.ndarray:
        """Write the right-hand sides of the box stack V at t into out, which
        may be V; returns out.

        f_i = g_i - B(v_i, v_i) [+ m_i1 F(v1) + m_i2 F(v2)], without the
        diffusion, which the propagator integrates exactly.
        """
        F = self.forces.at(t)
        if self.kernel is None:
            self.kernel = spectral.BoxAdvection(self.grid, len(V))
        B, (c, s) = self.B, self.kernel.work
        # every read of V comes before out is written
        self.kernel.advect(V, B)
        for p, _, bilinear in self.coupling:
            pair = slice(p, p + 2)
            np.multiply((B if bilinear else V)[pair], self.low[pair], out=c[pair])
        np.subtract(F, B, out=out)
        for p, m, _ in self.coupling:
            # sum each row's coupling first: commutativity of addition then
            # keeps the two equations bitwise equal on the synchronized manifold
            scratch = B[p]
            for i in range(2):
                np.multiply(m[i, 0], c[p], out=s[p + i])
                np.multiply(m[i, 1], c[p + 1], out=scratch)
                np.add(s[p + i], scratch, out=s[p + i])
            pair = slice(p, p + 2)
            np.add(out[pair], s[pair], out=out[pair])
        return out

    def propagate(self, V) -> None:
        """Apply the propagator to the box stack V in place."""
        np.multiply(V, self.decay, out=V)
        for p, block, modes, values, mixed in self.folded:
            flat = V[p : p + 2].reshape(2, 2, -1)
            np.take(flat, modes, axis=-1, out=values, mode="clip")
            # the np.dot that np.tensordot(block, values, axes=(1, 0)) runs
            np.dot(block, values.reshape(2, -1), out=mixed)
            flat[..., modes] = mixed.reshape(2, 2, -1)

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

    def _square_norms(self) -> np.ndarray:
        floats = self.V.reshape(len(self.V), -1).view(np.float64)
        squares = self.kernel.work[0].reshape(len(self.V), -1).view(np.float64)
        np.multiply(floats, floats, out=squares)
        return np.dot(squares, self.norm_weight, out=self.norms)

    def blown_up(self) -> list:
        """The members that have `diverged` after a step."""
        return diverged(self._square_norms(), self.members)

    def sample(self, p, t) -> TimeSeriesRecord:
        """Member p's record at t, bitwise `diagnostics.sample_record` of its
        state at t (see `_Sampler`); the sampler's buffers are allocated at
        the first call."""
        if self.sampler is None:
            self.sampler = _Sampler(self)
        copies = self.members[p]
        matrix, K = self.member_couplings[p]
        return self.sampler.record(self.V[copies], self.forces.at(t)[copies], matrix, K, t)

    # (grid, box rows) -> fresh half spectra, which holds no reference to the workspace
    unpack = staticmethod(spectral.from_box)


# the rows of a sampler's field stack: the twisted pair (direct replacement
# only), then the fields whose L2 norms a record holds
_VTHETA, _WTHETA, _V1, _V2, _W, _P, _Q, _G1, _G2, _H = range(10)


class _Sampler:
    """The record of a member of a `Workspace`, computed on its box.

    It forms, as `derived_views` and `diagnostics.sample_record` form them,
    w = v1 - v2, p and q (w times the low- and high-mode masks, which the
    boolean masks of project_low and project_high are cast to against a
    complex field), h = g1 - g2 and, for a direct-replacement matrix,
    v_theta = theta2 v1 + theta1 v2 and w_theta = sqrt(theta1 theta2) w (w
    itself where theta1 theta2 = 0).  It stacks each weighted square
    |k|^(2m) weight (re^2 + im^2) that a norm sums, and for a mutual-nudging
    budget each weight (g_i.re v_i.re + g_i.im v_i.im) that a pump sums,
    copies them into a half-spectrum stack that is zero off the box, and
    reduces each row with one np.sum.  Each value is then summed over the
    same elements in the same order as by `spectral.hm_norm` and
    `spectral.inner` on the half spectra, so the record is bitwise theirs.
    The budget terms are formed from those values as sample_record forms
    them.  The fields are those of the box stack, so content that the alias
    guard lets through outside the box is dropped, as for the steps.
    """

    def __init__(self, ws):
        grid, (rows, cols) = ws.grid, ws.shape[-2:]
        n = grid.n
        self.fields = np.empty((10, 2, rows, cols), dtype=np.complex128)
        self.moduli = np.empty((10, 2, rows, cols))
        # 8 L2 norms, up to 5 V norms, or 3 V norms and 2 pumps
        self.weighted = np.empty((13, 2, rows, cols))
        self.spectra = np.zeros((13, 2, n, n // 2 + 1))
        # (box rows, half-spectrum rows) of the row blocks
        self.blocks = grid.box_blocks
        self.l2_weight, self.h1_weight = (
            spectral.to_box(grid, np.broadcast_to(grid.hm_weight(m), grid.k2.shape)) for m in (0, 1)
        )
        self.masks = {}
        for _, K in ws.member_couplings:
            if K not in self.masks:
                low = spectral.to_box(grid, grid.low_mode_mask(K))
                self.masks[K] = (low.astype(np.complex128), (~low).astype(np.complex128))

    def record(self, pair, forces, matrix, K, t) -> TimeSeriesRecord:
        """The record at t of the box pair (v1, v2) under the box forces
        (g1, g2), with the matrix and cutoff K of their member."""
        F, M, Q, Z = self.fields, self.moduli, self.weighted, self.spectra
        low, high = self.masks[K]
        np.copyto(F[_V1 : _V2 + 1], pair)
        np.copyto(F[_G1 : _G2 + 1], forces)
        np.subtract(F[_V1], F[_V2], out=F[_W])
        np.multiply(F[_W], low, out=F[_P])
        np.multiply(F[_W], high, out=F[_Q])
        np.subtract(F[_G1], F[_G2], out=F[_H])
        twisted = matrix.is_direct_replacement
        if twisted:
            theta1, theta2 = matrix.params
            np.multiply(F[_V1], theta2, out=F[_VTHETA])
            np.multiply(F[_V2], theta1, out=F[_WTHETA])
            np.add(F[_VTHETA], F[_WTHETA], out=F[_VTHETA])
            scale = theta1 * theta2
            if scale > 0:
                np.multiply(F[_W], np.sqrt(scale), out=F[_WTHETA])
            else:
                np.copyto(F[_WTHETA], F[_W])
        parts = F.view(np.float64)
        budget = matrix.kind == NUDGE_MUTUAL and matrix.params[0] + matrix.params[1] > 0
        if budget:
            # (g_i, v_i) into the twisted rows, which a nudging matrix leaves free
            np.multiply(parts[_G1 : _G2 + 1], parts[_V1 : _V2 + 1], out=parts[:2])
            np.add(parts[:2, ..., 0::2], parts[:2, ..., 1::2], out=M[:2])
            np.multiply(M[:2], self.l2_weight, out=Q[11:13])
        first = _VTHETA if twisted else _V1
        np.multiply(parts[first:], parts[first:], out=parts[first:])
        np.add(parts[first:, ..., 0::2], parts[first:, ..., 1::2], out=M[first:])
        np.multiply(M[_V1:], self.l2_weight, out=Q[:8])
        v_norms = _W + 1 - first
        np.multiply(M[first : _W + 1], self.h1_weight, out=Q[8 : 8 + v_norms])
        used = 13 if budget else 8 + v_norms
        for box, half in self.blocks:
            Z[:used, :, half, : Q.shape[-1]] = Q[:used, :, box]
        sums = spectral.PLANCHEREL * np.sum(Z[:used], axis=(1, 2, 3))
        l2_v1, l2_v2, l2_w, l2_p, l2_q, l2_g1, l2_g2, l2_h = np.sqrt(sums[:8]).tolist()
        h1 = np.sqrt(sums[8 : 8 + v_norms]).tolist()
        h1_vtheta, h1_wtheta = h1[:2] if twisted else (math.nan, math.nan)
        h1_v1, h1_v2, h1_w = h1[-3:]
        rec = TimeSeriesRecord(
            t=t, l2_v1=l2_v1, h1_v1=h1_v1, l2_v2=l2_v2, h1_v2=h1_v2, l2_w=l2_w, h1_w=h1_w,
            l2_p=l2_p, l2_q=l2_q, h1_vtheta=h1_vtheta, h1_wtheta=h1_wtheta, energy_residual=math.nan,
            force_l2_g1=l2_g1, force_l2_g2=l2_g2, force_l2_h=l2_h,
        )
        if budget:
            mu1, mu2 = matrix.params
            total = mu1 + mu2
            lam1, lam2 = mu2 / total, mu1 / total
            pump1, pump2 = sums[11:13].tolist()
            rec.budget_energy = lam1 * l2_v1**2 + lam2 * l2_v2**2
            rec.budget_dissipation = lam1 * h1_v1**2 + lam2 * h1_v2**2
            rec.budget_pump = lam1 * pump1 + lam2 * pump2
            rec.budget_penalty = (mu1 * mu2 / total) * l2_p**2
        return rec


def rhs_general(state: IntertwinedState):
    """Right-hand sides of the intertwined system.

    Returns (f1, f2) with f_i = g_i - nu A v_i - B(v_i, v_i)
    + m_i1 F(v1) + m_i2 F(v2).  The matrix fixes F: P_K B(., .) for a
    direct-replacement matrix, P_K for every other.  The terms other than
    diffusion are the stepper's `Workspace.rhs` at a zero step, which folds
    nothing, so every coupling term is explicit; nu A v is subtracted on
    the half spectrum.
    """
    run = Workspace([state], 0.0)
    F = run.unpack(state.grid, run.rhs(run.V, state.t, run.K1))
    F -= state.nu * state.grid.k2 * spectral.pack(state.v1, state.v2)
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
    """The number of steps of size dt in span = t_end - t.

    Raises ValueError unless dt is finite and positive and span / dt is a
    whole number to 1e-9 relative, so that a run never ends short of its
    end time without saying so, and below 2^53, from where every float is
    a whole number and the test proves nothing.
    """
    # in positive form, so that NaN fails it too
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt = {dt:g} must be finite and positive")
    steps = span / dt
    if not steps < 2.0**53:
        raise ValueError(f"t_end - t = {span:g} is {steps:.6g} steps of dt = {dt:g}, not below 2^53")
    whole = round(steps)
    if abs(steps - whole) > 1e-9 * max(whole, 1):
        raise ValueError(
            f"t_end - t = {span:g} is not a whole number of steps of dt = {dt:g} ({steps:.6g})"
        )
    return int(whole)


def sample_steps(span: float, dt: float, sample_every: float | None = None):
    """A run's step count and sampling rule, as (nsteps, sampled).

    nsteps is step_count(span, dt); sampled(k) holds at the last step and at
    every sample_every (the whole span when None), rounded to the nearest
    whole number of steps, a half to the even one (Python's round):
    sample_every = 0.25 at dt = 0.02 is 12.5 steps, so it samples every 12
    steps, t = 0, 0.24, 0.48, ...
    """
    nsteps = step_count(span, dt)
    stride = max(1, int(round((sample_every or span) / dt)))
    return nsteps, lambda k: k % stride == 0 or k == nsteps


def _with_pair(state: IntertwinedState, half, t: float) -> IntertwinedState:
    """The state at t whose pair is the half-spectrum stack half."""
    return replace(state, t=t, v1=SpectralField(state.grid, half[0]), v2=SpectralField(state.grid, half[1]))


def _run(states, t_end: float, dt: float, sample_every=None, sink=None, cfl_factor=1.0,
         stepper=Workspace, records=None) -> list:
    """The one run loop of the package: the states advanced to t_end as the
    members of one stepper, step k landing at t0 + k dt.

    stepper(states, dt) is a `Workspace`, or the oracle's dense RK4
    stepper.  It holds the copies as rows V, members[p] being member p's
    two, and their forces as a `forcing.ForceStack`; step(t) advances V
    from t, blown_up() names the members that have `diverged`, and
    unpack(grid, rows) gives fresh half spectra of rows.

    At t0 and at each step that sample_steps samples, sink(state) gets each
    live member's state, and records[p], a list per member, gets live
    member p's record from sample(p, t), which only a `Workspace` has.  A
    member that blows up is frozen: its rows are zeroed under frozen
    forces, so they stay zero and leave the others as they were, it is
    sampled no more, and the run stops once every member has.  Returns per
    state its state at t_end or its BlowupDetected.  The stepper is freed
    before the returned states are built, so a run peaks at its own arrays.
    """
    t0 = states[0].t
    if t_end < t0:
        raise ValueError("t_end precedes the states' current time")
    nsteps, sampled = sample_steps(t_end - t0, dt, sample_every)
    if nsteps == 0:
        return list(states)
    for state in states:
        limit = cfl_limit(state, cfl_factor) if cfl_factor is not None else np.inf
        if dt > limit:
            raise StepGuardViolation(
                f"dt={dt:g} violates the step guard {limit:g}; "
                "reduce dt or raise cfl_factor explicitly"
            )
    run = stepper(states, dt)
    members, unpack, blowups = run.members, run.unpack, {}
    sampling = sink is not None or records is not None
    for k in range(nsteps + 1):
        if k:
            run.step(t0 + (k - 1) * dt)
            for p in run.blown_up():
                run.V[members[p]] = 0.0
                run.forces.freeze(members[p])
                blowups[p] = BlowupDetected(t0 + k * dt)
            if len(blowups) == len(states):
                break
        if not (sampling and sampled(k)):
            continue
        t = t0 + k * dt
        for p, state in enumerate(states):
            if p in blowups:
                continue
            if sink is not None:
                sink(_with_pair(state, unpack(state.grid, run.V[members[p]]), t) if k else state)
            if records is not None:
                records[p].append(run.sample(p, t))
    V = run.V
    del run
    t = t0 + nsteps * dt
    return [blowups.get(p) or _with_pair(s, unpack(s.grid, V[members[p]]), t) for p, s in enumerate(states)]


def integrate(
    state: IntertwinedState,
    t_end: float,
    dt: float,
    sample_every: float | None = None,
    sink=None,
    cfl_factor: float | None = 1.0,
    records: list | None = None,
) -> IntertwinedState:
    """Advance the state to t_end, sampling diagnostics along the way.

    t_end - state.t must be a whole number of steps (ValueError otherwise);
    step k lands at t = state.t + k dt.  sink(state) is invoked at t = start
    and at each step that sample_steps samples; each state it gets holds its
    own arrays.  At the same times the list records gets the state's
    `TimeSeriesRecord` (`Workspace.sample`), which builds no state.  Aborts
    with BlowupDetected when any norm exceeds BLOWUP_LIMIT or turns
    non-finite (diverging trajectories are an expected outcome for some
    symmetric direct-replacement parameters).
    cfl_factor=None disables the step-size guard.  Raises AliasingViolation
    when the pair or a force field carries energy outside the dealias radius.

    The pair is advanced in place on one `Workspace`, as the one member of
    the run `integrate_many` makes.  A nudging coupling with max gain * dt >
    FOLD_GAIN_DT is folded into the propagator.
    """
    (out,) = _run((state,), t_end, dt, sample_every, sink, cfl_factor,
                  records=None if records is None else [records])
    if isinstance(out, BlowupDetected):
        raise out
    return out


def integrate_many(states, t_end: float, dt: float, cfl_factor: float | None = 1.0) -> list:
    """Advance an ensemble of states to t_end as one stack on one `Workspace`.

    The states must share grid, t and nu (ValueError otherwise), and
    dt is one step for all.  Returns, per state, its state at t_end, bitwise
    the state `integrate` returns for it alone, or the BlowupDetected of a
    member that blew up: that member is frozen and the others go on.  The
    step-size guard checks every member (cfl_factor=None disables it).
    """
    return _run(list(states), t_end, dt, cfl_factor=cfl_factor)
