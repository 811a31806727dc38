"""Brute-force references: dense convolution, tiny RK4 trajectories, exact heat.

Everything here avoids FFTs on purpose.  The advection term is evaluated as an
explicit convolution sum over mode pairs, so it has no aliasing and no
transform roundoff, and serves as an independent cross-check for the
pseudospectral path.  The RK4 integrator at a fixed reference step is the
trajectory gold standard for desk-scale runs.

Every function takes and returns the stepper's own types, `SpectralField`s
and `IntertwinedState`s.  One array kernel does the work: `_Kernel` holds
the constants of one Galerkin ball |k| <= keep on the smallest box that
holds it, reads fields into raw stacks of shape (copies, 2, side*side) and
writes stacks back to half spectra.  The trajectories take the
`IntertwinedState`s the stepper takes, read everything off them and return
what the stepper returns: `_RK4` is a stepper that the stepper's own run
loop, `dynamics._run`, drives.  Its ball is |k| <= grid.dealias_radius, so
its box is the stepper's dealias box (radius grid.box_cols - 1), under the
one ball rule `spectral.in_ball`.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import BlowupDetected, _run, _shared, diverged
from .forcing import ForceStack
from .spectral import BALL_ATOL, Grid, SpectralField, _require_same_grid, in_ball

MAX_RADIUS = 4


class RadiusTooLarge(ValueError):
    """A dense box is capped at MAX_RADIUS, and must fit the grid it reads or writes."""


def _k_axes(radius):
    return np.arange(-radius, radius + 1)


def _box_rows(radius: int, n: int):
    """Grid rows of ky = -radius..radius; distinct only when the box fits the grid."""
    if 2 * radius >= n:
        raise RadiusTooLarge(
            f"a dense box of radius {radius} needs a grid with n > {2 * radius}, got n = {n}"
        )
    return _k_axes(radius) % n


def _triples(radius: int, keep: float):
    """Index triples (a, b, k=a+b) inside the box, each in the ball |.| <= keep.

    Returns flat indices ia, ib, ik into the (2R+1)^2 layout plus the integer
    components of b (the gradient factor acts on the second argument), in
    the order of nested loops over a_y, a_x, b_y, b_x.
    """
    side = 2 * radius + 1
    ay, ax, by, bx = np.meshgrid(*[_k_axes(radius)] * 4, indexing="ij")
    ky, kx = ay + by, ax + bx

    def inside(y, x):
        return ((y != 0) | (x != 0)) & in_ball(np.sqrt(y * y + x * x), keep)

    on = (abs(ky) <= radius) & (abs(kx) <= radius) & inside(ay, ax) & inside(by, bx) & inside(ky, kx)
    flat = [((y + radius) * side + (x + radius))[on].astype(np.intp) for y, x in ((ay, ax), (by, bx), (ky, kx))]
    return (*flat, bx[on].astype(np.float64), by[on].astype(np.float64))


def _box_radius(keep: float) -> int:
    """The radius of the smallest box max(|kx|, |ky|) <= R that holds the ball |k| <= keep."""
    return math.floor(keep + BALL_ATOL)


class _Kernel:
    """The array kernel of the Galerkin ball |k| <= keep on the smallest box
    that holds it, max(|kx|, |ky|) <= radius = `_box_radius`(keep).

    Stacks have shape (copies, 2, S) with S = side^2, mode index
    (ky+R)*side + (kx+R).  `read` fills a stack from fields and `write`
    turns one into half spectra.  `bilinear` takes stacks of exactly
    `copies` copies: its triad indices are offset by (copy*2 + comp)*S, so
    one bincount over the interleaved real and imaginary parts sums the
    convolution of every copy and component.  Memory is O(triads * copies).
    """

    def __init__(self, keep: float, copies: int):
        self.radius = radius = _box_radius(keep)
        if not 1 <= radius <= MAX_RADIUS:
            raise RadiusTooLarge(
                f"the ball |k| <= {keep:g} needs a dense box of radius {radius}, outside [1, {MAX_RADIUS}]"
            )
        self.keep = keep
        self.side = side = 2 * radius + 1
        self.size = S = side * side
        ks = _k_axes(radius).astype(float)
        kvec = np.stack([np.tile(ks, side), np.repeat(ks, side)])
        k2 = kvec[0] ** 2 + kvec[1] ** 2
        nz = k2 > 0
        self.kmag = np.sqrt(k2)
        inv_k2 = np.zeros(S)
        inv_k2[nz] = 1.0 / k2[nz]
        # numpy casts a real operand of a complex product to complex, so the
        # constants are stored complex: the same products without the casts
        self.kvec = kvec.astype(np.complex128)
        self.inv_k2 = inv_k2.astype(np.complex128)
        # |k|^2 formed from |k|, not k2: the two differ in their last bits
        self.lap = (self.kmag**2).astype(np.complex128)
        ia, ib, ik, bx, by = _triples(radius, keep)
        # i b, so that i (u_a . b) = u_a,x (i b_x) + u_a,y (i b_y)
        self.ibvec = 1j * np.stack([bx, by])
        offsets = (np.arange(2 * copies) * S).reshape(copies, 2, 1)
        self.ia = ia + offsets
        self.ib = ib + offsets
        # real and imaginary parts interleaved: one bincount over the float view
        self.ik = ((2 * (ik + offsets))[..., None] + np.arange(2)).ravel()

    def read(self, fields) -> np.ndarray:
        """The stack of the fields' boxes, read through `SpectralField.coeffs`."""

        def box(u):
            rows = _box_rows(self.radius, u.grid.n)
            return u.coeffs[:, rows[:, None], rows].reshape(2, self.size)

        return np.array([box(u) for u in fields])

    def write(self, grid: Grid, V) -> np.ndarray:
        """Fresh half spectra on grid of the stack V (..., 2, S): the box's
        modes kx >= 0; the modes kx < 0 are their conjugates."""
        R, lead = self.radius, V.shape[:-1]
        half = np.zeros(lead + (grid.n, grid.n // 2 + 1), dtype=np.complex128)
        half[..., _box_rows(R, grid.n), : R + 1] = V.reshape(lead + (self.side, self.side))[..., R:]
        return half

    def low_mask(self, K: float):
        return in_ball(self.kmag, K).astype(np.complex128)

    def leray(self, D):
        """u - k (k . u) / |k|^2 per mode; the mean mode passes through."""
        p = self.kvec * D
        kdotu = p[:, :1] + p[:, 1:]
        return D - self.kvec * kdotu * self.inv_k2

    def bilinear(self, U, W):
        """Leray-projected sum over a + b = k of i (u_a . b) w_b, per copy.

        No triad writes k = 0, so the mean stays zero.
        """
        copies = U.shape[0]
        p = U.reshape(-1)[self.ia] * self.ibvec
        contrib = (p[:, :1] + p[:, 1:]) * W.reshape(-1)[self.ib]
        sums = np.bincount(self.ik, weights=contrib.view(np.float64).ravel(), minlength=copies * 4 * self.size)
        return self.leray(sums.view(np.complex128).reshape(copies, 2, self.size))

    def rhs(self, V, G, nu_lap, coupling=()):
        """f_i = g_i - nu A v_i - B(v_i, v_i) [+ m_i1 c_1 + m_i2 c_2] on a stack.

        nu_lap is nu * lap.  coupling holds (first, m1, m2, bilinear) for
        each coupled pair, the copies first and first + 1; m_j is the j-th
        column of its matrix times its low mask, c_j = B(v_j, v_j) when
        bilinear, else v_j.  As in `dynamics.Workspace.rhs`, each row is
        summed first.
        """
        B = self.bilinear(V, V)
        F = G - nu_lap * V - B
        for first, m1, m2, bilinear in coupling:
            X = B if bilinear else V
            pair = slice(first, first + 2)
            F[pair] = F[pair] + (m1 * X[first] + m2 * X[first + 1])
        return F


def dense_bilinear_B(u: SpectralField, v: SpectralField, keep: float | None = None) -> SpectralField:
    """B(u, v) by explicit convolution on the Galerkin ball |k| <= keep
    (default the grid's dealias radius): sum over a + b = k of i (u_a . b) v_b.

    Only the modes of u and v in the ball enter, and the output is truncated
    to the ball and Leray-projected per mode; reading and writing the same
    ball keeps the trilinear identities exact under truncation.  No
    transforms, hence no aliasing by construction.
    """
    _require_same_grid(u, v)
    grid = u.grid
    kern = _Kernel(grid.dealias_radius if keep is None else keep, 1)
    return SpectralField(grid, kern.write(grid, kern.bilinear(kern.read([u]), kern.read([v])))[0])


def heat_exact(p0: SpectralField, h: SpectralField | None, nu: float, t: float) -> SpectralField:
    """Exact low-mode heat solution for constant-in-time forcing.

    Per mode: p_k(t) = exp(-nu |k|^2 t) p_k(0) + (1 - exp(-nu |k|^2 t)) h_k / (nu |k|^2).
    The k = 0 mode is excluded by the mean-free constraint.
    """
    g = p0.grid
    decay = np.exp(-nu * g.k2 * t)
    half = p0.half * decay
    if h is not None:
        steady = np.zeros_like(h.half)
        steady[:, g.nonzero] = h.half[:, g.nonzero] / (nu * g.k2[g.nonzero])
        half = half + (1.0 - decay) * steady
    half[:, 0, 0] = 0.0
    return SpectralField(g, half)


def _coupling(kern: _Kernel, matrix, K: float, first: int) -> list:
    """The coupling entries of `_Kernel.rhs` for a pair at copies first and
    first + 1: none for a zero matrix, as in the stepper.

    The matrix fixes F: P_K B(., .) for direct replacement, P_K otherwise.
    """
    if not np.any(matrix.entries != 0.0):
        return []
    # column j, shaped (2, 1, 1) to scale c_j in both rows, times the mask
    m = matrix.entries.astype(np.complex128)[:, :, None, None] * kern.low_mask(K)
    return [(first, m[:, 0], m[:, 1], matrix.is_direct_replacement)]


class _RK4:
    """The dense stepper of the oracle's trajectories: the pairs of states
    on one dense stack, copies 2p and 2p + 1 being member p's v1 and v2,
    advanced by classical RK4 at step dt.  `dynamics._run` drives it as it
    drives a `dynamics.Workspace`.

    The states must share grid, t and nu (ValueError naming the attribute
    otherwise).  The forces are one `forcing.ForceStack` on the dense stack, and
    unpack(grid, V) is the kernel's `_Kernel.write`.
    """

    def __init__(self, states, dt):
        grid, t, nu = (_shared(states, name) for name in ("grid", "t", "nu"))
        self.kern = kern = _Kernel(grid.dealias_radius, 2 * len(states))
        # the kernel's method, not the stepper's: _run keeps unpack after it frees the stepper
        self.unpack = kern.write
        self.dt = dt
        self.nu_lap = nu * kern.lap
        self.V = kern.read([v for s in states for v in (s.v1, s.v2)])
        self.coupling = [c for p, s in enumerate(states) for c in _coupling(kern, s.matrix, s.K, 2 * p)]
        forces = [g for s in states for g in (s.forcing.g1, s.forcing.g2)]
        self.forces = ForceStack(forces, kern.read, np.empty_like(self.V), t)
        self.members = [slice(2 * p, 2 * p + 2) for p in range(len(states))]

    def rhs(self, V, t) -> np.ndarray:
        return self.kern.rhs(V, self.forces.at(t), self.nu_lap, self.coupling)

    def step(self, t) -> None:
        """One classical RK4 step of V from time t."""
        dt, V = self.dt, self.V
        half, sixth = 0.5 * dt, dt / 6.0
        k1 = self.rhs(V, t)
        k2 = self.rhs(V + half * k1, t + half)
        k3 = self.rhs(V + half * k2, t + half)
        k4 = self.rhs(V + dt * k3, t + dt)
        self.V = V + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def blown_up(self) -> list:
        """The members that have `diverged`; every copy is guarded, since a
        coupling can blow up either one alone."""
        energy = np.square(self.V.view(np.float64)).reshape(len(self.V), -1).sum(axis=1)
        return diverged(energy, self.members)


def _dense_pair_rhs(state):
    """Right-hand sides of the state's pair, dense path, as `SpectralField`s."""
    system = _RK4([state], 0.0)
    return tuple(SpectralField(state.grid, h) for h in system.unpack(state.grid, system.rhs(system.V, state.t)))


def dense_trajectory(state, t_end: float, dt_ref: float = 1e-4, sample_every: float | None = None,
                     sink=None):
    """Classical RK4 reference trajectory of the state's pair on the dense
    box: what `dynamics.integrate` returns for the state, without its
    step-size guard.

    The pair evolves under the state's matrix, which also fixes the
    intertwining function (the zero matrix is the plain Navier-Stokes
    system), its forces, nu and K.  t_end - state.t must be whole steps of
    dt_ref.  sink(state) gets the state at state.t and at the steps that
    `dynamics.sample_steps` samples.  Returns the state at t_end; raises
    BlowupDetected when the pair `diverged`.

    Convergence: halving dt_ref changes the endpoint at fourth order
    (Richardson ratio near 16), which the test suite verifies.
    """
    (out,) = _run((state,), t_end, dt_ref, sample_every, sink, cfl_factor=None, stepper=_RK4)
    if isinstance(out, BlowupDetected):
        raise out
    return out


def dense_trajectories(states, t_end: float, dt_ref: float = 1e-4) -> list:
    """`dense_trajectory` for several states on one stack, as
    `dynamics.integrate_many` runs them.

    The states share grid, t and nu (see `_RK4`).  Returns per state its
    state at t_end, bitwise that of its lone run, or the BlowupDetected of a
    member that `diverged`: that member is frozen, as the stepper freezes
    one, and the others go on.
    """
    return _run(list(states), t_end, dt_ref, cfl_factor=None, stepper=_RK4)
