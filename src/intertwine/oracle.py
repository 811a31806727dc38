"""Brute-force references: dense convolution, tiny RK4 trajectories, exact heat.

Everything here avoids FFTs on purpose.  The advection term is evaluated as an
explicit convolution sum over mode pairs, so it has no aliasing and no
transform roundoff, and serves as an independent cross-check for the
pseudospectral path.  The RK4 integrator at a fixed reference step is the
trajectory gold standard for desk-scale runs.

One array kernel does the work: `_Kernel` holds the per-box constants and
acts on raw stacks of shape (copies, 2, side*side).  `DenseModeSet` is the
boundary type only; the public functions and the RK4 loop wrap and unwrap it.
"""

from __future__ import annotations

import numpy as np

from .dynamics import BlowupDetected, diverged, sample_steps
from .spectral import PLANCHEREL, Grid, SpectralField

MAX_RADIUS = 4


class RadiusTooLarge(ValueError):
    """A dense box is capped at MAX_RADIUS, and must fit the grid it reads or writes."""


class DenseModeSet:
    """All modes in the box max(|kx|,|ky|) <= radius, stored densely.

    coeffs has shape (2, 2*radius+1, 2*radius+1) indexed [comp, ky+R, kx+R].
    keep_radius is the Euclidean truncation applied to products; matching it
    to a pseudospectral grid's dealias radius makes both paths integrate the
    same Galerkin system.
    """

    __slots__ = ("radius", "keep_radius", "coeffs")

    def __init__(self, radius: int, coeffs=None, keep_radius: float | None = None):
        if radius < 1 or radius > MAX_RADIUS:
            raise RadiusTooLarge(f"radius must be in [1, {MAX_RADIUS}], got {radius}")
        self.radius = int(radius)
        side = 2 * self.radius + 1
        if coeffs is None:
            coeffs = np.zeros((2, side, side), dtype=np.complex128)
        else:
            coeffs = np.asarray(coeffs, dtype=np.complex128)
            if coeffs.shape != (2, side, side):
                raise ValueError(f"coeffs must have shape (2, {side}, {side})")
        self.coeffs = coeffs
        self.keep_radius = float(keep_radius) if keep_radius is not None else float(radius)

    def copy(self):
        return DenseModeSet(self.radius, self.coeffs.copy(), self.keep_radius)

    def __add__(self, other):
        return DenseModeSet(self.radius, self.coeffs + other.coeffs, self.keep_radius)

    def __sub__(self, other):
        return DenseModeSet(self.radius, self.coeffs - other.coeffs, self.keep_radius)

    def __mul__(self, scalar):
        return DenseModeSet(self.radius, self.coeffs * scalar, self.keep_radius)

    __rmul__ = __mul__


def _k_axes(radius):
    return np.arange(-radius, radius + 1)


def _box_rows(radius: int, n: int):
    """Grid rows of ky = -radius..radius; distinct only when the box fits the grid."""
    if 2 * radius >= n:
        raise RadiusTooLarge(
            f"a dense box of radius {radius} needs a grid with n > {2 * radius}, got n = {n}"
        )
    return _k_axes(radius) % n


def dense_from_spectral(u: SpectralField, radius: int, keep_radius=None) -> DenseModeSet:
    """Extract the box |k_i| <= radius from a spectral field."""
    rows = _box_rows(radius, u.grid.n)
    return DenseModeSet(radius, np.ascontiguousarray(u.coeffs[:, rows[:, None], rows]), keep_radius)


def dense_to_spectral(d: DenseModeSet, grid: Grid) -> SpectralField:
    """The field of the box's modes kx >= 0; the modes kx < 0 are their conjugates."""
    rows = _box_rows(d.radius, grid.n)
    half = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    R = d.radius
    half[:, rows, : R + 1] = d.coeffs[:, :, R:]
    return SpectralField(grid, half)


def dense_inner(u: DenseModeSet, v: DenseModeSet) -> float:
    return PLANCHEREL * float(np.real(np.sum(u.coeffs * np.conj(v.coeffs))))


def dense_l2(u: DenseModeSet) -> float:
    return float(np.sqrt(dense_inner(u, u)))


def _triples(radius: int, keep: float):
    """Index triples (a, b, k=a+b) inside the box, each in the ball |.| <= keep.

    Returns flat indices ia, ib, ik into the (2R+1)^2 layout plus the integer
    components of b (the gradient factor acts on the second argument).
    """
    side = 2 * radius + 1
    ks = _k_axes(radius)
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


_KERNEL_CACHE: dict = {}


def _kernel(radius: int, keep: float) -> "_Kernel":
    key = (radius, round(keep, 12))
    kern = _KERNEL_CACHE.get(key)
    if kern is None:
        kern = _KERNEL_CACHE[key] = _Kernel(radius, keep)
    return kern


class _Kernel:
    """The array kernel of one box and Galerkin ball, built once on first use.

    Stacks have shape (copies, 2, S) with S = side^2, for any number of
    copies; mode index (ky+R)*side + (kx+R) as in `DenseModeSet.coeffs`.
    The triad indices are offset by (copy*2 + comp)*S, so one bincount over
    the interleaved real and imaginary parts sums the convolution of every
    copy and component.  The offset tables grow to the most copies seen;
    memory is O(triads * copies).
    """

    def __init__(self, radius: int, keep: float):
        self.radius = radius
        self.keep = keep
        self.side = side = 2 * radius + 1
        self.size = S = side * side
        ks = _k_axes(radius).astype(float)
        kvec = np.stack([np.tile(ks, side), np.repeat(ks, side)])
        self.k2 = kvec[0] ** 2 + kvec[1] ** 2
        nz = self.k2 > 0
        self.kmag = np.sqrt(self.k2)
        inv_k2 = np.zeros(S)
        inv_k2[nz] = 1.0 / self.k2[nz]
        self.mean = radius * side + radius
        # numpy casts a real operand of a complex product to complex, so the
        # constants are stored complex: the same products without the casts
        self.kvec = kvec.astype(np.complex128)
        self.inv_k2 = inv_k2.astype(np.complex128)
        self.lap = self.stokes_multiplier(2).astype(np.complex128)
        self.triads = _triples(radius, keep)
        self.ntriads = self.triads[0].size
        self._offset_tables(2)
        # i b, so that i (u_a . b) = u_a,x (i b_x) + u_a,y (i b_y)
        self.ibvec = 1j * np.stack(self.triads[3:])

    def _offset_tables(self, copies: int) -> None:
        """The triad indices offset for `copies` copies."""
        ia, ib, ik = self.triads[:3]
        offsets = (np.arange(2 * copies) * self.size).reshape(copies, 2, 1)
        self.ia = ia + offsets
        self.ib = ib + offsets
        # real and imaginary parts interleaved: one bincount over the float view
        self.ik = ((2 * (ik + offsets))[..., None] + np.arange(2)).ravel()
        self.capacity = copies

    def stokes_multiplier(self, half_power: int):
        mult = np.zeros(self.size)
        nz = self.kmag > 0
        mult[nz] = self.kmag[nz] ** half_power
        if half_power == 0:
            mult[~nz] = 1.0
        return mult

    def low_mask(self, K: float):
        return (self.k2 <= K**2 + 1e-9).astype(np.complex128)

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
        if copies > self.capacity:
            self._offset_tables(copies)
        p = U.reshape(-1)[self.ia[:copies]] * self.ibvec
        contrib = (p[:, :1] + p[:, 1:]) * W.reshape(-1)[self.ib[:copies]]
        sums = np.bincount(
            self.ik[: copies * 4 * self.ntriads],
            weights=contrib.view(np.float64).ravel(),
            minlength=copies * 4 * self.size,
        )
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

    def stack(self, sets):
        return np.array([d.coeffs.reshape(2, self.size) for d in sets])

    def unstack(self, V):
        shape = (2, self.side, self.side)
        return [DenseModeSet(self.radius, v.reshape(shape).copy(), self.keep) for v in V]


def _shared_kernel(*sets: DenseModeSet) -> _Kernel:
    """The kernel of mode sets that share a box and a Galerkin ball."""
    first = sets[0]
    for d in sets[1:]:
        if (d.radius, d.keep_radius) != (first.radius, first.keep_radius):
            raise ValueError("mode sets must share radius and keep_radius")
    return _kernel(first.radius, first.keep_radius)


def dense_stokes(u: DenseModeSet, half_power: int) -> DenseModeSet:
    kern = _kernel(u.radius, u.keep_radius)
    mult = kern.stokes_multiplier(half_power).reshape(kern.side, kern.side)
    return DenseModeSet(u.radius, u.coeffs * mult, u.keep_radius)


def dense_bilinear_B(u: DenseModeSet, v: DenseModeSet) -> DenseModeSet:
    """B(u, v) by explicit convolution: sum over a + b = k of i (u_a . b) v_b.

    Output truncated to the Euclidean ball keep_radius and Leray-projected
    per mode.  No transforms, hence no aliasing by construction.
    """
    if u.radius != v.radius:
        raise ValueError("mode sets must share a radius")
    # the Galerkin space is the Euclidean ball |k| <= keep_radius; reading and
    # writing the same ball keeps the trilinear identities exact under truncation
    kern = _kernel(u.radius, min(u.keep_radius, v.keep_radius))
    return kern.unstack(kern.bilinear(kern.stack([u]), kern.stack([v])))[0]


def dense_trilinear_b(u, v, w) -> float:
    return dense_inner(dense_bilinear_B(u, v), w)


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


def _coupling(kern: _Kernel, matrix, K: float, first: int = 0) -> list:
    """The coupling entries of `_Kernel.rhs` for a pair at copies first and
    first + 1: none for an uncoupled pair.

    The matrix fixes F: P_K B(., .) for direct replacement, P_K otherwise.
    """
    if matrix is None:
        return []
    # column j, shaped (2, 1, 1) to scale c_j in both rows, times the mask
    m = matrix.entries.astype(np.complex128)[:, :, None, None] * kern.low_mask(K)
    return [(first, m[:, 0], m[:, 1], matrix.is_direct_replacement)]


def _dense_pair_rhs(v1, v2, g1, g2, nu, K, matrix):
    """Right-hand sides for the coupled pair, dense path."""
    kern = _shared_kernel(v1, v2)
    coupling = _coupling(kern, matrix, K)
    F = kern.rhs(kern.stack([v1, v2]), kern.stack([g1, g2]), nu * kern.lap, coupling)
    return tuple(kern.unstack(F))


def _dense_project_low(d: DenseModeSet, K: float) -> DenseModeSet:
    kern = _kernel(d.radius, d.keep_radius)
    mask = kern.low_mask(K).reshape(kern.side, kern.side)
    return DenseModeSet(d.radius, d.coeffs * mask, d.keep_radius)


def dense_trajectory(
    v1_0: DenseModeSet,
    v2_0: DenseModeSet | None,
    forcing,
    nu: float,
    t_end: float,
    dt_ref: float = 1e-4,
    K: float = 0.0,
    matrix=None,
    sample_every: float | None = None,
):
    """Classical RK4 reference trajectory on the dense mode set.

    With v2_0 None only v1 evolves, under the plain Navier-Stokes equations;
    otherwise the pair evolves under matrix (uncoupled when None), which also
    fixes the intertwining function.  forcing provides g1(t), g2(t) as
    DenseModeSet-returning callables.  Returns (samples, final) where samples
    is a list of (t, v1, v2) snapshots at t = 0 and at the steps that
    `dynamics.sample_steps` samples (t_end must be whole steps of dt_ref).

    Convergence: halving dt_ref changes the endpoint at fourth order
    (Richardson ratio near 16), which the test suite verifies.
    """
    (out,) = dense_trajectories([(v1_0, v2_0, forcing, K, matrix)], nu, t_end, dt_ref, sample_every)
    if isinstance(out, BlowupDetected):
        raise out
    return out


def dense_trajectories(systems, nu: float, t_end: float, dt_ref: float = 1e-4,
                       sample_every: float | None = None) -> list:
    """`dense_trajectory` for several systems as one RK4 loop on one stack.

    systems holds (v1_0, v2_0, forcing, K, matrix) per member, as the
    arguments of `dense_trajectory`; the members share nu, the box and the
    Galerkin ball.  Returns per member its (samples, final), bitwise those
    of its lone run, or the BlowupDetected of a member that `diverged`: that
    member is frozen in place, as the stepper freezes one, and the others go
    on.
    """
    kern = _shared_kernel(*(d for system in systems for d in system[:2] if d is not None))
    nu_lap = nu * kern.lap
    # the stack's copies, the rows of each member, their force getters and the coupling
    starts, spans, getters, coupling = [], [], [], []
    for v1_0, v2_0, forcing, K, matrix in systems:
        if matrix is not None and v2_0 is None:
            raise ValueError("a coupling matrix needs a second copy v2_0")
        first = len(starts)
        starts += [d for d in (v1_0, v2_0) if d is not None]
        spans.append(slice(first, len(starts)))
        getters += [forcing.g1_dense, forcing.g2_dense][: len(starts) - first]
        coupling += _coupling(kern, matrix, K, first)
    held = [None, None]  # the forces last seen and their stack
    zero = DenseModeSet(kern.radius, keep_radius=kern.keep)

    def rhs(V, t):
        forces = [get(t) for get in getters]
        if held[0] is None or any(f is not h for f, h in zip(forces, held[0])):
            held[:] = forces, kern.stack(forces)
        return kern.rhs(V, held[1], nu_lap, coupling)

    def snapshot(t, V, span):
        sets = kern.unstack(V[span])
        return (t, sets[0], sets[1] if len(sets) == 2 else None)

    nsteps, sampled = sample_steps(t_end, dt_ref, sample_every)
    half, sixth = 0.5 * dt_ref, dt_ref / 6.0
    V = kern.stack(starts)
    samples = [[snapshot(0.0, V, span)] for span in spans]
    results: list = [None] * len(systems)
    t = 0.0
    for istep in range(nsteps):
        k1 = rhs(V, t)
        k2 = rhs(V + half * k1, t + half)
        k3 = rhs(V + half * k2, t + half)
        k4 = rhs(V + dt_ref * k3, t + dt_ref)
        V = V + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (istep + 1) * dt_ref
        # every copy is guarded, since a coupling can blow up either one alone
        energy = np.square(V.view(np.float64)).reshape(len(V), -1).sum(axis=1)
        for p in diverged(energy, spans):
            # zero rows under a zero force stay zero and leave the other rows as they were
            V[spans[p]] = 0.0
            getters[spans[p]] = [lambda t: zero] * (spans[p].stop - spans[p].start)
            results[p] = BlowupDetected(t, f"dense trajectory diverged at t={t:g}")
        if None not in results:
            break
        if sampled(istep + 1):
            for p, span in enumerate(spans):
                if results[p] is None:
                    samples[p].append(snapshot(t, V, span))
    return [out or (kept, snapshot(t, V, span)[1:]) for out, kept, span in zip(results, samples, spans)]


class DenseForcingAdapter:
    """Evaluate a spectral forcing pair on a dense mode set.

    Steady forces return the same field object every call, so each slot keeps
    its last conversion (checked by identity); time-dependent forces simply
    reconvert.
    """

    def __init__(self, pair, radius: int, keep_radius: float | None = None):
        self.pair = pair
        self.radius = radius
        self.keep_radius = keep_radius
        self._last = {}

    def _convert(self, slot, field):
        hit = self._last.get(slot)
        if hit is None or hit[0] is not field:
            hit = (field, dense_from_spectral(field, self.radius, self.keep_radius))
            self._last[slot] = hit
        return hit[1]

    def g1_dense(self, t):
        return self._convert("g1", self.pair.g1(t))

    def g2_dense(self, t):
        return self._convert("g2", self.pair.g2(t))
