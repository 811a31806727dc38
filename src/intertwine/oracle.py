"""Brute-force references: dense convolution, tiny RK4 trajectories, exact heat.

Everything here avoids FFTs on purpose.  The advection term is evaluated as an
explicit convolution sum over mode pairs, so it has no aliasing and no
transform roundoff, and serves as an independent cross-check for the
pseudospectral path.  The RK4 integrator at a fixed reference step is the
trajectory gold standard for desk-scale runs.
"""

from __future__ import annotations

import numpy as np

from .dynamics import BlowupDetected
from .spectral import PLANCHEREL, Grid, SpectralField

MAX_RADIUS = 4


class RadiusTooLarge(ValueError):
    """Dense mode sets are capped so the O(M^2) loops stay sub-second."""


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


def dense_from_spectral(u: SpectralField, radius: int, keep_radius=None) -> DenseModeSet:
    """Extract the box |k_i| <= radius from a spectral field."""
    out = DenseModeSet(radius, keep_radius=keep_radius)
    n = u.grid.n
    full = u.coeffs
    for ky in _k_axes(radius):
        for kx in _k_axes(radius):
            out.coeffs[:, ky + radius, kx + radius] = full[:, ky % n, kx % n]
    return out


def dense_to_spectral(d: DenseModeSet, grid: Grid) -> SpectralField:
    """The field of the box's modes kx >= 0; the modes kx < 0 are their conjugates."""
    half = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    R = d.radius
    half[:, _k_axes(R) % grid.n, : R + 1] = d.coeffs[:, :, R:]
    return SpectralField(grid, half)


def dense_inner(u: DenseModeSet, v: DenseModeSet) -> float:
    return PLANCHEREL * float(np.real(np.sum(u.coeffs * np.conj(v.coeffs))))


def dense_l2(u: DenseModeSet) -> float:
    return float(np.sqrt(dense_inner(u, u)))


def dense_stokes(u: DenseModeSet, half_power: int) -> DenseModeSet:
    R = u.radius
    kx = _k_axes(R)[None, :]
    ky = _k_axes(R)[:, None]
    kmag = np.sqrt((kx**2 + ky**2).astype(float))
    mult = np.zeros_like(kmag)
    nz = kmag > 0
    mult[nz] = kmag[nz] ** half_power
    if half_power == 0:
        mult[~nz] = 1.0
    return DenseModeSet(R, u.coeffs * mult, u.keep_radius)


_TRIPLE_CACHE: dict = {}


def _triples(radius: int, keep_in: float, keep_out: float):
    """Index triples (a, b, k=a+b) inside the box with Euclidean truncation.

    Returns flat indices ia, ib, ik into the (2R+1)^2 layout plus the integer
    components of b (the gradient factor acts on the second argument).
    """
    key = (radius, round(keep_in, 12), round(keep_out, 12))
    cached = _TRIPLE_CACHE.get(key)
    if cached is not None:
        return cached
    side = 2 * radius + 1
    ks = _k_axes(radius)
    ia, ib, ik, bx, by = [], [], [], [], []
    for ay in ks:
        for ax in ks:
            if ax == 0 and ay == 0:
                continue
            if ax * ax + ay * ay > keep_in**2 + 1e-9:
                continue
            for vy in ks:
                for vx in ks:
                    if vx == 0 and vy == 0:
                        continue
                    if vx * vx + vy * vy > keep_in**2 + 1e-9:
                        continue
                    kx, ky = ax + vx, ay + vy
                    if abs(kx) > radius or abs(ky) > radius:
                        continue
                    if kx == 0 and ky == 0:
                        continue
                    if kx * kx + ky * ky > keep_out**2 + 1e-9:
                        continue
                    ia.append((ay + radius) * side + (ax + radius))
                    ib.append((vy + radius) * side + (vx + radius))
                    ik.append((ky + radius) * side + (kx + radius))
                    bx.append(vx)
                    by.append(vy)
    arrays = (
        np.array(ia, dtype=np.intp),
        np.array(ib, dtype=np.intp),
        np.array(ik, dtype=np.intp),
        np.array(bx, dtype=np.float64),
        np.array(by, dtype=np.float64),
    )
    _TRIPLE_CACHE[key] = arrays
    return arrays


def dense_leray(d: DenseModeSet) -> DenseModeSet:
    R = d.radius
    kx = _k_axes(R)[None, :].astype(float)
    ky = _k_axes(R)[:, None].astype(float)
    k2 = kx**2 + ky**2
    inv = np.zeros_like(k2)
    nz = k2 > 0
    inv[nz] = 1.0 / k2[nz]
    kdotu = kx * d.coeffs[0] + ky * d.coeffs[1]
    out = np.empty_like(d.coeffs)
    out[0] = d.coeffs[0] - kx * kdotu * inv
    out[1] = d.coeffs[1] - ky * kdotu * inv
    out[:, R, R] = 0.0
    return DenseModeSet(R, out, d.keep_radius)


def dense_bilinear_B(u: DenseModeSet, v: DenseModeSet) -> DenseModeSet:
    """B(u, v) by explicit convolution: sum over a + b = k of i (u_a . b) v_b.

    Output truncated to the Euclidean ball keep_radius and Leray-projected
    per mode.  No transforms, hence no aliasing by construction.
    """
    if u.radius != v.radius:
        raise ValueError("mode sets must share a radius")
    # the Galerkin space is the Euclidean ball |k| <= keep_radius; reading and
    # writing the same ball keeps the trilinear identities exact under truncation
    keep = min(u.keep_radius, v.keep_radius)
    ia, ib, ik, bx, by = _triples(u.radius, keep_in=keep, keep_out=keep)
    side = 2 * u.radius + 1
    uf = u.coeffs.reshape(2, -1)
    vf = v.coeffs.reshape(2, -1)
    ua0, ua1 = uf[0, ia], uf[1, ia]
    factor = 1j * (ua0 * bx + ua1 * by)
    out = np.zeros((2, side * side), dtype=np.complex128)
    for comp in range(2):
        contrib = factor * vf[comp, ib]
        out[comp].real = np.bincount(ik, weights=contrib.real, minlength=side * side)
        out[comp].imag = np.bincount(ik, weights=contrib.imag, minlength=side * side)
    result = DenseModeSet(u.radius, out.reshape(2, side, side), keep)
    return dense_leray(result)


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


def _dense_pair_rhs(v1, v2, g1, g2, nu, K, matrix, intertwining):
    """Right-hand sides for the coupled pair, dense path."""
    lap1 = dense_stokes(v1, 2)
    lap2 = dense_stokes(v2, 2)
    B1 = dense_bilinear_B(v1, v1)
    B2 = dense_bilinear_B(v2, v2)
    f1 = g1 - nu * lap1 - B1
    f2 = g2 - nu * lap2 - B2
    if matrix is not None:
        m = matrix.entries
        if intertwining == "project":
            c1, c2 = _dense_project_low(v1, K), _dense_project_low(v2, K)
        elif intertwining == "project_bilinear":
            c1, c2 = _dense_project_low(B1, K), _dense_project_low(B2, K)
        else:
            raise ValueError(f"unknown intertwining function {intertwining!r}")
        f1 = f1 + (m[0, 0] * c1 + m[0, 1] * c2)
        f2 = f2 + (m[1, 0] * c1 + m[1, 1] * c2)
    return f1, f2


def _dense_project_low(d: DenseModeSet, K: float) -> DenseModeSet:
    R = d.radius
    kx = _k_axes(R)[None, :]
    ky = _k_axes(R)[:, None]
    mask = (kx**2 + ky**2) <= K**2 + 1e-9
    return DenseModeSet(R, d.coeffs * mask, d.keep_radius)


def dense_trajectory(
    system: str,
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

    system is one of "nse", "nudging", "direct_replacement".  For "nse" only
    v1 evolves (v2_0 may be None).  forcing provides g1(t), g2(t) as
    DenseModeSet-returning callables.  Returns (samples, final) where samples
    is a list of (t, v1, v2) snapshots.

    Convergence: halving dt_ref changes the endpoint at fourth order
    (Richardson ratio near 16), which the test suite verifies.
    """
    if system not in ("nse", "nudging", "direct_replacement"):
        raise ValueError(f"unknown system {system!r}")
    intertwining = {"nudging": "project", "direct_replacement": "project_bilinear"}.get(system)
    pair = system != "nse"
    v1 = v1_0.copy()
    v2 = v2_0.copy() if pair else None

    def rhs(a, b, t):
        g1 = forcing.g1_dense(t)
        if pair:
            g2 = forcing.g2_dense(t)
            return _dense_pair_rhs(a, b, g1, g2, nu, K, matrix, intertwining)
        lap = dense_stokes(a, 2)
        return (g1 - nu * lap - dense_bilinear_B(a, a), None)

    nsteps = int(round(t_end / dt_ref))
    stride = max(1, int(round((sample_every or t_end) / dt_ref)))
    samples = [(0.0, v1.copy(), v2.copy() if pair else None)]
    t = 0.0
    for istep in range(nsteps):
        k1a, k1b = rhs(v1, v2, t)
        k2a, k2b = rhs(v1 + 0.5 * dt_ref * k1a, v2 + 0.5 * dt_ref * k1b if pair else None, t + 0.5 * dt_ref)
        k3a, k3b = rhs(v1 + 0.5 * dt_ref * k2a, v2 + 0.5 * dt_ref * k2b if pair else None, t + 0.5 * dt_ref)
        k4a, k4b = rhs(v1 + dt_ref * k3a, v2 + dt_ref * k3b if pair else None, t + dt_ref)
        v1 = v1 + (dt_ref / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        if pair:
            v2 = v2 + (dt_ref / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        t = (istep + 1) * dt_ref
        if not np.all(np.isfinite(v1.coeffs)) or dense_l2(v1) > 1e8:
            raise BlowupDetected(t, f"dense trajectory diverged at t={t:g}")
        if (istep + 1) % stride == 0:
            samples.append((t, v1.copy(), v2.copy() if pair else None))
    return samples, (v1, v2)


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
