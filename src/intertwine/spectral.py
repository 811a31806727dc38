"""Fourier-side representation of 2D periodic incompressible velocity fields.

Fields live on the 2pi-periodic square, are mean-free and divergence-free,
and are stored as complex Fourier coefficient arrays of shape (2, n, n)
in numpy FFT layout (component, ky, kx).  All norms and inner products use
the Plancherel convention

    |u|^2 = (2*pi)^2 * sum_k |u_hat_k|^2,

which matches the integral L2 norm when u(x) = sum_k u_hat_k exp(i k.x).
The same constant is applied uniformly, including in the trilinear form.

The time stepper works on the packed half-spectrum layout instead: real
fields are Hermitian (u_hat_{-k} = conj(u_hat_k)), so the columns kx = 0 ..
n/2 of the full array, in numpy's rfft2 layout, determine the rest.  A
stack of c packed fields has shape (c, 2, n, n//2+1).  `Grid.half` carries
the wavenumbers and masks of that layout, `pack`/`unpack` convert between
the layouts, and `self_advection` evaluates B(v, v) on a packed stack with
one batched irfft2 and one batched rfft2 in deviatoric stress form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
PLANCHEREL = TWO_PI**2


class AliasingViolation(ValueError):
    """A field carries energy outside its grid's dealias radius."""


def grid_dealias_radius(n: int, dealias_radius: float | None = None) -> float:
    """Check a grid's size and dealias radius; returns the radius (default n/3).

    Raises ValueError unless n is an even integer >= 4 and the radius lies in
    (0, n/3].
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 4, got {n}")
    if dealias_radius is None:
        dealias_radius = n / 3.0
    if not 0.0 < dealias_radius <= n / 3.0 + 1e-12:
        raise ValueError(
            f"dealias_radius must lie in (0, n/3], got {dealias_radius} with n={n}"
        )
    return float(dealias_radius)


class Grid:
    """Square spectral grid: n modes per axis plus a circular dealias mask.

    Retained products are alias-free when both factors are supported inside
    the Euclidean ball |k| <= dealias_radius <= n/3 (two-thirds rule), which
    makes the quadratic-form identities exact for trigonometric polynomials.
    """

    def __init__(self, n: int, dealias_radius: float | None = None):
        self.n = int(n)
        self.dealias_radius = grid_dealias_radius(n, dealias_radius)

        k1d = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        self.kx = np.broadcast_to(k1d[None, :], (self.n, self.n))
        self.ky = np.broadcast_to(k1d[:, None], (self.n, self.n))
        self.k2 = (self.kx**2 + self.ky**2).astype(np.float64)
        self.kmag = np.sqrt(self.k2)
        self.nonzero = self.k2 > 0
        self.dealias_mask = self.kmag <= self.dealias_radius + 1e-12
        # 1/|k|^2 with the mean mode left at 0 (negative Stokes powers act on k != 0)
        self.inv_k2 = np.zeros_like(self.k2)
        self.inv_k2[self.nonzero] = 1.0 / self.k2[self.nonzero]
        self.half = HalfSpectrum(self)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.dealias_radius == other.dealias_radius
        )

    def __hash__(self):
        return hash((self.n, self.dealias_radius))

    def __repr__(self):
        return f"Grid(n={self.n}, dealias_radius={self.dealias_radius:g})"

    def low_mode_mask(self, K: float) -> np.ndarray:
        """Boolean mask of modes with |k| <= K (inclusive Euclidean ball)."""
        if K < 0:
            raise ValueError("cutoff K must be >= 0")
        return self.kmag <= K + 1e-12


class HalfSpectrum:
    """The packed (rfft2) layout of a grid: columns kx = 0 .. n/2.

    kx, ky, k2, inv_k2 and the masks are the full grid's arrays sliced to
    [:, :n//2+1]; the last column holds kx = +n/2 here (the full layout files
    that column under -n/2).  weight counts each column's modes in the full
    spectrum: 1 for the self-conjugate columns 0 and n/2, else 2.
    """

    def __init__(self, grid: "Grid"):
        n, m = grid.n, grid.n // 2 + 1
        self.kx = np.abs(grid.kx[:, :m]).astype(np.float64)
        self.ky = grid.ky[:, :m].astype(np.float64)
        self.k2 = grid.k2[:, :m]
        self.inv_k2 = grid.inv_k2[:, :m]
        self.dealias_mask = grid.dealias_mask[:, :m]
        self.alias_mask = ~self.dealias_mask
        self.weight = np.full(m, 2.0)
        self.weight[[0, -1]] = 1.0
        # row of -ky for each ky, for the conjugate partners of unpack
        self.neg_rows = (-np.arange(n)) % n
        # the weight per float of a flattened packed field (re, im interleaved)
        self.float_weight = np.tile(np.repeat(self.weight, 2), 2 * n)
        # mask . P . div of the stress [[a/2, b], [b, -a/2]] as multipliers of
        # (a_hat, b_hat), indexed [component, a or b]: the divergence is
        # i (kx a/2 + ky b, kx b - ky a/2), P = I - k k^T / |k|^2, and the
        # entries are zero at k = 0 and outside the dealias radius
        keep = self.dealias_mask & grid.nonzero[:, :m]
        pxx = 1.0 - self.kx**2 * self.inv_k2
        pxy = -self.kx * self.ky * self.inv_k2
        pyy = 1.0 - self.ky**2 * self.inv_k2
        self.masked_leray_div = 1j * keep * np.stack([
            [0.5 * (pxx * self.kx - pxy * self.ky), pxx * self.ky + pxy * self.kx],
            [0.5 * (pxy * self.kx - pyy * self.ky), pxy * self.ky + pyy * self.kx],
        ])


class SpectralField:
    """Divergence-free, mean-free velocity field held as Fourier coefficients.

    Immutable by convention: operations return new fields and never write to
    `coeffs` in place.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (2, grid.n, grid.n):
            raise ValueError(
                f"coeffs must have shape (2, {grid.n}, {grid.n}), got {coeffs.shape}"
            )
        self.grid = grid
        self.coeffs = coeffs

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)

    @property
    def l2(self) -> float:
        return hm_norm(self, 0)

    @property
    def h1(self) -> float:
        return hm_norm(self, 1)

    def __repr__(self):
        return f"SpectralField(n={self.grid.n}, l2={self.l2:.6g})"


@dataclass
class NormTriple:
    """L2 norm, H1 seminorm and the ladder of higher Sobolev norms |A^(m/2) u|."""

    l2: float
    h1: float
    hm: dict = field(default_factory=dict)


def _require_same_grid(u: SpectralField, v: SpectralField):
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros((2, grid.n, grid.n), dtype=np.complex128))


def field_from_modes(grid: Grid, modes) -> SpectralField:
    """Build a field from explicit (kx, ky, (cx, cy)) entries.

    Conjugate partners are filled in automatically, then the result is
    Leray-projected so the output always satisfies the field invariants.
    """
    raw = np.zeros((2, grid.n, grid.n), dtype=np.complex128)
    half = grid.n // 2
    for kx, ky, amp in modes:
        kx, ky = int(kx), int(ky)
        if kx == 0 and ky == 0:
            continue
        if not (-half < kx < half and -half < ky < half):
            raise ValueError(f"mode ({kx},{ky}) out of range for n={grid.n}")
        cx, cy = complex(amp[0]), complex(amp[1])
        raw[0, ky % grid.n, kx % grid.n] += cx
        raw[1, ky % grid.n, kx % grid.n] += cy
        raw[0, (-ky) % grid.n, (-kx) % grid.n] += np.conj(cx)
        raw[1, (-ky) % grid.n, (-kx) % grid.n] += np.conj(cy)
    return leray_project(grid, raw)


def leray_project(grid: Grid, raw) -> SpectralField:
    """Project raw coefficients onto divergence-free, mean-free fields.

    Per mode k != 0 applies I - k k^T / |k|^2; the k = 0 coefficient is zeroed.
    Inputs whose divergence already sits at the roundoff floor are passed
    through untouched, which makes the projection exactly idempotent and the
    identity (bit for bit) on its own range.
    """
    if isinstance(raw, SpectralField):
        raw = raw.coeffs
    raw = np.asarray(raw, dtype=np.complex128)
    kdotu = grid.kx * raw[0] + grid.ky * raw[1]
    scale = float(np.abs(raw).max())
    if float(np.abs(kdotu).max()) <= 1e-14 * (1.0 + scale) * grid.n:
        out = raw.copy()
        out[:, 0, 0] = 0.0
        return SpectralField(grid, out)
    factor = kdotu * grid.inv_k2
    out = np.empty_like(raw)
    out[0] = raw[0] - grid.kx * factor
    out[1] = raw[1] - grid.ky * factor
    out[:, 0, 0] = 0.0
    return SpectralField(grid, out)


def stokes_apply(u: SpectralField, half_power: int) -> SpectralField:
    """Apply A^(half_power/2): multiply the coefficient at k by |k|^half_power.

    Negative powers are defined mode-wise on k != 0 only; the mean mode stays
    zero, so the operation is total on valid fields.
    """
    if half_power < -2:
        raise ValueError("half_power must be >= -2")
    g = u.grid
    if half_power == 0:
        return u.copy()
    if half_power >= 0:
        if half_power % 2 == 0:
            mult = g.k2 ** (half_power // 2)
        else:
            mult = g.kmag**half_power
    else:
        mult = np.zeros_like(g.k2)
        mult[g.nonzero] = g.kmag[g.nonzero] ** half_power
    return SpectralField(g, u.coeffs * mult)


def project_low(u: SpectralField, K: float) -> SpectralField:
    """Keep modes with |k| <= K (inclusive), zero the rest."""
    return SpectralField(u.grid, u.coeffs * u.grid.low_mode_mask(K))


def project_high(u: SpectralField, K: float) -> SpectralField:
    """Complementary projection: zero modes with |k| <= K."""
    return SpectralField(u.grid, u.coeffs * ~u.grid.low_mode_mask(K))


def inner(u: SpectralField, v: SpectralField) -> float:
    """The L2 inner product (u, v) under the (2*pi)^2 Plancherel convention."""
    _require_same_grid(u, v)
    return PLANCHEREL * float(np.real(np.sum(u.coeffs * np.conj(v.coeffs))))


def hm_norm(u: SpectralField, m: int) -> float:
    """Sobolev norm |A^(m/2) u| = sqrt((2 pi)^2 sum |k|^(2m) |u_hat|^2)."""
    weights = u.grid.k2**m if m > 0 else 1.0
    return float(np.sqrt(PLANCHEREL * np.sum(weights * np.abs(u.coeffs) ** 2)))


def norms(u: SpectralField, max_m: int = 2) -> NormTriple:
    hm = {m: hm_norm(u, m) for m in range(max_m + 1)}
    return NormTriple(l2=hm[0], h1=hm.get(1, hm_norm(u, 1)), hm=hm)


def to_physical(u: SpectralField, pad: int = 1) -> np.ndarray:
    """Evaluate u on the physical grid; pad > 1 refines by zero padding."""
    g = u.grid
    if pad == 1:
        return np.real(np.fft.ifft2(u.coeffs, norm="forward"))
    npad = pad * g.n
    big = np.zeros((2, npad, npad), dtype=np.complex128)
    half = g.n // 2
    idx = np.fft.fftfreq(g.n, d=1.0 / g.n).astype(np.int64)
    # guard the unpaired Nyquist line; valid fields never populate it
    sel = np.abs(idx) < half
    src = np.ix_([0, 1], idx[sel] % g.n, idx[sel] % g.n)
    dst = np.ix_([0, 1], idx[sel] % npad, idx[sel] % npad)
    big[dst] = u.coeffs[src]
    return np.real(np.fft.ifft2(big, norm="forward"))


def from_physical(grid: Grid, phys: np.ndarray) -> np.ndarray:
    """Raw Fourier coefficients of physical-space samples (no projection)."""
    return np.fft.fft2(np.asarray(phys), norm="forward")


def linf_norm(u: SpectralField, pad: int = 2) -> float:
    """Sup of the pointwise vector magnitude, sampled on a refined grid."""
    phys = to_physical(u, pad=pad)
    return float(np.sqrt(phys[0] ** 2 + phys[1] ** 2).max())


def l4_norm(u: SpectralField) -> float:
    """The L4 norm of |u|; the twice-refined quadrature is exact for
    dealias-supported fields (integrand bandwidth 4n/3 < 2n)."""
    g = u.grid
    phys = to_physical(u, pad=2)
    cell = (TWO_PI / (2 * g.n)) ** 2
    return float((np.sum((phys[0] ** 2 + phys[1] ** 2) ** 2) * cell) ** 0.25)


def dealias(u: SpectralField) -> SpectralField:
    """Zero all modes outside the grid's dealias radius."""
    return SpectralField(u.grid, u.coeffs * u.grid.dealias_mask)


def alias_energy(u: SpectralField) -> float:
    """Largest coefficient magnitude outside the dealias radius."""
    out = np.abs(u.coeffs[:, ~u.grid.dealias_mask])
    return float(out.max()) if out.size else 0.0


def _require_dealiased(*fields):
    for u in fields:
        peak = float(np.abs(u.coeffs).max())
        if alias_energy(u) > 1e-13 * (1.0 + peak):
            raise AliasingViolation(
                "input field has energy outside the dealias radius; "
                "the experiment cutoff must not exceed grid.dealias_radius"
            )


def bilinear_B(u: SpectralField, v: SpectralField) -> SpectralField:
    """The projected advection term B(u, v) = P((u . grad) v).

    Pseudospectral: transform to physical space, multiply u against the
    gradient of v, transform back, apply the two-thirds mask, Leray-project.
    Exact to roundoff for inputs supported inside the dealias radius.
    """
    _require_same_grid(u, v)
    _require_dealiased(u, v)
    g = u.grid
    u_phys = np.real(np.fft.ifft2(u.coeffs, norm="forward"))
    dvdx = np.real(np.fft.ifft2(1j * g.kx * v.coeffs, norm="forward"))
    dvdy = np.real(np.fft.ifft2(1j * g.ky * v.coeffs, norm="forward"))
    adv = u_phys[0] * dvdx + u_phys[1] * dvdy
    raw = np.fft.fft2(adv, norm="forward") * g.dealias_mask
    return leray_project(g, raw)


def pack(*fields: SpectralField) -> np.ndarray:
    """Stack the half spectra of fields: shape (len(fields), 2, n, n//2+1)."""
    m = fields[0].grid.n // 2 + 1
    return np.stack([u.coeffs[..., :m] for u in fields])


def unpack(grid: Grid, half: np.ndarray) -> SpectralField:
    """The field whose half spectrum is half (shape (2, n, n//2+1)).

    The columns kx < 0 are the conjugates of the packed columns at -k.
    """
    m = grid.n // 2 + 1
    full = np.empty((2, grid.n, grid.n), dtype=np.complex128)
    full[..., :m] = half
    full[..., m:] = np.conj(half[:, grid.half.neg_rows, m - 2 : 0 : -1])
    return SpectralField(grid, full)


def packed_l2(grid: Grid, V: np.ndarray) -> np.ndarray:
    """The L2 norm of each packed field of the stack V, one per leading index."""
    floats = V.reshape(V.shape[0], -1).view(np.float64)
    return np.sqrt(PLANCHEREL * ((floats * floats) @ grid.half.float_weight))


def _require_dealiased_packed(grid: Grid, V: np.ndarray) -> None:
    """The alias guard of bilinear_B for each packed field of the stack V."""
    mag = np.abs(V)
    peak = mag.max(axis=(1, 2, 3))
    alias = mag.max(axis=(1, 2, 3), where=grid.half.alias_mask, initial=0.0)
    if np.any(alias > 1e-13 * (1.0 + peak)):
        raise AliasingViolation(
            "input field has energy outside the dealias radius; "
            "the experiment cutoff must not exceed grid.dealias_radius"
        )


def self_advection(grid: Grid, V: np.ndarray) -> np.ndarray:
    """B(v, v) for each packed field v of the stack V, shape (c, 2, n, n//2+1).

    Deviatoric stress form: for divergence-free v, (v . grad) v = div(v v^T),
    and the isotropic part |v|^2 / 2 I of v v^T is a gradient that the Leray
    projection removes, so B(v, v) = P(mask . div T) with the trace-free
    T = [[a/2, b], [b, -a/2]], a = v_x^2 - v_y^2, b = v_x v_y.  The two
    velocity components of all copies come from one irfft2, (a, b) go back
    in one rfft2, and `Grid.half.masked_leray_div` maps (a_hat, b_hat) to
    the result.  Equals bilinear_B(v, v) to roundoff for inputs inside the
    dealias radius; raises AliasingViolation otherwise.
    """
    _require_dealiased_packed(grid, V)
    n = grid.n
    phys = np.fft.irfft2(V, s=(n, n), norm="forward")
    vx, vy = phys[:, 0], phys[:, 1]
    stress = np.empty_like(phys)
    np.multiply(vx, vx, out=stress[:, 0])
    stress[:, 0] -= vy * vy
    np.multiply(vx, vy, out=stress[:, 1])
    raw = np.fft.rfft2(stress, norm="forward")
    div = grid.half.masked_leray_div
    return div[:, 0] * raw[:, None, 0] + div[:, 1] * raw[:, None, 1]


def trilinear_b(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """The trilinear form b(u, v, w) = (B(u, v), w)."""
    return inner(bilinear_B(u, v), w)


def frechet_DB(u: SpectralField, v: SpectralField) -> SpectralField:
    """Derivative of the quadratic term at u in direction v: B(u,v) + B(v,u)."""
    return bilinear_B(u, v) + bilinear_B(v, u)


def check_field(u: SpectralField, rtol: float = 1e-12):
    """Validate reality, incompressibility and the mean-free constraint.

    Raises ValueError with the violated invariant named; tolerance is
    relative to the largest coefficient magnitude.
    """
    g = u.grid
    scale = float(np.abs(u.coeffs).max()) + 1e-300
    if not np.all(np.isfinite(u.coeffs)):
        raise ValueError("field has non-finite coefficients")
    if np.abs(u.coeffs[:, 0, 0]).max() != 0.0:
        raise ValueError("mean mode k=(0,0) is not exactly zero")
    flipped = np.conj(u.coeffs[:, ::-1, ::-1])
    flipped = np.roll(flipped, shift=(1, 1), axis=(1, 2))
    reality = float(np.abs(u.coeffs - flipped).max())
    if reality > rtol * scale:
        raise ValueError(f"reality symmetry violated by {reality / scale:.3e} relative")
    div = float(np.abs(g.kx * u.coeffs[0] + g.ky * u.coeffs[1]).max())
    if div > rtol * scale * g.n:
        raise ValueError(f"incompressibility violated by {div / scale:.3e} relative")


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    energy: float = 1.0,
    slope: float = 2.0,
    kmax: float | None = None,
) -> SpectralField:
    """Seeded random divergence-free field with spectrum |u_hat_k| ~ |k|^-slope.

    Supported inside |k| <= kmax (default: the dealias radius) and rescaled so
    the L2 norm equals `energy`.
    """
    if kmax is None:
        kmax = grid.dealias_radius
    kmax = min(float(kmax), grid.dealias_radius)
    mask = grid.low_mode_mask(kmax) & grid.nonzero
    raw = rng.standard_normal((2, grid.n, grid.n)) + 1j * rng.standard_normal(
        (2, grid.n, grid.n)
    )
    decay = np.zeros_like(grid.k2)
    decay[mask] = grid.kmag[mask] ** (-slope)
    raw = raw * decay
    # symmetrize to enforce reality before projecting
    flipped = np.conj(raw[:, ::-1, ::-1])
    flipped = np.roll(flipped, shift=(1, 1), axis=(1, 2))
    u = leray_project(grid, 0.5 * (raw + flipped))
    amp = u.l2
    if amp == 0.0:
        return u
    return u * (energy / amp)


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """The cellular flow a*(cos x sin y, -sin x cos y), supported on |k|=(1,1)."""
    # cos x sin y  = (w(1,1) - w(1,-1) + w(-1,1) - w(-1,-1)) / (4i), w_k = e^{ik.x}
    # -sin x cos y = -(w(1,1) + w(1,-1) - w(-1,1) - w(-1,-1)) / (4i)
    raw = np.zeros((2, grid.n, grid.n), dtype=np.complex128)
    quarter = amplitude / 4.0

    def put(kx, ky, cx, cy):
        raw[0, ky % grid.n, kx % grid.n] = cx
        raw[1, ky % grid.n, kx % grid.n] = cy

    put(1, 1, quarter / 1j, -quarter / 1j)
    put(1, -1, -quarter / 1j, -quarter / 1j)
    put(-1, 1, quarter / 1j, quarter / 1j)
    put(-1, -1, -quarter / 1j, quarter / 1j)
    return SpectralField(grid, raw)
