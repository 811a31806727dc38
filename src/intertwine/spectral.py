"""Fourier-side representation of 2D periodic incompressible velocity fields.

Fields live on the 2pi-periodic square, are mean-free and divergence-free,
and are stored as complex Fourier coefficients in one layout: numpy's rfft2
half spectrum.  Real fields are Hermitian (u_hat_{-k} = conj(u_hat_k)), so
the columns kx = 0 .. n/2 determine the rest, and a field is an array of
shape (2, n, n//2+1) indexed (component, ky, kx).  Only the columns kx = 0
and kx = n/2 are their own conjugate partners; every other stored column
stands for itself and its mirror, which `Grid.weight` counts twice.  A stack
of c fields (the stepper's pair, a batch of force fields) has shape
(c, 2, n, n//2+1), and `pack` builds one from fields.

All norms and inner products use the Plancherel convention

    |u|^2 = (2*pi)^2 * sum_k |u_hat_k|^2,

summed over the full spectrum through the column weights, which matches the
integral L2 norm when u(x) = sum_k u_hat_k exp(i k.x).  The same constant is
applied uniformly, including in the trilinear form.  `SpectralField.coeffs`
exports the full (2, n, n) spectrum in numpy fft2 layout, rebuilt on each
access from the half spectrum.

Products are pseudospectral: irfft2 to the physical grid, multiply, rfft2
back, two-thirds mask, Leray projection.  `bilinear_B(u, v)` uses the
convective form.  `BoxAdvection` evaluates B(v, v) for a whole stack in
rotational form on the dealias box (`Grid.box_rows`, `Grid.box_cols`: the
modes a dealiased field can carry), with pruned transforms into buffers it
owns.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
PLANCHEREL = TWO_PI**2
# the alias guard: energy outside the dealias radius above this fraction of
# 1 + the field's largest coefficient is an AliasingViolation
ALIAS_RTOL = 1e-13
# the divergence guard: a field is divergence-free when its largest |k . u_k|
# is at most this fraction of n times its largest coefficient magnitude
DIV_RTOL = 1e-14
# check_field's reality guard, relative to the largest coefficient magnitude
REALITY_RTOL = 1e-12
# the ball rule's slack on |k|: see in_ball
BALL_ATOL = 1e-12
# the largest grid: Grid(4096) alone holds about 1 GiB of wavenumber tables
MAX_N = 4096


class AliasingViolation(ValueError):
    """A field carries energy outside its grid's dealias radius."""


def in_ball(kmag, radius: float):
    """The one rule for "inside the ball |k| <= radius" (inclusive, to
    BALL_ATOL on |k|), for arrays of |k| and for scalars.  Written in
    positive form, so that a NaN is outside every ball."""
    return kmag <= radius + BALL_ATOL


def grid_dealias_radius(n: int, dealias_radius: float | None = None) -> float:
    """Check a grid's size and dealias radius; returns the radius (default n/3).

    Raises ValueError unless n is an even integer in [4, MAX_N] and the
    radius lies in (0, n/3].
    """
    if not (4 <= n <= MAX_N and n % 2 == 0):
        raise ValueError(f"n must be an even integer >= 4 and <= {MAX_N}, got {n}")
    if dealias_radius is None:
        dealias_radius = n / 3.0
    if not (0.0 < dealias_radius and in_ball(dealias_radius, n / 3.0)):
        raise ValueError(
            f"dealias_radius must lie in (0, n/3], got {dealias_radius} with n={n}"
        )
    return float(dealias_radius)


class Grid:
    """Square spectral grid: n modes per axis plus a circular dealias mask.

    Retained products are alias-free when both factors are supported inside
    the Euclidean ball |k| <= dealias_radius <= n/3 (two-thirds rule), which
    makes the quadratic-form identities exact for trigonometric polynomials.

    Every array is in the half-spectrum layout (n, n//2+1): kx = 0 .. n/2
    along columns (the last column holds kx = +n/2), ky in fftfreq order
    along rows.  weight counts each column's modes in the full spectrum: 1
    for the self-conjugate columns 0 and n/2, else 2.
    """

    def __init__(self, n: int, dealias_radius: float | None = None):
        self.n = int(n)
        self.dealias_radius = grid_dealias_radius(n, dealias_radius)
        n, m = self.n, self.n // 2 + 1

        self.kx = np.broadcast_to(np.arange(m, dtype=np.float64)[None, :], (n, m))
        self.ky = np.broadcast_to(np.fft.fftfreq(n, d=1.0 / n)[:, None], (n, m))
        self.k2 = self.kx**2 + self.ky**2
        self.kmag = np.sqrt(self.k2)
        self.nonzero = self.k2 > 0
        self.dealias_mask = in_ball(self.kmag, self.dealias_radius)
        self.alias_mask = ~self.dealias_mask
        self.ikx = 1j * self.kx
        self.iky = 1j * self.ky
        # 1/|k|^2 with the mean mode left at 0 (negative Stokes powers act on k != 0)
        self.inv_k2 = np.zeros_like(self.k2)
        self.inv_k2[self.nonzero] = 1.0 / self.k2[self.nonzero]
        self.weight = np.full(m, 2.0)
        self.weight[[0, -1]] = 1.0
        # the row of -ky for each ky: the conjugate partners within a column
        self.neg_rows = (-np.arange(n)) % n
        # mask . Leray projector I - k k^T / |k|^2, zero at k = 0 and outside the
        # dealias radius, applied to the rotational term (-omega v_y, omega v_x):
        # it maps the transforms of (omega v_x, omega v_y) to B(v, v) through
        # [[pxy, -pxx], [pyy, -pxy]], repeated over (re, im)
        keep = self.dealias_mask & self.nonzero
        pxx = (1.0 - self.kx**2 * self.inv_k2) * keep
        pxy = -self.kx * self.ky * self.inv_k2 * keep
        pyy = (1.0 - self.ky**2 * self.inv_k2) * keep
        self.masked_leray_rot = np.repeat(np.stack([[pxy, -pxx], [pyy, -pxy]]), 2, axis=-1)
        # the dealias box: with r the largest |k| component in the dealias
        # ball, the rows ky = 0 .. r, -r .. -1 and the columns kx = 0 .. r,
        # which hold every mode a dealiased field can carry
        r = int(self.kx[self.dealias_mask].max())
        self.box_rows = np.r_[0 : r + 1, n - r : n]
        self.box_cols = r + 1
        # (box rows, grid rows) of the two row blocks ky = 0 .. r and -r .. -1
        self.box_blocks = ((slice(0, r + 1), slice(0, r + 1)), (slice(r + 1, None), slice(n - r, n)))
        self._hm_weights = {}

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

    def hm_weight(self, m: int) -> np.ndarray:
        """|k|^(2m) times the column weights, the weights of hm_norm; built
        on first use and kept."""
        w = self._hm_weights.get(m)
        if w is None:
            w = self._hm_weights[m] = self.k2**m * self.weight if m > 0 else self.weight
        return w

    def low_mode_mask(self, K: float) -> np.ndarray:
        """Boolean mask of modes with |k| <= K (inclusive Euclidean ball)."""
        if K < 0:
            raise ValueError("cutoff K must be >= 0")
        return in_ball(self.kmag, K)


class SpectralField:
    """Divergence-free, mean-free velocity field held as its half spectrum.

    `half` has shape (2, n, n//2+1) (see the module docstring).  Immutable
    by convention: operations return new fields and never write to `half`
    in place.
    """

    __slots__ = ("grid", "half")

    def __init__(self, grid: Grid, half: np.ndarray):
        half = np.asarray(half, dtype=np.complex128)
        shape = (2, grid.n, grid.n // 2 + 1)
        if half.shape != shape:
            raise ValueError(f"half spectrum must have shape {shape}, got {half.shape}")
        self.grid = grid
        self.half = half

    @property
    def coeffs(self) -> np.ndarray:
        """The full (2, n, n) spectrum in numpy fft2 layout, read-only.

        Built on each access and not kept: the columns kx < 0 are the
        conjugates of the stored columns at -k.
        """
        g = self.grid
        m = g.n // 2 + 1
        full = np.empty((2, g.n, g.n), dtype=np.complex128)
        full[..., :m] = self.half
        np.conj(self.half[:, g.neg_rows, m - 2 : 0 : -1], out=full[..., m:])
        full.flags.writeable = False
        return full

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.half.copy())

    def __add__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.half + other.half)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.half - other.half)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.half * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.half)

    @property
    def l2(self) -> float:
        return hm_norm(self, 0)

    @property
    def h1(self) -> float:
        return hm_norm(self, 1)

    def __repr__(self):
        return f"SpectralField(n={self.grid.n}, l2={self.l2:.6g})"


def _require_same_grid(u: SpectralField, v: SpectralField):
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros((2, grid.n, grid.n // 2 + 1), dtype=np.complex128))


def pack(*fields: SpectralField) -> np.ndarray:
    """Stack the half spectra of fields: shape (len(fields), 2, n, n//2+1)."""
    return np.stack([u.half for u in fields])


def field_from_modes(grid: Grid, modes) -> SpectralField:
    """Build a field from explicit (kx, ky, (cx, cy)) entries.

    Conjugate partners are filled in automatically, then the result is
    Leray-projected so the output always satisfies the field invariants.
    """
    raw = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    half = grid.n // 2
    for kx, ky, amp in modes:
        kx, ky = int(kx), int(ky)
        if kx == 0 and ky == 0:
            continue
        if not (-half < kx < half and -half < ky < half):
            raise ValueError(f"mode ({kx},{ky}) out of range for n={grid.n}")
        amp = np.array([complex(amp[0]), complex(amp[1])])
        # the mode lands in the stored columns as itself (kx >= 0) and its
        # partner -k as the conjugate (kx <= 0)
        if kx >= 0:
            raw[:, ky % grid.n, kx] += amp
        if kx <= 0:
            raw[:, -ky % grid.n, -kx] += np.conj(amp)
    return leray_project(grid, raw)


def divergence_free(grid: Grid, half) -> bool:
    """The divergence guard of leray_project and check_field (see DIV_RTOL)."""
    return _divergence(grid, half) <= DIV_RTOL


def _divergence(grid: Grid, half) -> float:
    kdotu = float(np.abs(grid.kx * half[0] + grid.ky * half[1]).max())
    return kdotu / (grid.n * float(np.abs(half).max())) if kdotu else 0.0


def leray_project(grid: Grid, raw) -> SpectralField:
    """Project raw half-spectrum coefficients onto divergence-free, mean-free fields.

    Per mode k != 0 applies I - k k^T / |k|^2; the k = 0 coefficient is zeroed.
    Inputs that are already divergence_free are passed through untouched,
    which makes the projection exactly idempotent and the identity (bit for
    bit) on its own range.
    """
    raw = np.asarray(raw, dtype=np.complex128)
    if divergence_free(grid, raw):
        out = raw.copy()
        out[:, 0, 0] = 0.0
        return SpectralField(grid, out)
    factor = (grid.kx * raw[0] + grid.ky * raw[1]) * grid.inv_k2
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
    return SpectralField(g, u.half * mult)


def project_low(u: SpectralField, K: float) -> SpectralField:
    """Keep modes with |k| <= K (inclusive), zero the rest."""
    return SpectralField(u.grid, u.half * u.grid.low_mode_mask(K))


def project_high(u: SpectralField, K: float) -> SpectralField:
    """Complementary projection: zero modes with |k| <= K."""
    return SpectralField(u.grid, u.half * ~u.grid.low_mode_mask(K))


def inner(u: SpectralField, v: SpectralField) -> float:
    """The L2 inner product (u, v) under the (2*pi)^2 Plancherel convention."""
    _require_same_grid(u, v)
    a, b = u.half, v.half
    return PLANCHEREL * float(np.sum(u.grid.weight * (a.real * b.real + a.imag * b.imag)))


def hm_norm(u: SpectralField, m: int) -> float:
    """Sobolev norm |A^(m/2) u| = sqrt((2 pi)^2 sum |k|^(2m) |u_hat|^2)."""
    h = u.half
    return float(np.sqrt(PLANCHEREL * np.sum(u.grid.hm_weight(m) * (h.real**2 + h.imag**2))))


def to_box(grid: Grid, V: np.ndarray) -> np.ndarray:
    """The dealias box of the stack V (..., 2, n, n//2+1), shape
    (..., 2, 2r+1, r+1) (see `Grid.box_rows`), as a fresh C-contiguous copy."""
    # the rows are in range, so mode="clip" only skips the bounds check
    return np.take(V[..., : grid.box_cols], grid.box_rows, axis=-2, mode="clip")


def from_box(grid: Grid, Vb: np.ndarray) -> np.ndarray:
    """A fresh half-spectrum stack holding the box stack Vb, zero elsewhere."""
    V = np.zeros(Vb.shape[:-2] + (grid.n, grid.n // 2 + 1), dtype=np.complex128)
    V[..., grid.box_rows, : grid.box_cols] = Vb
    return V


def _physical(grid: Grid, V: np.ndarray, pad: int) -> np.ndarray:
    """The fields of the stack V (..., 2, n, n//2+1) on the physical grid,
    refined pad times by zero padding: shape (..., 2, pad n, pad n)."""
    if pad == 1:
        return np.fft.irfft2(V, s=(grid.n, grid.n), norm="forward")
    npad = pad * grid.n
    big = np.zeros(V.shape[:-2] + (npad, npad // 2 + 1), dtype=np.complex128)
    # guard the unpaired Nyquist lines; valid fields never populate them
    rows = np.flatnonzero(np.abs(grid.ky[:, 0]) < grid.n // 2)
    big[..., grid.ky[rows, 0].astype(np.int64) % npad, : grid.n // 2] = V[..., rows, : grid.n // 2]
    return np.fft.irfft2(big, s=(npad, npad), norm="forward")


def linf_norm(*fields: SpectralField) -> float:
    """Sup of the pointwise vector magnitude, sampled on the grid refined
    twice; of several fields, the largest.

    One field is transformed at a time, so the peak memory is that of one
    refined field.  sqrt is monotone, so the sqrt of the largest squared
    magnitude is the largest magnitude, bit for bit.
    """
    largest = 0.0
    for u in fields:
        phys = _physical(u.grid, u.half, 2)
        np.square(phys, out=phys)
        np.add(phys[0], phys[1], out=phys[0])
        largest = np.maximum(largest, phys[0].max())  # a NaN propagates
    return float(np.sqrt(largest))


def alias_energy(grid: Grid, V: np.ndarray) -> np.ndarray:
    """For each field of the stack V (..., 2, n, n//2+1): its largest
    coefficient magnitude outside the dealias radius, relative to 1 + its
    largest coefficient magnitude.  The alias guard compares it with
    ALIAS_RTOL."""
    mag = np.abs(V)
    axes = (-3, -2, -1)
    outside = mag.max(axis=axes, where=grid.alias_mask, initial=0.0)
    return outside / (1.0 + mag.max(axis=axes))


def _require_dealiased(grid: Grid, V: np.ndarray) -> None:
    if np.any(alias_energy(grid, V) > ALIAS_RTOL):
        raise AliasingViolation(
            "input field has energy outside the dealias radius; "
            "the experiment cutoff must not exceed grid.dealias_radius"
        )


def bilinear_B(u: SpectralField, v: SpectralField) -> SpectralField:
    """The projected advection term B(u, v) = P((u . grad) v).

    Pseudospectral in convective form: u, d_x v and d_y v go to physical
    space in one irfft2, u . grad v comes back in one rfft2, then the
    two-thirds mask and the Leray projection.  Exact to roundoff for inputs
    supported inside the dealias radius; raises AliasingViolation otherwise.
    """
    _require_same_grid(u, v)
    g = u.grid
    _require_dealiased(g, pack(u, v))
    spec = np.stack([u.half, g.ikx * v.half, g.iky * v.half])
    phys = np.fft.irfft2(spec, s=(g.n, g.n), norm="forward")
    adv = phys[0, 0] * phys[1] + phys[0, 1] * phys[2]
    raw = np.fft.rfft2(adv, norm="forward") * g.dealias_mask
    return leray_project(g, raw)


class BoxAdvection:
    """B(v, v) for a stack of c fields held on the dealias box, with every
    transform buffer allocated once: the kernel of the stepper.

    Rotational form: (v . grad) v = grad(|v|^2 / 2) + omega (-v_y, v_x) with
    omega = d_x v_y - d_y v_x, and the Leray projection removes the gradient,
    so B(v, v) = P(mask . rfft2(omega (-v_y, v_x))).  The vorticity is formed
    spectrally, so no derivative acts after a transform, and
    `Grid.masked_leray_rot` applies the sign and order of the rotational term
    with the projection.

    The transforms of all copies are batched and pruned to the box.  The
    inverse runs its column pass on the r+1 box columns only, from a padded
    buffer whose rows outside the box stay zero, into a buffer whose other
    columns stay zero, then the row pass fills the physical grid.  The
    forward runs the row pass, then the column pass on the box columns only.
    Each pass is the pass irfft2 or rfft2 runs on the same data, so the
    result on the box is bitwise that of the unpruned transforms.
    `np.fft.irfft2(..., out=)` is not used: it leaves its buffer unwritten.

    Every ufunc here takes operands of one shape: numpy buffers a broadcast
    operand into a fresh array when the others are contiguous, which is an
    allocation per call.  So the wavenumbers and the four blocks of the
    projector are stored once per copy, and each product runs once over
    all copies.  A product that reads or writes one component of every copy
    runs per pair of copies instead: over three or more copies numpy 2.4
    buffers such strided operands into fresh arrays of up to 128 KiB each.
    work is two box stacks of scratch; advect overwrites them, and callers
    may use them between calls.
    """

    def __init__(self, grid: Grid, copies: int):
        n, cols, rows = grid.n, grid.box_cols, grid.box_rows
        self.grid = grid
        self.shape = (copies, 2, len(rows), cols)
        self.work = np.empty((2,) + self.shape, dtype=np.complex128)
        # the constants, once per copy, copied block by block from the grid's
        # arrays with no temporary
        self.ikx, self.iky = (np.empty((copies, len(rows), cols), dtype=np.complex128) for _ in range(2))
        self.rot = np.empty((2, 2, copies, len(rows), 2 * cols))
        for box, grid_rows in grid.box_blocks:
            self.ikx[:, box] = grid.ikx[grid_rows, :cols]
            self.iky[:, box] = grid.iky[grid_rows, :cols]
            self.rot[:, :, :, box] = grid.masked_leray_rot[:, :, None, grid_rows, : 2 * cols]
        # the transform buffers put the component axis first: (v_x, v_y, omega),
        # then the copies
        self.spec = np.zeros((3, copies, n, cols), dtype=np.complex128)
        self.mid = np.zeros((3, copies, n, n // 2 + 1), dtype=np.complex128)
        self.phys = np.empty((3, copies, n, n))
        self.fwd = np.empty((2, copies, n, n // 2 + 1), dtype=np.complex128)
        self.pairs = [slice(j, j + 2) for j in range(0, copies, 2)]

    def advect(self, V: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write B(v, v) of each copy of the box stack V into out, a
        C-contiguous box stack that is not V; allocates nothing."""
        n, cols = self.grid.n, self.shape[-1]
        spec, mid, phys = self.spec, self.mid, self.phys
        curl, raw = self.work
        for c in self.pairs:
            np.multiply(self.ikx[c], V[c, 1], out=curl[c, 0])
            np.multiply(self.iky[c], V[c, 0], out=curl[c, 1])
        for box, rows in self.grid.box_blocks:
            spec[:2, :, rows] = V[:, :, box].swapaxes(0, 1)
            for c in self.pairs:
                np.subtract(curl[c, 0, box], curl[c, 1, box], out=spec[2, c, rows])  # omega
        np.fft.ifft(spec, axis=-2, norm="forward", out=mid[..., :cols])
        np.fft.irfft(mid, n=n, axis=-1, norm="forward", out=phys)
        for i in range(2):
            np.multiply(phys[i], phys[2], out=phys[i])  # omega (v_x, v_y)
        np.fft.rfft(phys[:2], axis=-1, norm="forward", out=self.fwd)
        # the column pass lands in mid, free until the next inverse, whose
        # padding columns it leaves zero
        kept = mid[:2, :, :, :cols]
        np.fft.fft(self.fwd[..., :cols], axis=-2, norm="forward", out=kept)
        for box, rows in self.grid.box_blocks:
            raw[:, :, box] = kept[:, :, rows].swapaxes(0, 1)
        rot, raw, prod, res = self.rot, raw.view(np.float64), curl.view(np.float64), out.view(np.float64)
        for c in self.pairs:
            for i in range(2):
                np.multiply(rot[i, 0, c], raw[c, 0], out=prod[c, i])
                np.multiply(rot[i, 1, c], raw[c, 1], out=res[c, i])
        np.add(prod, res, out=res)
        return out


def trilinear_b(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """The trilinear form b(u, v, w) = (B(u, v), w)."""
    return inner(bilinear_B(u, v), w)


def frechet_DB(u: SpectralField, v: SpectralField) -> SpectralField:
    """Derivative of the quadratic term at u in direction v: B(u,v) + B(v,u)."""
    return bilinear_B(u, v) + bilinear_B(v, u)


def check_field(u: SpectralField):
    """Validate reality, incompressibility and the mean-free constraint.

    Raises ValueError with the violated invariant named.  Reality is checked
    to REALITY_RTOL of the largest coefficient magnitude and constrains only
    the self-conjugate columns kx = 0 and kx = n/2 of the half spectrum: each
    must equal the conjugate of itself at -ky.  Incompressibility is
    divergence_free.
    """
    g = u.grid
    h = u.half
    scale = float(np.abs(h).max()) + 1e-300
    if not np.all(np.isfinite(h)):
        raise ValueError("field has non-finite coefficients")
    if np.abs(h[:, 0, 0]).max() != 0.0:
        raise ValueError("mean mode k=(0,0) is not exactly zero")
    columns = h[:, :, [0, -1]]
    reality = float(np.abs(columns - np.conj(columns[:, g.neg_rows])).max())
    if reality > REALITY_RTOL * scale:
        raise ValueError(f"reality symmetry violated by {reality / scale:.3e} relative")
    if not divergence_free(g, h):
        raise ValueError(f"incompressibility violated by {_divergence(g, h):.3e} relative")


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    energy: float = 1.0,
    slope: float = 2.0,
    kmax: float | None = None,
) -> SpectralField:
    """Seeded random divergence-free field with spectrum |u_hat_k| ~ |k|^-slope.

    Supported inside |k| <= kmax (default: the dealias radius) and rescaled so
    the L2 norm equals `energy`.  The draw is a full (2, n, n) array of
    complex normals, symmetrized as (raw_k + conj(raw_{-k})) / 2 to make it
    real, of which the half spectrum is kept.
    """
    if kmax is None:
        kmax = grid.dealias_radius
    kmax = min(float(kmax), grid.dealias_radius)
    n, m = grid.n, grid.n // 2 + 1
    mask = grid.low_mode_mask(kmax) & grid.nonzero
    raw = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))

    def spectrum(unit):
        decay = np.zeros_like(grid.k2)
        decay[mask] = (grid.kmag[mask] / unit) ** (-slope)
        # each stored k and its partner -k (row -ky, column -kx mod n); the
        # decay is even in k, so both take the same factor
        here = raw[..., :m] * decay
        partner = np.conj(raw[:, grid.neg_rows][..., (-np.arange(m)) % n]) * decay
        return leray_project(grid, 0.5 * (here + partner))

    with np.errstate(over="ignore", invalid="ignore"):
        u = spectrum(1.0)
        amp = u.l2
    if not np.isfinite(amp):
        # |k|^-slope or the norm overflowed (a steeply rising spectrum); the
        # field is rescaled to energy anyway, so measure |k| in units of the
        # largest one
        u = spectrum(grid.kmag[mask].max())
        amp = u.l2
    if amp == 0.0:
        return u
    return u * (energy / amp)


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """The cellular flow a*(cos x sin y, -sin x cos y), supported on |k|=(1,1)."""
    # cos x sin y  = (w(1,1) - w(1,-1) + w(-1,1) - w(-1,-1)) / (4i), w_k = e^{ik.x}
    # -sin x cos y = -(w(1,1) + w(1,-1) - w(-1,1) - w(-1,-1)) / (4i)
    # field_from_modes adds the kx = -1 modes as the conjugates of these
    q = amplitude / 4.0 / 1j
    return field_from_modes(grid, [(1, 1, (q, -q)), (1, -1, (-q, -q))])
