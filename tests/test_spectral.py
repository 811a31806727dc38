"""Spectral core: projections, norms, and the advection-term identities."""

import numpy as np
import pytest

from intertwine import spectral as sp
from intertwine.spectral import (
    AliasingViolation,
    Grid,
    SpectralField,
    bilinear_B,
    check_field,
    frechet_DB,
    hm_norm,
    inner,
    leray_project,
    project_high,
    project_low,
    random_field,
    stokes_apply,
    trilinear_b,
)


class TestGrid:
    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(ValueError):
            Grid(7)
        with pytest.raises(ValueError):
            Grid(2)

    def test_rejects_bad_dealias_radius(self):
        with pytest.raises(ValueError):
            Grid(12, dealias_radius=5.0)  # beyond n/3
        with pytest.raises(ValueError):
            Grid(12, dealias_radius=0.0)

    def test_default_radius_is_two_thirds_rule(self):
        g = Grid(24)
        assert g.dealias_radius == pytest.approx(8.0)

    def test_low_mode_mask_k1(self, grid16):
        # |k| <= 1 keeps exactly the four unit modes (mean mode carries no data);
        # the half spectrum stores (1, 0), (0, 1), (0, -1) and k = 0, and
        # (-1, 0) is the conjugate of (1, 0), counted by the column weight
        mask = grid16.low_mode_mask(1.0)
        assert int(mask.sum()) == 4
        assert float((mask * grid16.weight).sum()) == 5.0  # four unit modes plus k = 0
        assert mask[0, 0] and mask[0, 1] and mask[1, 0] and mask[-1, 0]


class TestLerayProjection:
    def test_gradient_field_is_annihilated(self, grid16, rng):
        # gradients i k phi_k span the projector kernel
        phi = rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
        raw = np.stack([1j * grid16.kx * phi, 1j * grid16.ky * phi])
        out = leray_project(grid16, raw)
        assert np.abs(out.coeffs).max() < 1e-13 * np.abs(raw).max()

    def test_identity_on_divergence_free(self, grid16, rng):
        u = random_field(grid16, rng)
        again = leray_project(grid16, u.half)
        assert np.array_equal(again.half, u.half) or np.abs(
            again.half - u.half
        ).max() < 1e-15

    def test_single_mode_hand_check(self, grid16):
        # k = (1, 0), u_hat = (1, 1): the projector I - kk^T/|k|^2 keeps (0, 1)
        raw = np.zeros((2, 16, 9), complex)
        raw[:, 0, 1] = 1.0  # its partner k = (-1, 0) is implied
        out = leray_project(grid16, raw)
        assert out.half[0, 0, 1] == pytest.approx(0.0)
        assert out.half[1, 0, 1] == pytest.approx(1.0)

    @staticmethod
    def hermitian_raw(grid, rng):
        # random half spectrum; the self-conjugate columns kx = 0 and n/2
        # made Hermitian so that it is the spectrum of a real field
        shape = (2, grid.n, grid.n // 2 + 1)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cols = raw[..., [0, -1]]
        raw[..., [0, -1]] = cols + np.conj(cols[:, grid.neg_rows])
        return raw

    def test_idempotent_exactly(self, grid16, rng):
        raw = self.hermitian_raw(grid16, rng)
        once = leray_project(grid16, raw)
        twice = leray_project(grid16, once.half)
        assert np.array_equal(once.half, twice.half)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e3])
    @pytest.mark.parametrize("level", [1e-15, 1e-13, 1e-10])
    def test_unchanged_output_passes_check_field(self, grid16, rng, scale, level):
        # a divergent perturbation of relative size level on mode k = (1, 0):
        # leray_project passes it through below DIV_RTOL and projects it
        # above, and what it passes through, check_field accepts
        u = scale * random_field(grid16, rng)
        raw = u.half.copy()
        raw[0, 0, 1] += level * grid16.n * np.abs(raw).max()
        out = leray_project(grid16, raw)
        unchanged = np.array_equal(out.half, raw)
        assert unchanged == (level < sp.DIV_RTOL)
        check_field(out)
        if not unchanged:
            with pytest.raises(ValueError, match="incompressibility"):
                check_field(SpectralField(grid16, raw))

    def test_output_satisfies_invariants(self, grid16, rng):
        raw = self.hermitian_raw(grid16, rng)
        raw[:, grid16.kx == 8] = 0.0
        raw[:, grid16.ky == -8] = 0.0
        check_field(leray_project(grid16, raw))


class TestStokesPowers:
    def test_single_mode_scaling(self, grid16):
        u = sp.field_from_modes(grid16, [(2, 1, (1.0 / 1j, -2.0 / 1j))])
        Au = stokes_apply(u, 2)
        assert np.allclose(Au.coeffs, 5.0 * u.coeffs)  # |k|^2 = 5

    def test_zero_power_is_identity(self, grid16, rng):
        u = random_field(grid16, rng)
        assert np.array_equal(stokes_apply(u, 0).coeffs, u.coeffs)

    def test_half_power_gives_h1_norm(self, grid16, rng):
        u = random_field(grid16, rng)
        assert stokes_apply(u, 1).l2 == pytest.approx(u.h1, rel=1e-13)

    def test_negative_power_inverts(self, grid16, rng):
        u = random_field(grid16, rng)
        back = stokes_apply(stokes_apply(u, -2), 2)
        assert np.allclose(back.coeffs, u.coeffs, atol=1e-15)


class TestModeProjections:
    def test_k1_ball_content(self, grid16):
        u = sp.field_from_modes(
            grid16, [(1, 0, (0.0, 1.0)), (0, 1, (1.0, 0.0)), (2, 2, (1.0, -1.0))]
        )
        low = project_low(u, 1.0)
        kept = np.argwhere(np.abs(low.half).max(axis=0) > 0)
        mags = [grid16.kmag[tuple(ij)] for ij in kept]
        assert all(m <= 1.0 for m in mags) and len(kept) > 0

    def test_k0_gives_zero_field(self, grid16, rng):
        u = random_field(grid16, rng)
        assert project_low(u, 0.0).l2 == 0.0

    def test_parseval_split(self, grid16, rng):
        u = random_field(grid16, rng)
        lo, hi = project_low(u, 3.0), project_high(u, 3.0)
        assert u.l2**2 == pytest.approx(lo.l2**2 + hi.l2**2, rel=1e-13)
        assert np.array_equal((lo + hi).coeffs, u.coeffs)

    def test_mutual_orthogonality_exact(self, grid16, rng):
        u = random_field(grid16, rng)
        v = random_field(grid16, rng)
        assert inner(project_low(u, 4.0), project_high(v, 4.0)) == 0.0

    def test_idempotent(self, grid16, rng):
        u = random_field(grid16, rng)
        lo = project_low(u, 2.5)
        assert np.array_equal(project_low(lo, 2.5).coeffs, lo.coeffs)


class TestNorms:
    def test_unit_mode_l2_equals_h1(self, grid16):
        u = sp.field_from_modes(grid16, [(1, 0, (0.0, 1.0))])
        assert u.l2 == pytest.approx(u.h1, rel=1e-14)
        assert hm_norm(u, 0) == u.l2 and hm_norm(u, 1) == u.h1

    def test_bernstein_equality_single_shell(self, grid16):
        # content only at |k| = 2 with N = 2: order-2 norm is exactly N^2 * l2
        u = sp.field_from_modes(grid16, [(0, 2, (1.0 / 1j, 0.0)), (2, 0, (0.0, 0.5))])
        assert hm_norm(u, 2) == pytest.approx(4.0 * u.l2, rel=1e-13)

    def test_interpolation_by_direct_summation(self, grid16, rng):
        for _ in range(20):
            u = random_field(grid16, rng, slope=rng.uniform(0.5, 3.0))
            # direct Cauchy-Schwarz on the coefficient sums
            assert hm_norm(u, 1) ** 2 <= hm_norm(u, 2) * hm_norm(u, 0) * (1 + 1e-12)

    def test_poincare_on_batch(self, grid16, rng):
        for _ in range(1000):
            u = random_field(grid16, rng, energy=rng.uniform(0.1, 10.0))
            assert u.l2 <= u.h1 * (1 + 1e-12)

    @pytest.mark.parametrize("slope", [-300.0, -1000.0])
    def test_random_field_with_a_steeply_rising_spectrum(self, grid16, slope):
        # |k|^-slope overflows at slope -1000 and the norm at -300; the field
        # once came out NaN or zero, and now has the requested energy
        u = random_field(grid16, np.random.default_rng(0), energy=0.7, slope=slope)
        assert np.isfinite(u.half).all()
        assert u.l2 == pytest.approx(0.7, rel=1e-14)

    def test_sobolev_weights_cached_values_unchanged(self, grid16, rng):
        # hm_norm reads |k|^(2m) times the column weights from the grid,
        # built once per m; the values are those of the formula inline
        u = random_field(grid16, rng, slope=1.0)
        h = u.half
        for m in range(4):
            weights = grid16.k2**m * grid16.weight if m > 0 else grid16.weight
            inline = float(np.sqrt(sp.PLANCHEREL * np.sum(weights * (h.real**2 + h.imag**2))))
            assert hm_norm(u, m) == inline
            assert grid16.hm_weight(m) is grid16.hm_weight(m)
        assert Grid(16).hm_weight(2) is not grid16.hm_weight(2)  # one cache per grid

    def test_linf_norm_one_field_at_a_time(self, rng):
        # the largest magnitude over fields, transformed one at a time, is
        # bitwise the largest over the batched refined transform
        grid = Grid(32)
        fields = [random_field(grid, rng, slope=s) for s in (0.5, 1.0, 2.0)]
        phys = sp._physical(grid, sp.pack(*fields), 2)
        batched = float(np.sqrt(phys[:, 0] ** 2 + phys[:, 1] ** 2).max())
        assert sp.linf_norm(*fields) == batched
        assert sp.linf_norm(*fields) == max(sp.linf_norm(u) for u in fields)
        nan = SpectralField(grid, fields[0].half * np.nan)
        assert np.isnan(sp.linf_norm(fields[1], nan))

    @pytest.mark.parametrize("N", [1.0, 2.0, 4.0, 8.0])
    def test_bernstein_both_directions(self, rng, N):
        grid = Grid(32)
        u = random_field(grid, rng)
        low, high = project_low(u, N), project_high(u, N)
        for m in range(3):
            for n_ in range(m, 3):
                if low.l2 > 0:
                    assert hm_norm(low, n_) <= N ** (n_ - m) * hm_norm(low, m) * (1 + 1e-12)
                if high.l2 > 0:
                    assert hm_norm(high, m) <= N ** (m - n_) * hm_norm(high, n_) * (1 + 1e-12)


class TestAdvectionTerm:
    def test_shear_self_advection_vanishes(self, grid16):
        shear = sp.field_from_modes(grid16, [(0, 1, (0.5 / 1j, 0.0))])
        assert bilinear_B(shear, shear).l2 < 1e-16

    def test_taylor_green_is_pure_gradient(self, grid16):
        # the unprojected quadratic term is nonzero, its projection vanishes
        tg = sp.taylor_green(grid16, 1.0)
        u_phys = sp._physical(tg.grid, tg.half, 1)
        dvdx = np.fft.irfft2(1j * grid16.kx * tg.half, s=(16, 16), norm="forward")
        dvdy = np.fft.irfft2(1j * grid16.ky * tg.half, s=(16, 16), norm="forward")
        adv = u_phys[0] * dvdx + u_phys[1] * dvdy
        raw = np.fft.rfft2(adv, norm="forward") * grid16.dealias_mask
        assert np.abs(raw).max() > 0.01
        assert bilinear_B(tg, tg).l2 < 1e-14

    def test_skew_symmetry_batch(self, grid16, rng):
        for _ in range(25):
            u = random_field(grid16, rng)
            v = random_field(grid16, rng)
            w = random_field(grid16, rng)
            scale = u.h1 * v.h1 * w.h1
            assert abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) <= 1e-10 * scale
            assert abs(trilinear_b(u, v, v)) <= 1e-10 * u.h1 * v.h1**2

    def test_enstrophy_identities(self, rng):
        grid = Grid(32)
        for _ in range(10):
            u = random_field(grid, rng)
            v = random_field(grid, rng)
            Au, Av = stokes_apply(u, 2), stokes_apply(v, 2)
            assert abs(trilinear_b(u, u, Au)) <= 1e-10 * u.h1**2 * Au.l2
            miracle = (
                trilinear_b(v, v, Au) + trilinear_b(u, v, Av) + trilinear_b(v, u, Av)
            )
            assert abs(miracle) <= 1e-10 * v.h1**2 * Au.l2

    def test_inclusive_boundary_alias_free(self, rng):
        # n divisible by 3 puts integer modes exactly on the two-thirds
        # boundary; the only candidate aliasing pairs there are axis-aligned
        # self-pairs, which incompressibility annihilates, so the inclusive
        # ball stays exact: check against a wrap-free direct convolution
        grid = Grid(24)
        assert grid.dealias_radius == 8.0
        u = random_field(grid, rng, energy=1.0, slope=1.0, kmax=8.0)
        v = random_field(grid, rng, energy=1.0, slope=1.0, kmax=8.0)
        assert np.abs(u.coeffs[:, 0, 8]).max() > 0  # boundary shell populated

        n = grid.n
        idx = np.fft.fftfreq(n, 1.0 / n).astype(int)
        modes = [
            (kx, ky)
            for ky in idx
            for kx in idx
            if 0 < kx * kx + ky * ky <= 64
        ]
        raw = np.zeros_like(u.coeffs)
        for ax, ay in modes:
            ua = u.coeffs[:, ay % n, ax % n]
            for bx, by in modes:
                kx, ky = ax + bx, ay + by
                if kx * kx + ky * ky > 64 or (kx, ky) == (0, 0):
                    continue
                vb = v.coeffs[:, by % n, bx % n]
                raw[:, ky % n, kx % n] += 1j * (ua[0] * bx + ua[1] * by) * vb
        direct = leray_project(grid, raw[..., : n // 2 + 1])
        pseudo = bilinear_B(u, v)
        assert (pseudo - direct).l2 <= 1e-11 * max(direct.l2, 1e-30)

    def test_aliasing_violation_raised(self, grid16, rng):
        u = random_field(grid16, rng)
        bad = u.half.copy()
        bad[:, 0, 7] = 1.0  # |k| = 7 > 16/3
        dirty = leray_project(grid16, bad)
        with pytest.raises(AliasingViolation):
            bilinear_B(dirty, u)

    def test_output_invariants(self, grid16, rng):
        u = random_field(grid16, rng)
        v = random_field(grid16, rng)
        check_field(bilinear_B(u, v))


class TestFrechetDerivative:
    def test_at_self_equals_twice_B(self, grid16, rng):
        u = random_field(grid16, rng)
        lhs = frechet_DB(u, u)
        rhs = 2.0 * bilinear_B(u, u)
        assert (lhs - rhs).l2 <= 1e-13 * rhs.l2

    def test_at_zero_vanishes(self, grid16, rng):
        v = random_field(grid16, rng)
        zero = sp.zero_field(grid16)
        assert frechet_DB(zero, v).l2 == 0.0

    def test_finite_difference_slope(self, grid16, rng):
        # || B(u+e v, u+e v) - B(u,u) - e DB(u)v || should scale as e^2
        u = random_field(grid16, rng)
        v = random_field(grid16, rng)
        gaps = []
        for eps in (1e-3, 1e-4):
            pert = u + eps * v
            gap = (
                bilinear_B(pert, pert) - bilinear_B(u, u) - eps * frechet_DB(u, v)
            ).l2
            gaps.append(gap)
        slope = np.log10(gaps[0] / gaps[1])
        assert slope == pytest.approx(2.0, abs=0.1)


class TestEmpiricalRatios:
    def test_interpolation_ratios_stable_across_n(self, rng, calibrate):
        """The Ladyzhenskaya/Agmon/Sobolev ratios stay finite and comparable
        between grid sizes; these scans calibrate the working constants."""
        maxima = {}
        for n in (16, 32):
            grid = Grid(n)
            r_l = r_a = r_s = 0.0
            for _ in range(40):
                u = random_field(grid, rng, slope=rng.uniform(0.5, 3.0))
                linf = sp.linf_norm(u)
                r_l = max(r_l, calibrate.l4_norm(u) ** 2 / (u.h1 * u.l2))
                r_a = max(r_a, linf**2 / (hm_norm(u, 2) * u.l2))
                r_s = max(r_s, linf / (np.sqrt(np.log(grid.dealias_radius)) * u.h1))
            maxima[n] = (r_l, r_a, r_s)
        for i in range(3):
            lo, hi = sorted((maxima[16][i], maxima[32][i]))
            assert np.isfinite(hi)
            assert hi <= 2.0 * lo + 0.1  # same order across resolutions

    def test_random_field_properties(self, rng):
        grid = Grid(32)
        u = random_field(grid, rng, energy=2.5, slope=2.0, kmax=6.0)
        check_field(u)
        assert u.l2 == pytest.approx(2.5, rel=1e-12)
        assert project_high(u, 6.0).l2 == 0.0

    def test_every_operation_preserves_invariants(self, grid16, rng):
        u = random_field(grid16, rng)
        v = random_field(grid16, rng)
        outputs = [
            stokes_apply(u, 2),
            stokes_apply(u, -2),
            stokes_apply(u, 1),
            project_low(u, 3.0),
            project_high(u, 3.0),
            bilinear_B(u, v),
            frechet_DB(u, v),
            project_low(u, grid16.dealias_radius),
            u + v,
            2.5 * u - v,
        ]
        for out in outputs:
            check_field(out)


class TestPackedLayout:
    @pytest.mark.parametrize("n", [16, 32, 48, 64, 128])
    def test_self_advection_equals_bilinear_B(self, rng, n):
        grid = Grid(n)
        fields = [random_field(grid, rng, slope=s) for s in (0.5, 1.0, 2.0)]
        packed = _box_advection(grid, sp.pack(*fields))
        for u, out in zip(fields, packed):
            ref = bilinear_B(u, u).half
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_self_advection_roundoff_over_seeds_and_slopes(self, n):
        # steep spectra at large n: a kernel that differentiates after the
        # forward transform multiplies its roundoff by |k| up to n/3 and
        # leaves this bound at n = 128
        grid = Grid(n)
        fields = [
            random_field(grid, np.random.default_rng(seed), energy=1.0, slope=slope)
            for seed in range(6)
            for slope in (0.5, 1.0, 2.0, 3.0)
        ]
        packed = _box_advection(grid, sp.pack(*fields))
        for u, out in zip(fields, packed):
            ref = bilinear_B(u, u).half
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_pack_export_round_trip_exact(self, grid16, rng):
        fields = [
            random_field(grid16, rng),
            random_field(grid16, rng, slope=0.5, kmax=3.0),
            sp.taylor_green(grid16, 0.7),
            sp.field_from_modes(grid16, [(2, -3, (0.4 + 0.1j, 0.2 - 0.3j))]),
        ]
        packed = sp.pack(*fields)
        assert packed.shape == (4, 2, 16, 9)
        for u, half in zip(fields, packed):
            assert np.array_equal(half, u.half)
            # the full export holds the half spectrum in its columns kx >= 0
            back = SpectralField(grid16, u.coeffs[..., :9])
            assert np.array_equal(back.half, u.half)
            assert np.array_equal(back.coeffs, u.coeffs)

    def test_grid_arrays_in_half_spectrum_layout(self, grid16):
        assert grid16.kx.shape == (16, 9)
        assert np.array_equal(grid16.kx[0], np.arange(9))  # kx = +n/2 in the last column
        assert np.array_equal(grid16.ky[:, 0], np.fft.fftfreq(16, 1.0 / 16))
        assert np.array_equal(grid16.k2, grid16.kx**2 + grid16.ky**2)
        assert np.array_equal(grid16.dealias_mask, ~grid16.alias_mask)
        # every mode of the full spectrum is counted once by the column weights
        assert float(grid16.weight.sum()) * 16 == 16 * 16

    def test_packed_alias_guard_per_copy(self, grid16, rng):
        u = random_field(grid16, rng)
        bad = u.half.copy()
        bad[:, 0, 7] = 1.0  # |k| = 7 > 16/3
        dirty = leray_project(grid16, bad)
        sp._require_dealiased(grid16, sp.pack(u, u))
        with pytest.raises(AliasingViolation):
            sp._require_dealiased(grid16, sp.pack(u, dirty))


def _box_advection(grid, V):
    """B(v, v) of each field of the half-spectrum stack V by a fresh
    `BoxAdvection` on its dealias box, zero outside the box."""
    kernel = sp.BoxAdvection(grid, len(V))
    out = np.empty(kernel.shape, dtype=complex)
    return sp.from_box(grid, kernel.advect(sp.to_box(grid, V), out))


def _reference_self_advection(grid, V):
    """B(v, v) of the stack V by unpruned irfft2/rfft2 on the full half
    spectrum: the formula the box kernel replaced, kept here as its
    reference."""
    n = grid.n
    curl = grid.ikx * V[:, 1] - grid.iky * V[:, 0]
    phys = np.fft.irfft2(np.concatenate((V, curl[:, None]), axis=1), s=(n, n), norm="forward")
    phys[:, :2] *= phys[:, 2:]
    raw = np.fft.rfft2(phys[:, :2], norm="forward").view(np.float64)
    rot = grid.masked_leray_rot
    return (rot[:, 0] * raw[:, None, 0] + rot[:, 1] * raw[:, None, 1]).view(np.complex128)


class TestBoxKernel:
    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize(
        "grid",
        [Grid(n) for n in (8, 16, 32, 48, 64, 128)] + [Grid(32, 8.0)],
        ids=lambda g: f"n{g.n}_r{g.dealias_radius:g}",
    )
    def test_bitwise_equal_to_unpruned_transforms(self, rng, grid, copies):
        fields = [random_field(grid, rng, slope=s) for s in (0.5, 1.0, 2.0)[:copies]]
        V = sp.pack(*fields)
        ref = _reference_self_advection(grid, V)
        kernel = sp.BoxAdvection(grid, copies)
        out = np.empty(kernel.shape, dtype=complex)
        for _ in range(2):  # the buffers are reused
            kernel.advect(sp.to_box(grid, V), out)
            assert out.tobytes() == sp.to_box(grid, ref).tobytes()
        full = _box_advection(grid, V)
        assert np.array_equal(full, ref)  # zero outside the box, as the reference there

    def test_box_holds_the_dealias_ball(self):
        for grid in (Grid(8), Grid(64), Grid(32, 8.0), Grid(30, 7.5)):
            r = int(np.floor(grid.dealias_radius))
            assert grid.box_cols == r + 1
            assert list(grid.box_rows) == list(range(r + 1)) + list(range(grid.n - r, grid.n))
            outside = np.ones(grid.k2.shape, dtype=bool)
            outside[np.ix_(grid.box_rows, np.arange(grid.box_cols))] = False
            assert not np.any(grid.dealias_mask & outside)

    def test_box_round_trip(self, grid16, rng):
        V = sp.pack(random_field(grid16, rng), random_field(grid16, rng))
        back = sp.from_box(grid16, sp.to_box(grid16, V))
        assert np.array_equal(back, V)  # equal up to the sign of zeros
        assert not np.shares_memory(back, V)


class TestOneLayout:
    @pytest.mark.parametrize("n", [16, 48, 64])
    def test_full_export_matches_fft2_and_plancherel(self, rng, n):
        # coeffs is the full spectrum of the physical field, and its plain
        # unweighted Plancherel sum is the field's norm
        grid = Grid(n)
        for slope in (0.5, 2.0):
            u = random_field(grid, rng, energy=1.7, slope=slope)
            full = u.coeffs
            assert full.shape == (2, n, n)
            ref = np.fft.fft2(sp._physical(u.grid, u.half, 1), norm="forward")
            assert np.abs(full - ref).max() <= 1e-15 * np.abs(ref).max()
            plain = np.sqrt(sp.PLANCHEREL * np.sum(full.real**2 + full.imag**2))
            assert plain == pytest.approx(u.l2, rel=1e-14)

    def test_export_is_rebuilt_and_read_only(self, grid16, rng):
        u = random_field(grid16, rng)
        first = u.coeffs
        assert first is not u.coeffs
        with pytest.raises(ValueError):
            first[0, 0, 1] = 1.0

    def test_no_full_complex_transform(self, grid16, rng, tmp_path, monkeypatch, calibrate):
        # stepping, sampling, products, norms and checkpoints all stay on the
        # half spectrum: none of them may call a full complex 2D transform
        from intertwine import diagnostics as diag
        from intertwine import dynamics as dyn
        from intertwine import forcing as fr
        from intertwine import harness as hz

        def refuse(*args, **kwargs):
            raise AssertionError("full complex transform called")

        monkeypatch.setattr(np.fft, "fft2", refuse)
        monkeypatch.setattr(np.fft, "ifft2", refuse)
        force = fr.SteadyForcing(fr.kolmogorov_force(grid16, 0.1, 2))
        state = dyn.IntertwinedState(
            grid=grid16, t=0.0, nu=0.2, K=2.0,
            matrix=dyn.IntertwiningMatrix.nudge_mutual(1.0, 1.0),
            v1=random_field(grid16, rng, energy=0.6), v2=random_field(grid16, rng, energy=0.6),
            forcing=fr.ForcingPair.synchronized(force),
        )
        records = []
        out = dyn.integrate(state, 0.2, dt=0.02, sample_every=0.1,
                            sink=lambda s: records.append(diag.sample_record(s)))
        assert len(records) == 3
        bilinear_B(out.v1, out.v2)
        sp.linf_norm(out.v1)
        calibrate.l4_norm(out.v1)
        path = tmp_path / "state.ckpt"
        hz.checkpoint_save(out, path)
        loaded, _ = hz.checkpoint_load(path)
        assert np.array_equal(loaded.v1.half, out.v1.half)
