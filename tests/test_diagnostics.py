"""Dimensionless numbers, condition checks, decay detection, CSV output."""

import csv
import io
import math

import numpy as np
import pytest

from intertwine import diagnostics as diag
from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import oracle as orc
from intertwine import spectral as sp
from intertwine.diagnostics import (
    ConditionReport,
    ConstantsConfig,
    EmptySeries,
    GrashofSet,
    InsufficientData,
    calibrate_constants,
    check_dr_condition,
    check_K_log_condition,
    check_nudge_fdss_condition,
    check_nudge_ss_condition,
    check_theta_regime,
    check_uniform_bound,
    decay_detect,
    default_constants,
    grashof_set_for_state,
    heat_compare,
)

UNIT = ConstantsConfig(C_L=1.0, C_A=1.0, C_S=1.0)
# the Grashof numbers of a run that check_theta_regime reads
GRASHOFS = GrashofSet(g1=1.0, g2=1.0, g=math.sqrt(2), k_frak=2.0, h_frak=0.1,
                      p_frak=0.5, r_frak=9.0, d_frak=2.0, f_frak=2.0)


def _forced_state(grid, force, nu):
    u = sp.zero_field(grid)
    pair = fr.ForcingPair.synchronized(fr.SteadyForcing(force))
    return dyn.IntertwinedState(grid=grid, t=0.0, nu=nu, K=2.0, matrix=dyn.IntertwiningMatrix.zero(),
                                v1=u, v2=u, forcing=pair)


class TestGrashofNumbers:
    def test_constant_force(self, grid16):
        force = fr.kolmogorov_force(grid16, 0.3, 2)
        gs = grashof_set_for_state(_forced_state(grid16, force, nu=1.0))
        assert gs.g1 == gs.g2 == force.l2

    def test_zero_force(self, grid16):
        gs = grashof_set_for_state(_forced_state(grid16, sp.zero_field(grid16), nu=0.5))
        assert gs.g1 == gs.g2 == gs.g == 0.0

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            diag.measured_m_frak([], [], nu=1.0)
        with pytest.raises(EmptySeries):
            check_uniform_bound([], "nudge_mutual", GrashofSet(g1=1.0, g2=1.0, g=2**0.5),
                                dyn.IntertwiningMatrix.nudge_mutual(1.0, 1.0), nu=0.1)

    def test_decaying_pair_tail_sup(self, grid16, rng):
        # the sup of |h| over t >= 0 is the closed-form envelope at t = 0
        base = fr.SteadyForcing(fr.kolmogorov_force(grid16, 0.3, 2))
        delta = sp.random_field(grid16, rng, energy=0.4, kmax=2.0)
        pair = fr.ForcingPair.decaying_delta(base, delta, rate=1.5)
        assert pair.sup_h_l2() == pytest.approx(delta.l2, rel=1e-12)

    def test_sup_without_closed_form_raises(self, grid16):
        # a steady force against a time-periodic one has no closed-form sup
        # of |g1 - g2|; a max over samples is not reported in its place
        force = fr.kolmogorov_force(grid16, 0.3, 2)
        pair = fr.ForcingPair(
            fr.SteadyForcing(force), fr.TimePeriodicForcing(force, omega=1.0)
        )
        with pytest.raises(fr.NoClosedForm, match="SteadyForcing, TimePeriodicForcing"):
            pair.sup_h_l2()

    def test_time_periodic_sup_is_the_sampled_max(self, grid16):
        # g(t) = cos(omega t) a: the sup |a| is reached at t = 0
        omega = 3.0
        g = fr.TimePeriodicForcing(fr.kolmogorov_force(grid16, 0.3, 2) + sp.taylor_green(grid16, 0.2), omega)
        sampled = max(g(t).l2 for t in np.arange(64) * (2.0 * np.pi / omega / 64))
        assert g.sup_l2() == pytest.approx(sampled, rel=1e-15, abs=0.0)

    def test_set_invariants(self):
        with pytest.raises(ValueError):
            GrashofSet(g1=-1.0)
        with pytest.raises(ValueError):
            GrashofSet(g1=1.0, g2=1.0, g=5.0)
        with pytest.raises(ValueError):
            GrashofSet(g1=1.0, g2=1.0, g=math.sqrt(2.0), k_frak=10.0)
        ok = GrashofSet(g1=3.0, g2=4.0, g=5.0, k_frak=7.0)
        assert ok.k_frak <= math.sqrt(2.0) * ok.g

    def test_grashof_set_for_state(self, grid16, rng):
        pair = fr.ForcingPair.synchronized(
            fr.SteadyForcing(fr.kolmogorov_force(grid16, 0.2, 2))
        )
        v1 = sp.random_field(grid16, rng, energy=0.5, kmax=4.0)
        state = dyn.IntertwinedState(
            grid=grid16, t=0.0, nu=0.5, K=3.0,
            matrix=dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75),
            v1=v1, v2=v1.copy(), forcing=pair,
        )
        gs = diag.grashof_set_for_state(state)
        g1 = pair.g1.sup_l2() / 0.25
        assert gs.g1 == pytest.approx(g1)
        assert gs.g == pytest.approx(math.sqrt(2.0) * g1)
        assert gs.k_frak == pytest.approx(2.0 * g1)
        assert gs.h_frak == 0.0
        assert gs.g_theta == pytest.approx(g1)


class TestConditionChecks:
    def test_fdss_example_values(self):
        rep = check_nudge_fdss_condition(10.0, 4.0, UNIT)
        assert rep.satisfied and rep.lhs == 8.0 and rep.rhs == 10.0
        assert rep.margin == pytest.approx(2.0)

    def test_fdss_violated(self):
        rep = check_nudge_fdss_condition(5.0, 4.0, UNIT)
        assert not rep.satisfied

    def test_ss_boundary_case(self):
        rep = check_nudge_ss_condition(10.0, 8.0, 8.0, 4.0, 1.0, UNIT)
        assert rep.satisfied and rep.margin == pytest.approx(0.0)

    def test_dr_substitutions(self):
        assert check_dr_condition(50.0, 4.0, UNIT).satisfied
        assert not check_dr_condition(47.0, 4.0, UNIT).satisfied
        assert check_dr_condition(48.0, 4.0, UNIT).margin == pytest.approx(0.0)

    def test_log_condition_numeric(self):
        rep = check_K_log_condition(3.0, 1.0, 1.0, "cutoff_log")
        assert rep.satisfied and rep.name == "cutoff_log"
        assert rep.lhs == pytest.approx(math.sqrt(math.log(math.e + 3.0)))
        assert check_K_log_condition(3.0, 0.0, 1.0, "cutoff_log").satisfied  # zero force
        assert not check_K_log_condition(0.0, 1.0, 1.0, "cutoff_log").satisfied

    def test_theta_regime_trivial_cases(self):
        reps = check_theta_regime(1.0, 0.0, 8.0, 1.0, 1.0, UNIT, 1.0, GRASHOFS)
        composite = next(r for r in reps if r.name == "theta_composite")
        assert composite.lhs == 0.0 and composite.satisfied
        reps = check_theta_regime(0.5, 0.5, 8.0, 1.0, 1.0, UNIT, 1.0, GRASHOFS)
        composite = next(r for r in reps if r.name == "theta_composite")
        assert composite.lhs == 0.0 and composite.satisfied

    def test_theta_gap_example_numeric(self):
        # theta2 = 0.1, K = 32, C_S = 1, m = 5: the gap bound evaluates to
        # sqrt(2) / (8 ln(e+32)^(1/2) * 5), far below the actual gap 0.8
        reps = check_theta_regime(0.9, 0.1, 32.0, 1.0, 1.0, UNIT, 5.0, GRASHOFS)
        gap = next(r for r in reps if r.name == "theta_near_balanced")
        assert gap.lhs == pytest.approx(0.8)
        expect = math.sqrt(2.0) / (8.0 * math.sqrt(math.log(math.e + 32.0)) * 5.0)
        assert gap.rhs == pytest.approx(expect)
        assert not gap.satisfied

    def test_theta_regime_with_grashofs(self):
        reps = check_theta_regime(0.95, 0.05, 16.0, 1.0, math.sqrt(2), UNIT, 3.0, GRASHOFS)
        names = [r.name for r in reps]
        assert names == ["theta_composite", "theta_near_balanced", "theta_small",
                         "cutoff_small_theta2_floor", "cutoff_small_theta2_balance",
                         "cutoff_dr_near_balanced"]

    def test_reports_reproducible(self):
        a = check_nudge_fdss_condition(10.0, 4.0, UNIT)
        b = check_nudge_fdss_condition(10.0, 4.0, UNIT)
        assert a == b


class TestWeightedNormEquivalence:
    def test_symmetric_damping_bounds(self, rng):
        # lambda1 |u|^2 <= u^T (-M) u <= lambda2 |u|^2 for the symmetric class
        m = dyn.IntertwiningMatrix.nudge_symmetric(3.0, 1.0)
        D = -m.entries
        lam1, lam2 = np.linalg.eigvalsh(D)
        for _ in range(200):
            u = rng.standard_normal(2)
            q = float(u @ D @ u)
            n2 = float(u @ u)
            assert lam1 * n2 - 1e-12 <= q <= lam2 * n2 + 1e-12


class TestUniformBounds:
    def test_zero_force_trivially_bounded(self):
        gs = GrashofSet(g1=0.0, g2=0.0, g=0.0)
        series = [(t, 0.0) for t in np.linspace(0, 10, 20)]
        m = dyn.IntertwiningMatrix.nudge_mutual(1.0, 1.0)
        rep = check_uniform_bound(series, "nudge_mutual", gs, m, nu=0.1)
        assert rep.satisfied

    def test_mutual_ratio_formula(self):
        gs = GrashofSet(g1=3.0, g2=4.0, g=5.0)
        m = dyn.IntertwiningMatrix.nudge_mutual(2.0, 0.5)
        series = [(0.0, 1.0), (1.0, 0.9)]
        rep = check_uniform_bound(series, "nudge_mutual", gs, m, nu=0.1)
        assert rep.rhs == pytest.approx(0.1 * 4.0 * 5.0)

    def test_dr_bound_values(self):
        gs = GrashofSet(k_frak=2.0, g_theta=1.5)
        series = [(0.0, 0.1), (1.0, 0.1)]
        vals = {
            "dr_decoupled": 4.0 * 2.0 * 0.5,
            "dr_balanced": 4.0 * 2.0 * 0.5,
            "dr_small_theta2": 6.0 * 2.0 * 0.5,
            "dr_near_balanced": 8.0 * 2.0 * 0.5,
            "dr_mutual_pair": math.sqrt(96.0) * 0.5 * 1.5,
        }
        for formula, expect in vals.items():
            rep = check_uniform_bound(series, formula, gs, None, nu=0.5)
            assert rep.rhs == pytest.approx(expect), formula

    def test_unknown_formula_raises(self):
        with pytest.raises(ValueError, match="unknown bound formula"):
            check_uniform_bound([(0.0, 0.1)], "dr_lopsided", GrashofSet(k_frak=1.0), None, 1.0)

    def test_symmetric_formula_is_force_size(self):
        # the symmetric nudging bound is nu times the force size g
        series = [(0.0, 0.1), (1.0, 0.1)]
        gs = GrashofSet(g1=3.0, g2=4.0, g=5.0)
        rep = check_uniform_bound(series, "nudge_symmetric", gs, None, nu=0.2)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.satisfied

    def test_heat_low_mode_bound(self, grid16, rng):
        # driven low-mode heat block obeys sup |p|_V <= sqrt(2) nu h after burn-in
        nu, N = 0.8, 3.0
        p0 = sp.project_low(sp.random_field(grid16, rng, energy=0.2), N)
        h = sp.project_low(sp.random_field(grid16, rng, energy=0.5), N)
        gs = GrashofSet(h_frak=h.l2 / nu**2)
        series = []
        for t in np.linspace(0.0, 40.0, 200):
            series.append((float(t), orc.heat_exact(p0, h, nu, float(t)).h1))
        rep = check_uniform_bound(series, "heat_low_mode", gs, None, nu=nu)
        assert rep.satisfied


class TestRegimeTable:
    def test_regime_for_matches_criterion_6_formulas(self):
        # the label -> formula pairs that test_criterion_6_uniform_bounds
        # hardcodes, as its independent reference
        cases = [
            (dyn.IntertwiningMatrix.dr_mutual(0.0, 1.0), "dr_mutual_pair"),
            (dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75), "dr_mutual_pair"),
            (dyn.IntertwiningMatrix.dr_mutual(0.5, 0.5), "dr_mutual_pair"),
            (dyn.IntertwiningMatrix.dr_symmetric(1.0, 0.0), "dr_decoupled"),
            (dyn.IntertwiningMatrix.dr_symmetric(0.5, 0.5), "dr_balanced"),
        ]
        for matrix, name in cases:
            assert diag.regime_for(matrix).name == name, matrix

    def test_regime_for_every_class(self):
        cases = [
            (dyn.IntertwiningMatrix.nudge_symmetric(2.0, 1.0), "nudge_symmetric"),
            (dyn.IntertwiningMatrix.nudge_mutual(2.0, 0.0), "nudge_mutual"),
            (dyn.IntertwiningMatrix.dr_symmetric(0.8, 0.2), "dr_small_theta2"),
            (dyn.IntertwiningMatrix.dr_symmetric(0.6, 0.4), "dr_near_balanced"),
            (dyn.IntertwiningMatrix.dr_symmetric(0.2, 0.8), "dr_near_balanced"),
        ]
        for matrix, name in cases:
            assert diag.regime_for(matrix).name == name, matrix
        assert diag.regime_for(dyn.IntertwiningMatrix.zero()) is None

    def test_table_names_the_eight_regimes(self):
        assert [r.name for r in diag.REGIMES] == [
            "nudge_symmetric",
            "nudge_mutual",
            "dr_mutual_pair",
            "dr_decoupled",
            "dr_balanced",
            "dr_small_theta2",
            "dr_near_balanced",
            "heat_low_mode",
        ]
        # the heat block has no coupling matrix to select it
        assert diag.REGIMES[-1].selects is None

    def test_cutoff_values(self):
        # K = 4, force 1, unit constants: the log forms read off directly
        gs = GrashofSet(k_frak=1.0, g_theta=1.0, p_frak=0.6, h_frak=0.8)
        log = math.log(math.e + 4.0)
        expect = {
            "dr_mutual_pair": ("cutoff_dr_mutual", 64.0 * math.sqrt(6.0) * math.sqrt(log)),
            "dr_decoupled": ("cutoff_dr_decoupled", 32.0 * log),
            "dr_small_theta2": ("cutoff_dr_small_theta2", 20.0 * log),
        }
        with_cutoff = [regime for regime in diag.REGIMES if regime.cutoff is not None]
        assert [regime.name for regime in with_cutoff] == list(expect)
        for regime in with_cutoff:
            rep = regime.cutoff(4.0, gs, UNIT)
            name, lhs = expect[regime.name]
            assert rep.name == name
            assert rep.lhs == pytest.approx(lhs)
        reps = check_theta_regime(0.6, 0.4, 4.0, 1.0, 1.0, UNIT, 1.0, gs)
        near = next(r for r in reps if r.name == "cutoff_dr_near_balanced")
        assert near.lhs == pytest.approx(1024.0 * log * 1.0)
        assert near.rhs == 16.0
        assert near.formula.startswith("1024*C_S^2*ln(e+K)*(p^2+h^2) = ")


class TestDecayDetection:
    def test_clean_exponential(self):
        ts = np.linspace(0.0, 10.0, 100)
        fit = decay_detect([(t, math.exp(-2.0 * t)) for t in ts])
        assert fit.rate == pytest.approx(-2.0, rel=0.01)
        assert fit.r2 == pytest.approx(1.0)
        assert diag.decayed(1.0, math.exp(-20.0), 1e-6)

    def test_constant_series(self):
        ts = np.linspace(0.0, 10.0, 50)
        fit = decay_detect([(t, 3.14) for t in ts])
        assert abs(fit.rate) < 1e-12
        assert not diag.decayed(3.14, 3.14, 1e-6)

    def test_non_exponential_decay_flagged_low_r2(self):
        # a plateau that ends in one drop is a poor exponential: over the tail
        # window the log fit has r^2 well under 0.9, so only the ratio route
        # can declare decay, and it fires only once the drop passes threshold
        ts = np.linspace(0.0, 100.0, 200)

        def plateau(last):
            return [(t, 1.0) for t in ts[:-1]] + [(ts[-1], last)]

        fit = decay_detect(plateau(0.5))
        assert fit.rate < 0.0
        assert fit.r2 < 0.9
        assert not diag.decayed(1.0, 0.5, 1e-6)
        assert decay_detect(plateau(1e-7)).r2 < 0.9
        assert diag.decayed(1.0, 1e-7, 1e-6)  # the rule fires past the threshold

    def test_one_decay_rule(self):
        # a positive initial value that fell to threshold times itself
        assert diag.decayed(2.0, 2e-6, 1e-6)
        assert not diag.decayed(2.0, 2.1e-6, 1e-6)
        assert not diag.decayed(0.0, 0.0, 1e-6)
        assert diag.decayed(1.0, 0.0, 0.0) and not diag.decayed(1.0, 1e-300, 0.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            decay_detect([(0.0, 1.0), (1.0, 0.5)])

    def test_heat_trajectory_rate(self, grid16, rng):
        # analytic heat decay: fitted rate within 1% of -2 nu (slowest shell
        # |k|^2 = 1 dominates the V norm in the long run; the norm is squared
        # inside |w| so the rate on |p| itself is nu |k|^2)
        nu = 0.3
        p0 = sp.field_from_modes(grid16, [(1, 0, (0.0, 0.4)), (2, 0, (0.0, 0.2))])
        series = []
        for t in np.linspace(0.0, 30.0, 200):
            series.append((float(t), orc.heat_exact(p0, None, nu, float(t)).l2))
        fit = decay_detect(series)
        assert fit.r2 > 0.99
        assert fit.rate == pytest.approx(-nu * 1.0, rel=0.01)


class TestHeatCompare:
    def test_unforced_single_mode_exact(self, grid16):
        nu, K = 0.5, 3.0
        p0 = sp.field_from_modes(grid16, [(1, 0, (0.0, 1.0))])
        series = [
            (t, orc.heat_exact(p0, None, nu, t)) for t in np.linspace(0.0, 2.0, 11)
        ]
        assert heat_compare(series, None, nu, K) <= 1e-12

    def test_constant_force_steady_state(self, grid16):
        nu, K = 0.5, 3.0
        p0 = sp.zero_field(grid16)
        h = sp.field_from_modes(grid16, [(0, 2, (0.3 / 1j, 0.0))])
        series = [
            (t, orc.heat_exact(p0, h, nu, t)) for t in np.linspace(0.0, 50.0, 26)
        ]
        final = series[-1][1]
        steady = (1.0 / (nu * 4.0)) * h
        assert (final - steady).l2 <= 1e-10
        assert heat_compare(series, h, nu, K) <= 1e-12


class TestCalibration:
    def test_deterministic_given_seed(self):
        a = calibrate_constants(n=16, samples=20, seed=5)
        b = calibrate_constants(n=16, samples=20, seed=5)
        assert (a.C_L, a.C_A, a.C_S) == (b.C_L, b.C_A, b.C_S)

    def test_poincare_ratio_attained_at_unit_shell(self, grid16, rng):
        best = 0.0
        for _ in range(50):
            u = sp.random_field(grid16, rng)
            best = max(best, u.l2 / u.h1)
        unit = sp.field_from_modes(grid16, [(1, 0, (0.0, 1.0))])
        assert unit.l2 / unit.h1 == pytest.approx(1.0, rel=1e-13)
        assert best <= 1.0 + 1e-12

    def test_taylor_green_ladyzhenskaya_witness(self, grid16):
        # closed-form integrals: |u|_L4^2 = pi sqrt(5)/2, |u| = pi sqrt(2),
        # |u|_V = 2 pi, so the ratio is sqrt(5) / (4 sqrt(2) pi)
        tg = sp.taylor_green(grid16, 1.0)
        ratio = sp.l4_norm(tg) ** 2 / (tg.h1 * tg.l2)
        expect = math.sqrt(5.0) / (4.0 * math.sqrt(2.0) * math.pi)
        assert ratio == pytest.approx(expect, rel=1e-12)
        assert calibrate_constants(n=16, samples=10, seed=0).C_L >= ratio

    def test_sobolev_scan_monotone_bounded(self, rng):
        # the |P_N u|_inf / (ln N)^(1/2) |P_N u|_V ratio stays bounded in N
        grid = sp.Grid(128)
        ratios = []
        for N in (4, 8, 16, 32):
            best = 0.0
            for _ in range(10):
                u = sp.random_field(grid, rng, kmax=float(N))
                best = max(best, sp.linf_norm(u) / (math.sqrt(math.log(N)) * u.h1))
            ratios.append(best)
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) <= 2.0 * min(ratios) + 0.1

    def test_shipped_constants_match_regeneration(self):
        shipped = default_constants()
        fresh = calibrate_constants(
            n=shipped.meta["n"], samples=shipped.meta["samples"], seed=shipped.meta["seed"]
        )
        assert shipped.C_L == pytest.approx(fresh.C_L, rel=1e-12)
        assert shipped.C_A == pytest.approx(fresh.C_A, rel=1e-12)
        assert shipped.C_S == pytest.approx(fresh.C_S, rel=1e-12)

    def test_positive_constants_enforced(self):
        with pytest.raises(ValueError):
            ConstantsConfig(C_L=0.0, C_A=1.0, C_S=1.0)

    def test_dropped_keys_still_load(self):
        # files written before C0, C1 and C3 were dropped carry them
        shipped = default_constants()
        text = shipped.to_json().replace('"C2"', '"C0": 1.0, "C1": 1.0, "C3": 1.0, "C2"')
        assert ConstantsConfig.from_json(text) == shipped


class TestTimeSeriesOutput:
    def _records(self, grid16, rng, n=5):
        pair = fr.ForcingPair.synchronized(
            fr.SteadyForcing(fr.kolmogorov_force(grid16, 0.1, 2))
        )
        state = dyn.IntertwinedState(
            grid=grid16, t=0.0, nu=0.2, K=3.0,
            matrix=dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5),
            v1=sp.random_field(grid16, rng, energy=0.4),
            v2=sp.random_field(grid16, rng, energy=0.4),
            forcing=pair,
        )
        records = []
        dyn.integrate(
            state, 0.1, dt=0.02, sample_every=0.02,
            sink=lambda s: records.append(diag.sample_record(s)),
        )
        return records

    def test_csv_format(self, grid16, rng, tmp_path):
        records = self._records(grid16, rng)
        diag.fill_energy_residuals(records, nu=0.2)
        path = tmp_path / "series.csv"
        diag.write_timeseries_csv(path, records)
        blob = path.read_bytes()
        assert b"\r\n" in blob  # RFC-4180 line endings
        rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
        assert rows[0] == diag.CSV_COLUMNS
        assert len(rows) == len(records) + 1
        # headerless numeric payload parses back to the recorded values
        assert float(rows[1][1]) == pytest.approx(records[0].l2_v1, rel=1e-16)
        # 17 significant digits kept
        assert len(rows[1][1].replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_condition_report_files(self, tmp_path):
        reports = [
            ConditionReport.compare("alpha", 1.0, 2.0, "1 <= 2"),
            ConditionReport.compare("beta", 3.0, 2.0, "3 <= 2"),
        ]
        diag.write_condition_reports(tmp_path, reports)
        txt = (tmp_path / "conditions.txt").read_text()
        assert "alpha: satisfied" in txt and "VIOLATED" in txt
        tsv_rows = (tmp_path / "conditions.tsv").read_text().strip().splitlines()
        assert tsv_rows[0] == "name\tlhs\trhs\tmargin\tsatisfied"
        assert tsv_rows[2].split("\t")[4] == "False"

    def test_energy_budget_measures(self, grid16, rng):
        records = self._records(grid16, rng)
        diag.fill_energy_residuals(records, nu=0.2)
        inner = [r.energy_residual for r in records[1:-1]]
        assert all(not math.isnan(v) for v in inner)
        slack = diag.energy_inequality_slack(records, nu=0.2, mu1=1.0, mu2=0.5)
        assert slack <= 1e-6

    def test_measured_m_frak(self):
        v1 = [1.0, 2.0, 5.0, 3.0]
        v2 = [1.0, 2.0, 4.0, 2.0]
        # the sup over the last TAIL_FRACTION = 1/2 of each series
        assert diag.TAIL_FRACTION == 0.5
        assert diag.measured_m_frak(v1, v2, nu=0.5) == pytest.approx(8.0)
