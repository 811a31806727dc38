"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The desk-scale experiments (criteria 4-6, 9) share module-scoped
fixtures so the expensive integrations run once.
"""

import math
import time

import numpy as np
import pytest

from intertwine import diagnostics as diag
from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import harness as hz
from intertwine import spectral as sp
from intertwine import verify

NUDGE_CONFIG = """\
[grid]
n = 64

[physics]
nu = 0.05
K = 16.0

[coupling]
class = nudge_mutual
mu1 = 2.0
mu2 = 2.0

[forcing]
kind = kolmogorov
amplitude = 0.04
wavenumber = 2

[initial]
energy = 0.5
spectrum_slope = 2.0
max_wavenumber = 8.0
difference = random
difference_scale = 0.5

[time]
dt = 0.02
t_end = 50.0
sample_every = 0.25

[output]
seed = 42
decay_threshold = 1e-6
"""

CONTROL_CONFIG = NUDGE_CONFIG.replace(
    "class = nudge_mutual\nmu1 = 2.0\nmu2 = 2.0", "class = none"
)


def _announce(num, ok, message):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {message}")


# ---------------------------------------------------------------------------
# shared desk-scale runs


@pytest.fixture(scope="module")
def nudge_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("nudge")
    cfg = hz.parse_config_text(NUDGE_CONFIG)
    t0 = time.perf_counter()
    result = hz.run_scenario(cfg, out_dir=out)
    control = hz.run_scenario(hz.parse_config_text(CONTROL_CONFIG), out_dir=out / "control")
    elapsed = time.perf_counter() - t0
    return {"cfg": cfg, "result": result, "control": control, "elapsed": elapsed, "out": out}


@pytest.fixture(scope="module")
def dr_runs():
    """The five direct-replacement configurations under test, run from a
    shared initial pair whose difference lives above the cutoff (plus a trace
    below it, so the low-mode heat match is nontrivial).

    With synchronized forces the low-mode error obeys pure heat decay at rate
    nu |k|^2, so a 1e-6 drop by T = 50 at nu = 0.05 requires the difference
    energy to sit in the slaved high modes; the low-mode heat dynamics itself
    is validated against the exact flow (criterion 3 stresses it with forcing).
    """
    n, nu, K, amplitude = 64, 0.05, 16.0, 0.005
    grid = sp.Grid(n)
    rng = np.random.default_rng(11)
    pair = fr.ForcingPair.synchronized(
        fr.SteadyForcing(fr.kolmogorov_force(grid, amplitude, 2))
    )
    v1 = sp.random_field(grid, rng, energy=0.12, slope=2.0, kmax=8.0)
    hi = sp.project_high(
        sp.random_field(grid, rng, energy=1.0, slope=1.0, kmax=grid.dealias_radius), K
    )
    hi = (0.05 / hi.l2) * hi
    lo = sp.random_field(grid, rng, energy=5e-8, slope=2.0, kmax=4.0)
    v2 = v1 + hi + lo

    cases = [
        ("dr_mutual theta1=0", dyn.IntertwiningMatrix.dr_mutual(0.0, 1.0)),
        ("dr_mutual theta1=1/4", dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75)),
        ("dr_mutual theta1=1/2", dyn.IntertwiningMatrix.dr_mutual(0.5, 0.5)),
        ("dr_symmetric theta1=1", dyn.IntertwiningMatrix.dr_symmetric(1.0, 0.0)),
        ("dr_symmetric theta1=1/2", dyn.IntertwiningMatrix.dr_symmetric(0.5, 0.5)),
    ]
    runs = []
    t0 = time.perf_counter()
    for label, matrix in cases:
        state = dyn.IntertwinedState(
            grid=grid, t=0.0, nu=nu, K=K, matrix=matrix, v1=v1, v2=v2, forcing=pair
        )
        series = []
        p_samples = []

        def sink(s, _series=series, _p=p_samples):
            w = s.v1 - s.v2
            theta1, theta2 = s.matrix.params
            w_theta_h1 = math.sqrt(theta1 * theta2) * w.h1
            views_vtheta = theta2 * s.v1 + theta1 * s.v2
            _series.append(
                {
                    "t": s.t,
                    "l2_w": w.l2,
                    "h1_v1": s.v1.h1,
                    "h1_v2": s.v2.h1,
                    "pair": math.sqrt(s.v1.h1**2 + s.v2.h1**2),
                    "theta_pair": math.sqrt(views_vtheta.h1**2 + w_theta_h1**2),
                }
            )
            _p.append((s.t, sp.project_low(w, s.K)))

        dyn.integrate(state, 50.0, dt=0.02, sample_every=1.0, sink=sink)
        m_meas = diag.measured_m_frak(
            [r["h1_v1"] for r in series], [r["h1_v2"] for r in series], nu
        )
        runs.append(
            {
                "label": label,
                "matrix": matrix,
                "state0": state,
                "series": series,
                "p_samples": p_samples,
                "ratio": series[-1]["l2_w"] / series[0]["l2_w"],
                "m_meas": m_meas,
                "heat_error": diag.heat_compare(p_samples, None, nu, K),
            }
        )
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "nu": nu, "K": K, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    results = verify.identity_suite(sizes=(16, 32), count=50)
    elapsed = time.perf_counter() - t0
    worst = max(r.worst for r in results)
    ok = all(r.passed for r in results) and elapsed < 30.0
    _announce(1, ok, f"identities on 100 random fields, worst {worst:.2e} <= 1e-10, {elapsed:.1f}s < 30s")
    assert all(r.passed for r in results), [r.line() for r in results]
    assert all(r.tol == 1e-10 for r in results)
    assert elapsed < 30.0


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    results = verify.oracle_suite(cases=20)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 120.0
    detail = "; ".join(f"{r.name.split('(')[-1].rstrip(')')}={r.worst:.1e}" for r in results)
    _announce(2, ok, f"dense-oracle agreement ({detail}), {elapsed:.0f}s < 120s")
    assert all(r.passed for r in results), [r.line() for r in results]
    assert [r.tol for r in results] == [1e-11, 1e-6, 1e-6, 1e-6]
    assert elapsed < 120.0


def test_criterion_3_heat_flow():
    results = verify.heat_suite()
    ok = all(r.passed for r in results)
    _announce(3, ok, "; ".join(r.line() for r in results))
    assert ok, [r.line() for r in results]


def test_criterion_4_nudging_self_synchronization(nudge_run):
    res = nudge_run["result"]
    control = nudge_run["control"]
    elapsed = nudge_run["elapsed"]
    by_name = {rep.name: rep for rep in res.reports}
    ok = (
        res.final_ratio <= 1e-6
        and by_name["nudge_fdss"].satisfied
        and by_name["nudge_ss"].satisfied
        and not (control.final_ratio <= 1e-6)
        and elapsed < 300.0
    )
    _announce(
        4,
        ok,
        f"nudged |w(T)|/|w(0)| = {res.final_ratio:.2e} <= 1e-6 with conditions satisfied "
        f"(K margin {by_name['nudge_fdss'].margin:.2f}); control ratio "
        f"{control.final_ratio:.2e} shows no such decay; {elapsed:.0f}s < 300s",
    )
    assert res.final_ratio <= 1e-6
    assert res.decayed
    assert by_name["nudge_fdss"].satisfied and by_name["nudge_ss"].satisfied
    assert control.final_ratio > 1e-6
    assert elapsed < 300.0


def test_criterion_5_direct_replacement_self_synchronization(dr_runs):
    constants = diag.default_constants()
    K = dr_runs["K"]
    lines = []
    ok = True
    for run in dr_runs["runs"]:
        cond = diag.check_dr_condition(K, run["m_meas"], constants)
        good = run["ratio"] <= 1e-6 and cond.satisfied and run["heat_error"] <= 1e-10
        ok = ok and good
        lines.append(
            f"{run['label']}: ratio {run['ratio']:.1e}, cutoff condition "
            f"{'ok' if cond.satisfied else 'OUT'}, heat gap {run['heat_error']:.1e}"
        )
    _announce(5, ok, "; ".join(lines))
    for run in dr_runs["runs"]:
        assert run["ratio"] <= 1e-6, run["label"]
        assert diag.check_dr_condition(K, run["m_meas"], constants).satisfied, run["label"]
        assert run["heat_error"] <= 1e-10, run["label"]


def test_criterion_6_uniform_bounds(nudge_run, dr_runs):
    """Tail sups versus the closed-form bounds, unnamed constants at 1."""
    violations = []
    margins = []

    rep = next(r for r in nudge_run["result"].reports if r.name == "bound_nudge_mutual")
    margins.append(("nudge_mutual", rep.margin))
    if not rep.satisfied:
        violations.append(("nudge_mutual", rep))

    nu, K = dr_runs["nu"], dr_runs["K"]
    formulas = {
        "dr_mutual theta1=0": "dr_mutual_pair",
        "dr_mutual theta1=1/4": "dr_mutual_pair",
        "dr_mutual theta1=1/2": "dr_mutual_pair",
        "dr_symmetric theta1=1": "dr_decoupled",
        "dr_symmetric theta1=1/2": "dr_balanced",
    }
    for run in dr_runs["runs"]:
        grashofs = diag.grashof_set_for_state(run["state0"])
        formula = formulas[run["label"]]
        column = "theta_pair" if formula == "dr_mutual_pair" else "pair"
        series = [(r["t"], r[column]) for r in run["series"]]
        rep = diag.check_uniform_bound(series, formula, grashofs, run["matrix"], nu)
        margins.append((run["label"], rep.margin))
        if not rep.satisfied:
            violations.append((run["label"], rep))

    ok = not violations
    detail = ", ".join(f"{name}: margin {m:.2f}" for name, m in margins)
    _announce(6, ok, f"zero bound violations ({detail})")
    assert not violations, violations


def test_criterion_7_energy_budget(grid16, rng):
    nu = 0.2
    pair = fr.ForcingPair.synchronized(
        fr.SteadyForcing(fr.kolmogorov_force(grid16, 0.15, 2))
    )
    v1 = sp.random_field(grid16, rng, energy=0.5, kmax=grid16.dealias_radius)
    v2 = sp.random_field(grid16, rng, energy=0.5, kmax=grid16.dealias_radius)
    matrix = dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5)

    def residual_peak(dt):
        state = dyn.IntertwinedState(
            grid=grid16, t=0.0, nu=nu, K=3.0, matrix=matrix, v1=v1, v2=v2, forcing=pair
        )
        records = []
        dyn.integrate(
            state, 2.0, dt=dt, sample_every=dt,
            sink=lambda s: records.append(diag.sample_record(s)),
        )
        diag.fill_energy_residuals(records, nu)
        return records, max(
            abs(r.energy_residual) for r in records if not math.isnan(r.energy_residual)
        )

    peaks = []
    for dt in (0.02, 0.01, 0.005):
        records, peak = residual_peak(dt)
        peaks.append(peak)
    slopes = [math.log2(peaks[i] / peaks[i + 1]) for i in range(2)]
    slack = diag.energy_inequality_slack(records, nu, 1.0, 0.5)
    ok = all(abs(s - 2.0) <= 0.2 for s in slopes) and slack <= 1e-6
    _announce(
        7,
        ok,
        f"budget residual converges at order {slopes[0]:.2f}, {slopes[1]:.2f} (2.0 +/- 0.2); "
        f"integrated inequality slack {slack:.2e} <= 1e-6",
    )
    for s in slopes:
        assert abs(s - 2.0) <= 0.2, slopes
    assert slack <= 1e-6


FDM_CONFIG = """\
[grid]
n = 32

[physics]
nu = 1.0
K = 5.0

[coupling]
class = none

[forcing]
kind = decaying_pair
amplitude = {amp}
wavenumber = 2
pair_delta_amplitude = {delta}
pair_decay_rate = 1.0

[initial]
energy = 0.5
spectrum_slope = 2.0
max_wavenumber = 6.0
difference = random
difference_scale = 0.25

[time]
dt = 0.008
t_end = 30.0
sample_every = 0.25

[output]
seed = 3
scenario = fdss_determining_modes
"""


def test_criterion_8_determining_modes(tmp_path):
    rows = []
    ok = True
    for amplitude in (0.5, 1.0, 2.0):
        cfg = hz.parse_config_text(
            FDM_CONFIG.format(amp=amplitude, delta=0.05 * amplitude)
        )
        res = hz.run_scenario(cfg, out_dir=tmp_path / f"amp_{amplitude}")
        fdm = res.extras["fdm"]
        g_frak = fr.kolmogorov_force(sp.Grid(32), amplitude, 2).l2 * math.sqrt(2.0)
        rows.append((amplitude, g_frak, fdm["threshold_proxy"], res.final_ratio))
        ok = ok and res.decayed and fdm["implication_consistent"]
        ok = ok and fdm["threshold_proxy"] is not None
        assert res.decayed
        assert fdm["implication_consistent"]
        assert fdm["threshold_proxy"] is not None
    table = "; ".join(
        f"g={g:.1f}: threshold N={N:g}, |w| ratio {r:.1e}" for _, g, N, r in rows
    )
    _announce(8, ok, f"low-mode decay implies full decay across amplitudes ({table})")


def test_criterion_9_determinism(nudge_run, tmp_path):
    cfg = nudge_run["cfg"]
    t0 = time.perf_counter()
    hz.run_scenario(cfg, out_dir=tmp_path / "repeat")
    elapsed = time.perf_counter() - t0
    first = (nudge_run["out"] / "series.csv").read_bytes()
    second = (tmp_path / "repeat" / "series.csv").read_bytes()
    ok = first == second
    _announce(9, ok, f"repeated run is byte-identical ({len(first)} bytes, {elapsed:.0f}s)")
    assert first == second
