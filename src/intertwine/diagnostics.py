"""Dimensionless run diagnostics: Grashof-type numbers, the sufficient
conditions and uniform-in-time bounds of each regime, decay detection, and
CSV time series.

The conditions are data: each is one `Condition` row, whose two sides read
the `RunFacts` of a run, and each regime of the table `REGIMES` lists its
rows and its bound.  All sufficient conditions implemented here guarantee
synchronization or uniform bounds; they are one-directional, so a violated
condition annotates a run as "out of the guaranteed regime" rather than
aborting it.  sup over time is approximated by the sampled max on the tail
window TAIL_FRACTION.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources

import numpy as np

from . import spectral
from .atomic import write_text
from .dynamics import (
    DR_MUTUAL,
    DR_SYMMETRIC,
    NUDGE_MUTUAL,
    NUDGE_SYMMETRIC,
    IntertwinedState,
    IntertwiningMatrix,
    TimeSeriesRecord,
    derived_views,
)
from .spectral import SpectralField, hm_norm

CONSTANTS_DATA_VERSION = 1

# the last half of a sampled series: the window of every tail sup and fit
TAIL_FRACTION = 0.5

# The Grashof numbers and the condition formulas of a run take nu and the
# constants as float64 scalars under this error state: where Python floats
# raise, an overflow reads inf and 0/0 NaN, and a comparison with NaN fails,
# so a saturated condition reads VIOLATED.
_saturating = np.errstate(all="ignore")


def _exp(x: float) -> float:
    """math.exp, read as inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class EmptySeries(ValueError):
    pass


class InsufficientData(ValueError):
    pass


@dataclass
class GrashofSet:
    """The dimensionless force and solution magnitudes of a configured run.

    All entries are sup-in-time force norms divided by nu^2 (or norm ratios
    against nu), so conditions and bounds read directly off this record.
    Entries that do not apply to a run are NaN.
    """

    g1: float = math.nan
    g2: float = math.nan
    g: float = math.nan
    g_theta: float = math.nan
    h_frak: float = math.nan
    k_frak: float = math.nan
    p_frak: float = math.nan
    d_frak: float = math.nan
    f_frak: float = math.nan
    r_frak: float = math.nan

    def __post_init__(self):
        for f_ in fields(self):
            val = getattr(self, f_.name)
            if not math.isnan(val) and val < -1e-12:
                raise ValueError(f"{f_.name} must be nonnegative, got {val}")
        if not math.isnan(self.g) and not math.isnan(self.g1):
            if abs(self.g**2 - (self.g1**2 + self.g2**2)) > 1e-9 * (1.0 + self.g**2):
                raise ValueError("g^2 must equal g1^2 + g2^2")
        if not math.isnan(self.k_frak) and not math.isnan(self.g):
            if self.k_frak > math.sqrt(2.0) * self.g + 1e-9 * (1.0 + self.g):
                raise ValueError("combined-force number exceeds sqrt(2) * g")


_CONSTANTS = ("C_L", "C_A", "C_S", "C2")


@dataclass
class ConstantsConfig:
    """Working values for the interpolation-inequality constants.

    C_L (Ladyzhenskaya), C_A (Agmon) and C_S (borderline Sobolev) are measured
    empirically by tools/calibrate.py; C2 is an otherwise-unnamed analysis
    constant and defaults to 1 (a user input; the check built on it is a
    sensitivity scan, not a sharp threshold).
    """

    C_L: float
    C_A: float
    C_S: float
    C2: float = 1.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _CONSTANTS:
            value = getattr(self, name)
            # a positive float; a bool is an int to Python, not a number here,
            # and an int beyond the float range would overflow where it is used
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= sys.float_info.max:
                raise ValueError(f"{name} must be a positive number, got {value!r}")

    def to_json(self) -> str:
        payload = {"version": CONSTANTS_DATA_VERSION, **asdict(self)}
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ConstantsConfig":
        """Parse a constants file; the never-read keys C0, C1, C3 of older files are skipped."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a constants file holds one JSON object")
        for key in ("version", "C0", "C1", "C3"):
            payload.pop(key, None)
        return cls(**payload)


@dataclass
class ConditionReport:
    """One evaluated inequality: satisfied iff lhs <= rhs, margin = rhs - lhs."""

    name: str
    satisfied: bool
    lhs: float
    rhs: float
    margin: float
    formula: str

    @classmethod
    def compare(cls, name: str, lhs, rhs, formula: str) -> "ConditionReport":
        """lhs <= rhs; for tuples, every lhs[i] <= rhs[i], reported by the
        pair of least margin (the first on a tie)."""
        pairs = list(zip(lhs, rhs)) if isinstance(lhs, tuple) else [(lhs, rhs)]
        low, high = min(pairs, key=lambda pair: pair[1] - pair[0])
        satisfied = all(low_ <= high_ for low_, high_ in pairs)
        return cls(name, satisfied, float(low), float(high), float(high - low), formula)


@dataclass
class DecayFit:
    """The log-linear fit of a signal on its tail window."""

    rate: float
    r2: float


@_saturating
def grashof_set_for_state(state: IntertwinedState) -> GrashofSet:
    """Assemble the dimensionless numbers for a configured run; each
    saturates to inf or NaN where nu is too small or too large to square."""
    nu = np.float64(state.nu)
    pair = state.forcing
    g1 = pair.g1.sup_l2() / nu**2
    g2 = pair.g2.sup_l2() / nu**2
    g = np.sqrt(g1**2 + g2**2)
    h_frak = pair.sup_h_l2() / nu**2
    # sum-force envelope: exact for a synchronized pair
    if pair.g2 is pair.g1:
        k_frak = 2.0 * pair.g1.sup_l2() / nu**2
    else:
        k_frak = min((pair.g1.sup_l2() + pair.g2.sup_l2()) / nu**2, math.sqrt(2.0) * g)
    views = derived_views(state)
    p0 = hm_norm(views["p"], 1) / nu
    r0 = hm_norm(views["r"], 1) / nu
    z0 = views["z"].h1
    w0 = views["w"].h1
    g_theta = math.nan
    if state.matrix.is_direct_replacement:
        th1, th2 = state.matrix.params
        if pair.g2 is pair.g1:
            g_theta = pair.g1.sup_l2() * abs(th1 + th2) / nu**2
        else:
            g_theta = (abs(th2) * pair.g1.sup_l2() + abs(th1) * pair.g2.sup_l2()) / nu**2
    return GrashofSet(
        g1=g1,
        g2=g2,
        g=g,
        g_theta=g_theta,
        h_frak=h_frak,
        k_frak=k_frak,
        p_frak=np.sqrt(p0**2 + h_frak**2),
        d_frak=np.sqrt(1.0 + (z0**2 + w0**2) / nu**2),
        f_frak=np.sqrt(k_frak**2 + h_frak**2),
        r_frak=np.sqrt(16.0 * (r0**2 + k_frak**2)),
    )


def measured_m_frak(h1_v1_series, h1_v2_series, nu: float) -> float:
    """min over copies of the tail sup of |v_i| / nu (the uniform-ball size)."""
    if len(h1_v1_series) == 0:
        raise EmptySeries("empty norm series")
    sups = [max(_tail(series)) for series in (h1_v1_series, h1_v2_series)]
    return min(sups) / nu


def _tail(series):
    """The last TAIL_FRACTION of a sampled series."""
    return series[int(len(series) * (1.0 - TAIL_FRACTION)):]


# ---------------------------------------------------------------------------
# the condition rows and the regime table

# what the rows of a run read, built once per run by run_facts: m_frak is
# the measured ball size, m0 the initial one, params the matrix's
RunFacts = namedtuple("RunFacts", "records constants nu K params m_frak m0 lnK grashofs")


def run_facts(state0, records, constants, nu) -> RunFacts:
    """The facts of a run from state0 that sampled records, with nu and the
    constants as float64 scalars (see _saturating)."""
    nu = np.float64(nu)
    constants = replace(constants, **{k: np.float64(getattr(constants, k)) for k in _CONSTANTS})
    m_frak = measured_m_frak([r.h1_v1 for r in records], [r.h1_v2 for r in records], nu)
    grashofs = grashof_set_for_state(state0)
    m0 = max(state0.v1.h1, state0.v2.h1) / nu
    return RunFacts(records, constants, nu, state0.K, state0.matrix.params, m_frak, m0,
                    math.log(math.e + state0.K), grashofs)


@dataclass(frozen=True)
class Condition:
    """One sufficient condition: it holds iff lhs(run) <= rhs(run), where run
    is a RunFacts.  A row whose sides are tuples holds iff every pair does.
    text is the report's formula, a format string over lhs and rhs (or a
    function of run that returns one)."""

    name: str
    lhs: Callable[[RunFacts], float | tuple]
    rhs: Callable[[RunFacts], float | tuple]
    text: str | Callable[[RunFacts], str]

    def report(self, run: RunFacts) -> ConditionReport:
        lhs, rhs = self.lhs(run), self.rhs(run)
        text = self.text(run) if callable(self.text) else self.text
        return ConditionReport.compare(self.name, lhs, rhs, text.format(lhs=lhs, rhs=rhs))


def m_frak_small_theta2(K: float, grashofs: GrashofSet, constants: ConstantsConfig) -> float:
    """Guaranteed uniform-ball size in the small-theta2 regime."""
    lnK = math.log(math.e + K)
    return np.sqrt(
        16.0
        * (1.0 + constants.C_S**2 * lnK * (1.0 + grashofs.p_frak**2))
        * (grashofs.d_frak**2 + grashofs.f_frak**2)
    )


def _log_cutoff(name: str, coeff, g: str, squared: bool = False) -> Condition:
    """The cutoff K^a >= C0 ln(e+K)^b g^c on the Grashof number named g, with
    C0 = coeff(constants): (a, b, c) = (1, 1/2, 1), or (2, 1, 2) squared."""
    a, b, c = (2.0, 1.0, 2.0) if squared else (1.0, 0.5, 1.0)
    return Condition(
        name,
        lambda r: coeff(r.constants) * r.lnK**b * getattr(r.grashofs, g) ** c,
        lambda r: r.K**a,
        lambda r: f"{coeff(r.constants):.6g}*ln(e+K)^{b:g}*g^{c:g} = {{lhs:.6g}} <= K^{a:g} = {{rhs:.6g}}",
    )


# the nudging self-synchronization conditions; nudge_ss holds iff both of
# K >= 2 C_L m and mu1 + mu2 >= C_L^2 m^2 nu do
_NUDGE_ROWS = (
    Condition("nudge_fdss", lambda r: 2.0 * r.constants.C_L * r.m_frak, lambda r: r.K,
              "2*C_L*m = {lhs:.6g} <= K = {rhs:.6g}"),
    Condition("nudge_ss",
              lambda r: (2.0 * r.constants.C_L * r.m_frak, r.constants.C_L**2 * r.m_frak**2 * r.nu),
              lambda r: (r.K, r.params[0] + r.params[1]),
              "K = {rhs[0]:.6g} >= 2*C_L*m = {lhs[0]:.6g} and "
              "mu1+mu2 = {rhs[1]:.6g} >= C_L^2*m^2*nu = {lhs[1]:.6g}"),
)

# the direct-replacement self-synchronization condition, of both classes;
# the theta rows below are the symmetric class's alone
_DR_SS = Condition("dr_ss", lambda r: 12.0 * r.constants.C_L * r.m_frak, lambda r: r.K,
                   "12*C_L*m = {lhs:.6g} <= K = {rhs:.6g}")

# the symmetric direct-replacement regime inequalities: the composite
# smallness condition on min(1 - theta1, |theta1 - theta2|), the
# near-balanced gap condition on the measured ball size, and the
# small-theta2 and cutoff conditions on the Grashof numbers
_THETA_ROWS = (
    Condition("theta_composite", lambda r: min(1.0 - r.params[0], abs(r.params[0] - r.params[1])),
              lambda r: r.constants.C2 / (r.lnK * (1.0 + r.m0 + r.grashofs.g) ** 4),
              "min(1-theta1, |theta1-theta2|) = {lhs:.6g} <= C2/(ln(e+K)(1+m0+g)^4) = {rhs:.6g}"),
    Condition("theta_near_balanced", lambda r: abs(r.params[0] - r.params[1]),
              lambda r: math.sqrt(2.0) / (8.0 * r.constants.C_S * math.sqrt(r.lnK) * r.m_frak),
              "|theta1-theta2| = {lhs:.6g} <= sqrt(2)/(8*C_S*ln(e+K)^(1/2)*m) = {rhs:.6g}"),
    Condition("theta_small",
              lambda r: (r.params[1]**2 * r.constants.C_S**2 * r.lnK
                         * m_frak_small_theta2(r.K, r.grashofs, r.constants)**4),
              # 2*(|r0|/nu)^2 + k^2 recovered from r^2 = 16*((|r0|/nu)^2 + k^2)
              lambda r: np.maximum(0.0, r.grashofs.r_frak**2 / 8.0 - r.grashofs.k_frak**2),  # NaN stays NaN
              "theta2^2*C_S^2*ln(e+K)*m^4 = {lhs:.6g} <= 2*(|r0|/nu)^2 + k^2 = {rhs:.6g}"),
    Condition("cutoff_small_theta2_floor", lambda r: _exp(1.0 / (8.0 * r.constants.C_S**2)), lambda r: r.K,
              "exp(1/(8 C_S^2)) = {lhs:.6g} <= K = {rhs:.6g}"),
    Condition("cutoff_small_theta2_balance",
              lambda r: (r.constants.C_A * r.grashofs.r_frak / r.K
                         + 16.0 * r.constants.C_S**2 * r.lnK
                         * (r.grashofs.p_frak**2 + r.grashofs.r_frak**2) / r.K**2),
              lambda r: 2.0,
              "C_A*r/K + 16*C_S^2*ln(e+K)*(p^2+r^2)/K^2 = {lhs:.6g} <= 2"),
    # the cutoff of the nearly-balanced (theta1 ~ theta2) global bound
    Condition("cutoff_dr_near_balanced",
              lambda r: 1024.0 * r.constants.C_S**2 * r.lnK * (r.grashofs.p_frak**2 + r.grashofs.h_frak**2),
              lambda r: r.K**2,
              "1024*C_S^2*ln(e+K)*(p^2+h^2) = {lhs:.6g} <= K^2 = {rhs:.6g}"),
)

_ENERGY_INEQUALITY = Condition(
    "energy_inequality", lambda r: energy_inequality_slack(r.records, r.nu, *r.params), lambda r: 1e-6,
    "integrated weighted energy inequality slack = {lhs:.3e} <= 1e-6",
)


# ---------------------------------------------------------------------------
# uniform-in-time bound checks


def check_uniform_bound(
    series,
    bound_formula: str,
    grashofs: GrashofSet,
    matrix: IntertwiningMatrix | None,
    nu: float,
) -> ConditionReport | None:
    """Compare a trajectory's tail sup against a closed-form uniform bound.

    bound_formula names a regime of REGIMES (ValueError otherwise), and series
    is a list of (t, value) pairs of the quantity that regime bounds.
    Returns None where the regime has no bound for matrix.  Bounds are
    sufficient theory, so a pass is the expected outcome; a violation flags
    either a constants miscalibration or a bug.
    """
    if not series:
        raise EmptySeries("empty trajectory series")
    tail_sup = max(float(v) for _, v in _tail(series))
    if bound_formula not in _REGIME_BY_NAME:
        raise ValueError(f"unknown bound formula {bound_formula!r}")
    text, value = _REGIME_BY_NAME[bound_formula].bound
    bound = value(grashofs, matrix, nu)
    if bound is None:
        return None
    return ConditionReport.compare(
        f"bound_{bound_formula}", tail_sup, bound, f"tail sup = {tail_sup:.6g} <= {text} = {bound:.6g}"
    )


def _pair_h1_series(records, matrix):
    """sqrt(|v1|_V^2 + |v2|_V^2)."""
    return [(rec.t, math.sqrt(rec.h1_v1**2 + rec.h1_v2**2)) for rec in records]


def _theta_pair_series(records, matrix):
    """sqrt(|v_th|_V^2 + |w_th|_V^2)."""
    # at theta1*theta2 = 0 the rescaled error vanishes identically, while the
    # recorded h1_wtheta column holds the unscaled difference; drop it there
    theta1, theta2 = matrix.params
    use_w = theta1 * theta2 > 0
    return [
        (rec.t, math.sqrt(rec.h1_vtheta**2 + (rec.h1_wtheta**2 if use_w else 0.0)))
        for rec in records
        if not math.isnan(rec.h1_vtheta)
    ]


def _dr_symmetric(test: Callable[[float, float], bool]):
    return lambda m: m.kind == DR_SYMMETRIC and test(*m.params)


@dataclass(frozen=True)
class Regime:
    """One row of REGIMES: selects picks its matrices (None: none), rows are
    its conditions, bound is (text, value(grashofs, matrix, nu)), where a
    value of None means no bound for the matrix, and series(records,
    matrix) is the bounded quantity (None: not recorded).  after_bound
    follows the bound and, like it, is left out where there is none; a
    bound that saturates to inf is reported.  sync names the regime's
    self-synchronization row (None: none).
    """

    name: str
    selects: Callable[[IntertwiningMatrix], bool] | None
    rows: tuple[Condition, ...]
    bound: tuple[str, Callable[[GrashofSet, IntertwiningMatrix | None, float], float | None]]
    series: Callable[[list, IntertwiningMatrix], list] | None
    after_bound: tuple[Condition, ...] = ()
    sync: str | None = None

    @_saturating
    def reports(self, state0, records, constants, nu) -> list[ConditionReport]:
        """The reports of a run from state0 that sampled records, in table order."""
        run = run_facts(state0, records, constants, nu)
        reports = [row.report(run) for row in self.rows]
        bound = check_uniform_bound(self.series(records, state0.matrix), self.name, run.grashofs,
                                    state0.matrix, run.nu)
        if bound is not None:
            reports += [bound] + [row.report(run) for row in self.after_bound]
        return reports


# ordered: a matrix belongs to the first regime that selects it
REGIMES = (
    Regime("nudge_symmetric", lambda m: m.kind == NUDGE_SYMMETRIC, _NUDGE_ROWS,
           ("nu*g", lambda gs, m, nu: nu * gs.g), _pair_h1_series, sync="nudge_ss"),
    # unbounded (None) where a gain is 0
    Regime("nudge_mutual", lambda m: m.kind == NUDGE_MUTUAL, _NUDGE_ROWS,
           ("nu*(mu_max/mu_min)*g",
            lambda gs, m, nu: None if min(m.params) == 0.0 else nu * (max(m.params) / min(m.params)) * gs.g),
           _pair_h1_series, (_ENERGY_INEQUALITY,), sync="nudge_ss"),
    Regime("dr_mutual_pair", lambda m: m.kind == DR_MUTUAL,
           (_DR_SS, _log_cutoff(
               "cutoff_dr_mutual", lambda c: 64.0 * math.sqrt(6.0) * max(c.C_S, math.sqrt(c.C_A)), "g_theta")),
           ("sqrt(96)*nu*g_theta", lambda gs, m, nu: math.sqrt(96.0) * nu * gs.g_theta), _theta_pair_series,
           sync="dr_ss"),
    Regime("dr_decoupled", _dr_symmetric(lambda t1, t2: abs(t1 - 1.0) < 1e-12),
           (_DR_SS, *_THETA_ROWS, _log_cutoff("cutoff_dr_decoupled", lambda c: 32.0 * c.C_S**2, "k_frak", True)),
           ("4*k*nu", lambda gs, m, nu: 4.0 * gs.k_frak * nu), _pair_h1_series, sync="dr_ss"),
    Regime("dr_balanced", _dr_symmetric(lambda t1, t2: abs(t1 - t2) < 1e-12), (_DR_SS, *_THETA_ROWS),
           ("4*k*nu", lambda gs, m, nu: 4.0 * gs.k_frak * nu), _pair_h1_series, sync="dr_ss"),
    Regime("dr_small_theta2", _dr_symmetric(lambda t1, t2: t2 <= abs(t1 - t2)),
           (_DR_SS, *_THETA_ROWS, _log_cutoff(
               "cutoff_dr_small_theta2", lambda c: 20.0 * max(c.C_A, c.C_S) ** 2, "k_frak", True)),
           ("6*k*nu", lambda gs, m, nu: 6.0 * gs.k_frak * nu), _pair_h1_series, sync="dr_ss"),
    Regime("dr_near_balanced", _dr_symmetric(lambda t1, t2: True), (_DR_SS, *_THETA_ROWS),
           ("8*nu*k", lambda gs, m, nu: 8.0 * gs.k_frak * nu), _pair_h1_series, sync="dr_ss"),
    # the driven low-mode heat block, compared with |p|_V, which is not recorded
    Regime("heat_low_mode", None, (), ("sqrt(2)*nu*h", lambda gs, m, nu: math.sqrt(2.0) * nu * gs.h_frak), None),
)
_REGIME_BY_NAME = {regime.name: regime for regime in REGIMES}


def regime_for(matrix: IntertwiningMatrix) -> Regime | None:
    """The first regime of REGIMES that selects matrix, or None."""
    return next((r for r in REGIMES if r.selects is not None and r.selects(matrix)), None)


# ---------------------------------------------------------------------------
# decay detection and heat comparison


def decayed(initial: float, final: float, threshold: float) -> bool:
    """The finite-horizon decay rule: a positive initial value fell to at
    most threshold times itself."""
    return bool(initial > 0 and final <= threshold * initial)


def decay_detect(series) -> DecayFit:
    """The exponential rate of a nonnegative signal, as a fit.

    Fits log(x) against t on the tail window by least squares.  The fit is
    a diagnostic; whether the signal decayed is the rule `decayed`.
    """
    pts = [(float(t), float(x)) for t, x in series]
    if any(x < 0 for _, x in pts):
        raise ValueError("decay detection expects a nonnegative signal")
    tail = _tail(pts)
    if len(tail) < 10:
        raise InsufficientData(f"need at least 10 tail samples, got {len(tail)}")

    ts = np.array([t for t, _ in tail])
    xs = np.array([max(x, 1e-300) for _, x in tail])
    ys = np.log(xs)
    A = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    rate = float(coef[0])
    fitted = A @ coef
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-30 else 1.0
    return DecayFit(rate=rate, r2=r2)


def heat_compare(p_series, h: SpectralField | None, nu: float, K: float) -> float:
    """Max L2 gap between a sampled low-mode block and the exact heat flow.

    p_series is a list of (t, SpectralField); the first sample seeds the exact
    solution, h is the constant-in-time low-mode force (None for unforced).
    """
    from .oracle import heat_exact

    if not p_series:
        raise EmptySeries("empty low-mode series")
    t0, p0 = p_series[0]
    p0 = spectral.project_low(p0, K)
    h_low = spectral.project_low(h, K) if h is not None else None
    worst = 0.0
    for t, p_sim in p_series:
        exact = heat_exact(p0, h_low, nu, t - t0)
        gap = (spectral.project_low(p_sim, K) - exact).l2
        worst = max(worst, gap)
    return worst


def default_constants() -> ConstantsConfig:
    """The shipped calibration (n=32, seed 0), loaded from the data file that
    tools/calibrate.py regenerates."""
    text = resources.files("intertwine.data").joinpath("constants_default.json").read_text()
    return ConstantsConfig.from_json(text)


# ---------------------------------------------------------------------------
# time series records and CSV output


# the CSV columns: every record field except the budget terms, in field order
CSV_COLUMNS = [f.name for f in fields(TimeSeriesRecord) if not f.name.startswith("budget_")]


def sample_record(state: IntertwinedState) -> TimeSeriesRecord:
    """Norms, force magnitudes and the weighted energy-budget terms at t.

    The reference of `dynamics.Workspace.sample`, with which a run computes
    the same record bit for bit on the stepper's box, building no state.
    """
    views = derived_views(state)
    g1 = state.forcing.g1(state.t)
    g2 = state.forcing.g2(state.t)
    h = g1 - g2
    is_dr = state.matrix.is_direct_replacement
    rec = TimeSeriesRecord(
        t=state.t,
        l2_v1=state.v1.l2,
        h1_v1=state.v1.h1,
        l2_v2=state.v2.l2,
        h1_v2=state.v2.h1,
        l2_w=views["w"].l2,
        h1_w=views["w"].h1,
        l2_p=views["p"].l2,
        l2_q=views["q"].l2,
        h1_vtheta=views["v_theta"].h1 if is_dr else math.nan,
        h1_wtheta=views["w_theta"].h1 if is_dr else math.nan,
        energy_residual=math.nan,
        force_l2_g1=g1.l2,
        force_l2_g2=g2.l2,
        force_l2_h=h.l2,
    )
    if state.matrix.kind == NUDGE_MUTUAL:
        mu1, mu2 = state.matrix.params
        total = mu1 + mu2
        if total > 0:
            lam1, lam2 = mu2 / total, mu1 / total
            rec.budget_energy = lam1 * rec.l2_v1**2 + lam2 * rec.l2_v2**2
            rec.budget_dissipation = lam1 * rec.h1_v1**2 + lam2 * rec.h1_v2**2
            rec.budget_pump = lam1 * spectral.inner(g1, state.v1) + lam2 * spectral.inner(
                g2, state.v2
            )
            pk_diff = spectral.project_low(views["w"], state.K)
            rec.budget_penalty = (mu1 * mu2 / total) * pk_diff.l2**2
    return rec


def fill_energy_residuals(records: list[TimeSeriesRecord], nu: float) -> None:
    """Discrete residual of the weighted energy balance, central differences.

    The balance reads dE/dt = 2P - 2 nu D - 2C with E, D, P, C the weighted
    energy, dissipation, pumping and coupling-penalty samples, so
    residual = dE/dt + 2 nu D - 2P + 2C.  Endpoints stay NaN.  The residual
    shrinks at second order under step refinement when the sample spacing
    tracks dt.
    """
    for i in range(1, len(records) - 1):
        prev_, here, next_ = records[i - 1], records[i], records[i + 1]
        if math.isnan(here.budget_energy):
            continue
        span = next_.t - prev_.t
        if span <= 0:
            continue
        dEdt = (next_.budget_energy - prev_.budget_energy) / span
        here.energy_residual = (
            dEdt
            + 2.0 * nu * here.budget_dissipation
            - 2.0 * here.budget_pump
            + 2.0 * here.budget_penalty
        )


def _weighted_force_sq(rec: TimeSeriesRecord, lam1: float, lam2: float) -> float:
    return lam1 * rec.force_l2_g1**2 + lam2 * rec.force_l2_g2**2


def energy_inequality_slack(
    records: list[TimeSeriesRecord], nu: float, mu1: float, mu2: float
) -> float:
    """Worst relative violation of the integrated weighted energy inequality.

    E(t) + nu * int D ds <= E(t0) + (1/nu) * int (weighted |g|^2) ds must hold
    along mutual-nudging trajectories; returns max over samples of
    (lhs - rhs) / scale, which should be <= 0 up to quadrature error.
    """
    total = mu1 + mu2
    if total <= 0:
        raise ValueError("the weighted inequality needs mu1 + mu2 > 0")
    lam1, lam2 = mu2 / total, mu1 / total
    usable = [r for r in records if not math.isnan(r.budget_energy)]
    if len(usable) < 2:
        raise InsufficientData("need at least two budget samples")
    worst = -math.inf
    diss_int = 0.0
    pump_int = 0.0
    e0 = usable[0].budget_energy
    for prev_, here in zip(usable, usable[1:]):
        dt_ = here.t - prev_.t
        diss_int += 0.5 * dt_ * (prev_.budget_dissipation + here.budget_dissipation)
        pump_int += 0.5 * dt_ * (
            _weighted_force_sq(prev_, lam1, lam2) + _weighted_force_sq(here, lam1, lam2)
        )
        lhs = here.budget_energy + nu * diss_int
        rhs = e0 + pump_int / nu
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, (lhs - rhs) / scale)
    return worst


def write_csv(path, header, rows) -> None:
    """The one CSV writer of the run artifacts: RFC-4180, header mandatory,
    each cell by `_cell`, a cell that holds a comma or a quote quoted."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    write_text(path, buf.getvalue())


def write_timeseries_csv(path, records: list[TimeSeriesRecord]) -> None:
    """series.csv: one row per record, the columns CSV_COLUMNS, each a number."""
    write_csv(path, CSV_COLUMNS, ([float(getattr(rec, col)) for col in CSV_COLUMNS] for rec in records))


def _cell(value) -> str:
    """A table cell: a float at 17 significant digits, "" for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_condition_reports(dir_path, reports: list[ConditionReport]) -> None:
    """Human-readable lines plus a machine-readable TSV, one record per report."""
    lines = []
    rows = ["name\tlhs\trhs\tmargin\tsatisfied\n"]
    for rep in reports:
        verdict = "satisfied" if rep.satisfied else "VIOLATED (out of guaranteed regime)"
        lines.append(f"{rep.name}: {verdict}; {rep.formula}; margin = {rep.margin:.6g}\n")
        numbers = "\t".join(_cell(float(x)) for x in (rep.lhs, rep.rhs, rep.margin))
        rows.append(f"{rep.name}\t{numbers}\t{rep.satisfied}\n")
    write_text(os.path.join(dir_path, "conditions.txt"), "".join(lines))
    write_text(os.path.join(dir_path, "conditions.tsv"), "".join(rows))
