"""The benchmark's workloads: inputs from a seed, one user-facing call, checks.

Each workload has a `full` size (the benchmark) and a `toy` size (the smoke
test).  `inputs(seed, size)` generates what the program receives; `setup`
is what the set-up probe times in a fresh interpreter; `run` is the one
timed call; `check` compares the call's outputs with properties the method
must have or with a computation made apart from the program.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import replace

import numpy as np

from intertwine import harness as hz
from intertwine import spectral as sp

# The acceptance nudging config (criterion 4), with the sizes left open.
CONFIG_TEMPLATE = """\
[grid]
n = {n}

[physics]
nu = 0.05
K = {K}

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
{max_wavenumber}difference = random
difference_scale = 0.5

[time]
dt = {dt}
t_end = {t_end}
sample_every = {sample_every}

[output]
seed = {seed}
decay_threshold = 1e-6
{output_extra}"""


def config_text(seed, n, K, dt, t_end, sample_every, max_wavenumber=None, output_extra=""):
    return CONFIG_TEMPLATE.format(
        n=n, K=K, dt=dt, t_end=t_end, sample_every=sample_every, seed=seed,
        max_wavenumber="" if max_wavenumber is None else f"max_wavenumber = {max_wavenumber}\n",
        output_extra=output_extra,
    )


class Outcome:
    """What one timed call produced, in the terms the metrics need."""

    def __init__(self, value, points, failed=0):
        self.value = value
        self.points = points  # verdicts produced: sweep points, scenarios or checks
        self.failed = failed  # points that errored or blew up


# ---------------------------------------------------------------------------
# reading the program's artifacts


def read_series(out_dir):
    with open(os.path.join(out_dir, "series.csv"), newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_conditions(out_dir):
    with open(os.path.join(out_dir, "conditions.tsv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    return {row["name"]: row["satisfied"] == "True" for row in rows}


def plancherel_l2(coeffs):
    """|u| = sqrt((2 pi)^2 sum |u_hat|^2), summed with plain numpy."""
    return math.sqrt((2.0 * math.pi) ** 2 * float(np.sum(coeffs.real**2 + coeffs.imag**2)))


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def point_failed(row):
    """A sweep row whose point raised a handled error or blew up."""
    return "error" in row or row["blowup"]


def conditions_hold(out_dir, names, label=""):
    conds = read_conditions(out_dir)
    return [(f"{label}{name} satisfied", conds.get(name) is True, "") for name in names]


# ---------------------------------------------------------------------------
# scenario workloads


class Scenario:
    """One `harness.run_scenario` call on a generated config."""

    kind = "self_sync"
    sizes: dict = {}

    def inputs(self, seed, size):
        return config_text(seed, **self.sizes[size])

    def setup(self, text):
        cfg = hz.parse_config_text(text)
        return hz.build_state(cfg, scenario=self.kind)

    def prepare(self, text):
        return hz.parse_config_text(text)

    def run(self, cfg, out_dir):
        res = hz.run_scenario(cfg, kind=self.kind, out_dir=out_dir)
        return Outcome(res, points=1, failed=int(res.blowup))


class NudgeN64(Scenario):
    name = "nudge_n64"
    sizes = {
        "full": dict(n=64, K=16.0, dt=0.02, t_end=10.0, sample_every=0.25, max_wavenumber=8.0),
        "toy": dict(n=48, K=16.0, dt=0.02, t_end=6.0, sample_every=0.25, max_wavenumber=8.0),
    }

    def check(self, outcome, out_dir, seed):
        res = outcome.value
        checks = [("final_ratio <= 1e-6", res.final_ratio <= 1e-6, f"{res.final_ratio:.3e}")]
        checks += conditions_hold(
            out_dir, ("nudge_fdss", "nudge_ss", "bound_nudge_mutual", "energy_inequality")
        )
        state, _ = hz.checkpoint_load(os.path.join(out_dir, "final.ckpt"))
        try:
            sp.check_field(state.v1)
            sp.check_field(state.v2)
            field_ok, detail = True, ""
        except ValueError as exc:
            field_ok, detail = False, str(exc)
        checks.append(("final checkpoint passes check_field", field_ok, detail))
        gap = rel_gap(
            plancherel_l2(state.v1.coeffs - state.v2.coeffs), read_series(out_dir)[-1]["l2_w"]
        )
        checks.append(("checkpoint |v1-v2| matches last l2_w to 1e-12", gap <= 1e-12, f"{gap:.1e}"))
        return checks


class SweepN32(Scenario):
    name = "sweep_n32"
    kind = "regime_sweep"
    grid_extra = "scenario = regime_sweep\nthreads = 1\n\n[sweep]\nK = {ks}\nmu = {mus}\n"
    sizes = {
        "full": dict(n=32, K=8.0, dt=0.02, t_end=3.0, sample_every=0.125, max_wavenumber=8.0,
                     output_extra=grid_extra.format(ks="2, 4, 6, 8", mus="0.5, 2, 60")),
        "toy": dict(n=16, K=4.0, dt=0.02, t_end=1.0, sample_every=0.05, max_wavenumber=4.0,
                    output_extra=grid_extra.format(ks="2, 4", mus="2, 60")),
    }

    def run(self, cfg, out_dir):
        res = hz.run_scenario(cfg, out_dir=out_dir)
        rows = res.extras["table"]
        return Outcome(res, points=len(rows), failed=sum(map(point_failed, rows)))

    def check(self, outcome, out_dir, seed):
        checks = []
        for row in outcome.value.extras["table"]:
            if point_failed(row):
                continue  # counted as a failed operation
            pdir = os.path.join(out_dir, f"point_{row['index']:03d}")
            checks += conditions_hold(
                pdir, ("bound_nudge_mutual", "energy_inequality"), f"point {row['index']}: "
            )
        return checks

    def check_once(self, outcome, out_dir, seed):
        """Re-run one point alone: the sweep's config at the point's K and mu,
        with the derived seed from the point's manifest."""
        rows = [r for r in outcome.value.extras["table"] if not point_failed(r)]
        row = rows[seed % len(rows)]
        pdir = os.path.join(out_dir, f"point_{row['index']:03d}")
        with open(os.path.join(pdir, "manifest.json"), encoding="utf-8") as fh:
            point_seed = json.load(fh)["seed"]
        with open(os.path.join(out_dir, "config.ini"), encoding="utf-8") as fh:
            base = hz.parse_config_text(fh.read())
        pcfg = replace(base, K=row["K"], mu1=row["mu"], mu2=row["mu"], seed=point_seed,
                       sweep_K=(), sweep_mu=(), sweep_theta1=())
        alone = hz.run_scenario(pcfg, kind="self_sync", out_dir=os.path.join(out_dir, "alone"))
        gap = rel_gap(alone.final_ratio, row["final_ratio"])
        return [(f"point {row['index']} re-run alone reproduces final_ratio to 1e-12",
                 gap <= 1e-12, f"{gap:.1e}")]


# ---------------------------------------------------------------------------
# the verification suites


class VerifySuites:
    """The three suites of `verify.run_all(fast=True)`, with the oracle
    trajectories at dt = 2e-3 (main) and 4e-3 (dense RK4 reference) instead
    of 1e-3 and 5e-4, and 2 bilinear cases instead of 5, so that one round
    takes about 5 s instead of 11 s.  The suites fix their own seeds, and
    the toy size runs the same calls, since they take no size."""

    name = "verify_suites"
    grids = (16, 32, 8)

    def inputs(self, seed, size):
        return None

    def setup(self, _inputs):
        import intertwine.verify  # noqa: F401  (the suites' set-up includes their import)

        return [sp.Grid(n) for n in self.grids]

    def prepare(self, _inputs):
        return None

    def run(self, _cfg, out_dir):
        from intertwine import verify

        results = verify.identity_suite(count=10)
        results += verify.oracle_suite(cases=2, dt_main=2e-3, dt_ref=4e-3)
        results += verify.heat_suite()
        return Outcome(results, points=len(results))

    def check(self, outcome, out_dir, seed):
        return [(res.name, res.passed, f"worst {res.worst:.2e} tol {res.tol:.0e}") for res in outcome.value]


WORKLOADS = {wl.name: wl for wl in (NudgeN64(), SweepN32(), VerifySuites())}
