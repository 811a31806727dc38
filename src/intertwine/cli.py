"""Command-line entry point.

Subcommands: run (one scenario), twin (reconstruction shorthand), verify
(identity/oracle/heat suites), sweep (parameter grids).  Exit codes:
0 success, 1 verification failure, 2 config error, 3 runtime blowup in a
non-sweep run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from . import harness
from .dynamics import StepGuardViolation
from .harness import ConfigInvalid, ParseError


def _threads_default() -> int:
    env = os.environ.get("INTWINE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment config path")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker count for sweeps (fallback: INTWINE_THREADS)",
    )


def _load(args) -> harness.ExperimentConfig:
    cfg = harness.parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "threads", None) is not None:
        cfg = replace(cfg, threads=args.threads)
    elif cfg.threads == 1:
        cfg = replace(cfg, threads=_threads_default())
    return cfg


def _report(result) -> None:
    print(f"scenario: {result.scenario}")
    print(f"artifacts: {result.out_dir}")
    if result.blowup:
        print(f"BLOWUP at t = {result.blowup_t:g}")
    if result.decay_l2 is not None:
        print(
            f"|w| decay: decayed={result.decay_l2.decayed} "
            f"rate={result.decay_l2.rate:.4g} r2={result.decay_l2.r2:.3f} "
            f"final/initial={result.final_ratio:.3e}"
        )
    if result.decay_h1 is not None:
        print(
            f"|w|_V decay: decayed={result.decay_h1.decayed} rate={result.decay_h1.rate:.4g}"
        )
    for rep in result.reports:
        mark = "ok " if rep.satisfied else "OUT"
        print(f"  [{mark}] {rep.name}: {rep.formula}")
    if "fdm" in result.extras:
        fdm = result.extras["fdm"]
        print(
            f"determining-modes proxy: threshold N = {fdm['threshold_proxy']} "
            f"(full decay = {fdm['full_decayed']}, consistent = {fdm['implication_consistent']})"
        )
    if "monotonicity_flags" in result.extras:
        for flag in result.extras["monotonicity_flags"]:
            print(f"  review: {flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="intertwine",
        description="Coupled 2D Navier-Stokes pair simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a config")
    _add_common(p_run)
    p_run.add_argument(
        "--scenario", default=None, choices=harness.SCENARIOS,
        help="override the config's scenario",
    )

    p_twin = sub.add_parser("twin", help="truth/observer reconstruction run")
    _add_common(p_twin)
    p_twin.add_argument(
        "--kind", default="nudge", choices=("nudge", "dr"),
        help="observer type: nudging or direct replacement",
    )

    p_sweep = sub.add_parser("sweep", help="parameter-grid sweep (parallel across points)")
    _add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="identity, oracle and heat suites")
    p_verify.add_argument("--fast", action="store_true", help="smaller batches")

    args = parser.parse_args(argv)

    if args.command == "verify":
        from . import verify

        failures = 0
        for name, run in verify.suites(fast=args.fast):
            start = time.perf_counter()
            results = run()
            elapsed = time.perf_counter() - start
            for res in results:
                print(res.line())
                failures += 0 if res.passed else 1
            print(f"[time] {name} suite: {elapsed:.2f} s")
        if failures:
            print(f"{failures} check(s) failed")
            return 1
        print("all checks passed")
        return 0

    try:
        cfg = _load(args)
    except (ParseError, ConfigInvalid, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    scenario = None
    if args.command == "twin":
        scenario = "reconstruction_nudge" if args.kind == "nudge" else "reconstruction_dr"
    elif args.command == "sweep":
        scenario = "regime_sweep"
    elif args.command == "run":
        scenario = args.scenario

    try:
        result = harness.run_scenario(cfg, kind=scenario, out_dir=args.out)
    except (ParseError, ConfigInvalid, StepGuardViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _report(result)
    if result.blowup and result.scenario != "regime_sweep":
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
