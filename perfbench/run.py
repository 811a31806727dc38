"""Benchmark of the path from config to verdict, end to end and per layer.

    python3 perfbench/run.py --workload nudge_n64 --seed 1 --seconds 35 --trace 0

Runs one workload (or `--workload all`, each in its own interpreter) from the
root of a source checkout; nothing needs installing, since `src` goes on the
path.  With `--trace 0` it times the workload's one user-facing call in whole
rounds for about `--seconds` seconds and reports the end-to-end metrics; with
`--trace 1` it alternates untraced rounds with rounds whose package functions
are wrapped, and reports the per-layer metrics.  Every round's outputs are
checked.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md in this
directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
TRACES_DIR = os.path.join(ROOT, ".bench_traces")
WORKLOAD_NAMES = ("nudge_n64", "sweep_n32", "verify_suites")
SETUP_REPEATS = {"full": 7, "toy": 1}
CHILD_TIMEOUT_S = 170

# The workloads are serial; pin BLAS pools to one thread before numpy loads.
SERIAL_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "steps/s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
}

# traced layer -> the fields reported for it, as `<layer>.<field>`
LAYER_FIELDS = {
    "fft": ("calls", "time_s"),
    "spectral.bilinear_B": ("calls", "time_s", "self_s"),
    "spectral.leray_project": ("calls", "time_s"),
    "spectral.alias_energy": ("calls", "time_s"),
    "spectral.hm_norm": ("calls", "time_s"),
    "spectral.linf_norm": ("calls", "time_s", "self_s"),
    "dynamics.step": ("calls", "time_s", "self_s"),
    "dynamics.integrate": ("calls", "time_s", "self_s"),
    "forcing.eval": ("calls", "time_s"),
    "diagnostics.sample_record": ("calls", "time_s", "self_s"),
    "diagnostics.conditions": ("calls", "time_s"),
    "diagnostics.write_timeseries_csv": ("calls", "time_s"),
    "harness.parse_config_text": ("calls", "time_s"),
    "harness.build_state": ("calls", "time_s", "self_s"),
    "harness.checkpoint_save": ("calls", "time_s"),
    "harness.run_scenario": ("calls", "time_s", "self_s"),
    "oracle.dense_bilinear_B": ("calls", "time_s"),
    "oracle.dense_trajectory": ("calls", "time_s", "self_s"),
    "verify.identity_suite": ("time_s",),
    "verify.oracle_suite": ("time_s",),
    "verify.heat_suite": ("time_s",),
}
COUNTER_UNITS = {
    "fft.bytes": "bytes",
    "dynamics.step.folded_calls": "count",
    "harness.checkpoint.bytes": "bytes",
}
FIELD_UNITS = {"calls": "count", "time_s": "s", "self_s": "s"}


def per_layer_units():
    units = {
        f"{layer}.{field}": FIELD_UNITS[field]
        for layer, fields in LAYER_FIELDS.items()
        for field in fields
    }
    units.update(COUNTER_UNITS)
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy shrinks every workload for the smoke test")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time, in fresh interpreters


def measure_setup(name, seed, size):
    """Median time from starting an interpreter to a built state.

    One unmeasured probe first compiles the package's bytecode, a cost paid
    once per checkout rather than per run.
    """
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed), size]
    times = []
    for attempt in range(SETUP_REPEATS[size] + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if attempt:
            times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# timed rounds


@dataclass
class Round:
    run_s: float
    outcome: object
    integrate_s: float
    steps: int


def timed_round(workload, cfg, out_dir, timer):
    """One user-facing call; `timer` wraps dynamics.integrate only."""
    t_before = timer.time_s["dynamics.integrate"]
    steps_before = timer.counters["dynamics.integrate.steps"]
    start = time.perf_counter()
    outcome = workload.run(cfg, out_dir)
    run_s = time.perf_counter() - start
    return Round(
        run_s,
        outcome,
        timer.time_s["dynamics.integrate"] - t_before,
        timer.counters["dynamics.integrate.steps"] - steps_before,
    )


def run_rounds(workload, inputs, seed, seconds, trace):
    """Whole rounds until the next would end past `seconds` (at least one,
    or one of each kind when tracing).  Returns (untraced, traced, checks,
    tracer)."""
    from tracing import Tracer, install_integrate_timer, install_layers

    run_dir = os.path.join(RUNS_DIR, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    timer, tracer = Tracer(), Tracer()
    untraced, traced, checks = [], [], []
    start = time.perf_counter()
    try:
        index = 0
        while True:
            use_tracer = trace and index % 2 == 1
            active = tracer if use_tracer else timer
            if use_tracer:
                install_layers(tracer)
            else:
                install_integrate_timer(timer)
            out_dir = os.path.join(run_dir, f"round_{index:03d}")
            try:
                # parsing is outside the timed call but inside the trace
                cfg = workload.prepare(inputs)
                rnd = timed_round(workload, cfg, out_dir, active)
            finally:
                active.remove()
            (traced if use_tracer else untraced).append(rnd)
            checks += workload.check(rnd.outcome, out_dir, seed)
            if hasattr(workload, "check_once") and index == 0:
                checks += workload.check_once(rnd.outcome, out_dir, seed)
            shutil.rmtree(out_dir, ignore_errors=True)
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + rnd.run_s > seconds and (not trace or traced):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return untraced, traced, checks, tracer


def summarize_checks(checks):
    """Collapse per-round results: a check passes only if it passed every round."""
    verdicts, details = {}, {}
    for name, ok, detail in checks:
        verdicts[name] = verdicts.get(name, True) and bool(ok)
        if not ok or name not in details:
            details[name] = detail
    for name, ok in verdicts.items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name} {details[name]}".rstrip())
    return bool(verdicts) and all(verdicts.values())


def end_to_end_metrics(rounds, setup_s):
    import resource

    return {
        "setup_s": setup_s,
        "run_s": statistics.median(r.run_s for r in rounds),
        "steps_per_s": statistics.median(r.steps / r.integrate_s for r in rounds),
        "points_per_s": statistics.median(r.outcome.points / r.run_s for r in rounds),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, traced, untraced):
    per_round = 1.0 / len(traced)
    values = {}
    for layer, fields in LAYER_FIELDS.items():
        for field in fields:
            table = getattr(tracer, field)
            values[f"{layer}.{field}"] = table[layer] * per_round
    for counter in COUNTER_UNITS:
        values[counter] = tracer.counters[counter] * per_round
    values["trace.overhead_s"] = statistics.median(r.run_s for r in traced) - statistics.median(
        r.run_s for r in untraced
    )
    return values


def write_trace(name, seed, tracer, traced):
    os.makedirs(TRACES_DIR, exist_ok=True)
    path = os.path.join(TRACES_DIR, f"{name}-seed{seed}.json")
    payload = {"workload": name, "seed": seed, "traced_rounds": len(traced), **tracer.summary()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def run_workload(args):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.size)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, args.size)
    untraced, traced, checks, tracer = run_rounds(
        workload, inputs, args.seed, args.seconds, args.trace
    )
    correct = summarize_checks(checks)
    if args.trace:
        values = per_layer_metrics(tracer, traced, untraced)
        units = per_layer_units()
        print(f"trace: {write_trace(args.workload, args.seed, tracer, traced)}")
    else:
        values = end_to_end_metrics(untraced, setup_s)
        units = END_TO_END_UNITS
    rounds = untraced + traced
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": sum(r.outcome.points for r in rounds),
        "failed": sum(r.outcome.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S * 2)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "intertwine", "__init__.py")):
        print(f"perfbench: no package sources at {os.path.join(ROOT, 'src', 'intertwine')}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(SERIAL_ENV)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
