"""The byte-identity set: the outputs a refactor must leave unchanged.

    python3 tools/identity.py --out DIR [--toy] [--src SRC]
    python3 tools/identity.py --compare A B

--out runs the set with the package in SRC (default: this checkout's
`src`) and writes one directory per run, `verify_fast.txt` (what
`intertwine verify --fast` prints, without its [time] lines),
`verify_worst.tsv` (each of those checks' worst value to 17 significant
digits), `dense_oracle.tsv` (an n = 8 ensemble under a time-dependent force,
stepped by the dense oracle and by the stepper) and `SHA256SUMS`, one
`sha256sum` line per file, into DIR.  A run
that raises leaves its error in `<run>/error.txt`.  --toy runs the same set
at toy size.

--compare lists the files that differ between two such directories and, for
each CSV or TSV among them, the largest relative gap per column; it exits 1
when any file differs.  To prove a change byte-identical, run --out on a
checkout of the parent commit and on the change, then --compare the two.

No digests are committed: FFT bits may differ across numpy builds and CPUs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUMS = "SHA256SUMS"

# the acceptance nudging config (criterion 4), with its sizes left open
BASE = """\
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
max_wavenumber = {kmax}
difference = random
difference_scale = 0.5

[time]
dt = 0.02
t_end = {t_end}
sample_every = {sample_every}

[output]
seed = {seed}
decay_threshold = 1e-6
{extra}"""
NUDGE = "class = nudge_mutual\nmu1 = 2.0\nmu2 = 2.0"

# the determining-modes config of criterion 8 at amplitude 1
FDM = """\
[grid]
n = {n}

[physics]
nu = 1.0
K = {K}

[coupling]
class = none

[forcing]
kind = decaying_pair
amplitude = 1.0
wavenumber = 2
pair_delta_amplitude = 0.05
pair_decay_rate = 1.0

[initial]
energy = 0.5
spectrum_slope = 2.0
max_wavenumber = {kmax}
difference = random
difference_scale = 0.25

[time]
dt = 0.008
t_end = {t_end}
sample_every = 0.25

[output]
seed = 3
scenario = fdss_determining_modes
"""

SIZES = {
    # run: full size, toy size
    "acceptance": (dict(n=64, K=16.0, kmax=8.0, t_end=50.0, sample_every=0.25, seed=42),
                   dict(n=16, K=4.0, kmax=4.0, t_end=0.5, sample_every=0.1, seed=42)),
    # the observer must not start equal to the truth: K below max_wavenumber
    "reconstruction": (dict(n=64, K=4.0, kmax=8.0, t_end=50.0, sample_every=0.25, seed=42),
                       dict(n=16, K=2.0, kmax=4.0, t_end=0.5, sample_every=0.1, seed=42)),
    # the sweep_n32 benchmark workload
    "sweep": (dict(n=32, K=8.0, kmax=8.0, t_end=3.0, sample_every=0.125, seed=1),
              dict(n=16, K=4.0, kmax=4.0, t_end=0.5, sample_every=0.1, seed=1)),
    "fdm": (dict(n=32, K=5.0, kmax=6.0, t_end=30.0), dict(n=16, K=4.0, kmax=5.0, t_end=0.4)),
}
SWEEPS = {
    # sweep: [sweep] section at full size, at toy size
    "nudge": ("K = 2, 4, 6, 8\nmu = 0.5, 2, 60", "K = 2, 4\nmu = 2, 60"),
    "theta": ("K = 4, 8\ntheta1 = 0.5, 0.75, 1", "K = 2, 4\ntheta1 = 0.75, 1"),
}


def run_set(toy: bool) -> list:
    """(name, scenario, config text) of every run in the set."""
    size = {name: sizes[toy] for name, sizes in SIZES.items()}
    base = BASE.format(extra="", **size["acceptance"])

    def coupled(block):
        return base.replace(NUDGE, block)

    def sweep(block, grid):
        extra = f"scenario = regime_sweep\nthreads = 1\n\n[sweep]\n{SWEEPS[grid][toy]}\n"
        return BASE.format(extra=extra, **size["sweep"]).replace(NUDGE, block)

    recon = BASE.format(extra="", **size["reconstruction"])
    return [
        ("nudge", None, base),
        ("control", None, coupled("class = none")),
        ("dr_mutual_0.25", None, coupled("class = dr_mutual\ntheta1 = 0.25\ntheta2 = 0.75")),
        ("dr_symmetric_1", None, coupled("class = dr_symmetric\ntheta1 = 1.0\ntheta2 = 0.0")),
        ("dr_symmetric_0.6", None, coupled("class = dr_symmetric\ntheta1 = 0.6\ntheta2 = 0.4")),
        ("nudge_symmetric_2_1", None, coupled("class = nudge_symmetric\nmu1 = 2.0\nmu2 = 1.0")),
        ("reconstruction_nudge", "reconstruction_nudge", recon),
        ("reconstruction_dr", "reconstruction_dr", recon),
        ("time_periodic", None, base.replace("kind = kolmogorov", "kind = time_periodic\nomega = 0.5")),
        ("fdss_amplitude_1", None, FDM.format(**size["fdm"])),
        ("sweep_n32", None, sweep(NUDGE, "nudge")),
        ("dr_symmetric_theta_sweep", None, sweep("class = dr_symmetric\ntheta1 = 1.0\ntheta2 = 0.0", "theta")),
    ]


def verify_results(toy: bool) -> list:
    """The results of `verify.suites(fast=True)`, each suite run once; at
    toy size, those of a small identity suite."""
    from intertwine import verify

    if toy:
        return verify.identity_suite(sizes=(16,), count=2)
    return [res for _, run in verify.suites(fast=True) for res in run()]


def verify_lines(results: list) -> str:
    """What `intertwine verify --fast` prints for results, less its [time] lines."""
    failures = sum(not res.passed for res in results)
    tail = f"{failures} check(s) failed" if failures else "all checks passed"
    return "".join(res.line() + "\n" for res in results) + tail + "\n"


def verify_worst(results: list) -> str:
    """A TSV of each check's worst value to 17 significant digits, which
    the 3 digits of the printed lines cannot show unchanged."""
    return "check\tworst\n" + "".join(f"{res.name}\t{res.worst:.17g}\n" for res in results)


def dense_oracle(toy: bool) -> str:
    """A TSV of each member's final |v1| and |v2| to 17 significant digits
    and the SHA-256 of its half spectra, from `oracle.dense_trajectories`
    and `dynamics.integrate_many`: an n = 8 ensemble of the zero,
    nudge_symmetric and dr_symmetric matrices under a time-periodic force
    plus a decaying delta, the forces that the verify suites do not use."""
    import numpy as np

    from intertwine import dynamics as dyn, forcing as fr, oracle as orc, spectral as sp

    grid = sp.Grid(8)
    rng = np.random.default_rng(11)
    v1, v2, delta = (sp.random_field(grid, rng, energy=e, kmax=grid.dealias_radius) for e in (0.6, 0.6, 0.1))
    base = fr.TimePeriodicForcing(fr.kolmogorov_force(grid, 0.2, 2), 1.3)
    pair = fr.ForcingPair.decaying_delta(base, delta, 1.5)
    matrices = {
        "zero": dyn.IntertwiningMatrix.zero(),
        "nudge_symmetric": dyn.IntertwiningMatrix.nudge_symmetric(2.0, 1.0),
        "dr_symmetric": dyn.IntertwiningMatrix.dr_symmetric(0.6, 0.4),
    }
    states = [dyn.IntertwinedState(grid=grid, t=0.0, nu=0.3, K=2.0, matrix=m, v1=v1, v2=v2, forcing=pair)
              for m in matrices.values()]
    t_end, dt = 0.1 if toy else 1.0, 1e-3
    rows = ["path\tmember\tl2_v1\tl2_v2\tsha256\n"]
    for path, finals in (("dense", orc.dense_trajectories(states, t_end, dt_ref=dt)),
                         ("stepper", dyn.integrate_many(states, t_end, dt))):
        for name, final in zip(matrices, finals):
            sha = hashlib.sha256(final.v1.half.tobytes() + final.v2.half.tobytes()).hexdigest()
            rows.append(f"{path}\t{name}\t{final.v1.l2:.17g}\t{final.v2.l2:.17g}\t{sha}\n")
    return "".join(rows)


def files(root: str) -> list:
    """Every file under root but SHA256SUMS, as sorted relative paths."""
    found = []
    for here, _, names in os.walk(root):
        for name in names:
            rel = os.path.relpath(os.path.join(here, name), root).replace(os.sep, "/")
            if rel != SUMS:
                found.append(rel)
    return sorted(found)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_set(out: str, toy: bool) -> None:
    from intertwine import harness

    os.makedirs(out, exist_ok=True)
    for name, scenario, text in run_set(toy):
        run_dir = os.path.join(out, name)
        try:
            harness.run_scenario(harness.parse_config_text(text), kind=scenario, out_dir=run_dir)
        except Exception as exc:  # a run's failure is part of what the set records
            os.makedirs(run_dir, exist_ok=True)
            with open(os.path.join(run_dir, "error.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"{type(exc).__name__}: {exc}\n")
    results = verify_results(toy)
    for name, text in (("verify_fast.txt", verify_lines(results)), ("verify_worst.tsv", verify_worst(results)),
                       ("dense_oracle.tsv", dense_oracle(toy))):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(out, SUMS), "w", encoding="utf-8") as fh:
        fh.writelines(f"{digest(os.path.join(out, rel))}  {rel}\n" for rel in files(out))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def column_gaps(a_path: str, b_path: str) -> list:
    """(column, largest relative gap) of two tables with the same header,
    over the rows both have; a gap is |a - b| / max(|a|, |b|), inf where
    two differing cells are not both finite numbers."""
    delimiter = "\t" if a_path.endswith(".tsv") else ","
    tables = []
    for path in (a_path, b_path):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh, delimiter=delimiter)))
    (head_a, *rows_a), (head_b, *rows_b) = tables
    if head_a != head_b:
        return [("header", math.inf)]
    gaps = [0.0] * len(head_a)
    for row_a, row_b in zip(rows_a, rows_b):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            u, v = _number(x), _number(y)
            if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
                gaps[j] = math.inf
            else:
                gaps[j] = max(gaps[j], abs(u - v) / max(abs(u), abs(v), 1e-300))
    out = [(name, gap) for name, gap in zip(head_a, gaps) if gap > 0]
    if len(rows_a) != len(rows_b):
        out.append((f"rows {len(rows_a)} against {len(rows_b)}", math.inf))
    return out


def compare(a: str, b: str) -> int:
    """Print the files that differ between a and b; 1 when any does."""
    in_a, in_b = set(files(a)), set(files(b))
    differ = 0
    for rel in sorted(in_a | in_b):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if rel in in_a and rel in in_b:
            if digest(pa) == digest(pb):
                continue
            print(f"differs: {rel}")
            if rel.endswith((".csv", ".tsv")):
                for column, gap in column_gaps(pa, pb):
                    print(f"    {column}: largest relative gap {gap:.3e}")
        else:
            print(f"only in {a if rel in in_a else b}: {rel}")
        differ += 1
    print(f"{len(in_a | in_b)} files, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="directory to write the set into")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two set directories")
    parser.add_argument("--toy", action="store_true", help="run the set at toy size")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the package's source tree")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, os.path.abspath(args.src))
    start = time.perf_counter()
    write_set(args.out, args.toy)
    print(f"wrote {len(files(args.out))} files in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
