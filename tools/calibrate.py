"""Regenerate the shipped interpolation constants, or check them.

    python3 tools/calibrate.py --out PATH
    python3 tools/calibrate.py --check

--out measures C_L, C_A and C_S at the shipped settings (n = 32, 200
fields, seed 0) and writes them as a constants file to PATH; the package
ships that file as `src/intertwine/data/constants_default.json`.

--check measures them again at the settings the shipped file records and
prints each constant's relative gap to the shipped value.  It exits 1 when
any gap exceeds RTOL.  The shipped file is not matched bit for bit: numpy's
FFT bits differ across builds and CPUs, and at numpy 2.4.6 C_A comes out
4 ulp and C_S 1 ulp from the shipped values.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from intertwine import spectral
from intertwine.diagnostics import ConstantsConfig, default_constants

# the relative gap to the shipped value that --check allows
RTOL = 1e-12
MEASURED = ("C_L", "C_A", "C_S")


def l4_norm(u: spectral.SpectralField) -> float:
    """The L4 norm of |u|; the twice-refined quadrature is exact for
    dealias-supported fields (integrand bandwidth 4n/3 < 2n)."""
    g = u.grid
    phys = spectral._physical(g, u.half, 2)
    cell = (spectral.TWO_PI / (2 * g.n)) ** 2
    return float((np.sum((phys[0] ** 2 + phys[1] ** 2) ** 2) * cell) ** 0.25)


def calibrate_constants(n: int = 32, samples: int = 200, seed: int = 0) -> ConstantsConfig:
    """Measure working interpolation constants on random-field batches.

    Maximizes each inequality ratio over seeded random fields plus the
    extremizing candidates (single shear modes, the cellular flow, low-mode
    concentrations) and returns the observed maxima times a 1.1 safety
    factor.  Deterministic for a fixed seed.
    """
    grid = spectral.Grid(n)
    rng = np.random.default_rng(seed)
    ratio_L = 0.0
    ratio_A = 0.0
    ratio_S = 0.0

    candidates = [
        spectral.taylor_green(grid, 1.0),
        spectral.field_from_modes(grid, [(0, 1, (0.5 / 1j, 0.0))]),
        spectral.field_from_modes(grid, [(0, 2, (0.5 / 1j, 0.0)), (1, 0, (0.0, 0.25))]),
    ]
    slopes = (0.5, 1.0, 2.0, 3.0)
    kmaxes = (2.0, 4.0, 8.0, grid.dealias_radius)
    for i in range(samples):
        slope = slopes[i % len(slopes)]
        kmax = kmaxes[(i // len(slopes)) % len(kmaxes)]
        candidates.append(spectral.random_field(grid, rng, energy=1.0, slope=slope, kmax=kmax))

    for u in candidates:
        l2 = u.l2
        h1 = u.h1
        if l2 == 0.0 or h1 == 0.0:
            continue
        linf = spectral.linf_norm(u)
        l4 = l4_norm(u)
        h2 = spectral.hm_norm(u, 2)
        ratio_L = max(ratio_L, l4**2 / (h1 * l2))
        ratio_A = max(ratio_A, linf**2 / (h2 * l2))
        # support radius of this candidate, floor 2 to keep ln positive
        kmag = u.grid.kmag[np.abs(u.half).max(axis=0) > 1e-13 * np.abs(u.half).max()]
        nmax = max(2.0, float(kmag.max()) if kmag.size else 2.0)
        ratio_S = max(ratio_S, linf / (math.sqrt(math.log(nmax)) * h1))

    return ConstantsConfig(
        C_L=1.1 * ratio_L,
        C_A=1.1 * ratio_A,
        C_S=1.1 * ratio_S,
        meta={"n": n, "samples": samples, "seed": seed, "safety": 1.1},
    )


def gaps(shipped: ConstantsConfig) -> dict:
    """The relative gap of each measured constant, regenerated at the
    shipped file's settings, to its shipped value."""
    meta = shipped.meta
    fresh = calibrate_constants(n=meta["n"], samples=meta["samples"], seed=meta["seed"])
    return {name: abs(getattr(fresh, name) - getattr(shipped, name)) / getattr(shipped, name) for name in MEASURED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="PATH", help="write the regenerated constants file to PATH")
    mode.add_argument("--check", action="store_true", help="compare the regenerated constants with the shipped ones")
    args = parser.parse_args(argv)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(calibrate_constants().to_json() + "\n")
        return 0
    drifted = False
    for name, gap in gaps(default_constants()).items():
        ok = gap <= RTOL  # a NaN gap drifts
        drifted |= not ok
        print(f"{name}: relative gap {gap:.3e} {'ok' if ok else f'DRIFT (past {RTOL:g})'}")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
