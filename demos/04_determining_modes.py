"""Determining modes, observed: low-mode convergence forces full convergence.

Two uncoupled copies of the flow are driven by forces that merge over time
(g2 = g1 + exp(-t) * delta) and start from different states.  We track the
difference restricted to balls |k| <= N alongside the full difference: once
the low modes lock, the whole state follows.
"""

import numpy as np

from intertwine import diagnostics as diag
from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import spectral as sp

nu = 1.0
grid = sp.Grid(32)
rng = np.random.default_rng(3)

base = fr.SteadyForcing(fr.kolmogorov_force(grid, 1.0, 2))
delta = sp.random_field(grid, rng, energy=0.05, kmax=2.0)
pair = fr.ForcingPair.decaying_delta(base, delta, rate=1.0)

v1 = sp.random_field(grid, rng, energy=0.5, kmax=6.0)
v2 = sp.random_field(grid, rng, energy=0.5, kmax=6.0)
state = dyn.IntertwinedState(
    grid=grid, t=0.0, nu=nu, K=5.0, matrix=dyn.IntertwiningMatrix.zero(),
    v1=v1, v2=v2, forcing=pair,
)

ladder = (1.0, 2.0, 4.0, 8.0)
rows = []
dyn.integrate(
    state, 20.0, dt=0.008, sample_every=0.25,
    sink=lambda s: rows.append(
        (s.t, [(lambda w: sp.project_low(w, N).l2)(s.v1 - s.v2) for N in ladder]
         + [(s.v1 - s.v2).l2])
    ),
)

print("  t    " + "".join(f"|P_{N:g} w|   " for N in ladder) + "|w|")
for t, vals in rows[:: max(1, len(rows) // 10)]:
    print(f"{t:5.1f}  " + "  ".join(f"{v:.2e}" for v in vals))

# each rung's verdict is the run's decay rule, as in the fdss_determining_modes
# scenario; the fitted rate is a diagnostic beside it
threshold = 1e-6
labels = [f"low modes N = {N:g}:" for N in ladder] + ["full state:     "]
for j, label in enumerate(labels):
    decayed = diag.decayed(rows[0][1][j], rows[-1][1][j], threshold)
    fit = diag.decay_detect([(t, vals[j]) for t, vals in rows])
    print(f"{label} decayed = {decayed} (rate {fit.rate:.2f})")
