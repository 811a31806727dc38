"""Self-synchronization of two mutually nudged flow copies.

Two copies of the forced 2D flow start from different states and exchange
low-mode feedback mu * P_K(v_j - v_i).  With the cutoff and gains above the
sufficient threshold the difference |w| collapses exponentially; an uncoupled
control pair keeps an order-one difference.
"""

import numpy as np

from intertwine import diagnostics as diag
from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import spectral as sp

nu, K, mu = 0.05, 16.0, 2.0
grid = sp.Grid(64)
rng = np.random.default_rng(42)

force = fr.SteadyForcing(fr.kolmogorov_force(grid, 0.04, 2))
pair = fr.ForcingPair.synchronized(force)
v1 = sp.random_field(grid, rng, energy=0.5, kmax=8.0)
v2 = sp.random_field(grid, rng, energy=0.5, kmax=8.0)

for label, matrix in [
    ("nudged", dyn.IntertwiningMatrix.nudge_mutual(mu, mu)),
    ("uncoupled control", dyn.IntertwiningMatrix.zero()),
]:
    state = dyn.IntertwinedState(
        grid=grid, t=0.0, nu=nu, K=K, matrix=matrix, v1=v1, v2=v2, forcing=pair
    )
    records = []
    dyn.integrate(state, 30.0, dt=0.02, sample_every=1.0, records=records)
    series = [(rec.t, rec.l2_w) for rec in records]
    fit = diag.decay_detect(series)
    ratio = series[-1][1] / series[0][1]
    print(f"\n{label}:")
    for t, val in series[:: max(1, len(series) // 8)]:
        print(f"  t = {t:5.1f}  |w| = {val:.3e}")
    print(f"  final/initial = {ratio:.2e}, fitted rate = {fit.rate:.3f}")

    regime = diag.regime_for(matrix)
    if regime is not None:
        run = diag.run_facts(state, records, diag.default_constants(), nu)
        print(f"  measured solution size m = {run.m_frak:.1f}")
        for row in regime.rows:
            print(" ", row.report(run).formula)
