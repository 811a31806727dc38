"""The benchmark's hooks into the package, loaded from perfbench/ as they are.

perfbench/tracing.py counts the steps of `dynamics.integrate` by binding
its `state`, `t_end` and `dt` arguments; a change to that signature would
silently zero the benchmark's steps/s.
"""

import importlib.util
import os
import sys

import numpy as np

from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import spectral as sp

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, read without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_integrate_timer_counts_steps(grid16, monkeypatch):
    tracing = load_tracing(monkeypatch)
    state = dyn.IntertwinedState(
        grid=grid16, t=0.0, nu=0.2, K=2.0, matrix=dyn.IntertwiningMatrix.nudge_mutual(1.0, 0.5),
        v1=sp.random_field(grid16, np.random.default_rng(0)),
        v2=sp.random_field(grid16, np.random.default_rng(1)),
        forcing=fr.ForcingPair.synchronized(fr.SteadyForcing(fr.kolmogorov_force(grid16, 0.1, 2))),
    )
    tracer = tracing.Tracer()
    tracing.install_integrate_timer(tracer)
    try:
        dyn.integrate(state, 0.2, dt=0.02)
    finally:
        tracer.remove()
    assert tracer.counters["dynamics.integrate.steps"] == 10
    assert tracer.calls["dynamics.integrate"] == 1
    assert dyn.integrate.__name__ == "integrate" and not hasattr(dyn.integrate, "__wrapped__")
