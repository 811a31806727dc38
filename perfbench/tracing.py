"""Per-layer tracing by wrapping the package's public functions in place.

A wrapper replaces a function wherever the `intertwine` modules bind it
(module attributes and `from ... import` copies alike), so calls made inside
the package go through it too.  Each wrapper records, under its layer name,
the call count, the inclusive time of outermost calls, and the self time
(inclusive time minus the time of wrapped calls made beneath it).  Calls
from one wrapped name to another are counted as edges of the call tree.
Everything stays in memory; `Tracer.summary` hands it back at the end.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

# diagnostics entry points that evaluate sufficient conditions and bounds
CONDITION_PREFIXES = ("check_", "condition_", "grashof_", "m_frak_")
CONDITION_NAMES = ("measured_m_frak", "energy_inequality_slack")


class Tracer:
    """Owns the wrappers it installs; `remove` restores every original."""

    def __init__(self):
        self.calls = Counter()
        self.time_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.edges = Counter()
        self._stack = []  # [name, time spent in wrapped children]
        self._depth = Counter()
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name, fn, on_return=None):
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                if depth[name] == 0:
                    self.time_s[name] += spent
                self.self_s[name] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                    self.edges[(stack[-1][0], name)] += 1
            if on_return is not None:
                on_return(self, args, kwargs, out)
            return out

        return traced

    def wrap_function(self, module, attr, name, on_return=None):
        """Wrap module.attr and every other package binding of the same object."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrapper(name, original, on_return)
        owners = [module] + [
            mod for key, mod in list(sys.modules.items())
            if key.split(".")[0] == "intertwine" and mod is not module
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    self._undo.append((owner, key, original))

    def wrap_method(self, cls, attr, name, on_return=None):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, self._wrapper(name, original, on_return))
        self._undo.append((cls, attr, original))

    def remove(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        names = sorted(set(self.calls) | set(self.time_s))
        return {
            "layers": {
                name: {
                    "calls": self.calls[name],
                    "time_s": self.time_s[name],
                    "self_s": self.self_s[name],
                }
                for name in names
            },
            "counters": dict(self.counters),
            "edges": [
                {"caller": a, "callee": b, "calls": n} for (a, b), n in sorted(self.edges.items())
            ],
        }


def _fft_bytes(tracer, args, kwargs, out):
    # computed, not measured: input plus output array sizes
    tracer.counters["fft.bytes"] += getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)


def _checkpoint_bytes(tracer, args, kwargs, out):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None and os.path.exists(path):
        tracer.counters["harness.checkpoint.bytes"] += os.path.getsize(path)


def _bind(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def count_steps(integrate):
    """on_return hook adding the step count of one dynamics.integrate call."""

    def hook(tracer, args, kwargs, out):
        bound = _bind(integrate, args, kwargs)
        state, t_end, dt = bound.get("state"), bound.get("t_end"), bound.get("dt")
        if state is not None and t_end is not None and dt:
            tracer.counters["dynamics.integrate.steps"] += max(0, int(round((t_end - state.t) / dt)))

    return hook


def install_integrate_timer(tracer):
    """The one wrapper of the untraced run: time and steps of integrate."""
    from intertwine import dynamics

    tracer.wrap_function(
        dynamics, "integrate", "dynamics.integrate", count_steps(dynamics.integrate)
    )


def install_layers(tracer):
    """Wrap the public functions of every layer named in the README."""
    import numpy.fft
    import scipy.fft

    from intertwine import diagnostics, dynamics, forcing, harness, oracle, spectral, verify

    for fft_module in (numpy.fft, scipy.fft):
        for attr in FFT_FUNCTIONS:
            tracer.wrap_function(fft_module, attr, "fft", _fft_bytes)

    for attr in ("bilinear_B", "leray_project", "alias_energy", "hm_norm", "linf_norm"):
        tracer.wrap_function(spectral, attr, f"spectral.{attr}")

    def count_folded(tr, args, kwargs, out):
        folded = kwargs.get("fold_coupling", args[2] if len(args) > 2 else False)
        if folded:
            tr.counters["dynamics.step.folded_calls"] += 1

    tracer.wrap_function(dynamics, "step", "dynamics.step", count_folded)
    install_integrate_timer(tracer)

    pending = [forcing.Forcing]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        tracer.wrap_method(cls, "__call__", "forcing.eval")

    for attr in ("sample_record", "write_timeseries_csv"):
        tracer.wrap_function(diagnostics, attr, f"diagnostics.{attr}")
    for attr, value in sorted(vars(diagnostics).items()):
        if callable(value) and (attr.startswith(CONDITION_PREFIXES) or attr in CONDITION_NAMES):
            tracer.wrap_function(diagnostics, attr, "diagnostics.conditions")

    for attr in ("parse_config_text", "build_state", "run_scenario"):
        tracer.wrap_function(harness, attr, f"harness.{attr}")
    tracer.wrap_function(harness, "checkpoint_save", "harness.checkpoint_save", _checkpoint_bytes)

    for attr in ("dense_bilinear_B", "dense_trajectory"):
        tracer.wrap_function(oracle, attr, f"oracle.{attr}")
    for attr in ("identity_suite", "oracle_suite", "heat_suite"):
        tracer.wrap_function(verify, attr, f"verify.{attr}")
