"""Property tests: config text and checkpoints round-trip exactly, and the
stepper agrees with the dense oracle over the valid config space."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import harness as hz
from intertwine import oracle as orc
from intertwine import spectral as sp

finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6, allow_nan=False)
gain = st.floats(0.0, 1e3, allow_nan=False)
nonnegative = st.floats(0.0, 1e6, allow_nan=False)
unit = st.floats(0.0, 1.0, allow_nan=False)
word = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1, max_size=12)

PARSED_AS = {
    hz._int: st.integers(0, 2**64 - 1),
    str: word,
    hz._floats: st.lists(finite, max_size=4).map(tuple),
}


def mode_lists(radius):
    """initial.modes text whose modes lie inside the dealias radius."""
    r = int(radius / 2**0.5)
    mode = st.tuples(st.integers(-r, r), st.integers(-r, r), *[finite] * 4)
    return st.lists(mode.map(lambda m: ",".join(repr(x) for x in m)), min_size=1, max_size=3).map(
        "; ".join
    )


def _field_strategy(f):
    choices = f.metadata["choices"]
    if choices is not None:
        return st.sampled_from(choices)
    return PARSED_AS.get(f.metadata["parse"], finite)


@st.composite
def configs(draw):
    """Any value the field table allows, then the constraints validate checks."""
    values = {f.name: draw(_field_strategy(f)) for f in fields(hz.ExperimentConfig)}
    values["n"] = 2 * draw(st.integers(2, 256))
    values["dealias_radius"] = draw(st.none() | st.floats(1.0, values["n"] / 3.0))
    limit = values["dealias_radius"] or values["n"] / 3.0
    values["K"] = draw(st.floats(0.0, limit))
    values["wavenumber"] = draw(st.integers(1, int(limit)))
    values["initial_modes"] = draw(mode_lists(limit))
    for name in ("nu", "dt", "sample_every"):
        values[name] = draw(positive)
    values["t_end"] = values["dt"] * draw(st.integers(1, 10**6))
    values["mu1"], values["mu2"] = sorted((draw(gain), draw(gain)), reverse=True)
    values["theta1"] = draw(unit)
    values["theta2"] = 1.0 - values["theta1"]
    # every sweep point's K and matrix must be valid too
    values["sweep_K"] = tuple(draw(st.lists(st.floats(0.0, limit), max_size=4)))
    values["sweep_mu"] = tuple(draw(st.lists(gain, max_size=4)))
    values["sweep_theta1"] = tuple(draw(st.lists(unit, max_size=4)))
    values["threads"] = draw(st.integers(1, 2**64 - 1))
    values["max_wavenumber"] = draw(st.none() | positive)
    for name in ("energy", "difference_scale", "decay_threshold", "pair_delta_max_wavenumber"):
        values[name] = draw(nonnegative)
    values["pair_decay_rate"] = draw(positive)
    values["constants_file"] = draw(st.none() | word)
    return hz.ExperimentConfig(**values).validate()


@settings(max_examples=200, deadline=None)
@given(configs())
def test_parse_serialize_parse(cfg):
    text = hz.serialize_config(cfg)
    again = hz.parse_config_text(text)
    assert again == cfg
    assert hz.serialize_config(again) == text


def _params(kind, draw):
    if kind in (dyn.NUDGE_SYMMETRIC, dyn.NUDGE_MUTUAL):
        return sorted((draw(gain), draw(gain)), reverse=True)
    if kind in (dyn.DR_SYMMETRIC, dyn.DR_MUTUAL):
        theta1 = draw(unit)
        return theta1, 1.0 - theta1
    return [draw(finite) for _ in dyn.COUPLING_CLASSES[kind].params]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(dyn.COUPLING_CLASSES)),
    n=st.sampled_from((4, 6, 8, 12)),
    radius_fraction=st.floats(0.05, 1.0),
    t=finite,
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_checkpoint_roundtrip_bit_exact(tmp_path_factory, kind, n, radius_fraction, t, seed, data):
    spec = dyn.COUPLING_CLASSES[kind]
    matrix = spec.build(*_params(kind, data.draw))
    grid = sp.Grid(n, radius_fraction * n / 3.0)
    rng = np.random.default_rng(seed)
    pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid)))
    state = dyn.IntertwinedState(
        grid=grid, t=t, nu=0.1, K=data.draw(st.floats(0.0, grid.dealias_radius)), matrix=matrix,
        v1=sp.random_field(grid, rng), v2=sp.random_field(grid, rng), forcing=pair,
    )
    path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
    hz.checkpoint_save(state, path, seed=seed)
    loaded, loaded_seed = hz.checkpoint_load(path)
    assert loaded_seed == seed
    assert loaded.grid == grid
    assert (loaded.t, loaded.nu, loaded.K) == (state.t, state.nu, state.K)
    assert loaded.matrix.kind == matrix.kind and loaded.matrix.params == matrix.params
    assert loaded.v1.coeffs.tobytes() == state.v1.coeffs.tobytes()
    assert loaded.v2.coeffs.tobytes() == state.v2.coeffs.tobytes()
    again = path.with_name("again.ckpt")
    hz.checkpoint_save(loaded, again, seed=loaded_seed)
    assert again.read_bytes() == path.read_bytes()


FORCE_KINDS = ("kolmogorov", "time_periodic", "decaying_pair")


def shell_cutoffs(radius):
    """Every radius |k| of a lattice shell in the ball |k| <= radius, 0
    included, and 1e-10 either side of it, that is a valid cutoff K."""
    r = int(radius)
    shells = {math.hypot(kx, ky) for kx in range(r + 1) for ky in range(r + 1)}
    cutoffs = {s + d for s in shells for d in (-1e-10, 0.0, 1e-10)}
    return sorted(K for K in cutoffs if K >= 0.0 and sp.in_ball(K, radius))


def _members(draw, kind):
    """Three states from valid configs on one grid (n in {8, 10, 12}, so
    the dense box radius is at most 4) with one nu and t: the first of the
    coupling class kind under the self_sync scenario, the others of any
    class and scenario; among them all three force kinds."""
    n = draw(st.sampled_from((8, 10, 12)))
    radius = draw(st.none() | st.floats(1.0, n / 3.0))
    limit = radius or n / 3.0
    shift = draw(st.integers(0, 2))
    states, shared = [], {}
    for p in range(3):
        cfg = draw(configs())
        if p == 0:
            cfg = replace(cfg, coupling_class=kind, scenario="self_sync")
        cfg = replace(
            cfg, n=n, dealias_radius=radius, K=draw(st.sampled_from(shell_cutoffs(limit))),
            wavenumber=draw(st.integers(1, int(limit))), initial_modes=draw(mode_lists(limit)),
            forcing_kind=FORCE_KINDS[(p + shift) % 3], sweep_K=(), constants_file=None, **shared,
        )
        shared = shared or {"nu": cfg.nu, "dt": cfg.dt, "t_end": cfg.dt}
        try:
            state = hz.build_state(cfg.validate())
        except hz.ConfigInvalid:
            reject()  # a valid config that its scenario refuses (no modes above K, say)
        states.append(state)
    dt = shared["dt"]
    t = dt * draw(st.integers(0, 10**6))
    return [replace(state, t=t) for state in states], dt


def term_scale(state):
    """The size of the terms the right-hand sides sum, which sets their
    roundoff: per copy |g_i| + nu |A v_i| + |v_i| + |v_i| |v_i|_V, the last
    for B(v_i, v_i), which may cancel to nothing (on one shell of modes, say)
    while its roundoff does not; the larger of the two, times 1 plus the
    largest row sum of |M| for the coupling terms."""
    gain = np.abs(state.matrix.entries).sum(axis=1).max()
    sizes = [g(state.t).l2 + state.nu * sp.stokes_apply(v, 2).l2 + v.l2 * (1.0 + v.h1)
             for g, v in ((state.forcing.g1, state.v1), (state.forcing.g2, state.v2))]
    return (1.0 + gain) * max(sizes)


@pytest.mark.parametrize("kind", sorted(dyn.COUPLING_CLASSES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_stepper_matches_dense_oracle_and_lone_runs(kind, data, tmp_path_factory):
    # the stepper's right-hand side against the dense oracle's, to 1e-11
    # relative to the terms it sums, each member bit-exact through a
    # checkpoint, and each ensemble member bitwise its lone run, for drawn
    # configs whose cutoff sits on a shell of modes or 1e-10 off it
    states, dt = _members(data.draw, kind)
    path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
    for seed, state in enumerate(states):
        f1, f2 = dyn.rhs_general(state)
        e1, e2 = orc._dense_pair_rhs(state)
        gap = max((f1 - e1).l2, (f2 - e2).l2)
        assert gap <= 1e-11 * term_scale(state), (state.K, state.matrix, gap)
        hz.checkpoint_save(state, path, seed=seed)
        back, back_seed = hz.checkpoint_load(path)
        assert back_seed == seed
        assert (back.t, back.nu, back.K) == (state.t, state.nu, state.K)
        assert (back.matrix.kind, back.matrix.params) == (state.matrix.kind, state.matrix.params)
        assert (back.grid.n, back.grid.dealias_radius) == (state.grid.n, state.grid.dealias_radius)
        assert back.v1.half.tobytes() == state.v1.half.tobytes()
        assert back.v2.half.tobytes() == state.v2.half.tobytes()
    t_end = states[0].t + 3 * dt
    ensemble = dyn.integrate_many(states, t_end, dt, cfl_factor=None)
    for state, member in zip(states, ensemble):
        try:
            lone = dyn.integrate(state, t_end, dt, cfl_factor=None)
        except dyn.BlowupDetected as exc:
            assert isinstance(member, dyn.BlowupDetected) and member.t == exc.t
            continue
        assert lone.t == member.t
        assert lone.v1.half.tobytes() == member.v1.half.tobytes()
        assert lone.v2.half.tobytes() == member.v2.half.tobytes()
