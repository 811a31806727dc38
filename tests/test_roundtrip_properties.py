"""Property tests: config text and checkpoints round-trip exactly."""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine import dynamics as dyn
from intertwine import forcing as fr
from intertwine import harness as hz
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
