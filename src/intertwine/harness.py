"""Experiment configuration, scenario library, and artifact persistence.

Configs are flat INI-style text (sections of key = value lines, no nesting);
parsing is strict: unknown sections or keys fail with the offending line
number, and class constraints are enforced at parse time.  Every run
directory receives the config copy, the constants file used, the CSV series,
condition reports, a final checkpoint and a manifest, all written atomically.
"""

from __future__ import annotations

import json
import math
import os
import platform
import struct
import sys
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import diagnostics as diag
from . import dynamics as dyn
from . import forcing as fr
from . import spectral as sp
from .atomic import IoError, write_bytes, write_text
from .diagnostics import ConditionReport, ConstantsConfig, TimeSeriesRecord

SCENARIOS = (
    "self_sync",
    "fdss_determining_modes",
    "reconstruction_nudge",
    "reconstruction_dr",
    "regime_sweep",
)


class ParseError(ValueError):
    """Malformed config file or violated field constraint."""


class ConfigInvalid(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


def _int(value: str) -> int:
    """An exact integer: integer literals as written, else an integral float."""
    try:
        return int(value)
    except ValueError:
        number = float(value)
        if not number.is_integer():
            raise
        return int(number)


def _floats(value: str) -> tuple:
    return tuple(float(part) for part in value.split(",") if part.strip())


def _parse_mode_list(text: str):
    """Parse "kx,ky,re_x,im_x,re_y,im_y ; ..." into field_from_modes entries."""
    entries = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        parts = chunk.split(",")
        if len(parts) != 6:
            raise ValueError("each initial mode needs six numbers: kx, ky, re_x, im_x, re_y, im_y")
        kx, ky = _int(parts[0]), _int(parts[1])
        rex, imx, rey, imy = (float(p) for p in parts[2:])
        entries.append((kx, ky, (complex(rex, imx), complex(rey, imy))))
    return entries


def _modes(value: str) -> str:
    """The initial.modes text, checked to parse as a mode list."""
    _parse_mode_list(value)
    return value


# a field's domain: (inside(value, dealias radius), the fault of a finite
# value outside it); every number must also be finite
_FINITE = (lambda x, radius: True, "")
_POSITIVE = (lambda x, radius: x > 0, "is not positive")
_NONNEGATIVE = (lambda x, radius: x >= 0, "is negative")
_COUNT = (lambda x, radius: x >= 1, "must be at least 1")
# the checkpoint stores the seed as a u64
_SEED = (lambda x, radius: 0 <= x < 2**64, "lies outside [0, 2^64)")


def _up_to_dealias(least: float):
    return (lambda x, radius: x >= least and sp.in_ball(x, radius),
            f"lies outside [{least:g}, {{radius:g}}], the dealias radius")


def _key(slot: str, parse=float, choices=None, domain=_FINITE, **kwargs):
    """A config field read from the INI key slot "section.key".

    parse turns the raw text into the value; a value outside choices is
    rejected; validate rejects a number outside domain (None for a field
    that is not a number), and a value of None is unset; a field without a
    default is a required key.
    """
    metadata = {"ini": slot, "parse": parse, "choices": choices, "domain": domain}
    return field(metadata=metadata, **kwargs)


def _choice(slot: str, choices, default=MISSING):
    return _key(slot, str.lower, tuple(choices), domain=None, default=default)


@dataclass
class ExperimentConfig:
    """Validated experiment description, one value per physical knob.

    The fields are the config schema: each carries its INI key, parser,
    allowed values and, for a number, its domain in its metadata, and its
    default.
    """

    n: int = _key("grid.n", _int)
    nu: float = _key("physics.nu", domain=_POSITIVE)
    K: float = _key("physics.K", domain=_up_to_dealias(0))
    coupling_class: str = _choice("coupling.class", dyn.COUPLING_CLASSES)
    dt: float = _key("time.dt", domain=_POSITIVE)
    t_end: float = _key("time.t_end", domain=_POSITIVE)
    sample_every: float = _key("time.sample_every", domain=_NONNEGATIVE, default=0.0)
    dealias_radius: float | None = _key("grid.dealias_radius", default=None)
    mu1: float = _key("coupling.mu1", default=0.0)
    mu2: float = _key("coupling.mu2", default=0.0)
    theta1: float = _key("coupling.theta1", default=0.0)
    theta2: float = _key("coupling.theta2", default=0.0)
    m11: float = _key("coupling.m11", default=0.0)
    m12: float = _key("coupling.m12", default=0.0)
    m21: float = _key("coupling.m21", default=0.0)
    m22: float = _key("coupling.m22", default=0.0)
    forcing_kind: str = _choice(
        "forcing.kind", ("kolmogorov", "time_periodic", "decaying_pair"), "kolmogorov"
    )
    amplitude: float = _key("forcing.amplitude", default=0.0)
    wavenumber: int = _key("forcing.wavenumber", _int, domain=_up_to_dealias(1), default=2)
    omega: float = _key("forcing.omega", default=0.0)
    pair_delta_amplitude: float = _key("forcing.pair_delta_amplitude", default=0.0)
    pair_decay_rate: float = _key("forcing.pair_decay_rate", domain=_POSITIVE, default=1.0)
    pair_delta_max_wavenumber: float = _key(
        "forcing.pair_delta_max_wavenumber", domain=_NONNEGATIVE, default=2.0
    )
    initial_kind: str = _choice("initial.kind", ("random", "modes"), "random")
    initial_modes: str = _key("initial.modes", _modes, domain=None, default="")
    energy: float = _key("initial.energy", domain=_NONNEGATIVE, default=1.0)
    spectrum_slope: float = _key("initial.spectrum_slope", default=2.0)
    max_wavenumber: float | None = _key("initial.max_wavenumber", domain=_POSITIVE, default=None)
    difference: str = _choice("initial.difference", ("none", "random", "high_modes"), "random")
    difference_scale: float = _key("initial.difference_scale", domain=_NONNEGATIVE, default=1.0)
    out_dir: str = _key("output.dir", str, domain=None, default="runs")
    seed: int = _key("output.seed", _int, domain=_SEED, default=0)
    decay_threshold: float = _key("output.decay_threshold", domain=_NONNEGATIVE, default=1e-6)
    constants_file: str | None = _key("output.constants_file", str, domain=None, default=None)
    scenario: str = _choice("output.scenario", SCENARIOS, "self_sync")
    threads: int = _key("output.threads", _int, domain=_COUNT, default=1)
    sweep_K: tuple = _key("sweep.K", _floats, domain=_up_to_dealias(0), default=())
    sweep_mu: tuple = _key("sweep.mu", _floats, default=())
    sweep_theta1: tuple = _key("sweep.theta1", _floats, default=())

    def validate(self):
        try:
            grid_limit = sp.grid_dealias_radius(self.n, self.dealias_radius)
        except ValueError as exc:
            raise ParseError(f"constraint violated: {exc}") from exc
        # every number is finite and inside its field's domain
        for f in fields(self):
            domain, value = f.metadata["domain"], getattr(self, f.name)
            if domain is None or value is None:
                continue
            inside, fault = domain
            for x in value if isinstance(value, tuple) else (value,):
                # an int is exact and finite; float() of a huge one overflows
                shown = x if isinstance(x, int) else f"{x:g}"
                if not (isinstance(x, int) or math.isfinite(x)):
                    raise ParseError(f"constraint violated: {f.name} = {shown} is not finite")
                if not inside(x, grid_limit):
                    raise ParseError(f"constraint violated: {f.name} = {shown} {fault.format(radius=grid_limit)}")
        if self.initial_kind == "modes":
            modes = _parse_mode_list(self.initial_modes)
            if not modes:
                raise ParseError("constraint violated: initial kind = modes needs a nonempty modes list")
            outside = [(kx, ky) for kx, ky, _ in modes if not sp.in_ball(math.hypot(kx, ky), grid_limit)]
            if outside:
                raise ParseError(
                    f"constraint violated: initial modes {outside} lie outside the dealias radius {grid_limit:g}"
                )
        try:
            dyn.step_count(self.t_end, self.dt)
            # the config's matrix and every sweep point's
            for _, point in _sweep_points(self):
                build_matrix(point)
        except ValueError as exc:
            raise ParseError(f"constraint violated: {exc}") from exc
        return self


# INI slot (lower case, as parsed) -> field
_FIELDS = {f.metadata["ini"].lower(): f for f in fields(ExperimentConfig)}
_SECTIONS = {slot.partition(".")[0] for slot in _FIELDS}


def _parse_kv_lines(text: str):
    """Yield (line_number, section, key, value) with strict syntax checking."""
    section = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ParseError(f"line {num}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(f"line {num}: expected key = value, got {raw!r}")
        if section is None:
            raise ParseError(f"line {num}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.split("#", 1)[0].strip()
        if f"{section}.{key}" not in _FIELDS:
            raise ParseError(f"line {num}: unknown key {key!r} in section [{section}]")
        yield num, section, key, value


def _parse_value(num, f, raw):
    slot, parse, choices = f.metadata["ini"], f.metadata["parse"], f.metadata["choices"]
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ParseError(f"line {num}: bad value {raw!r} for {slot}: {exc}") from None
    if choices is not None and value not in choices:
        raise ParseError(
            f"line {num}: unknown {slot.replace('.', ' ')} {raw!r} (one of: {', '.join(choices)})"
        )
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict = {}
    for num, section, key, raw in _parse_kv_lines(text):
        f = _FIELDS[f"{section}.{key}"]
        if f.name in values:
            raise ParseError(f"line {num}: duplicate key {key!r} in [{section}]")
        values[f.name] = _parse_value(num, f, raw)
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in values:
            raise ParseError(f"missing required key {f.metadata['ini'].replace('.', ': ', 1)}")
    cfg = ExperimentConfig(**values)
    if not cfg.sample_every:
        cfg.sample_every = max(cfg.dt, cfg.t_end / 200.0)
    return cfg.validate()


def config_slots(text: str) -> set:
    """The INI slots ("section.key") that the config text sets."""
    return {f"{section}.{key}" for _, section, key, _ in _parse_kv_lines(text)}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """INI text for every field that holds a value (None, "" and () are unset)."""
    sections: dict = {}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if value is None or (isinstance(value, (str, tuple)) and not value):
            continue
        section, _, key = f.metadata["ini"].partition(".")
        sections.setdefault(section, []).append(f"{key} = {_format_value(value)}")
    return "\n\n".join(f"[{name}]\n" + "\n".join(lines) for name, lines in sections.items()) + "\n"


# ---------------------------------------------------------------------------
# construction from config


def build_grid(cfg: ExperimentConfig) -> sp.Grid:
    return sp.Grid(cfg.n, cfg.dealias_radius)


def build_matrix(cfg: ExperimentConfig) -> dyn.IntertwiningMatrix:
    spec = dyn.COUPLING_CLASSES[cfg.coupling_class]
    return spec.build(*(getattr(cfg, name) for name in spec.params))


def build_forcing(cfg: ExperimentConfig, grid: sp.Grid, rng: np.random.Generator) -> fr.ForcingPair:
    base_field = fr.kolmogorov_force(grid, cfg.amplitude, cfg.wavenumber)
    if cfg.forcing_kind == "time_periodic":
        base = fr.TimePeriodicForcing(base_field, cfg.omega)
    else:
        base = fr.SteadyForcing(base_field)
    if cfg.forcing_kind == "decaying_pair" or cfg.pair_delta_amplitude != 0.0:
        delta = sp.random_field(
            grid, rng, energy=cfg.pair_delta_amplitude, slope=2.0,
            kmax=cfg.pair_delta_max_wavenumber,
        )
        return fr.ForcingPair.decaying_delta(base, delta, cfg.pair_decay_rate)
    return fr.ForcingPair.synchronized(base)


def build_initial(cfg: ExperimentConfig, grid: sp.Grid, rng: np.random.Generator, kmax: float):
    """Initial pair (v1, v2) per config, random fields reaching |k| = kmax;
    the RNG stream order is fixed."""
    if cfg.initial_kind == "modes":
        v1 = sp.field_from_modes(grid, _parse_mode_list(cfg.initial_modes))
    else:
        v1 = sp.random_field(grid, rng, energy=cfg.energy, slope=cfg.spectrum_slope, kmax=kmax)
    if cfg.difference == "none":
        return v1, v1.copy()
    if cfg.difference == "random":
        offset = sp.random_field(grid, rng, energy=cfg.difference_scale, slope=cfg.spectrum_slope, kmax=kmax)
        return v1, v1 + offset
    # high_modes: offset supported strictly above the cutoff K
    raw = sp.random_field(grid, rng, energy=1.0, slope=cfg.spectrum_slope, kmax=grid.dealias_radius)
    offset = sp.project_high(raw, cfg.K)
    amp = offset.l2
    if amp == 0.0:
        raise ConfigInvalid("no modes available above the cutoff for a high-mode difference")
    return v1, v1 + (cfg.difference_scale / amp) * offset


def build_state(cfg: ExperimentConfig, scenario: str | None = None) -> dyn.IntertwinedState:
    """The state of cfg wired per scenario (default cfg.scenario): grid,
    forces and initial pair drawn from one rng seeded by cfg.seed."""
    scenario = scenario or cfg.scenario
    grid = build_grid(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    matrix = build_matrix(cfg)
    if scenario == "fdss_determining_modes":
        matrix = dyn.IntertwiningMatrix.zero()
    elif scenario == "reconstruction_nudge":
        matrix = dyn.IntertwiningMatrix.nudge_mutual(0.0, max(cfg.mu1, cfg.mu2))
    elif scenario == "reconstruction_dr":
        matrix = dyn.IntertwiningMatrix.dr_mutual(0.0, 1.0)
    forcing = build_forcing(cfg, grid, rng)
    kmax = cfg.max_wavenumber if cfg.max_wavenumber is not None else grid.dealias_radius
    v1, v2 = build_initial(cfg, grid, rng, kmax)
    if scenario in ("reconstruction_nudge", "reconstruction_dr"):
        # the observer starts from the observed low modes of the truth
        v2 = sp.project_low(v1, cfg.K)
        if sp.project_high(v1, cfg.K).l2 == 0.0:
            if cfg.initial_kind == "modes":
                cause = "the initial modes lie inside the cutoff"
            else:
                cause = f"max_wavenumber = {kmax:g} <= K"
            raise ConfigInvalid(
                f"{scenario}: the observer starts equal to the truth, since {cause} "
                f"(K = {cfg.K:g}); the error |v1 - v2| is 0 from t = 0"
            )
    return dyn.IntertwinedState(
        grid=grid, t=0.0, nu=cfg.nu, K=cfg.K, matrix=matrix, v1=v1, v2=v2, forcing=forcing
    )


def _load_constants(cfg: ExperimentConfig) -> ConstantsConfig:
    """The constants of cfg.constants_file, or the shipped ones when unset.

    A file that cannot be read or parsed raises ConfigInvalid.
    """
    if not cfg.constants_file:
        return diag.default_constants()
    try:
        with open(cfg.constants_file, encoding="utf-8") as fh:
            return ConstantsConfig.from_json(fh.read())
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigInvalid(f"constants file {cfg.constants_file!r}: {exc}") from None


def _make_out_dir(out_dir: str) -> None:
    """Create out_dir; a directory that cannot be created raises ConfigInvalid."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"output directory {out_dir!r}: {exc}") from None


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"ITWN"
_CKPT_VERSION = 2
# after the magic: v1 header (two matrix params, radius n/3 implied) and v2
_CKPT_HEADS = {1: struct.Struct("<IddIdBddQ"), 2: struct.Struct("<IddIddBddddQ")}
_CKPT_CRC = struct.Struct("<I")


def _field_bytes(u: sp.SpectralField) -> bytes:
    # the full spectrum, row-major over k (ky, kx); per mode: component 0
    # (re, im), component 1 (re, im), as little-endian f8
    return np.moveaxis(u.coeffs, 0, 2).astype("<c16").tobytes()


def _field_from_bytes(grid: sp.Grid, blob: bytes) -> sp.SpectralField:
    # read as complex, without the arithmetic (re + 1j*im) that flips the sign
    # of negative zeros; the columns kx >= 0 are the field
    full = np.frombuffer(blob, dtype="<c16").reshape(grid.n, grid.n, 2)
    half = np.moveaxis(full[:, : grid.n // 2 + 1], 2, 0)
    return sp.SpectralField(grid, np.ascontiguousarray(half, dtype=np.complex128))


def checkpoint_save(state: dyn.IntertwinedState, path, seed: int = 0) -> None:
    """Binary checkpoint, little-endian, bit-exact round trip.

    Layout (version 2): magic "ITWN", u32 version, f64 nu, f64 t, u32 n,
    f64 dealias radius, f64 K, u8 matrix class code, four f64 matrix params
    (zero-padded), u64 seed, the v1 and v2 coefficient blocks, and a u32
    CRC32 of everything before it.  The forcing is not serialized; it is
    rebuilt from the config on load.
    """
    m = state.matrix
    params = (m.params + (0.0,) * 4)[:4]
    header = _CKPT_MAGIC + _CKPT_HEADS[_CKPT_VERSION].pack(
        _CKPT_VERSION, state.nu, state.t, state.grid.n, state.grid.dealias_radius, state.K,
        dyn.COUPLING_CLASSES[m.kind].code, *params, seed,
    )
    payload = header + _field_bytes(state.v1) + _field_bytes(state.v2)
    write_bytes(path, payload + _CKPT_CRC.pack(zlib.crc32(payload)))


def checkpoint_load(path) -> tuple[dyn.IntertwinedState, int]:
    """Load a checkpoint (version 1 or 2); the state carries a zero forcing pair."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise IoError(f"{path}: not a checkpoint (bad magic)")
    try:
        (version,) = struct.unpack_from("<I", blob, 4)
        if version not in _CKPT_HEADS:
            raise IoError(f"{path}: unsupported checkpoint version {version}")
        head = _CKPT_HEADS[version]
        values = head.unpack_from(blob, 4)
    except struct.error as exc:
        raise IoError(f"{path}: truncated checkpoint header") from exc
    if version == 1:
        _, nu, t, n, K, code, p1, p2, seed = values
        radius, params, crc_size = None, (p1, p2, 0.0, 0.0), 0
    else:
        _, nu, t, n, radius, K, code, *params, seed = values
        crc_size = _CKPT_CRC.size
    offset = 4 + head.size
    block = n * n * 2 * 2 * 8
    end = offset + 2 * block
    if len(blob) < end + crc_size:
        raise IoError(f"{path}: truncated coefficient blocks")
    if crc_size and _CKPT_CRC.unpack_from(blob, end)[0] != zlib.crc32(blob[:end]):
        raise IoError(f"{path}: checksum mismatch")
    spec = dyn.COUPLING_BY_CODE.get(code)
    if spec is None:
        raise IoError(f"{path}: unknown matrix class code {code}")
    matrix = spec.build(*params[: len(spec.params)])
    grid = sp.Grid(n, radius)
    v1 = _field_from_bytes(grid, blob[offset : offset + block])
    v2 = _field_from_bytes(grid, blob[offset + block : end])
    zero_pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid)))
    state = dyn.IntertwinedState(
        grid=grid, t=t, nu=nu, K=K, matrix=matrix, v1=v1, v2=v2, forcing=zero_pair
    )
    return state, seed


# ---------------------------------------------------------------------------
# scenario library

FDM_LADDER = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0)


@dataclass
class ScenarioResult:
    """What a scenario run produced: verdicts, reports, artifact paths."""

    scenario: str
    out_dir: str
    decayed: bool | None = None
    decay_l2: diag.DecayFit | None = None
    decay_h1: diag.DecayFit | None = None
    final_ratio: float = math.nan
    reports: list = field(default_factory=list)
    blowup: bool = False
    blowup_t: float = math.nan
    extras: dict = field(default_factory=dict)


def _collect_series(records: list[TimeSeriesRecord], column: str):
    return [(rec.t, getattr(rec, column)) for rec in records]


def _condition_reports(state0, records, constants, nu) -> list[ConditionReport]:
    """The reports of the run's regime; none for a class without one."""
    regime = diag.regime_for(state0.matrix)
    return regime.reports(state0, records, constants, nu) if regime else []


def _integrate_with_records(cfg, state, extra_sink=None):
    """Integrate the state per cfg, sampling a record per sample.

    Returns (final state, records, blow-up): the final state is None and
    the blow-up its BlowupDetected when the run blew up, and the records
    then hold the samples taken before it.
    """
    records: list[TimeSeriesRecord] = []

    def sink(snapshot):
        records.append(diag.sample_record(snapshot))
        if extra_sink is not None:
            extra_sink(snapshot)

    final, blowup = None, None
    try:
        final = dyn.integrate(state, cfg.t_end, dt=cfg.dt, sample_every=cfg.sample_every, sink=sink)
    except dyn.BlowupDetected as exc:
        blowup = exc
    diag.fill_energy_residuals(records, cfg.nu)
    return final, records, blowup


def _write_manifest(cfg, out_dir, result) -> None:
    manifest = {
        "package": "intertwine",
        "version": __import__("intertwine").__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": cfg.seed,
        "scenario": result.scenario,
        "decayed": result.decayed,
        "final_ratio": None if math.isnan(result.final_ratio) else result.final_ratio,
        "blowup": result.blowup,
    }
    write_text(
        os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True)
    )


def run_scenario(cfg: ExperimentConfig, kind: str | None = None, out_dir=None) -> ScenarioResult:
    """Run one scenario and persist its artifacts; returns the verdict bundle.

    self_sync integrates the configured coupling from distinct initial states
    under a synchronous force pair and reports decay of |w| and of its V norm;
    the reconstruction scenarios wire the endpoint one-directional couplings
    (truth plus observer); fdss_determining_modes runs the uncoupled pair with
    a decaying force offset and tabulates low-mode versus full-state decay;
    regime_sweep fans self_sync over parameter grids.

    The run's own artifacts (config.ini, constants.json, series.csv and
    final.ckpt) are written before any verdict is formed, then conditions.*
    and fdm_table.csv, and manifest.json last, so that its presence marks a
    complete run.  A run that blows up keeps the samples it took, and has
    no decay verdict, final ratio, condition reports or determining-modes
    verdict.  An output directory that cannot be created raises
    ConfigInvalid before the first step.
    """
    kind = (kind or cfg.scenario).lower()
    if kind not in SCENARIOS:
        raise ConfigInvalid(f"unknown scenario {kind!r}")
    out_dir = os.fspath(out_dir or cfg.out_dir)
    if kind == "regime_sweep":
        return _run_sweep(cfg, out_dir)

    state = build_state(cfg, scenario=kind)
    constants = _load_constants(cfg)
    _make_out_dir(out_dir)
    result = ScenarioResult(scenario=kind, out_dir=out_dir)
    cfg = replace(cfg, scenario=kind)

    ladder_rows = []
    extra_sink = None
    if kind == "fdss_determining_modes":
        ladder = [N for N in FDM_LADDER if N <= state.grid.dealias_radius]

        def extra_sink(snapshot):
            w = snapshot.v1 - snapshot.v2
            ladder_rows.append((snapshot.t, [sp.project_low(w, N).l2 for N in ladder]))

    final_state, records, blowup = _integrate_with_records(cfg, state, extra_sink)
    if blowup is not None:
        result.blowup = True
        result.blowup_t = blowup.t

    write_text(os.path.join(out_dir, "config.ini"), serialize_config(cfg))
    write_text(os.path.join(out_dir, "constants.json"), constants.to_json())
    diag.write_timeseries_csv(os.path.join(out_dir, "series.csv"), records)
    if final_state is not None:
        checkpoint_save(final_state, os.path.join(out_dir, "final.ckpt"), seed=cfg.seed)

    if records and not result.blowup:
        l2_series = _collect_series(records, "l2_w")
        h1_series = _collect_series(records, "h1_w")
        try:
            result.decay_l2 = diag.decay_detect(l2_series)
            result.decay_h1 = diag.decay_detect(h1_series)
        except diag.InsufficientData:
            pass
        initial, final = l2_series[0][1], l2_series[-1][1]
        if initial > 0:
            result.final_ratio = final / initial
        # the scenario verdict is the finite-horizon rule; the fits above
        # are diagnostics
        result.decayed = diag.decayed(initial, final, cfg.decay_threshold)
        result.reports = _condition_reports(state, records, constants, cfg.nu)
    diag.write_condition_reports(out_dir, result.reports)

    if ladder_rows:
        _write_fdm_table(out_dir, ladder, ladder_rows)
        if not result.blowup:
            result.extras["fdm"] = _fdm_verdicts(cfg, ladder, ladder_rows, result)

    _write_manifest(cfg, out_dir, result)
    return result


def _fdm_verdicts(cfg, ladder, rows, result):
    """Per-N decay verdicts and the empirical determining-modes threshold.

    The threshold proxy is the smallest ladder N whose low-mode verdict
    agrees with the full-state verdict from that N upward; the asymptotic
    dimension itself is not computable from a finite run.
    """
    per_n = [diag.decayed(first, last, cfg.decay_threshold) for first, last in zip(rows[0][1], rows[-1][1])]
    full = bool(result.decayed)
    threshold = next((N for j, N in enumerate(ladder) if all(d == full for d in per_n[j:])), None)
    # the implication "low modes decayed => full state decayed" must hold at
    # and above the threshold; smaller N may disagree (below the determining
    # dimension) without contradiction.  Every rung from the threshold up
    # equals the full verdict by construction, so the implication holds
    # there exactly when a threshold exists
    consistent = threshold is not None
    return {
        "ladder": list(ladder),
        "low_mode_decayed": per_n,
        "full_decayed": full,
        "threshold_proxy": threshold,
        "implication_consistent": consistent,
    }


def _write_fdm_table(out_dir, ladder, rows):
    header = ["t"] + [f"l2_P{N:g}_w" for N in ladder]
    diag.write_csv(os.path.join(out_dir, "fdm_table.csv"), header, ([t, *vals] for t, vals in rows))


# ---------------------------------------------------------------------------
# parameter sweeps


def _sweep_points(cfg: ExperimentConfig) -> list:
    """(point, config) per sweep point: (K, mu) points for the nudging
    classes, (K, theta1) for direct replacement, K alone at mu = 0 for the
    others."""
    matrix = build_matrix(cfg)
    if matrix.is_nudging:
        name, values = "mu", cfg.sweep_mu or (max(cfg.mu1, cfg.mu2),)
        updates = lambda v: {"mu1": v, "mu2": v}
    elif matrix.is_direct_replacement:
        name, values = "theta1", cfg.sweep_theta1 or (cfg.theta1,)
        updates = lambda v: {"theta1": v, "theta2": 1.0 - v}
    else:
        name, values = "mu", (0.0,)
        updates = lambda v: {}
    base = replace(cfg, sweep_K=(), sweep_mu=(), sweep_theta1=())
    return [
        ({"K": float(K), name: float(v)}, replace(base, K=float(K), **updates(float(v))))
        for K in cfg.sweep_K or (cfg.K,)
        for v in values
    ]


def _run_sweep_point(args):
    pcfg, point, index, out_dir = args
    pdir = os.path.join(out_dir, f"point_{index:03d}")
    try:
        res = run_scenario(pcfg, kind="self_sync", out_dir=pdir)
    except Exception as exc:  # one failing point must not end the sweep
        print(f"sweep point {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return {**point, "index": index, "error": f"{type(exc).__name__}: {exc}"}
    regime = diag.regime_for(build_matrix(pcfg))
    sync = regime.sync if regime else None
    row = {
        **point,
        "index": index,
        "decayed": res.decayed,
        "final_ratio": res.final_ratio,
        "rate": res.decay_l2.rate if res.decay_l2 else math.nan,
        "blowup": res.blowup,
        "condition_satisfied": all(rep.satisfied for rep in res.reports if rep.name == sync),
    }
    return row


def _run_sweep(cfg: ExperimentConfig, out_dir: str) -> ScenarioResult:
    """Grid sweep over K and mu or theta; each point fully isolated.

    Per-point RNG streams derive from (master seed, point index).  Blowups
    and failures (any exception, recorded as the point's error) are recorded
    per point, never fatal to the sweep.  The verdict table is
    checked for non-monotone decay-versus-K patterns, which are flagged for
    human review rather than asserted away.
    """
    _load_constants(cfg)  # a bad constants file fails the sweep, not each point
    _make_out_dir(out_dir)
    # the sweep's record of its config comes first, so a sweep that dies keeps it
    write_text(os.path.join(out_dir, "config.ini"), serialize_config(cfg))
    jobs = []
    for index, (point, pcfg) in enumerate(_sweep_points(cfg)):
        child = int(np.random.SeedSequence([cfg.seed, index]).generate_state(1, dtype=np.uint64)[0])
        jobs.append((replace(pcfg, seed=child % (2**63)), point, index, out_dir))
    if cfg.threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.threads, len(jobs))) as pool:
            rows = list(pool.map(_run_sweep_point, jobs))
    else:
        rows = [_run_sweep_point(job) for job in jobs]

    flags = _monotonicity_flags(rows)
    result = ScenarioResult(scenario="regime_sweep", out_dir=out_dir)
    result.extras["table"] = rows
    result.extras["monotonicity_flags"] = flags
    _write_sweep_table(out_dir, rows, flags)
    return result


def _monotonicity_flags(rows):
    """Flag K-orderings where decay turns off again as K grows."""
    flags = []
    by_second = {}
    for row in rows:
        if "error" in row:
            continue
        key = tuple((k, v) for k, v in sorted(row.items()) if k in ("mu", "theta1"))
        by_second.setdefault(key, []).append(row)
    for key, group in by_second.items():
        group = sorted(group, key=lambda r: r["K"])
        seen_decay = False
        for row in group:
            if row["decayed"]:
                seen_decay = True
            elif seen_decay:
                flags.append(
                    f"non-monotone decay vs K at K={row['K']:g} for {dict(key)}"
                )
    return flags


def _write_sweep_table(out_dir, rows, flags):
    cols = sorted({key for row in rows for key in row})
    diag.write_csv(os.path.join(out_dir, "sweep_table.csv"), cols, ([row.get(col) for col in cols] for row in rows))
    if flags:
        write_text(os.path.join(out_dir, "sweep_flags.txt"), "\n".join(flags) + "\n")
