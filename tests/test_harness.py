"""Config parsing, checkpoints, scenario runs, sweeps, and the CLI."""

import csv
import functools
import json
import math
import multiprocessing
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from intertwine import cli
from intertwine import harness as hz
from intertwine import spectral as sp
from intertwine.harness import ConfigInvalid, ParseError

MINIMAL = """\
[grid]
n = 16

[physics]
nu = 0.5
K = 3.0

[coupling]
class = nudge_mutual
mu1 = 2.0
mu2 = 2.0

[forcing]
amplitude = 0.1

[initial]
energy = 0.3
difference_scale = 0.2

[time]
dt = 0.02
t_end = 4.0
sample_every = 0.1

[output]
seed = 7
"""


# MINIMAL as sections, run for 10 steps
SHORT = {
    "grid": {"n": "16"},
    "physics": {"nu": "0.5", "K": "3.0"},
    "coupling": {"class": "nudge_mutual", "mu1": "2.0", "mu2": "2.0"},
    "forcing": {"amplitude": "0.1"},
    "initial": {"energy": "0.3", "difference_scale": "0.2"},
    "time": {"dt": "0.02", "t_end": "0.2", "sample_every": "0.02"},
    "output": {"seed": "7"},
}
NUMERIC_SLOTS = [
    f.metadata["ini"] for f in fields(hz.ExperimentConfig) if f.metadata["parse"] in (float, hz._int, hz._floats)
]

INTEGER_SLOTS = [f.metadata["ini"] for f in fields(hz.ExperimentConfig) if f.metadata["parse"] is hz._int]
# an even literal of 401 digits: past the float range, so float() of it overflows
HUGE_INTEGER = "2" * 401


def _bad_number(slot, value):
    return pytest.param(slot, value, id=f"{slot}-{'401_digits' if value == HUGE_INTEGER else value}")


BAD_NUMBERS = [
    _bad_number(slot, value)
    for slot in NUMERIC_SLOTS
    for value in ("nan", "inf", "-inf", "-1", "0", "1e300", *([HUGE_INTEGER] * (slot in INTEGER_SLOTS)))
]
# bad numbers whose outcome is correct but not "exit 0, or exit 2 naming the
# key": (exit code, the text that names the fault)
TRUE_OUTCOMES = {
    # the fields really overflow, and the run reports a blow-up
    ("forcing.amplitude", "1e300"): (3, "BLOWUP"),
    ("forcing.pair_delta_amplitude", "1e300"): (3, "BLOWUP"),
    # so large an initial field fails the step guard, whose message names dt
    ("initial.energy", "1e300"): (2, "dt"),
    ("initial.difference_scale", "1e300"): (2, "dt"),
}


class TestConfigParsing:
    def test_minimal_roundtrip(self):
        cfg = hz.parse_config_text(MINIMAL)
        assert cfg.n == 16 and cfg.coupling_class == "nudge_mutual"
        again = hz.parse_config_text(hz.serialize_config(cfg))
        assert again == cfg

    def test_unknown_key_with_line_number(self):
        bad = MINIMAL.replace("mu1 = 2.0", "gain = 2.0")
        with pytest.raises(ParseError, match=r"line 10: unknown key 'gain'"):
            hz.parse_config_text(bad)

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            hz.parse_config_text(MINIMAL + "\n[turbo]\nx = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key"):
            hz.parse_config_text(MINIMAL + "\n[physics]\nnu = 0.1\n")

    def test_missing_required(self):
        bad = MINIMAL.replace("nu = 0.5\n", "")
        with pytest.raises(ParseError, match="missing required key"):
            hz.parse_config_text(bad)

    def test_theta_sum_constraint_named(self):
        text = MINIMAL.replace(
            "class = nudge_mutual\nmu1 = 2.0\nmu2 = 2.0",
            "class = dr_symmetric\ntheta1 = 0.6\ntheta2 = 0.3",
        )
        with pytest.raises(ParseError, match="theta1 \\+ theta2"):
            hz.parse_config_text(text)

    def test_cutoff_beyond_dealias_rejected(self):
        bad = MINIMAL.replace("K = 3.0", "K = 7.0")  # 16/3 = 5.33
        with pytest.raises(ParseError, match="dealias"):
            hz.parse_config_text(bad)

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="expected key = value"):
            hz.parse_config_text("[grid]\nn 16\n")

    def test_key_outside_section(self):
        with pytest.raises(ParseError, match="outside any"):
            hz.parse_config_text("n = 16\n")

    def test_readme_example_parses(self):
        # keep the README's worked example honest
        import pathlib
        import re

        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8"
        )
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README lost its config example"
        cfg = hz.parse_config_text(blocks[0])
        assert cfg.coupling_class == "nudge_mutual" and cfg.n == 64

    def test_inline_comments_and_modes_separator(self):
        text = MINIMAL.replace("mu1 = 2.0", "mu1 = 2.0  # feedback gain")
        assert hz.parse_config_text(text).mu1 == 2.0

    def test_seed_parses_exactly(self):
        # above 2**53 a float would drop the low bits
        text = MINIMAL.replace("seed = 7", "seed = 4611686018427400249")
        assert hz.parse_config_text(text).seed == 4611686018427400249

    def test_non_integer_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            hz.parse_config_text(MINIMAL.replace("n = 16", "n = 16.5"))

    def test_unknown_initial_kind_rejected(self):
        text = MINIMAL.replace("energy = 0.3", "kind = modez\nenergy = 0.3")
        with pytest.raises(ParseError, match="unknown initial kind 'modez'"):
            hz.parse_config_text(text)

    def test_partial_final_step_rejected(self):
        # 1.0 / 0.3 steps would end the run at t = 0.9
        bad = MINIMAL.replace("dt = 0.02", "dt = 0.3").replace("t_end = 4.0", "t_end = 1.0")
        with pytest.raises(ParseError, match="whole number of steps"):
            hz.parse_config_text(bad)
        # a sample stride that is not a multiple of dt is still accepted
        ok = MINIMAL.replace("sample_every = 0.1", "sample_every = 0.25")
        assert hz.parse_config_text(ok).sample_every == 0.25

    def test_grid_size_ceiling(self):
        # validate checks the size without building the grid
        assert sp.MAX_N == 4096
        assert hz.parse_config_text(MINIMAL.replace("n = 16", f"n = {sp.MAX_N}")).n == sp.MAX_N
        with pytest.raises(ParseError, match="<= 4096, got 4098"):
            hz.parse_config_text(MINIMAL.replace("n = 16", "n = 4098"))

    def test_step_count_below_2_to_53(self):
        # 5e301 steps once parsed, since every float that large is whole,
        # and the run stepped without end
        huge = MINIMAL.replace("t_end = 4.0", "t_end = 1e300")
        with pytest.raises(ParseError, match="2\\^53"):
            hz.parse_config_text(huge)

    def test_bad_modes_rejected_with_line_number(self):
        text = MINIMAL.replace("energy = 0.3", "kind = modes\nmodes = 1,0,a,0,0,1")
        with pytest.raises(ParseError, match="line 18: bad value '1,0,a,0,0,1'"):
            hz.parse_config_text(text)
        with pytest.raises(ParseError, match="six numbers"):
            hz.parse_config_text(text.replace("1,0,a,0,0,1", "1,0,0.5,0"))
        with pytest.raises(ParseError, match="nonempty modes list"):
            hz.parse_config_text(text.replace("modes = 1,0,a,0,0,1", "modes = ;"))
        # |k| = 7 > 16/3 would trip the alias guard, (9, 0) is off the grid
        for mode in ("7,0,0,0,0.5,0", "9,0,0,0,0.5,0"):
            with pytest.raises(ParseError, match="outside the dealias radius"):
                hz.parse_config_text(text.replace("1,0,a,0,0,1", mode))
        good = hz.parse_config_text(text.replace("1,0,a,0,0,1", "1,0,0,0,0,0.5 ; 0,2,0.25,0,0,0"))
        assert hz._parse_mode_list(good.initial_modes)[1] == (0, 2, (0.25 + 0j, 0j))

    def test_sweep_point_reruns_from_its_config(self, tmp_path):
        text = MINIMAL.replace("t_end = 4.0", "t_end = 1.0") + "\n[sweep]\nK = 2.0, 3.0\n"
        res = hz.run_scenario(hz.parse_config_text(text), kind="regime_sweep", out_dir=tmp_path)
        for row in res.extras["table"]:
            pdir = tmp_path / f"point_{row['index']:03d}"
            alone = hz.run_scenario(hz.parse_config_text((pdir / "config.ini").read_text()), out_dir=pdir / "alone")
            assert alone.final_ratio == pytest.approx(row["final_ratio"], rel=1e-12, abs=0)


class TestCheckpoints:
    def test_bit_exact_roundtrip(self, tmp_path, rng):
        cfg = hz.parse_config_text(MINIMAL)
        state = hz.build_state(cfg)
        path = tmp_path / "state.ckpt"
        hz.checkpoint_save(state, path, seed=7)
        loaded, seed = hz.checkpoint_load(path)
        assert seed == 7
        assert np.array_equal(loaded.v1.coeffs, state.v1.coeffs)
        assert np.array_equal(loaded.v2.coeffs, state.v2.coeffs)
        assert loaded.nu == state.nu and loaded.K == state.K
        assert loaded.matrix.kind == state.matrix.kind
        assert loaded.matrix.params == state.matrix.params
        # resaving reproduces the exact bytes
        path2 = tmp_path / "again.ckpt"
        hz.checkpoint_save(loaded, path2, seed=7)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(hz.IoError):
            hz.checkpoint_load(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        cfg = hz.parse_config_text(MINIMAL)
        state = hz.build_state(cfg)
        path = tmp_path / "full.ckpt"
        hz.checkpoint_save(state, path, seed=1)
        blob = path.read_bytes()
        for cut in (10, len(blob) // 2):
            short = tmp_path / f"cut_{cut}.ckpt"
            short.write_bytes(blob[:cut])
            with pytest.raises(hz.IoError):
                hz.checkpoint_load(short)

    def test_general_matrix_roundtrip(self, tmp_path, grid16, rng):
        from intertwine import dynamics as dyn
        from intertwine import forcing as fr

        pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid16)))
        state = dyn.IntertwinedState(
            grid=grid16, t=0.5, nu=0.1, K=2.0,
            matrix=dyn.IntertwiningMatrix.general(1.0, -0.25, 0.5, 1.0),
            v1=sp.random_field(grid16, rng), v2=sp.random_field(grid16, rng), forcing=pair,
        )
        hz.checkpoint_save(state, tmp_path / "x.ckpt")
        loaded, _ = hz.checkpoint_load(tmp_path / "x.ckpt")
        assert loaded.matrix.kind == "general"
        assert loaded.matrix.params == (1.0, -0.25, 0.5, 1.0)
        assert np.array_equal(loaded.matrix.entries, state.matrix.entries)
        assert np.array_equal(loaded.v2.coeffs, state.v2.coeffs)

    def test_dealias_radius_survives(self, tmp_path, rng):
        from intertwine import dynamics as dyn
        from intertwine import forcing as fr

        grid = sp.Grid(16, 4.0)
        pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid)))
        state = dyn.IntertwinedState(
            grid=grid, t=0.0, nu=0.1, K=2.0, matrix=dyn.IntertwiningMatrix.nudge_mutual(1.0, 2.0),
            v1=sp.random_field(grid, rng, kmax=4.0), v2=sp.random_field(grid, rng, kmax=4.0),
            forcing=pair,
        )
        hz.checkpoint_save(state, tmp_path / "r.ckpt")
        loaded, _ = hz.checkpoint_load(tmp_path / "r.ckpt")
        assert loaded.grid.dealias_radius == 4.0
        assert loaded.grid == grid

    def test_checksum_mismatch_rejected(self, tmp_path):
        cfg = hz.parse_config_text(MINIMAL)
        state = hz.build_state(cfg)
        path = tmp_path / "flip.ckpt"
        hz.checkpoint_save(state, path, seed=1)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(hz.IoError, match="checksum"):
            hz.checkpoint_load(path)

    def test_class_bytes_are_pinned(self, tmp_path):
        import struct
        import zlib

        from intertwine import dynamics as dyn

        # the class byte follows the magic and the version-2 header up to K
        at = 4 + struct.calcsize("<IddIdd")
        state = hz.build_state(hz.parse_config_text(MINIMAL))
        matrices = {
            "nudge_symmetric": dyn.IntertwiningMatrix.nudge_symmetric(2.0, 1.0),
            "nudge_mutual": dyn.IntertwiningMatrix.nudge_mutual(1.0, 2.0),
            "dr_symmetric": dyn.IntertwiningMatrix.dr_symmetric(0.75, 0.25),
            "dr_mutual": dyn.IntertwiningMatrix.dr_mutual(0.25, 0.75),
            "general": dyn.IntertwiningMatrix.general(0.3, -0.2, 0.1, 0.4),
        }
        expect = {"nudge_symmetric": 0, "nudge_mutual": 1, "dr_symmetric": 2, "dr_mutual": 3, "general": 4}
        for kind, matrix in matrices.items():
            path = tmp_path / f"{kind}.ckpt"
            hz.checkpoint_save(replace(state, matrix=matrix), path)
            assert path.read_bytes()[at] == expect[kind], kind
            loaded, _ = hz.checkpoint_load(path)
            assert (loaded.matrix.kind, loaded.matrix.params) == (kind, matrix.params)

        # uncoupled copies save as a zero general matrix
        text = MINIMAL.replace("class = nudge_mutual\nmu1 = 2.0\nmu2 = 2.0", "class = none")
        path = tmp_path / "none.ckpt"
        hz.checkpoint_save(hz.build_state(hz.parse_config_text(text)), path)
        blob = path.read_bytes()
        assert blob[at] == 4
        loaded, _ = hz.checkpoint_load(path)
        assert loaded.matrix.kind == "general" and loaded.matrix.params == (0.0, 0.0, 0.0, 0.0)
        assert not np.any(loaded.matrix.entries)

        for code in (5, 255):
            payload = blob[:at] + bytes([code]) + blob[at + 1 : -4]
            path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
            with pytest.raises(hz.IoError, match=f"unknown matrix class code {code}"):
                hz.checkpoint_load(path)

    def test_reads_version_1(self, tmp_path):
        import struct

        cfg = hz.parse_config_text(MINIMAL)
        state = hz.build_state(cfg)
        # the version-1 layout: no dealias radius, two matrix params, no checksum
        head = b"ITWN" + struct.pack(
            "<IddIdBddQ", 1, state.nu, state.t, state.grid.n, state.K, 1, 2.0, 2.0, 7
        )
        path = tmp_path / "v1.ckpt"
        path.write_bytes(head + hz._field_bytes(state.v1) + hz._field_bytes(state.v2))
        loaded, seed = hz.checkpoint_load(path)
        assert seed == 7 and loaded.matrix.kind == "nudge_mutual"
        assert loaded.matrix.params == (2.0, 2.0)
        assert np.array_equal(loaded.v1.coeffs, state.v1.coeffs)
        assert np.array_equal(loaded.v2.coeffs, state.v2.coeffs)


class TestScenarios:
    def test_artifacts_written_before_verdicts(self, tmp_path, monkeypatch):
        # a report that raises leaves the run's own artifacts, and no manifest
        def failing(*args):
            raise OverflowError("report arithmetic")

        monkeypatch.setattr(hz, "_condition_reports", failing)
        with pytest.raises(OverflowError):
            hz.run_scenario(hz.parse_config_text(MINIMAL.replace("t_end = 4.0", "t_end = 0.2")), out_dir=tmp_path)
        for name in ("config.ini", "constants.json", "series.csv", "final.ckpt"):
            assert (tmp_path / name).exists(), name
        assert not (tmp_path / "manifest.json").exists()

    def test_self_sync_artifacts(self, tmp_path):
        cfg = hz.parse_config_text(MINIMAL)
        res = hz.run_scenario(cfg, out_dir=tmp_path)
        assert res.decayed is not None
        for name in (
            "config.ini",
            "constants.json",
            "series.csv",
            "conditions.txt",
            "conditions.tsv",
            "final.ckpt",
            "manifest.json",
        ):
            assert (tmp_path / name).exists(), name
        # mutual-nudging runs carry the integrated energy-inequality check
        by_name = {rep.name: rep for rep in res.reports}
        assert "energy_inequality" in by_name
        assert by_name["energy_inequality"].satisfied

    def test_symmetric_nudging_scenario(self, tmp_path):
        text = MINIMAL.replace("class = nudge_mutual", "class = nudge_symmetric").replace(
            "mu1 = 2.0\nmu2 = 2.0", "mu1 = 2.0\nmu2 = 1.0"
        )
        cfg = hz.parse_config_text(text)
        res = hz.run_scenario(cfg, out_dir=tmp_path)
        names = {rep.name for rep in res.reports}
        assert "bound_nudge_symmetric" in names

    DR_SYMMETRIC_ROWS = [
        "dr_ss",
        "theta_composite",
        "theta_near_balanced",
        "theta_small",
        "cutoff_small_theta2_floor",
        "cutoff_small_theta2_balance",
        "cutoff_dr_near_balanced",
    ]

    @pytest.mark.parametrize(
        "coupling, expect",
        [
            ("nudge_symmetric 2 1", ["nudge_fdss", "nudge_ss", "bound_nudge_symmetric"]),
            ("nudge_mutual 2 2", ["nudge_fdss", "nudge_ss", "bound_nudge_mutual", "energy_inequality"]),
            # mu_min = 0: the mutual bound is infinite, so neither it nor the
            # energy inequality is reported
            ("nudge_mutual 2 0", ["nudge_fdss", "nudge_ss"]),
            ("dr_mutual 0.25 0.75", ["dr_ss", "cutoff_dr_mutual", "bound_dr_mutual_pair"]),
            ("dr_mutual 0 1", ["dr_ss", "cutoff_dr_mutual", "bound_dr_mutual_pair"]),
            ("dr_symmetric 1 0", DR_SYMMETRIC_ROWS + ["cutoff_dr_decoupled", "bound_dr_decoupled"]),
            ("dr_symmetric 0.5 0.5", DR_SYMMETRIC_ROWS + ["bound_dr_balanced"]),
            ("dr_symmetric 0.8 0.2", DR_SYMMETRIC_ROWS + ["cutoff_dr_small_theta2", "bound_dr_small_theta2"]),
            # the near-balanced cutoff is a family condition, reported once
            ("dr_symmetric 0.6 0.4", DR_SYMMETRIC_ROWS + ["bound_dr_near_balanced"]),
        ],
    )
    def test_report_names_once_per_run(self, tmp_path, coupling, expect):
        kind, a, b = coupling.split()
        keys = ("theta1", "theta2") if kind.startswith("dr") else ("mu1", "mu2")
        text = MINIMAL.replace(
            "class = nudge_mutual\nmu1 = 2.0\nmu2 = 2.0",
            f"class = {kind}\n{keys[0]} = {a}\n{keys[1]} = {b}",
        ).replace("t_end = 4.0", "t_end = 1.0")
        res = hz.run_scenario(hz.parse_config_text(text), out_dir=tmp_path)
        assert [rep.name for rep in res.reports] == expect
        written = (tmp_path / "conditions.tsv").read_text().splitlines()[1:]
        assert [line.split("\t")[0] for line in written] == expect

    def test_general_class_run_writes_artifacts(self, tmp_path):
        text = MINIMAL.replace(
            "class = nudge_mutual\nmu1 = 2.0\nmu2 = 2.0",
            "class = general\nm11 = -2.0\nm12 = 1.5\nm21 = 0.5\nm22 = -1.0",
        )
        cfg = hz.parse_config_text(text)
        res = hz.run_scenario(cfg, out_dir=tmp_path)
        assert not res.blowup
        assert (tmp_path / "manifest.json").exists()
        loaded, _ = hz.checkpoint_load(tmp_path / "final.ckpt")
        assert loaded.matrix.params == (-2.0, 1.5, 0.5, -1.0)

    def test_reconstruction_nudge_decays(self, tmp_path):
        text = MINIMAL.replace("t_end = 4.0", "t_end = 10.0")
        cfg = hz.parse_config_text(text)
        res = hz.run_scenario(cfg, kind="reconstruction_nudge", out_dir=tmp_path)
        assert res.decayed

    def test_reconstruction_dr_decays(self, tmp_path):
        text = MINIMAL.replace("class = nudge_mutual", "class = dr_mutual").replace(
            "mu1 = 2.0\nmu2 = 2.0", "theta1 = 0.0\ntheta2 = 1.0"
        ).replace("t_end = 4.0", "t_end = 10.0")
        cfg = hz.parse_config_text(text)
        res = hz.run_scenario(cfg, kind="reconstruction_dr", out_dir=tmp_path)
        assert res.decayed

    @pytest.mark.parametrize("kind", ["reconstruction_nudge", "reconstruction_dr"])
    def test_reconstruction_from_zero_error_rejected(self, tmp_path, kind):
        # initial data inside the cutoff: the observer P_K v1 equals v1
        text = MINIMAL.replace("energy = 0.3", "energy = 0.3\nmax_wavenumber = 3.0")
        cfg = hz.parse_config_text(text)
        with pytest.raises(ConfigInvalid, match="observer starts equal to the truth"):
            hz.run_scenario(cfg, kind=kind, out_dir=tmp_path)

    def test_fdss_scenario_table(self, tmp_path):
        text = MINIMAL.replace("class = nudge_mutual", "class = none").replace(
            "mu1 = 2.0\nmu2 = 2.0", ""
        ).replace(
            "amplitude = 0.1",
            "amplitude = 0.1\nkind = decaying_pair\npair_delta_amplitude = 0.05",
        ).replace("t_end = 4.0", "t_end = 12.0")
        cfg = hz.parse_config_text(text)
        res = hz.run_scenario(cfg, kind="fdss_determining_modes", out_dir=tmp_path)
        fdm = res.extras["fdm"]
        assert fdm["implication_consistent"]
        assert (tmp_path / "fdm_table.csv").exists()

    def test_blown_up_fdss_run_has_no_determining_modes_verdict(self, tmp_path, capsys):
        # a run that blew up has no full-state verdict, so no threshold can be
        # read off it; its ladder samples are still written
        text = MINIMAL.replace("n = 16", "n = 32").replace("nu = 0.5", "nu = 1e-4").replace(
            "K = 3.0", "K = 4.0"
        ).replace("energy = 0.3", "energy = 20.0").replace("dt = 0.02", "dt = 0.03").replace(
            "t_end = 4.0", "t_end = 30.0"
        ).replace("sample_every = 0.1", "sample_every = 0.3").replace("seed = 7", "seed = 1")
        path = tmp_path / "config.ini"
        path.write_text(text)
        argv = ["run", "--config", str(path), "--scenario", "fdss_determining_modes", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        out = capsys.readouterr().out
        assert "BLOWUP at t = " in out
        assert "determining-modes" not in out
        rows = (tmp_path / "out" / "fdm_table.csv").read_text().splitlines()
        assert rows[0].startswith("t,l2_P1_w,") and len(rows) > 1

    def test_monotonicity_flagging(self):
        rows = [
            {"K": 1.0, "mu": 2.0, "decayed": False},
            {"K": 4.0, "mu": 2.0, "decayed": True},
            {"K": 8.0, "mu": 2.0, "decayed": False},  # decay switched off again
        ]
        flags = hz._monotonicity_flags(rows)
        assert len(flags) == 1 and "K=8" in flags[0]
        rows[2]["decayed"] = True
        assert hz._monotonicity_flags(rows) == []

    def test_sweep_runs_and_flags(self, tmp_path):
        text = MINIMAL.replace("t_end = 4.0", "t_end = 3.0") + "\n[sweep]\nK = 1.0, 3.0\nmu = 2.0\n"
        cfg = hz.parse_config_text(text)
        res = hz.run_scenario(cfg, kind="regime_sweep", out_dir=tmp_path)
        table = res.extras["table"]
        assert len(table) == 2
        assert (tmp_path / "sweep_table.csv").exists()
        assert all("decayed" in row for row in table)

    def test_sweep_parallel_matches_serial(self, tmp_path):
        text = MINIMAL.replace("t_end = 4.0", "t_end = 2.0") + "\n[sweep]\nK = 1.0, 3.0\n"
        cfg = hz.parse_config_text(text)
        serial = hz.run_scenario(cfg, kind="regime_sweep", out_dir=tmp_path / "serial")
        from dataclasses import replace

        parallel = hz.run_scenario(
            replace(cfg, threads=2), kind="regime_sweep", out_dir=tmp_path / "parallel"
        )
        assert serial.extras["table"] == parallel.extras["table"]

    def test_sweep_workers_capped_at_points(self, tmp_path, monkeypatch):
        # a pool starts its workers up front, so threads beyond the point
        # count would fork idle processes
        sizes = []

        class Pool(hz.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(hz, "ProcessPoolExecutor", Pool)
        text = MINIMAL.replace("t_end = 4.0", "t_end = 1.0") + "\n[sweep]\nK = 1.0, 3.0\n"
        from dataclasses import replace

        cfg = replace(hz.parse_config_text(text), threads=3)
        res = hz.run_scenario(cfg, kind="regime_sweep", out_dir=tmp_path / "out")
        assert len(res.extras["table"]) == 2
        assert sizes == [2]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_survives_a_failing_point(self, tmp_path, monkeypatch, threads):
        run_scenario = hz.run_scenario

        def flaky(cfg, kind=None, out_dir=None):
            if str(out_dir).endswith("point_001"):
                raise RuntimeError("injected failure")
            return run_scenario(cfg, kind=kind, out_dir=out_dir)

        text = MINIMAL.replace("t_end = 4.0", "t_end = 1.0") + "\n[sweep]\nK = 1.0, 2.0, 3.0\n"
        cfg = hz.parse_config_text(text)
        serial = hz.run_scenario(cfg, kind="regime_sweep", out_dir=tmp_path / "clean")
        monkeypatch.setattr(hz, "run_scenario", flaky)
        from dataclasses import replace

        res = run_scenario(replace(cfg, threads=threads), kind="regime_sweep", out_dir=tmp_path / "out")
        rows = res.extras["table"]
        assert rows[1] == {"K": 2.0, "mu": 2.0, "index": 1, "error": "RuntimeError: injected failure"}
        clean = serial.extras["table"]
        assert repr([rows[0], rows[2]]) == repr([clean[0], clean[2]])  # repr: nan == nan
        assert "RuntimeError: injected failure" in (tmp_path / "out" / "sweep_table.csv").read_text()

    def test_sweep_survives_a_dead_worker(self, tmp_path, monkeypatch):
        # a worker that exits breaks its whole pool, yet only its own point
        # may be lost, and the table is still written
        run_scenario = hz.run_scenario

        def dying(cfg, kind=None, out_dir=None):
            if str(out_dir).endswith("point_001"):
                os._exit(9)
            return run_scenario(cfg, kind=kind, out_dir=out_dir)

        text = MINIMAL.replace("t_end = 4.0", "t_end = 1.0") + "\n[sweep]\nK = 1.0, 2.0, 3.0\n"
        cfg = hz.parse_config_text(text)
        clean = hz.run_scenario(cfg, kind="regime_sweep", out_dir=tmp_path / "clean").extras["table"]
        # forked workers inherit the patched run_scenario
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(hz, "ProcessPoolExecutor", functools.partial(hz.ProcessPoolExecutor, mp_context=fork))
        monkeypatch.setattr(hz, "run_scenario", dying)
        res = run_scenario(replace(cfg, threads=2), kind="regime_sweep", out_dir=tmp_path / "out")
        rows = res.extras["table"]
        error = rows[1].pop("error")
        assert error.startswith("BrokenProcessPool: ")
        assert rows[1] == {"K": 2.0, "mu": 2.0, "index": 1}
        assert repr([rows[0], rows[2]]) == repr([clean[0], clean[2]])  # repr: nan == nan
        assert "BrokenProcessPool: " in (tmp_path / "out" / "sweep_table.csv").read_text()

    def test_sweep_writes_its_config_before_any_point(self, tmp_path, monkeypatch):
        # config.ini was written last, so a sweep that died left no record of its config
        run_point = hz._run_sweep_point
        seen = []

        def spy(job):
            seen.append((tmp_path / "config.ini").exists())
            return run_point(job)

        monkeypatch.setattr(hz, "_run_sweep_point", spy)
        cfg = hz.parse_config_text(MINIMAL.replace("t_end = 4.0", "t_end = 0.2") + "\n[sweep]\nK = 1.0, 2.0\n")
        hz.run_scenario(cfg, kind="regime_sweep", out_dir=tmp_path)
        assert seen == [True, True]
        assert (tmp_path / "config.ini").read_text() == hz.serialize_config(cfg)

    def test_sweep_table_quotes_an_error_with_commas(self, tmp_path, monkeypatch):
        # a hand-joined row once split such an error into extra fields
        run_scenario = hz.run_scenario

        def failing(cfg, kind=None, out_dir=None):
            if str(out_dir).endswith("point_001"):
                raise ValueError("bad point, K = 2, mu = 2")
            return run_scenario(cfg, kind=kind, out_dir=out_dir)

        monkeypatch.setattr(hz, "run_scenario", failing)
        text = MINIMAL.replace("t_end = 4.0", "t_end = 0.2") + "\n[sweep]\nK = 1.0, 2.0\n"
        run_scenario(hz.parse_config_text(text), kind="regime_sweep", out_dir=tmp_path)
        with open(tmp_path / "sweep_table.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
        assert rows[1][header.index("error")] == "ValueError: bad point, K = 2, mu = 2"

    def test_write_outputs_surface(self, tmp_path, grid16, rng):
        # the writers of a run's outputs: the series and the condition reports
        from intertwine import diagnostics as diag
        from intertwine import dynamics as dyn
        from intertwine import forcing as fr

        pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid16)))
        state = dyn.IntertwinedState(
            grid=grid16, t=0.0, nu=0.3, K=2.0, matrix=dyn.IntertwiningMatrix.zero(),
            v1=sp.random_field(grid16, rng, energy=0.1),
            v2=sp.random_field(grid16, rng, energy=0.1), forcing=pair,
        )
        records = [diag.sample_record(state)]
        run = diag.run_facts(state, records, diag.default_constants(), state.nu)._replace(K=4.0, m_frak=1.0)
        reports = [diag.REGIMES[0].rows[0].report(run)]  # nudge_fdss at K = 4, m = 1
        diag.write_timeseries_csv(tmp_path / "series.csv", records)
        diag.write_condition_reports(tmp_path, reports)
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "conditions.tsv").exists()

    def test_failed_rewrite_keeps_previous_artifacts(self, tmp_path, grid16, rng):
        from intertwine import diagnostics as diag
        from intertwine import dynamics as dyn
        from intertwine import forcing as fr

        pair = fr.ForcingPair.synchronized(fr.SteadyForcing(sp.zero_field(grid16)))
        state = dyn.IntertwinedState(
            grid=grid16, t=0.0, nu=0.3, K=2.0, matrix=dyn.IntertwiningMatrix.zero(),
            v1=sp.random_field(grid16, rng, energy=0.1),
            v2=sp.random_field(grid16, rng, energy=0.1), forcing=pair,
        )
        records = [diag.sample_record(state)]
        run = diag.run_facts(state, records, diag.default_constants(), state.nu)._replace(K=4.0, m_frak=1.0)
        reports = [diag.REGIMES[0].rows[0].report(run)]  # nudge_fdss at K = 4, m = 1
        diag.write_timeseries_csv(tmp_path / "series.csv", records)
        diag.write_condition_reports(tmp_path, reports)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # a value that cannot be formatted fails the write partway through
        broken_record = diag.sample_record(state)
        broken_record.l2_q = "not a number"
        broken_report = diag.ConditionReport("late", True, 0.0, "not a number", 0.0, "x")
        with pytest.raises(ValueError):
            diag.write_timeseries_csv(tmp_path / "series.csv", records + [broken_record])
        with pytest.raises(ValueError):
            diag.write_condition_reports(tmp_path, reports + [broken_report])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_determinism_byte_identical(self, tmp_path):
        cfg = hz.parse_config_text(MINIMAL)
        hz.run_scenario(cfg, out_dir=tmp_path / "a")
        hz.run_scenario(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/series.csv").read_bytes() == (tmp_path / "b/series.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = hz.parse_config_text(MINIMAL)
        hz.run_scenario(cfg, out_dir=tmp_path / "a")
        hz.run_scenario(replace(cfg, seed=8), out_dir=tmp_path / "b")
        assert (tmp_path / "a/series.csv").read_bytes() != (tmp_path / "b/series.csv").read_bytes()


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "config.ini"
        path.write_text(text)
        return str(path)

    def test_run_success(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL)
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "decayed" in capsys.readouterr().out

    def test_printed_decay_verdict_is_the_manifests(self, tmp_path, capsys):
        # |w| falls to 5.1e-6 of its start, short of the 1e-6 rule, along a
        # clean exponential: the fit says decayed, the rule and the manifest
        # do not, and the printed verdict is the rule's
        text = MINIMAL.replace("n = 16", "n = 32").replace("nu = 0.5", "nu = 0.05").replace(
            "K = 3.0", "K = 8.0"
        ).replace("amplitude = 0.1", "amplitude = 0.04").replace(
            "energy = 0.3\ndifference_scale = 0.2", "energy = 0.5\nmax_wavenumber = 8\ndifference_scale = 0.5"
        ).replace("t_end = 4.0", "t_end = 3.0").replace("sample_every = 0.1", "sample_every = 0.125").replace(
            "seed = 7", "seed = 1"
        )
        cfg = self._write(tmp_path, text)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        printed = re.search(r"^\|w\| decay: decayed=(True|False) ", out, re.M).group(1)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert printed == str(manifest["decayed"]) == "False"
        assert re.search(r"^\|w\| fit: rate=-4\.0\d* r2=1\.000$", out, re.M)

    @pytest.mark.parametrize("nu", ["1e300", "1e-100", "1e-200"])
    @pytest.mark.parametrize("coupling", ["nudge_mutual", "dr_symmetric"])
    def test_extreme_nu_reports_its_conditions(self, tmp_path, capsys, monkeypatch, nu, coupling):
        # the Grashof numbers square nu: each once raised OverflowError or
        # ZeroDivisionError after the run, leaving no reports and no manifest;
        # now they saturate, and a saturated condition reads VIOLATED
        params = {"nudge_mutual": {"mu1": "2.0", "mu2": "2.0"}, "dr_symmetric": {"theta1": "0.8", "theta2": "0.2"}}
        monkeypatch.setitem(SHORT, "coupling", {"class": coupling, **params[coupling]})
        code, captured = self._run_short(tmp_path, capsys, monkeypatch, "physics.nu", nu)
        assert code == 0, captured.err
        out = tmp_path / "out"
        for name in ("config.ini", "constants.json", "series.csv", "final.ckpt", "conditions.txt",
                     "conditions.tsv", "manifest.json"):
            assert (out / name).exists(), name
        rows = [line.split("\t") for line in (out / "conditions.tsv").read_text().splitlines()[1:]]
        assert rows and "[OUT]" in captured.out
        for name, lhs, rhs, margin, satisfied in rows:
            if not (float(lhs) <= float(rhs)):
                assert satisfied == "False", name

    def _conditions(self, tmp_path):
        """conditions.tsv of the run in tmp_path/out, as name -> (lhs, rhs, satisfied)."""
        rows = [line.split("\t") for line in (tmp_path / "out" / "conditions.tsv").read_text().splitlines()[1:]]
        return {name: (float(lhs), float(rhs), satisfied) for name, lhs, rhs, _, satisfied in rows}

    def test_saturated_bound_is_reported(self, tmp_path, capsys, monkeypatch):
        # at nu = 1e-200 the Grashof number g saturates to inf, and so does
        # the mutual bound nu*(mu_max/mu_min)*g; the bound exists (mu_min > 0),
        # so it and the energy inequality are reported, not dropped as for mu_min = 0
        code, captured = self._run_short(tmp_path, capsys, monkeypatch, "physics.nu", "1e-200")
        assert code == 0, captured.err
        reports = self._conditions(tmp_path)
        assert list(reports) == ["nudge_fdss", "nudge_ss", "bound_nudge_mutual", "energy_inequality"]
        assert reports["bound_nudge_mutual"][1] == math.inf

    @pytest.mark.parametrize("coupling, constants, name", [
        ({"class": "dr_symmetric", "theta1": "0.8", "theta2": "0.2"},
         '{"C_L": 1.0, "C_A": 1.0, "C_S": 1e-150}', "cutoff_small_theta2_floor"),
        ({"class": "nudge_mutual", "mu1": "2.0", "mu2": "2.0"},
         '{"C_L": 1e200, "C_A": 1.0, "C_S": 1.0}', "nudge_ss"),
    ], ids=["tiny_C_S", "huge_C_L"])
    def test_extreme_constants_saturate(self, tmp_path, capsys, monkeypatch, coupling, constants, name):
        # exp(1/(8 C_S^2)) and C_L^2 once raised OverflowError after the run,
        # leaving no reports and no manifest; now they read inf, VIOLATED
        (tmp_path / "constants.json").write_text(constants)
        monkeypatch.setitem(SHORT, "coupling", coupling)
        code, captured = self._run_short(
            tmp_path, capsys, monkeypatch, "output.constants_file", str(tmp_path / "constants.json"))
        assert code == 0, captured.err
        assert (tmp_path / "out" / "manifest.json").exists()
        lhs, rhs, satisfied = self._conditions(tmp_path)[name]
        assert math.inf in (lhs, rhs) and satisfied == "False"

    def test_saturated_theta_small_reads_nan(self, tmp_path, capsys, monkeypatch):
        # at nu = 1e-100, 2*(|r0|/nu)^2 + k^2 is inf - inf: it reads NaN,
        # not the 0 that max(0, NaN) made of it
        monkeypatch.setitem(SHORT, "coupling", {"class": "dr_symmetric", "theta1": "0.8", "theta2": "0.2"})
        code, captured = self._run_short(tmp_path, capsys, monkeypatch, "physics.nu", "1e-100")
        assert code == 0, captured.err
        lhs, rhs, satisfied = self._conditions(tmp_path)["theta_small"]
        assert math.isnan(rhs) and satisfied == "False"
        assert "2*(|r0|/nu)^2 + k^2 = nan" in captured.out

    def test_verify_reports_time_per_suite(self, monkeypatch, capsys):
        from intertwine import verify

        def stub(name, passed=True):
            return lambda **kwargs: [verify.CheckResult(f"{name} check", passed, 0.0, 1.0)]

        monkeypatch.setattr(verify, "identity_suite", stub("identity"))
        monkeypatch.setattr(verify, "oracle_suite", stub("oracle", passed=False))
        monkeypatch.setattr(verify, "heat_suite", stub("heat"))
        assert cli.main(["verify", "--fast"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # each suite's wall time follows that suite's result lines
        order = [line.split()[1] for line in lines if line.startswith(("[PASS]", "[FAIL]", "[time]"))]
        assert order == ["identity", "identity", "oracle", "oracle", "heat", "heat"]
        times = [line for line in lines if line.startswith("[time]")]
        assert all(line.endswith(" s") and float(line.split()[-2]) >= 0.0 for line in times)
        assert lines[-1] == "1 check(s) failed"

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL.replace("mu1", "bogus"))
        assert cli.main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("n = 15", "n must be an even integer >= 4"),
            ("n = 2", "n must be an even integer >= 4"),
            ("n = 4098", "n must be an even integer >= 4 and <= 4096"),
            ("n = 16\ndealias_radius = 6.0", "dealias_radius must lie in"),
        ],
    )
    def test_bad_grid_exit_code(self, tmp_path, capsys, grid, message):
        cfg = self._write(tmp_path, MINIMAL.replace("n = 16", grid).replace("K = 3.0", "K = 0.5"))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_blowup_exit_code(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "class = nudge_mutual\nmu1 = 2.0\nmu2 = 2.0",
            "class = general\nm11 = 60.0\nm22 = 60.0",
        ).replace("energy = 0.3", "energy = 1.0")
        cfg = self._write(tmp_path, text)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        # the samples taken before the blow-up are kept
        with open(tmp_path / "out" / "series.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and float(rows[0][header.index("t")]) == 0.0
        assert not (tmp_path / "out" / "final.ckpt").exists()

    def test_twin_subcommand(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL.replace("t_end = 4.0", "t_end = 8.0"))
        code = cli.main(["twin", "--config", cfg, "--kind", "nudge", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "reconstruction_nudge" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        text = MINIMAL.replace("t_end = 4.0", "t_end = 2.0") + "\n[sweep]\nK = 1.0, 3.0\n"
        cfg = self._write(tmp_path, text)
        code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert os.path.exists(tmp_path / "out" / "sweep_table.csv")

    @pytest.mark.parametrize(
        "coupling, sweep",
        [
            ("class = nudge_mutual", "K = 20"),
            ("class = nudge_mutual", "mu = -1"),
            ("class = dr_mutual\ntheta1 = 0.5\ntheta2 = 0.5", "theta1 = 1.5"),
        ],
        ids=["K_outside_dealias", "negative_mu", "theta_above_1"],
    )
    def test_bad_sweep_point_exit_code(self, tmp_path, capsys, coupling, sweep):
        # each point's K and matrix are checked at parse time, before any point runs
        text = MINIMAL.replace("class = nudge_mutual", coupling) + f"\n[sweep]\n{sweep}\n"
        cfg = self._write(tmp_path, text)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "constraint violated" in capsys.readouterr().err
        assert not (tmp_path / "out" / "point_000").exists()

    def test_twin_from_zero_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL.replace("energy = 0.3", "energy = 0.3\nmax_wavenumber = 3.0"))
        code = cli.main(["twin", "--config", cfg, "--kind", "dr", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "max_wavenumber = 3 <= K" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("run", MINIMAL),
        ("sweep", MINIMAL.replace("t_end = 4.0", "t_end = 0.2") + "\n[sweep]\nK = 1.0, 2.0\n"),
    ], ids=["run", "sweep"])
    def test_out_dir_that_cannot_be_made_exits_2_before_any_step(self, tmp_path, capsys, monkeypatch, command,
                                                                 text):
        # --out under a regular file raised NotADirectoryError, for run only
        # after integrating the whole run
        from intertwine import dynamics as dyn

        calls = []
        monkeypatch.setattr(dyn, "integrate", lambda *args, **kwargs: calls.append(args))
        cfg = self._write(tmp_path, text)
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")
        assert cli.main([command, "--config", cfg, "--out", out]) == 2
        assert f"output directory {out!r}" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("content, message", [
        (None, "Is a directory"),
        (b"\xff\xfe" + MINIMAL.encode(), "can't decode byte 0xff"),
    ], ids=["directory", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, message):
        # a directory raised IsADirectoryError and a UTF-16 byte-order mark
        # UnicodeDecodeError, each a traceback with exit 1
        path = tmp_path / "config.ini"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTWINE_THREADS", "3")
        cfg = hz.parse_config_text(MINIMAL)
        assert cfg.threads == 1
        args = type("A", (), {"config": self._write(tmp_path, MINIMAL), "seed": None, "threads": None})
        loaded = cli._load(args)
        assert loaded.threads == 3

    def test_explicit_threads_key_beats_env(self, tmp_path, monkeypatch):
        # INTWINE_THREADS is the fallback when neither --threads nor the
        # config's threads key is given; threads = 1 written out is a choice
        monkeypatch.setenv("INTWINE_THREADS", "3")
        text = MINIMAL.replace("seed = 7", "seed = 7\nthreads = 1")
        args = type("A", (), {"config": self._write(tmp_path, text), "seed": None, "threads": None})
        assert cli._load(args).threads == 1
        args.threads = 2
        assert cli._load(args).threads == 2

    @pytest.mark.parametrize(
        "edit, argv, env, message",
        [
            (("seed = 7", "seed = 7\nthreads = -3"), [], None, "threads = -3 must be at least 1"),
            (("sample_every = 0.1", "sample_every = -1"), [], None, "sample_every = -1 is negative"),
            (None, [], "abc", "INTWINE_THREADS = 'abc' is not an integer"),
            (None, ["--threads", "0"], None, "threads = 0 must be at least 1"),
        ],
        ids=["config_threads", "sample_every", "env_threads", "flag_threads"],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, monkeypatch, edit, argv, env, message):
        if env is not None:
            monkeypatch.setenv("INTWINE_THREADS", env)
        cfg = self._write(tmp_path, MINIMAL.replace(*edit) if edit else MINIMAL)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("key", ["nu", "dt", "t_end", "K", "sample_every"])
    def test_bad_time_or_physics_value_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        # a NaN passes every check written as "x <= 0 fails"; each must be
        # refused before the run starts, naming its key
        monkeypatch.chdir(tmp_path)
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", MINIMAL, count=1, flags=re.M)
        assert f"{key} = {value}\n" in text
        cfg = self._write(tmp_path, text)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"{key} = {value}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("series.csv"))

    @pytest.mark.parametrize("slot, value", BAD_NUMBERS)
    def test_every_bad_number_exits_0_or_2(self, tmp_path, capsys, monkeypatch, slot, value):
        # a bad number is either harmless or refused before the run starts,
        # naming its key: never a traceback (exit 1) and never a blow-up (3),
        # except the cases of TRUE_OUTCOMES
        code, captured = self._run_short(tmp_path, capsys, monkeypatch, slot, value)
        assert "Traceback" not in captured.err
        want_code, names = TRUE_OUTCOMES.get((slot, value), (None, slot.partition(".")[2]))
        assert code == want_code if want_code else code in (0, 2)
        if code == 3:
            assert names in captured.out
        if code == 2:
            assert names in captured.err
            assert not list(tmp_path.rglob("series.csv"))

    @pytest.mark.parametrize(
        "slot, value",
        [
            ("initial.energy", "-1"), ("initial.difference_scale", "-1"), ("initial.max_wavenumber", "nan"),
            ("output.decay_threshold", "nan"), ("output.decay_threshold", "-1"), ("forcing.omega", "nan"),
            ("forcing.wavenumber", "0"), ("forcing.wavenumber", "6"), ("output.seed", "-1"),
            ("output.seed", "18446744073709551616"),
        ],
    )
    def test_silently_wrong_numbers_exit_2(self, tmp_path, capsys, monkeypatch, slot, value):
        # each of these once ran to exit 0 with wrong or no results, or died
        # in a traceback
        code, captured = self._run_short(tmp_path, capsys, monkeypatch, slot, value)
        assert code == 2 and f"{slot.partition('.')[2]} = {value}" in captured.err

    def _run_short(self, tmp_path, capsys, monkeypatch, slot, value):
        """Exit code and captured output of a 10-step run of MINIMAL with slot = value."""
        monkeypatch.chdir(tmp_path)
        section, _, key = slot.partition(".")
        sections = {name: dict(keys) for name, keys in SHORT.items()}
        sections.setdefault(section, {})[key] = value
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())
        code = cli.main(["run", "--config", self._write(tmp_path, text), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file"),
            ('{"C_L": 1.0, "C_A": 1.0, "C_S": 1.0, "C9": 2.0}', "'C9'"),
            ('{"C_L": -1.0, "C_A": 1.0, "C_S": 1.0}', "C_L must be a positive number"),
            ('{"C_L": "1", "C_A": 1.0, "C_S": 1.0}', "C_L must be a positive number"),
            ('{"C_L": 1.0, "C_A": Infinity, "C_S": 1.0}', "C_A must be a positive number"),
            ('{"C_L": 1.0, "C_A": NaN, "C_S": 1.0}', "C_A must be a positive number"),
            ('{"C_L": 1.0, "C_A": 1.0, "C_S": true}', "C_S must be a positive number"),
            ('{"C_L": 1%s, "C_A": 1.0, "C_S": 1.0}' % ("0" * 400), "C_L must be a positive number"),
            ("[1.0]", "one JSON object"),
        ],
        ids=["missing", "unknown_key", "negative", "not_a_number", "infinite", "nan", "bool", "huge_integer",
             "not_an_object"],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_bad_constants_file_exit_code(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "constants.json"
        if content is not None:
            path.write_text(content)
        text = MINIMAL.replace("seed = 7", f"seed = 7\nconstants_file = {path}")
        cfg = self._write(tmp_path, text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "constants file" in err and message in err
