"""Config parsing, checkpoints, scenario runs, sweeps, and the CLI."""

import os

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
            alone = hz.run_scenario(hz.parse_config(pdir / "config.ini"), out_dir=pdir / "alone")
            assert alone.final_ratio == pytest.approx(row["final_ratio"], rel=1e-12, abs=0)


class TestCheckpoints:
    def test_bit_exact_roundtrip(self, tmp_path, rng):
        cfg = hz.parse_config_text(MINIMAL)
        state, _, _ = hz.build_state(cfg)
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
        state, _, _ = hz.build_state(cfg)
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
        state, _, _ = hz.build_state(cfg)
        path = tmp_path / "flip.ckpt"
        hz.checkpoint_save(state, path, seed=1)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(hz.IoError, match="checksum"):
            hz.checkpoint_load(path)

    def test_reads_version_1(self, tmp_path):
        import struct

        cfg = hz.parse_config_text(MINIMAL)
        state, _, _ = hz.build_state(cfg)
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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_survives_a_failing_point(self, tmp_path, monkeypatch, threads):
        run_scenario = hz.run_scenario

        def flaky(cfg, kind=None, out_dir=None, seed=None):
            if str(out_dir).endswith("point_001"):
                raise RuntimeError("injected failure")
            return run_scenario(cfg, kind=kind, out_dir=out_dir, seed=seed)

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

    def test_write_outputs_surface(self, tmp_path, grid16, rng):
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
        reports = [diag.check_nudge_fdss_condition(4.0, 1.0, diag.default_constants())]
        hz.write_outputs(records, reports, tmp_path / "out")
        assert (tmp_path / "out" / "series.csv").exists()
        assert (tmp_path / "out" / "conditions.tsv").exists()

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
        reports = [diag.check_nudge_fdss_condition(4.0, 1.0, diag.default_constants())]
        hz.write_outputs(records, reports, tmp_path)
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
        hz.run_scenario(cfg, out_dir=tmp_path / "b", seed=8)
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

    def test_twin_from_zero_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL.replace("energy = 0.3", "energy = 0.3\nmax_wavenumber = 3.0"))
        code = cli.main(["twin", "--config", cfg, "--kind", "dr", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "max_wavenumber = 3 <= K" in capsys.readouterr().err

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTWINE_THREADS", "3")
        cfg = hz.parse_config_text(MINIMAL)
        assert cfg.threads == 1
        args = type("A", (), {"config": self._write(tmp_path, MINIMAL), "seed": None, "threads": None})
        loaded = cli._load(args)
        assert loaded.threads == 3
