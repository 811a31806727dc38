"""tools/identity.py: the byte-identity set is deterministic, and --compare
names the files and columns that differ.  No digest is stored: the test
compares two runs of the command with each other."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_toy_set_is_deterministic_and_compare_finds_a_changed_cell(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        done = run_tool("--out", out, "--toy")
        assert done.returncode == 0, done.stderr
    sums = (a / "SHA256SUMS").read_text()
    assert sums == (b / "SHA256SUMS").read_text()
    listed = {line.split("  ", 1)[1] for line in sums.splitlines()}
    for rel in ("nudge/series.csv", "nudge/final.ckpt", "sweep_n32/sweep_table.csv",
                "fdss_amplitude_1/fdm_table.csv", "verify_fast.txt"):
        assert rel in listed
    assert not list(a.rglob("error.txt"))
    same = run_tool("--compare", a, b)
    assert same.returncode == 0 and "0 differ" in same.stdout

    # one cell of one column changed by a relative 1e-3, one file dropped
    c = tmp_path / "c"
    shutil.copytree(a, c)
    series = c / "nudge" / "series.csv"
    head, first, *rest = series.read_text().splitlines(True)
    cells = first.rstrip("\n").split(",")
    column = head.rstrip("\n").split(",").index("l2_w")
    cells[column] = repr(float(cells[column]) * (1 + 1e-3))
    series.write_text("".join([head, ",".join(cells) + "\n", *rest]))
    (c / "control" / "manifest.json").unlink()
    diff = run_tool("--compare", a, c)
    assert diff.returncode == 1
    assert "differs: nudge/series.csv" in diff.stdout
    assert "only in" in diff.stdout and "control/manifest.json" in diff.stdout
    gaps = [line for line in diff.stdout.splitlines() if "largest relative gap" in line]
    assert len(gaps) == 1 and gaps[0].split()[0] == "l2_w:"
    assert abs(float(gaps[0].split()[-1]) / 1e-3 - 1) < 1e-2
