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
    for rel in ("nudge/series.csv", "nudge/final.ckpt", "dr_mutual_1/series.csv", "sweep_n32/sweep_table.csv",
                "fdss_amplitude_1/fdm_table.csv", "verify_fast.txt", "verify_worst.tsv", "dense_oracle.tsv"):
        assert rel in listed
    # mu2 = 0: the mutual regime has no bound, so no energy inequality either
    tsv = (a / "nudge_mutual_2_0" / "conditions.tsv").read_text().splitlines()[1:]
    assert [line.split("\t")[0] for line in tsv] == ["nudge_fdss", "nudge_ss"]
    # each member of each path once; the dense and stepped members agree to
    # the Heun step's error, and their bits differ
    head, *rows = (a / "dense_oracle.tsv").read_text().splitlines()
    assert head.split("\t") == ["path", "member", "l2_v1", "l2_v2", "sha256"]
    table = {tuple(row.split("\t")[:2]): row.split("\t")[2:] for row in rows}
    members = ("zero", "nudge_symmetric", "dr_symmetric")
    assert sorted(table) == sorted((path, m) for path in ("dense", "stepper") for m in members)
    for member in members:
        dense, stepped = table["dense", member], table["stepper", member]
        for x, y in zip(dense[:2], stepped[:2]):
            assert f"{float(x):.17g}" == x and abs(float(x) - float(y)) <= 1e-5 * float(x)
        assert len(dense[2]) == 64 and dense[2] != stepped[2]
    # the worst values at 17 digits, one per printed check line
    head, *rows = (a / "verify_worst.tsv").read_text().splitlines()
    printed = (a / "verify_fast.txt").read_text().splitlines()
    assert head == "check\tworst" and len(rows) == len(printed) - 1 >= 1
    for row, line in zip(rows, printed):
        name, worst = row.split("\t")
        assert line.startswith(f"[PASS] {name}: worst {float(worst):.3e}")
        assert f"{float(worst):.17g}" == worst
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


def test_verify_lines_are_what_the_cli_prints(monkeypatch, capsys):
    # the suites run once for both files, so the printed lines are rebuilt
    # from their results; they must be the CLI's, less its [time] lines
    import importlib.util

    from intertwine import cli, verify

    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    passing = verify.identity_suite(sizes=(16,), count=2)
    failing = [verify.CheckResult("a failed check", False, 2.0, 1.0, "detail")]
    for results in (passing, passing + failing):
        monkeypatch.setattr(verify, "suites", lambda fast=False, r=results: [("toy", lambda: r)])
        cli.main(["verify", "--fast"])
        printed = [line for line in capsys.readouterr().out.splitlines(True) if not line.startswith("[time]")]
        assert tool.verify_lines(results) == "".join(printed)


def _load(path, name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SYNTHETIC = '''\
"""A module docstring
over two lines."""

import os  # a comment after code

# a comment line
SCALE = 2


class Box:
    """A class docstring."""

    def used(self):
        return SCALE

    def unused(self):
        """A method docstring."""
        text = """a string that is code,
        not a docstring"""
        return text

    def __len__(self):
        return 0


def helper():
    return os.sep


def orphan():
    pass
'''


def test_loc_counts_and_unused_names(tmp_path):
    # code lines skip blanks, comments and docstrings but keep other strings;
    # a name counts as used when a user module reads it, and the package's
    # __init__ re-exports do not count
    loc = _load(ROOT / "tools" / "loc.py", "loc_tool")
    assert loc.count(SYNTHETIC) == (15, SYNTHETIC.count("\n"))
    pkg = tmp_path / "src" / "intertwine"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .mod import orphan, helper\n")
    (pkg / "mod.py").write_text(SYNTHETIC)
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("from intertwine.mod import helper\nhelper()\nBox().used()\n")
    assert loc.unused(str(tmp_path / "src"), str(tmp_path)) == ["mod.Box.unused", "mod.orphan"]
    table = loc.sizes(str(tmp_path / "src")).splitlines()
    assert table[0].split() == ["module", "code", "wc", "-l"]
    assert table[-1].split() == ["total", "16", str(SYNTHETIC.count("\n") + 1)]


def test_loc_unused_methods_need_an_attribute(tmp_path):
    # a method is used only as an attribute: a local variable of its name
    # does not use it, while a top-level name counts by any reference
    loc = _load(ROOT / "tools" / "loc.py", "loc_tool")
    pkg = tmp_path / "src" / "intertwine"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "class Pair:\n    def h(self):\n        return 0\n\n    def g(self):\n        return 1\n\n\n"
        "def h():\n    return 2\n"
    )
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("from intertwine.mod import Pair\nh = 3\nprint(h, Pair().g())\n")
    assert loc.unused(str(tmp_path / "src"), str(tmp_path)) == ["mod.Pair.h"]


TRANSITIVE = '''\
LIMIT = 3


class Refused(ValueError):
    pass


class Box:
    def __init__(self):
        self.size = LIMIT

    def grow(self):
        return _scale(self.size)

    def shrink(self):
        raise Refused(self.size)


def _scale(x):
    return 2 * x


def checked():
    return Box().shrink()


def main():
    return Box().grow()


if __name__ == "__main__":
    main()
'''


def test_loc_unused_is_transitive(tmp_path):
    # the __main__ block reaches main, Box (whose __init__ reads LIMIT), grow
    # and _scale; checked is reached by a test alone, and shrink and Refused
    # only through checked, so all three are listed until a user reaches checked
    loc = _load(ROOT / "tools" / "loc.py", "loc_tool")
    pkg = tmp_path / "src" / "intertwine"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .mod import checked\n")
    (pkg / "mod.py").write_text(TRANSITIVE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from intertwine.mod import checked\nchecked()\n")
    assert loc.unused(str(tmp_path / "src"), str(tmp_path)) == ["mod.Refused", "mod.Box.shrink", "mod.checked"]
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("from intertwine.mod import checked\nchecked()\n")
    assert loc.unused(str(tmp_path / "src"), str(tmp_path)) == []


def test_loc_audits_of_the_package_are_pinned():
    # every name only tests reach and every value only tests set, each with
    # the reason it stays: a new one fails here until it is retired or kept
    # with its reason
    loc = _load(ROOT / "tools" / "loc.py", "loc_tool")
    src = str(ROOT / "src")
    assert loc.unused(src) == [
        # the reference that dynamics.Workspace.sample is held to bitwise;
        # the perfbench tracer wraps it by name
        "diagnostics.sample_record",
        # the refusal of residual_twisted for a matrix outside its class
        "dynamics.WrongMatrixClass",
        # the stepper's one-state right-hand side, which the tests hold
        # against the dense oracle; residual_twisted is built on it
        "dynamics.rhs_general",
        # the paper's closed equation for the twisted combination
        "dynamics.residual_twisted",
        # the dense reference that rhs_general is tested against
        "oracle._dense_pair_rhs",
    ]
    assert loc.knobs(src) == [
        # the console entry point's test seam
        "cli.main: argv",
        # turn off a safety guard
        "dynamics.integrate: cfl_factor",
        "dynamics.integrate_many: cfl_factor",
    ]


KNOBS = '''\
def by_keyword(a, scale=1.0):
    return a * scale


def by_position(a, scale=1.0, shift=0.0):
    return a * scale + shift


def by_splat(a, scale=1.0, *, shift=0.0):
    return a * scale + shift


def outer(values):
    def inner(x, _values=values):
        return x + len(_values)

    if values:
        return inner(1)
    return None


class Box:
    def __init__(self, size, fill=0.0):
        self.size, self.fill = size, fill

    def grow(self, by=1, *, twice=False):
        return self.size + by * (2 if twice else 1)

    @staticmethod
    def make(size, fill=0.0):
        return Box(size, fill)
'''


def test_loc_knobs(tmp_path):
    # a defaulted parameter is listed unless a call in a user module passes
    # it by keyword, by position (after self) or through a splat; nested
    # functions count, and calls in the tests do not
    loc = _load(ROOT / "tools" / "loc.py", "loc_tool")
    pkg = tmp_path / "src" / "intertwine"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(KNOBS)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from intertwine.mod import Box, by_keyword, by_position, by_splat\n"
        "by_keyword(1, scale=2.0)\nby_position(1, 2.0)\nby_splat(*[1, 2.0])\n"
        "Box(3, 1.0).grow(2)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from intertwine.mod import Box, by_position\nby_position(1, 2.0, 3.0)\nBox(1).grow(twice=True)\n"
    )
    assert loc.knobs(str(tmp_path / "src"), str(tmp_path)) == [
        "mod.by_position: shift",
        "mod.by_splat: shift",
        "mod.outer.inner: _values",
        "mod.Box.grow: twice",
        "mod.Box.make: fill",
    ]
    # a call that passes the keyword-only shift clears it
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("from intertwine.mod import by_splat\nby_splat(1, shift=2.0)\n")
    assert "mod.by_splat: shift" not in loc.knobs(str(tmp_path / "src"), str(tmp_path))
