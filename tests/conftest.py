import importlib.util
import pathlib

import numpy as np
import pytest

from intertwine import spectral as sp

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def grid16():
    return sp.Grid(16)


@pytest.fixture
def grid8():
    return sp.Grid(8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def calibrate():
    """tools/calibrate.py as a module: the constants calibration and its L4 norm."""
    spec = importlib.util.spec_from_file_location("calibrate_tool", ROOT / "tools" / "calibrate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
