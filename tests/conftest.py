import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# no bytecode cache under src/: a stray one changes how long every later
# cold start of the CLI takes
sys.dont_write_bytecode = True

import qpdyn  # noqa: E402
from qpdyn.constants import QubitParams, qp_coupling_constant  # noqa: E402
from qpdyn.eigenmode import TransportParams  # noqa: E402
from qpdyn.geometry import DeviceGeometry  # noqa: E402

# every run draws the same examples and keeps no example database.
# Hypothesis still caches each test module's constants in its home
# directory, so that lives outside the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "qpdyn-hypothesis")
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def qubit():
    return QubitParams.from_lab(6.0, 180.0)


@pytest.fixture(scope="session")
def coupling(qubit):
    return qp_coupling_constant(qubit)


@pytest.fixture(scope="session")
def b1_geom():
    return DeviceGeometry(w_wire=12e-6, l_wire=200e-6, h_cap=75e-6,
                          l_half_gap=7.5e-6, w_cap=15e-6, l_cap=600e-6,
                          s_pad=6400e-12, label="B1-like")


@pytest.fixture(scope="session")
def b2_geom():
    return DeviceGeometry(w_wire=12e-6, l_wire=200e-6, h_cap=75e-6,
                          l_half_gap=5e-6, w_cap=10e-6, l_cap=600e-6,
                          s_pad=6400e-12, label="B2-like")


@pytest.fixture(scope="session")
def transport():
    # paper-scale diffusion with the B1 background trapping 1/(30 ms)
    return TransportParams(d=18e-4, s0=1.0 / 30e-3)


def box_geometry(u):
    """Geometry from seven uniforms in [0, 1], inside the box that raises
    no geometry warning: w_wire/l_wire < 0.2 and
    l_half_gap < 0.5 min(h_cap, l_wire)."""
    l_wire, h_cap = 100e-6 * 4.0 ** u[0], 20e-6 * 10.0 ** u[2]
    return DeviceGeometry(
        w_wire=l_wire * (0.02 + 0.17 * u[1]), l_wire=l_wire, h_cap=h_cap,
        l_half_gap=(0.01 + 0.48 * u[3]) * min(h_cap, l_wire),
        w_cap=2e-6 * 50.0 ** u[4],
        l_cap=0.0 if u[5] < 0.2 else 20e-6 * 40.0 ** ((u[5] - 0.2) / 0.8),
        s_pad=1e-9 * 10.0 ** u[6])


def log_grid(t0, t1, n):
    return np.logspace(np.log10(t0), np.log10(t1), n)


def subprocess_env():
    """The environment of a child interpreter that imports this checkout's
    qpdyn and, like this process, writes no bytecode cache."""
    return {"PYTHONPATH": str(Path(qpdyn.__file__).parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1"}
