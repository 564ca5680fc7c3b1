import numpy as np
import pytest
from hypothesis import settings

from qpdyn.constants import QubitParams, qp_coupling_constant
from qpdyn.eigenmode import TransportParams
from qpdyn.geometry import DeviceGeometry

# every run draws the same examples and writes no .hypothesis/ database
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


def log_grid(t0, t1, n):
    return np.logspace(np.log10(t0), np.log10(t1), n)
