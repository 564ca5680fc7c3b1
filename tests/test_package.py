"""The public names of the qpdyn package, each resolved from its module."""

import importlib
import subprocess
import sys

import pytest

from conftest import subprocess_env

# every name the package exports, by the module that defines it
PUBLIC = {
    "constants": ["CODATA", "EV", "PhysicalConstants", "QubitParams",
                  "gamma_from_xqp", "qp_coupling_constant"],
    "dynamics": ["RateParams", "SolutionParams", "extraction_bounds",
                 "integrate_ode", "rates_from_solution",
                 "recombination_theory", "solution_from_rates",
                 "steady_state", "xqp_analytic", "xqp_recombination_only"],
    "eigenmode": ["ModeSolution", "TransportParams", "VortexConfig",
                  "eigen_residual", "field_sweep", "large_p_z",
                  "small_p_rate", "smallest_root", "step_sequence"],
    "estimates": ["CavityQs", "VortexMicro", "frequency_shift",
                  "frequency_shift_from_xqp", "injection_power",
                  "microscopic_trapping_power", "qp_injection_rate",
                  "vortex_profile"],
    "geometry": ["DerivedGeometry", "DeviceGeometry", "derive",
                 "load_geometry"],
    "pde_sim": ["Discretization", "EvolveSpec", "build", "evolve",
                "factorized_dynamics_check", "slowest_mode"],
    "trace_fit": ["DecayTrace", "ExtractedRates", "FitResult",
                  "SteadyStatePoint", "T1TauFit", "extract_rates",
                  "fit_gamma_trace", "fit_t1_vs_tau", "gamma_model",
                  "synth_trace"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_all_lists_the_public_names():
    import qpdyn
    assert len(NAMES) == 53
    assert sorted(qpdyn.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_module_attribute(module):
    import qpdyn
    mod = importlib.import_module(f"qpdyn.{module}")
    for name in PUBLIC[module]:
        assert getattr(qpdyn, name) is getattr(mod, name), name


def test_star_import_and_dir_cover_every_name():
    import qpdyn
    namespace = {}
    exec("from qpdyn import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) <= set(dir(qpdyn))


def test_unknown_name_raises_attribute_error():
    import qpdyn
    with pytest.raises(AttributeError, match="no_such_name"):
        qpdyn.no_such_name
    assert not hasattr(qpdyn, "smallest_roots")


def test_bare_import_loads_no_submodule():
    probe = ("import sys, qpdyn; print(sorted(m for m in sys.modules "
             "if m.startswith('qpdyn.')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=subprocess_env())
    assert done.stdout.strip() == "[]"
