"""Quasiparticle dynamics in superconducting qubits.

Rate-equation modeling of quasiparticle recombination, trapping, and
generation; four-parameter decay-trace fits with rate extraction and
bounds; vortex-trapping diffusion eigenmodes on the transmon electrode
network with a discretized reaction-diffusion oracle; and the auxiliary
injection, trapping-power, and frequency-shift estimators.

Each public name below loads its module on first access (PEP 562), so
``import qpdyn`` imports no submodule and a program pays only for the
modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULE_NAMES = {
    "constants": "CODATA EV PhysicalConstants QubitParams gamma_from_xqp "
                 "qp_coupling_constant",
    "dynamics": "RateParams SolutionParams extraction_bounds integrate_ode "
                "rates_from_solution recombination_theory "
                "solution_from_rates steady_state xqp_analytic "
                "xqp_recombination_only",
    "eigenmode": "ModeSolution TransportParams VortexConfig "
                 "eigen_residual field_sweep large_p_z small_p_rate "
                 "smallest_root step_sequence",
    "estimates": "CavityQs VortexMicro frequency_shift "
                 "frequency_shift_from_xqp injection_power "
                 "microscopic_trapping_power qp_injection_rate "
                 "vortex_profile",
    "geometry": "DerivedGeometry DeviceGeometry derive load_geometry",
    "pde_sim": "Discretization EvolveSpec build evolve "
               "factorized_dynamics_check slowest_mode",
    "trace_fit": "DecayTrace ExtractedRates FitResult SteadyStatePoint "
                 "T1TauFit extract_rates fit_gamma_trace fit_t1_vs_tau "
                 "gamma_model synth_trace",
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
