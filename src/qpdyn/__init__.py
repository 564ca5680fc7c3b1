"""Quasiparticle dynamics in superconducting qubits.

Rate-equation modeling of quasiparticle recombination, trapping, and
generation; four-parameter decay-trace fits with rate extraction and
bounds; vortex-trapping diffusion eigenmodes on the transmon electrode
network with a discretized reaction-diffusion oracle; and the auxiliary
injection, trapping-power, and frequency-shift estimators.
"""

__version__ = "0.1.0"

from .constants import (CODATA, EV, PhysicalConstants, QubitParams,
                        gamma_from_xqp, qp_coupling_constant)
from .dynamics import (RateParams, SolutionParams, extraction_bounds,
                       integrate_ode, rates_from_solution,
                       recombination_theory, solution_from_rates,
                       steady_state, xqp_analytic, xqp_recombination_only)
from .eigenmode import (ModeSolution, TransportParams, VortexConfig,
                        capacitor_substitution, eigen_residual, field_sweep,
                        large_p_z, small_p_rate, smallest_root, step_sequence)
from .estimates import (CavityQs, VortexMicro, frequency_shift,
                        frequency_shift_from_xqp, injection_power,
                        microscopic_trapping_power, qp_injection_rate,
                        vortex_profile)
from .geometry import DerivedGeometry, DeviceGeometry, derive, load_geometry
from .pde_sim import (Discretization, EvolveSpec, build, evolve,
                      factorized_dynamics_check, slowest_mode)
from .trace_fit import (DecayTrace, ExtractedRates, FitResult,
                        SteadyStatePoint, T1TauFit, extract_rates,
                        fit_gamma_trace, fit_t1_vs_tau, gamma_model,
                        synth_trace)
