"""The qpdyn public functions the benchmark calls, under their layer names.

Workloads call the library only through an ``Api``.  Untraced, each
attribute is the library function itself; traced, it is the same
function inside a span.  ``smallest_root`` is traced under one name per
``form`` because the reduced and full mode equations cost differently.
"""

from __future__ import annotations

import importlib

# (layer name, module, function, the end-to-end metric a faster layer
# should move); the layer name is "<module>.<function>"
CLI_P50 = "cli-tour latency_p50_ms"
VORTEX = "vortex-modes ops_per_s"
EVOLVE = "pde-evolve ops_per_s"
FUNCTIONS = [
    ("cli.main", "cli", "main", CLI_P50),
    ("io.read_trace", "io", "read_trace", CLI_P50),
    ("io.build_manifest", "io", "build_manifest", CLI_P50),
    ("io.format_json_result", "io", "format_json_result", CLI_P50),
    ("geometry.load_geometry", "geometry", "load_geometry", CLI_P50),
    ("geometry.derive", "geometry", "derive", CLI_P50),
    ("trace_fit.synth_trace", "trace_fit", "synth_trace", CLI_P50),
    ("trace_fit.fit_gamma_trace", "trace_fit", "fit_gamma_trace", CLI_P50),
    ("trace_fit.extract_rates", "trace_fit", "extract_rates", CLI_P50),
    ("dynamics.integrate_ode", "dynamics", "integrate_ode",
     "nothing (a reference batch in pde-evolve's traced run)"),
    ("eigenmode.eigen_residual", "eigenmode", "eigen_residual", VORTEX),
    ("eigenmode.smallest_root", "eigenmode", "smallest_root", VORTEX),
    ("eigenmode.step_sequence", "eigenmode", "step_sequence", VORTEX),
    ("eigenmode.field_sweep", "eigenmode", "field_sweep", VORTEX),
    ("pde_sim.build", "pde_sim", "build", f"{VORTEX} and {EVOLVE}"),
    ("pde_sim.slowest_mode", "pde_sim", "slowest_mode", VORTEX),
    ("pde_sim.evolve", "pde_sim", "evolve", EVOLVE),
    ("pde_sim.factorized_dynamics_check", "pde_sim",
     "factorized_dynamics_check", EVOLVE),
]

SPLIT_BY_FORM = "eigenmode.smallest_root"
FORMS = ("reduced", "full")


def traced_names() -> dict[str, str]:
    """Every span name a traced library call can carry, and the
    end-to-end metric it should move."""
    out = {}
    for name, _, _, moves in FUNCTIONS:
        if name == SPLIT_BY_FORM:
            out.update({f"{name}.{form}": moves for form in FORMS})
        else:
            out[name] = moves
    return out


def _by_form(tracer, fn):
    def traced(*args, **kwargs):
        with tracer.span(f"{SPLIT_BY_FORM}.{kwargs.get('form', 'reduced')}"):
            return fn(*args, **kwargs)
    return traced


def wrapped(tracer, name: str, fn):
    if name == SPLIT_BY_FORM:
        return _by_form(tracer, fn)
    return tracer.wrap(name, fn)


class Api:
    """Library functions by bare name (``api.smallest_root``); the CLI is
    only ever run as a program, so ``cli.main`` is not among them."""

    def __init__(self, tracer=None):
        for name, module, func, _ in FUNCTIONS:
            if module == "cli":
                continue
            fn = getattr(importlib.import_module(f"qpdyn.{module}"), func)
            if tracer is not None:
                fn = wrapped(tracer, name, fn)
            setattr(self, func, fn)


def patch_cli(tracer):
    """Trace the layer calls ``qpdyn.cli`` makes, inside this process.

    The CLI binds most library functions into its own namespace and calls
    ``io`` through the module, so both places are patched.  Only the
    benchmark's child process for traced CLI ops calls this.
    """
    import qpdyn.cli as cli
    import qpdyn.io as qio
    for name, module, func, _ in FUNCTIONS:
        if module == "cli":
            continue
        if module == "io":
            setattr(qio, func, wrapped(tracer, name, getattr(qio, func)))
        elif hasattr(cli, func):
            setattr(cli, func, wrapped(tracer, name, getattr(cli, func)))
