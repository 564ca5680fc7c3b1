"""Command-line interface.

Every dimensioned flag takes an explicit unit suffix (``--tmin 200us``,
``--p 0.067cm2/s``, ``--delta 180ueV``, ``--bk 11mG``); bare numbers are
accepted only where the quantity is dimensionless.  Results go to stdout
(or --out-file) as JSON or plot-ready CSV, always accompanied by a run
manifest; --no-timestamp drops the manifest timestamp so identical runs
are byte-identical.

Each flag is declared once, in ``_FLAGS``, with its converter to SI, its
default and, as its ``dest``, its manifest key.  A subcommand accepts only
the flags it uses and its manifest records all of them, with the coupling
and core relaxation time resolved from --omega/--delta and --rate.

Exit codes: 0 success, 2 usage error (unknown or missing flag),
3 input file missing or unreadable, or output file not writable, 4 input
file or unit parse error, 5 invalid parameters or degenerate inputs,
6 numerical failure (no convergence, no root, step underflow, overflow).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import resources
from typing import TYPE_CHECKING

from . import __version__, io
from .constants import DEFAULT_T_MIN
from .errors import (InvalidParameterError, NonConvergenceError, QpdynError,
                     UnitParseError, check_finite)
from .units import parse_angular_frequency, parse_quantity, unit_factor

if TYPE_CHECKING:
    import numpy as np

    from .trace_fit import FitResult

# Every public name of the package resolves here on first use, so a
# command imports only the modules it runs.  Commands look the names up
# on this module when they run (``_cli.smallest_root``), so rebinding
# ``qpdyn.cli.smallest_root`` intercepts the call.
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in sys.modules[__package__].__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


_MG = unit_factor("mG", "field")  # tesla per milligauss

_EPILOG = """\
exit codes:
  0  success
  2  usage error (unknown or missing flag or subcommand)
  3  input file missing or unreadable, or output file not writable
  4  input file or quantity parse error
  5  invalid or degenerate parameters
  6  numerical failure (non-convergence, no root, step underflow)

units: append a suffix to every dimensioned value, e.g. 200us, 18ms,
0.067cm2/s, 180ueV, 11mG, 8kohm, 100nm, 4.6e10/s.  --omega accepts a
plain frequency (6GHz means omega = 2*pi*6e9 rad/s) or an explicit
angular value (3.77e10rad/s).  Bundled example geometries: pass
b1, b2 or b3 as the --geom argument.
"""


def _qty(kind):
    return lambda text: parse_quantity(text, kind)


class _InputFile(str):
    """A file argument: the manifest records it as given and hashes the
    file."""


# Every flag once, as argparse keywords: the converter to SI, the default
# and, as ``dest``, the manifest key.  A flag without a default here is
# required wherever a subcommand adds it.
_FLAGS = {
    "--amplitude": dict(dest="amplitude_per_s", type=_qty("rate")),
    "--rprime": dict(dest="r_prime", type=float),
    "--tauss": dict(dest="tau_ss_s", type=_qty("time")),
    "--gamma0": dict(dest="gamma0_per_s", type=_qty("rate")),
    "--tmin": dict(dest="t_min_s", type=_qty("time"), default=DEFAULT_T_MIN,
                   help="discard samples earlier than this (default 200us)"),
    "--weighting": dict(choices=("relative", "absolute", "sigma"),
                        default="relative"),
    "--c": dict(dest="coupling_per_s", type=_qty("rate"),
                help="QP-to-rate coupling C, e.g. 4.6e10/s"),
    "--omega": dict(dest="omega_rad_per_s", type=parse_angular_frequency,
                    help="qubit frequency, e.g. 6GHz (angular: rad/s)"),
    "--delta": dict(dest="delta_j", type=_qty("energy"),
                    help="superconducting gap, e.g. 180ueV"),
    "--geom": dict(type=_InputFile,
                   help="geometry config path, or bundled b1|b2|b3"),
    "--p": dict(dest="p_m2_per_s", type=_qty("diffusivity"),
                help="per-vortex trapping power, e.g. 0.067cm2/s"),
    "--d": dict(dest="d_m2_per_s", type=_qty("diffusivity"),
                help="diffusion constant, e.g. 18cm2/s"),
    "--s0": dict(dest="s0_per_s", type=_qty("rate"), default=0.0,
                 help="background trapping rate, e.g. 33/s (default 0/s)"),
    "--form": dict(choices=("reduced", "full"), default="reduced",
                   help="mode equation variant (default reduced)"),
    "--nl": dict(dest="n_left", type=int, help="vortices, left pad"),
    "--nr": dict(dest="n_right", type=int, help="vortices, right pad"),
    "--series": dict(choices=("alternating", "pairs"),
                     default="alternating"),
    "--max": dict(dest="max_steps", type=int, default=4,
                  help="number of steps"),
    "--bk": dict(dest="b_k_t", type=_qty("field"),
                 help="vortex entry field, e.g. 11mG"),
    "--slope": dict(dest="slope_per_t", metavar="PER_MG",
                    type=lambda per_mg: float(per_mg) / _MG,  # per tesla
                    help="vortices per pad per mG above bk"),
    "--bmin": dict(dest="b_min_t", type=_qty("field")),
    "--bmax": dict(dest="b_max_t", type=_qty("field")),
    "--points": dict(type=int),
    "--pads": dict(choices=("equal", "alternating"), default="equal"),
    "--resolution": dict(type=int, default=50,
                         help="cells per wire length L (default 50)"),
    "--r": dict(dest="r_per_s", type=_qty("rate"), default=0.0,
                help="recombination constant"),
    "--g": dict(dest="g_per_s", type=_qty("rate"), default=0.0,
                help="generation rate"),
    "--amp": dict(dest="injection_rate_per_s", type=_qty("rate"),
                  default=0.0, help="injection source on the junction node"),
    "--clamp-density": dict(
        type=float, default=None,
        help="hold the junction at this density during injection"),
    "--tinj": dict(dest="t_inj_s", type=_qty("time"), default=0.0,
                   help="injection pulse length"),
    "--xinit": dict(dest="x_init", type=float, default=0.0,
                    help="uniform initial density"),
    "--tmax": dict(dest="t_max_s", type=_qty("time"), default=10e-3),
    "--tol": dict(type=float, default=1e-8,
                  help="relative tolerance of the stiff integrator"),
    "--noise": dict(dest="noise_rel", type=float,
                    help="relative noise level, e.g. 0.02"),
    "--seed": dict(type=int),
    "--tgrid": dict(help="log:<t0>:<t1>:<n> or lin:<t0>:<t1>:<n>, "
                         "e.g. log:0.2ms:80ms:40"),
    "--rj": dict(dest="r_j_ohm", type=_qty("resistance"),
                 help="junction resistance, e.g. 8kohm"),
    "--qin": dict(dest="q_in", type=float),
    "--qout": dict(dest="q_out", type=float),
    "--qw": dict(dest="q_w", type=float),
    "--qj": dict(dest="q_j", type=float),
    "--rcore": dict(dest="r_core_m", type=_qty("length"),
                    help="vortex core radius, e.g. 100nm"),
    "--taun": dict(dest="tau_n_s", type=_qty("time"),
                   help="core relaxation time, e.g. 83ns"),
    "--rate": dict(dest="rate_per_s", type=_qty("rate"),
                   help="core relaxation rate, e.g. 1.2e7/s"),
    "--gamma": dict(dest="gamma_per_s", type=_qty("rate")),
    "--factor": dict(dest="empirical_factor", type=float, default=1.0,
                     help="empirical frequency-shift reduction factor"),
    "--rho": dict(help="comma list of radii, e.g. 50nm,100nm,80um"),
    "--out": dict(choices=("json", "csv"), default="json",
                  help="output format (default json)"),
    "--out-file": dict(default=None, metavar="PATH",
                       help="write output to PATH instead of stdout"),
    "--no-timestamp": dict(action="store_true", default=False,
                           help="omit the manifest timestamp "
                                "(reproducibility tests)"),
}

_OUTPUT = ("--out", "--out-file", "--no-timestamp")
_MODE = ("--geom", "--p", "--d", "--s0")
_COUPLING = ("--c", "--omega", "--delta")
_FIT_PARAMS = ("--amplitude", "--rprime", "--tauss", "--gamma0")
_NOT_PARAMETERS = tuple(flag[2:].replace("-", "_") for flag in _OUTPUT)


def _kept(flag, convert):
    """``convert`` returning a value it cannot parse as a UnitParseError
    for main to raise (exit 4), where argparse would exit 2."""
    def parse(text):
        try:
            return convert(text)
        except ValueError as exc:  # UnitParseError is one
            return UnitParseError(f"{flag}: {exc}")
    return parse


def _add(sp, *flags, **overrides):
    """Add ``flags`` as declared in _FLAGS, with ``overrides`` applied;
    help shows each by its flag name (RCORE), not its manifest key."""
    for flag in flags:
        kw = {**_FLAGS[flag], **overrides}
        if "dest" in kw:
            kw.setdefault("metavar", flag[2:].upper())
        if "type" in kw:
            kw["type"] = _kept(flag, kw["type"])
        sp.add_argument(flag, required="default" not in kw, **kw)


def _geom_path(name: str):
    if name in ("b1", "b2", "b3"):
        return resources.files("qpdyn.data") / f"geometry_{name}_like.cfg"
    return name


def _resolve_coupling(args) -> float:
    """Fill in --c from --omega and --delta when it was not given."""
    if args.coupling_per_s is None:
        if args.omega_rad_per_s is None or args.delta_j is None:
            raise InvalidParameterError(
                "provide either --c or both --omega and --delta")
        args.coupling_per_s = _cli.qp_coupling_constant(_cli.QubitParams(
            omega_q=args.omega_rad_per_s, delta_gap=args.delta_j))
    return args.coupling_per_s


def _quantities(result: dict, scalars: dict | None = None):
    """``result`` as JSON, and the scalar entries of ``scalars`` (default
    ``result``) as quantity,value CSV rows."""
    rows = [(k, v) for k, v in (scalars or result).items()
            if not isinstance(v, list)]
    return result, ("quantity", "value"), rows


def _table(name: str, header: tuple, rows: list):
    """CSV rows, and the same rows as JSON records under ``name``."""
    return {name: [dict(zip(header, row)) for row in rows]}, header, rows


def _fit_result_dict(f: FitResult) -> dict:
    sig = f.sigmas
    return {
        "amplitude_per_s": f.amplitude, "amplitude_sigma": float(sig[0]),
        "r_prime": f.r_prime, "r_prime_sigma": float(sig[1]),
        "tau_ss_s": f.tau_ss, "tau_ss_sigma": float(sig[2]),
        "gamma0_per_s": f.gamma0, "gamma0_sigma": float(sig[3]),
        "covariance_row_major": [float(v) for v in f.covariance.ravel()],
        "residual_norm": f.residual_norm,
        "n_used": f.n_used, "t_min_applied_s": f.t_min_applied,
    }


def _rates_dict(ex) -> dict:
    return {
        "x_i": ex.x_i, "x_i_sigma": ex.x_i_sigma, "x0_max": ex.x0_max,
        "r_per_s": ex.r, "r_sigma": ex.r_sigma,
        "s_min_per_s": ex.s_min, "s_max_per_s": ex.s_max,
        "s_min_sigma": ex.s_min_sigma, "s_max_sigma": ex.s_max_sigma,
        "g_max_per_s": ex.g_max, "g_bound_per_s": ex.g_bound,
    }


def _fit_params(args) -> FitResult:
    return _cli.FitResult.from_params(args.amplitude_per_s, args.r_prime,
                                      args.tau_ss_s, args.gamma0_per_s)


def _cmd_fit(args):
    trace = io.read_trace(args.trace)
    coupling = _resolve_coupling(args)
    f = _cli.fit_gamma_trace(trace, t_min=args.t_min_s,
                             weighting=args.weighting)
    fit = _fit_result_dict(f)
    rates = _rates_dict(_cli.extract_rates(f, coupling))
    result = {"fit": fit, "coupling_per_s": coupling, "rates": rates}
    return _quantities(result, {**fit, **rates})


def _cmd_rates(args):
    rates = _rates_dict(_cli.extract_rates(_fit_params(args),
                                           args.coupling_per_s))
    result = {"coupling_per_s": args.coupling_per_s, "rates": rates}
    return _quantities(result, rates)


def _mode_params(args):
    geom = _cli.load_geometry(_geom_path(args.geom))
    tp = _cli.TransportParams(d=args.d_m2_per_s, s0=args.s0_per_s)
    return geom, tp


def _cmd_eigenrate(args):
    geom, tp = _mode_params(args)
    vc = _cli.VortexConfig(n_left=args.n_left, n_right=args.n_right,
                           trapping_power=args.p_m2_per_s)
    sol = _cli.smallest_root(geom, vc, tp, form=args.form)
    der = _cli.derive(geom, tp.d)
    return _quantities({"z": sol.z, "s_per_s": sol.s,
                        "sA_cm2_per_s": sol.s * der.a_total * 1e4,
                        "bracket": list(sol.bracket),
                        "residual_at_root": sol.residual_at_root,
                        "branch_note": sol.branch_note,
                        "a_total_cm2": der.a_total * 1e4,
                        "tau_d_s": der.tau_d})


def _cmd_steps(args):
    geom, tp = _mode_params(args)
    rows = _cli.step_sequence(geom, tp, args.p_m2_per_s, series=args.series,
                              max_steps=args.max_steps, form=args.form)
    return _table("steps",
                  ("step", "n_left", "n_right", "s_per_s", "sA_cm2_per_s"),
                  [(k, nl, nr, float(s), float(sa * 1e4))
                   for k, (nl, nr, s, sa) in enumerate(rows)])


def _linspace(start: float, stop: float, num: int) -> list:
    """np.linspace(start, stop, num), bit for bit, as Python floats."""
    div, delta = num - 1, stop - start
    if div > 0 and delta / div != 0:
        grid = [i * (delta / div) + start for i in range(num)]
    else:  # no step, or one that underflows: numpy scales delta instead
        grid = [(i / div if div > 0 else i) * delta + start
                for i in range(num)]
    if num > 1:
        grid[-1] = stop
    return grid


def _cmd_sweep(args):
    if args.points < 0:
        raise InvalidParameterError(
            f"--points must be >= 0, got {args.points}")
    geom, tp = _mode_params(args)
    b_grid = _linspace(args.b_min_t, args.b_max_t, args.points)
    rows = _cli.field_sweep(geom, tp, args.p_m2_per_s, b_grid, args.b_k_t,
                            args.slope_per_t, pads=args.pads, form=args.form)
    der = _cli.derive(geom, tp.d)
    return _table("sweep",
                  ("b_mG", "n_left", "n_right", "s_per_s", "sA_cm2_per_s"),
                  [(float(b / _MG), nl, nr, float(s),
                    float(s * der.a_total * 1e4)) for b, nl, nr, s in rows])


def _discretization(args):
    geom, tp = _mode_params(args)
    vc = _cli.VortexConfig(n_left=args.n_left, n_right=args.n_right,
                           trapping_power=args.p_m2_per_s)
    return _cli.build(geom, vc, tp, resolution=args.resolution)


def _cmd_pde_eigen(args):
    disc = _discretization(args)
    s, mode = _cli.slowest_mode(disc)
    result = {"s_per_s": float(s), "n_nodes": disc.n_nodes,
              "resolution": args.resolution}
    csv_rows = [(seg, float(y * 1e6), float(v)) for seg, y, v in
                zip(disc.node_segment, disc.node_y, mode)]
    return result, ("segment", "y_um", "density"), csv_rows


def _cmd_pde_evolve(args):
    if args.points < 2:
        raise InvalidParameterError(
            f"--points must be >= 2 (t = 0 is dropped from the grid), "
            f"got {args.points}")
    disc = _discretization(args)
    t_grid = _linspace(0.0, args.t_max_s, args.points)[1:]
    spec = _cli.EvolveSpec(r=args.r_per_s, g=args.g_per_s,
                           t_grid=tuple(t_grid), x_init=args.x_init,
                           injection_rate=args.injection_rate_per_s,
                           injection_density=args.clamp_density,
                           t_inj=args.t_inj_s)
    xjj = _cli.evolve(disc, spec, tol=args.tol)
    return _table("trace", ("t_s", "x_jj"),
                  [(t, float(x)) for t, x in zip(t_grid, xjj)])


def _parse_tgrid(spec: str) -> np.ndarray | list:
    import numpy as np
    try:
        kind, lo, hi, n = spec.split(":")
        lo = parse_quantity(lo, "time")
        hi = parse_quantity(hi, "time")
        n = int(n)
        if n >= 2 and kind == "log":
            return np.logspace(math.log10(lo), math.log10(hi), n)
        if n >= 2 and kind == "lin":
            return _linspace(lo, hi, n)
    except (ValueError, UnitParseError):
        pass
    raise UnitParseError(
        f"--tgrid must be log:<t0>:<t1>:<n> or lin:<t0>:<t1>:<n> with "
        f"n >= 2, got {spec!r}")


def _cmd_synth(args):
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
    f = _fit_params(args)
    trace = _cli.synth_trace(f, _parse_tgrid(args.tgrid), args.noise_rel,
                             args.seed)
    return None, *io.trace_table(trace)


def _cmd_t1fit(args):
    points = io.read_points(args.points)
    coupling = _resolve_coupling(args)
    res = _cli.fit_t1_vs_tau(points, coupling)
    return _quantities({"g_per_s": res.g, "g_sigma": res.g_sigma,
                        "gamma_ex_per_s": res.gamma_ex,
                        "gamma_ex_sigma": res.gamma_ex_sigma,
                        "n_points": res.n_points, "coupling_per_s": coupling})


def _cmd_estimate_injection(args):
    qs = _cli.CavityQs(q_in=args.q_in, q_out=args.q_out, q_w=args.q_w,
                       q_j=args.q_j)
    p_in = _cli.injection_power(args.r_j_ohm, args.delta_j, qs)
    # 0 W (an underflow) is -inf dBm, which the output refuses by name
    dbm = 10.0 * math.log10(p_in / 1e-3) if p_in != 0 else -math.inf
    return _quantities({"p_in_w": p_in, "p_in_dbm": dbm, "q_tot": qs.q_tot})


def _cmd_estimate_qprate(args):
    g = _cli.qp_injection_rate(args.r_j_ohm, args.delta_j)
    return _quantities({"g_per_s": g, "g_per_us": g * 1e-6})


def _cmd_estimate_trapping_power(args):
    if args.tau_n_s is None:
        check_finite("--rate", args.rate_per_s, ">")
        args.tau_n_s = 1.0 / args.rate_per_s
    p = _cli.microscopic_trapping_power(
        _cli.VortexMicro(r_core=args.r_core_m, tau_n=args.tau_n_s))
    return _quantities({"p_m2_per_s": p, "p_cm2_per_s": p * 1e4})


def _cmd_estimate_freqshift(args):
    shift = _cli.frequency_shift(args.gamma_per_s, args.omega_rad_per_s,
                                 args.delta_j,
                                 empirical_factor=args.empirical_factor)
    return _quantities({
        "delta_omega_rad_per_s": shift,
        "delta_f_hz": shift / (2.0 * math.pi),
        "ratio_to_gamma": (shift / args.gamma_per_s if args.gamma_per_s
                           else 0.0)})


def _cmd_estimate_vortex_profile(args):
    rhos = [parse_quantity(tok, "length") for tok in args.rho.split(",")]
    vals = [float(_cli.vortex_profile(rho, args.p_m2_per_s,
                                      args.d_m2_per_s, args.r_core_m))
            for rho in rhos]
    return _table("profile", ("rho_m", "ratio"), list(zip(rhos, vals)))


def _leaf(sub, path: str, run, summary: str, outputs=_OUTPUT):
    """Subcommand ``path`` (e.g. "pde evolve"), run by ``run`` and named
    "pde-evolve" in its manifest."""
    sp = sub.add_parser(path.split()[-1], help=summary, epilog=_EPILOG,
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    sp.set_defaults(_run=run, _command=path.replace(" ", "-"))
    _add(sp.add_argument_group("output"), *outputs)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpdyn",
        description="Quasiparticle dynamics: decay-trace fits, vortex "
                    "trapping eigenmodes, reaction-diffusion simulation.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(required=True)

    sp = _leaf(sub, "fit", _cmd_fit, "fit a Gamma(t) trace, extract rates")
    sp.add_argument("trace", type=_InputFile,
                    help="trace CSV file (t,gamma[,sigma])")
    _add(sp, "--tmin", "--weighting")
    _add(sp, *_COUPLING, default=None)

    sp = _leaf(sub, "rates", _cmd_rates,
               "rate extraction from fit parameters")
    _add(sp, *_FIT_PARAMS, "--c")

    sp = _leaf(sub, "eigenrate", _cmd_eigenrate,
               "slowest trapping mode for given vortex counts")
    _add(sp, *_MODE, "--form", "--nl", "--nr")

    sp = _leaf(sub, "steps", _cmd_steps, "quantized vortex-step table")
    _add(sp, *_MODE, "--form", "--series", "--max")

    sp = _leaf(sub, "sweep", _cmd_sweep, "decay rate versus cooling field")
    _add(sp, *_MODE, "--form", "--bk", "--slope", "--bmin", "--bmax",
         "--pads")
    _add(sp, "--points", default=25)

    pde = sub.add_parser(
        "pde", help="discretized reaction-diffusion oracle"
    ).add_subparsers(required=True)
    sp = _leaf(pde, "pde eigen", _cmd_pde_eigen,
               "slowest mode of the discretized generator")
    _add(sp, *_MODE, "--nl", "--nr", "--resolution")
    _add(sp, "--form", help="accepted and ignored: the discretized "
                            "solver has no form variants")
    sp = _leaf(pde, "pde evolve", _cmd_pde_evolve,
               "nonlinear time evolution with an injection drive")
    _add(sp, *_MODE, "--nl", "--nr", "--resolution", "--r", "--g", "--amp",
         "--clamp-density", "--tinj", "--xinit", "--tmax", "--tol")
    _add(sp, "--points", default=100)

    sp = _leaf(sub, "synth", _cmd_synth, "generate a synthetic decay trace",
               outputs=("--out-file", "--no-timestamp"))
    sp.set_defaults(out="csv")
    _add(sp, *_FIT_PARAMS, "--noise", "--seed", "--tgrid")

    sp = _leaf(sub, "t1fit", _cmd_t1fit,
               "steady-state line fit: 1/T1 vs tau_ss")
    sp.add_argument("points", type=_InputFile,
                    help="CSV file (tau_ss,inv_t1[,sigma_inv_t1])")
    _add(sp, *_COUPLING, default=None)

    est = sub.add_parser(
        "estimate", help="closed-form auxiliary estimators"
    ).add_subparsers(required=True)
    sp = _leaf(est, "estimate injection", _cmd_estimate_injection,
               "input power that reaches the pair-breaking voltage")
    _add(sp, "--rj", "--delta", "--qin", "--qout", "--qw", "--qj")
    sp = _leaf(est, "estimate qprate", _cmd_estimate_qprate,
               "QP creation rate of the saturated injection drive")
    _add(sp, "--rj", "--delta")
    sp = _leaf(est, "estimate trapping-power", _cmd_estimate_trapping_power,
               "trapping power of a normal-core vortex")
    _add(sp, "--rcore")
    _add(sp.add_mutually_exclusive_group(required=True), "--taun", "--rate",
         default=None)
    sp = _leaf(est, "estimate freqshift", _cmd_estimate_freqshift,
               "QP-induced qubit frequency shift")
    _add(sp, "--gamma", "--omega", "--delta", "--factor")
    sp = _leaf(est, "estimate vortex-profile", _cmd_estimate_vortex_profile,
               "QP density around a single vortex")
    _add(sp, "--p", "--d", "--rcore", "--rho")
    return parser


def _check_writable(path) -> None:
    """Raise PermissionError unless ``path`` can be written, without
    creating or truncating it."""
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise PermissionError(f"output file {path!r} is not writable")


def _manifest(args) -> dict:
    """The run manifest: every parsed (or resolved) flag of the command."""
    params = {k: v for k, v in vars(args).items()
              if not k.startswith("_") and k not in _NOT_PARAMETERS}
    seed = params.pop("seed", None)
    inputs = [_geom_path(v) if k == "geom" else v
              for k, v in params.items() if isinstance(v, _InputFile)]
    return io.build_manifest(args._command, params, input_paths=inputs,
                             seed=seed, no_timestamp=args.no_timestamp)


def _numerical() -> tuple:
    """Stray numerical failures, e.g. 1/0, an overflow or an SVD that does
    not converge, reported as NonConvergenceError (exit 6).  numpy's
    LinAlgError counts once a command has loaded numpy.linalg."""
    linalg = sys.modules.get("numpy.linalg")
    return (ArithmeticError, *((linalg.LinAlgError,) if linalg else ()))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for value in vars(args).values():
            if isinstance(value, UnitParseError):
                raise value
        if args.out_file is not None:
            _check_writable(args.out_file)
        result, csv_header, csv_rows = args._run(args)
        manifest = _manifest(args)
        if args.out == "csv":
            text = io.format_csv_result(csv_header, csv_rows, manifest)
        else:
            text = io.format_json_result(result, manifest)
        io.write_text(text, args.out_file)
        return 0
    except (*_numerical(), OSError, QpdynError) as exc:
        if not isinstance(exc, (OSError, QpdynError)):  # numerical
            exc = NonConvergenceError(
                f"numerical failure ({type(exc).__name__}: {exc})")
        print(f"qpdyn {args._command}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)  # OSError: 3


if __name__ == "__main__":
    sys.exit(main())
