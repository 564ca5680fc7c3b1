"""Command-line interface.

Every dimensioned flag takes an explicit unit suffix (``--tmin 200us``,
``--p 0.067cm2/s``, ``--delta 180ueV``, ``--bk 11mG``); bare numbers are
accepted only where the quantity is dimensionless.  Results go to stdout
(or --out-file) as JSON or plot-ready CSV, always accompanied by a run
manifest; --no-timestamp drops the manifest timestamp so identical runs
are byte-identical.

Exit codes: 0 success, 2 usage error, 3 missing input file, 4 input file
or unit parse error, 5 invalid parameters or degenerate inputs,
6 numerical failure (no convergence, no root, step underflow).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import numpy as np

from . import __version__, io
from .constants import QubitParams, qp_coupling_constant
from .errors import InvalidParameterError, QpdynError, UnitParseError
from .eigenmode import (TransportParams, VortexConfig, field_sweep,
                        smallest_root, step_sequence)
from .estimates import (CavityQs, VortexMicro, frequency_shift,
                        injection_power, microscopic_trapping_power,
                        qp_injection_rate, vortex_profile)
from .geometry import derive, load_geometry
from .pde_sim import EvolveSpec, build, evolve, slowest_mode
from .trace_fit import (FitResult, extract_rates, fit_gamma_trace,
                        fit_t1_vs_tau, synth_trace)
from .units import parse_angular_frequency, parse_quantity

_EXIT_MISSING_FILE = 3

_MG = 1e-7  # tesla per milligauss

_EPILOG = """\
exit codes:
  0  success
  2  usage error (unknown flag or subcommand)
  3  input file not found
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
    def convert(text):
        try:
            return parse_quantity(text, kind)
        except UnitParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    convert.__name__ = kind
    return convert


def _omega(text):
    try:
        return parse_angular_frequency(text)
    except UnitParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _geom_path(name: str):
    if name in ("b1", "b2", "b3"):
        return resources.files("qpdyn.data") / f"geometry_{name}_like.cfg"
    return name


def _coupling(args) -> float:
    if getattr(args, "c", None) is not None:
        return args.c
    if args.omega is None or args.delta is None:
        raise InvalidParameterError(
            "provide either --c or both --omega and --delta")
    return qp_coupling_constant(QubitParams(omega_q=args.omega,
                                            delta_gap=args.delta))


def _emit(args, manifest, json_result=None, csv_header=None, csv_rows=None):
    if getattr(args, "out", "json") == "csv" and csv_header is not None:
        text = io.format_csv_result(csv_header, csv_rows, manifest)
    else:
        text = io.format_json_result(json_result, manifest)
    io.write_text(text, getattr(args, "out_file", None))
    return 0


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


def _cmd_fit(args):
    trace = io.read_trace(args.trace)
    coupling = _coupling(args)
    f = fit_gamma_trace(trace, t_min=args.tmin, weighting=args.weighting)
    ex = extract_rates(f, coupling)
    result = {"fit": _fit_result_dict(f), "coupling_per_s": coupling,
              "rates": _rates_dict(ex)}
    man = io.build_manifest(
        "fit", {"trace": str(args.trace), "t_min_s": args.tmin,
                "weighting": args.weighting, "coupling_per_s": coupling},
        input_paths=[args.trace], no_timestamp=args.no_timestamp)
    rows = [(k, v) for k, v in {**_fit_result_dict(f),
                                **_rates_dict(ex)}.items()
            if not isinstance(v, list)]
    return _emit(args, man, result, ("quantity", "value"), rows)


def _cmd_rates(args):
    f = FitResult.from_params(args.amplitude, args.rprime, args.tauss,
                              args.gamma0)
    ex = extract_rates(f, args.c)
    man = io.build_manifest(
        "rates", {"amplitude_per_s": args.amplitude, "r_prime": args.rprime,
                  "tau_ss_s": args.tauss, "gamma0_per_s": args.gamma0,
                  "coupling_per_s": args.c},
        no_timestamp=args.no_timestamp)
    result = {"coupling_per_s": args.c, "rates": _rates_dict(ex)}
    return _emit(args, man, result, ("quantity", "value"),
                 list(_rates_dict(ex).items()))


def _mode_params(args):
    geom = load_geometry(_geom_path(args.geom))
    tp = TransportParams(d=args.d, s0=args.s0)
    return geom, tp


def _cmd_eigenrate(args):
    geom, tp = _mode_params(args)
    vc = VortexConfig(n_left=args.nl, n_right=args.nr, trapping_power=args.p)
    sol = smallest_root(geom, vc, tp, form=args.form)
    der = derive(geom, tp.d)
    result = {"z": sol.z, "s_per_s": sol.s,
              "sA_cm2_per_s": sol.s * der.a_total * 1e4,
              "bracket": list(sol.bracket),
              "residual_at_root": sol.residual_at_root,
              "branch_note": sol.branch_note,
              "a_total_cm2": der.a_total * 1e4, "tau_d_s": der.tau_d}
    man = io.build_manifest(
        "eigenrate", {"geom": str(args.geom), "n_left": args.nl,
                      "n_right": args.nr, "p_m2_per_s": args.p,
                      "d_m2_per_s": args.d, "s0_per_s": args.s0,
                      "form": args.form},
        input_paths=[_geom_path(args.geom)], no_timestamp=args.no_timestamp)
    return _emit(args, man, result)


def _cmd_steps(args):
    geom, tp = _mode_params(args)
    rows = step_sequence(geom, tp, args.p, series=args.series,
                         max_steps=args.max, form=args.form)
    csv_rows = [(k, nl, nr, float(s), float(sa * 1e4))
                for k, (nl, nr, s, sa) in enumerate(rows)]
    man = io.build_manifest(
        "steps", {"geom": str(args.geom), "p_m2_per_s": args.p,
                  "d_m2_per_s": args.d, "s0_per_s": args.s0,
                  "series": args.series, "max_steps": args.max,
                  "form": args.form},
        input_paths=[_geom_path(args.geom)], no_timestamp=args.no_timestamp)
    result = {"steps": [{"step": k, "n_left": nl, "n_right": nr,
                         "s_per_s": float(s), "sA_cm2_per_s": float(sa * 1e4)}
                        for k, (nl, nr, s, sa) in enumerate(rows)]}
    return _emit(args, man, result,
                 ("step", "n_left", "n_right", "s_per_s", "sA_cm2_per_s"),
                 csv_rows)


def _cmd_sweep(args):
    geom, tp = _mode_params(args)
    b_grid = np.linspace(args.bmin, args.bmax, args.points)
    slope_per_tesla = args.slope / _MG  # CLI slope is per milligauss
    rows = field_sweep(geom, tp, args.p, b_grid, args.bk,
                       slope_per_tesla, pads=args.pads, form=args.form)
    der = derive(geom, tp.d)
    csv_rows = [(float(b / _MG), nl, nr, float(s),
                 float(s * der.a_total * 1e4)) for b, nl, nr, s in rows]
    man = io.build_manifest(
        "sweep", {"geom": str(args.geom), "p_m2_per_s": args.p,
                  "d_m2_per_s": args.d, "s0_per_s": args.s0,
                  "b_k_t": args.bk, "slope_per_t": slope_per_tesla,
                  "b_min_t": args.bmin, "b_max_t": args.bmax,
                  "points": args.points, "pads": args.pads},
        input_paths=[_geom_path(args.geom)], no_timestamp=args.no_timestamp)
    result = {"sweep": [{"b_mG": r[0], "n_left": r[1], "n_right": r[2],
                         "s_per_s": r[3], "sA_cm2_per_s": r[4]}
                        for r in csv_rows]}
    return _emit(args, man, result,
                 ("b_mG", "n_left", "n_right", "s_per_s", "sA_cm2_per_s"),
                 csv_rows)


def _cmd_pde(args):
    geom, tp = _mode_params(args)
    vc = VortexConfig(n_left=args.nl, n_right=args.nr, trapping_power=args.p)
    disc = build(geom, vc, tp, resolution=args.resolution)
    if args.action == "eigen":
        s, mode = slowest_mode(disc)
        result = {"s_per_s": float(s), "n_nodes": disc.n_nodes,
                  "resolution": args.resolution}
        man = io.build_manifest(
            "pde-eigen", {"geom": str(args.geom), "n_left": args.nl,
                          "n_right": args.nr, "p_m2_per_s": args.p,
                          "d_m2_per_s": args.d, "s0_per_s": args.s0,
                          "resolution": args.resolution},
            input_paths=[_geom_path(args.geom)],
            no_timestamp=args.no_timestamp)
        csv_rows = [(seg, float(y * 1e6), float(v)) for seg, y, v in
                    zip(disc.node_segment, disc.node_y, mode)]
        return _emit(args, man, result, ("segment", "y_um", "density"),
                     csv_rows)
    t_grid = np.linspace(0.0, args.tmax, args.points)
    if t_grid[0] == 0.0:
        t_grid = t_grid[1:]
    spec = EvolveSpec(r=args.r, g=args.g, t_grid=tuple(t_grid),
                      x_init=args.xinit, injection_rate=args.amp,
                      injection_density=args.clamp_density,
                      t_inj=args.tinj)
    xjj = evolve(disc, spec, tol=args.tol)
    man = io.build_manifest(
        "pde-evolve", {"geom": str(args.geom), "n_left": args.nl,
                       "n_right": args.nr, "p_m2_per_s": args.p,
                       "d_m2_per_s": args.d, "s0_per_s": args.s0,
                       "r_per_s": args.r, "g_per_s": args.g,
                       "injection_rate_per_s": args.amp,
                       "t_inj_s": args.tinj, "x_init": args.xinit,
                       "t_max_s": args.tmax, "points": args.points,
                       "resolution": args.resolution, "tol": args.tol},
        input_paths=[_geom_path(args.geom)], no_timestamp=args.no_timestamp)
    csv_rows = [(float(t), float(x)) for t, x in zip(t_grid, xjj)]
    result = {"trace": [{"t_s": r[0], "x_jj": r[1]} for r in csv_rows]}
    return _emit(args, man, result, ("t_s", "x_jj"), csv_rows)


def _parse_tgrid(spec: str) -> np.ndarray:
    try:
        kind, lo, hi, n = spec.split(":")
        lo = parse_quantity(lo, "time")
        hi = parse_quantity(hi, "time")
        n = int(n)
        if kind == "log":
            return np.logspace(math.log10(lo), math.log10(hi), n)
        if kind == "lin":
            return np.linspace(lo, hi, n)
    except (ValueError, UnitParseError):
        pass
    raise UnitParseError(
        f"--tgrid must be log:<t0>:<t1>:<n> or lin:<t0>:<t1>:<n>, "
        f"got {spec!r}")


def _cmd_synth(args):
    f = FitResult.from_params(args.amplitude, args.rprime, args.tauss,
                              args.gamma0)
    t_grid = _parse_tgrid(args.tgrid)
    trace = synth_trace(f, t_grid, args.noise, args.seed)
    man = io.build_manifest(
        "synth", {"amplitude_per_s": args.amplitude, "r_prime": args.rprime,
                  "tau_ss_s": args.tauss, "gamma0_per_s": args.gamma0,
                  "noise_rel": args.noise, "tgrid": args.tgrid},
        seed=args.seed, no_timestamp=args.no_timestamp)
    text = "# manifest: " + json.dumps(
        man.to_dict(), separators=(",", ":")) + "\n" + io.format_trace(trace)
    io.write_text(text, args.out_file)
    return 0


def _cmd_t1fit(args):
    points = io.read_points(args.points)
    coupling = _coupling(args)
    res = fit_t1_vs_tau(points, coupling)
    result = {"g_per_s": res.g, "g_sigma": res.g_sigma,
              "gamma_ex_per_s": res.gamma_ex,
              "gamma_ex_sigma": res.gamma_ex_sigma,
              "n_points": res.n_points, "coupling_per_s": coupling}
    man = io.build_manifest(
        "t1fit", {"points": str(args.points), "coupling_per_s": coupling},
        input_paths=[args.points], no_timestamp=args.no_timestamp)
    return _emit(args, man, result, ("quantity", "value"),
                 list(result.items()))


def _cmd_estimate(args):
    man_params = {}
    if args.what == "injection":
        qs = CavityQs(q_in=args.qin, q_out=args.qout, q_w=args.qw,
                      q_j=args.qj)
        p_in = injection_power(args.rj, args.delta, qs)
        result = {"p_in_w": p_in,
                  "p_in_dbm": 10.0 * math.log10(p_in / 1e-3),
                  "q_tot": qs.q_tot}
        man_params = {"r_j_ohm": args.rj, "delta_j": args.delta,
                      "q_in": args.qin, "q_out": args.qout,
                      "q_w": args.qw, "q_j": args.qj}
    elif args.what == "qprate":
        g = qp_injection_rate(args.rj, args.delta)
        result = {"g_per_s": g, "g_per_us": g * 1e-6}
        man_params = {"r_j_ohm": args.rj, "delta_j": args.delta}
    elif args.what == "trapping-power":
        tau_n = args.taun if args.taun is not None else 1.0 / args.rate
        p = microscopic_trapping_power(VortexMicro(r_core=args.rcore,
                                                   tau_n=tau_n))
        result = {"p_m2_per_s": p, "p_cm2_per_s": p * 1e4}
        man_params = {"r_core_m": args.rcore, "tau_n_s": tau_n}
    elif args.what == "freqshift":
        shift = frequency_shift(args.gamma, args.omega, args.delta,
                                empirical_factor=args.factor)
        result = {"delta_omega_rad_per_s": shift,
                  "delta_f_hz": shift / (2.0 * math.pi),
                  "ratio_to_gamma": shift / args.gamma if args.gamma else 0.0}
        man_params = {"gamma_per_s": args.gamma, "omega_rad_per_s": args.omega,
                      "delta_j": args.delta, "empirical_factor": args.factor}
    else:  # vortex-profile
        rhos = [parse_quantity(tok, "length") for tok in args.rho.split(",")]
        vals = [float(vortex_profile(rho, args.p, args.d, args.rcore))
                for rho in rhos]
        result = {"profile": [{"rho_m": rho, "ratio": v}
                              for rho, v in zip(rhos, vals)]}
        man_params = {"p_m2_per_s": args.p, "d_m2_per_s": args.d,
                      "r_core_m": args.rcore, "rho": args.rho}
        man = io.build_manifest("estimate-vortex-profile", man_params,
                                no_timestamp=args.no_timestamp)
        return _emit(args, man, result, ("rho_m", "ratio"),
                     [(rho, v) for rho, v in zip(rhos, vals)])
    man = io.build_manifest(f"estimate-{args.what}", man_params,
                            no_timestamp=args.no_timestamp)
    return _emit(args, man, result, ("quantity", "value"),
                 list(result.items()))


def _add_common(sp):
    sp.add_argument("--out", choices=("json", "csv"), default="json",
                    help="output format (default json)")
    sp.add_argument("--out-file", default=None, metavar="PATH",
                    help="write output to PATH instead of stdout")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit the manifest timestamp (reproducibility tests)")


def _add_coupling(sp):
    sp.add_argument("--c", type=_qty("rate"), default=None,
                    help="QP-to-rate coupling C, e.g. 4.6e10/s")
    sp.add_argument("--omega", type=_omega, default=None,
                    help="qubit frequency, e.g. 6GHz (angular: rad/s)")
    sp.add_argument("--delta", type=_qty("energy"), default=None,
                    help="superconducting gap, e.g. 180ueV")


def _add_mode_common(sp):
    sp.add_argument("--geom", required=True,
                    help="geometry config path, or bundled b1|b2|b3")
    sp.add_argument("--p", type=_qty("diffusivity"), required=True,
                    help="per-vortex trapping power, e.g. 0.067cm2/s")
    sp.add_argument("--d", type=_qty("diffusivity"), required=True,
                    help="diffusion constant, e.g. 18cm2/s")
    sp.add_argument("--s0", type=_qty("rate"), default=0.0,
                    help="background trapping rate, e.g. 33/s (default 0/s)")
    sp.add_argument("--form", choices=("reduced", "full"), default="reduced",
                    help="mode equation variant (default reduced)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpdyn",
        description="Quasiparticle dynamics: decay-trace fits, vortex "
                    "trapping eigenmodes, reaction-diffusion simulation.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="fit a Gamma(t) trace, extract rates",
                        epilog=_EPILOG,
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    sp.add_argument("trace", help="trace CSV file (t,gamma[,sigma])")
    sp.add_argument("--tmin", type=_qty("time"), default=200e-6,
                    help="discard samples earlier than this (default 200us)")
    sp.add_argument("--weighting",
                    choices=("relative", "absolute", "sigma"),
                    default="relative")
    _add_coupling(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("rates", help="rate extraction from fit parameters")
    sp.add_argument("--amplitude", type=_qty("rate"), required=True)
    sp.add_argument("--rprime", type=float, required=True)
    sp.add_argument("--tauss", type=_qty("time"), required=True)
    sp.add_argument("--gamma0", type=_qty("rate"), required=True)
    sp.add_argument("--c", type=_qty("rate"), required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("eigenrate",
                        help="slowest trapping mode for given vortex counts")
    _add_mode_common(sp)
    sp.add_argument("--nl", type=int, required=True, help="vortices, left pad")
    sp.add_argument("--nr", type=int, required=True, help="vortices, right pad")
    _add_common(sp)
    sp.set_defaults(func=_cmd_eigenrate)

    sp = sub.add_parser("steps", help="quantized vortex-step table")
    _add_mode_common(sp)
    sp.add_argument("--series", choices=("alternating", "pairs"),
                    default="alternating")
    sp.add_argument("--max", type=int, default=4, help="number of steps")
    _add_common(sp)
    sp.set_defaults(func=_cmd_steps)

    sp = sub.add_parser("sweep", help="decay rate versus cooling field")
    _add_mode_common(sp)
    sp.add_argument("--bk", type=_qty("field"), required=True,
                    help="vortex entry field, e.g. 11mG")
    sp.add_argument("--slope", type=float, required=True, metavar="PER_MG",
                    help="vortices per pad per mG above bk")
    sp.add_argument("--bmin", type=_qty("field"), required=True)
    sp.add_argument("--bmax", type=_qty("field"), required=True)
    sp.add_argument("--points", type=int, default=25)
    sp.add_argument("--pads", choices=("equal", "alternating"),
                    default="equal")
    _add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("pde", help="discretized reaction-diffusion oracle")
    sp.add_argument("action", choices=("eigen", "evolve"))
    _add_mode_common(sp)
    sp.add_argument("--nl", type=int, required=True)
    sp.add_argument("--nr", type=int, required=True)
    sp.add_argument("--resolution", type=int, default=50,
                    help="cells per wire length L (default 50)")
    sp.add_argument("--r", type=_qty("rate"), default=0.0,
                    help="recombination constant (evolve)")
    sp.add_argument("--g", type=_qty("rate"), default=0.0,
                    help="generation rate (evolve)")
    sp.add_argument("--amp", type=_qty("rate"), default=0.0,
                    help="injection source on the junction node (evolve)")
    sp.add_argument("--clamp-density", type=float, default=None,
                    help="hold the junction at this density during injection")
    sp.add_argument("--tinj", type=_qty("time"), default=0.0,
                    help="injection pulse length (evolve)")
    sp.add_argument("--xinit", type=float, default=0.0,
                    help="uniform initial density (evolve)")
    sp.add_argument("--tmax", type=_qty("time"), default=10e-3)
    sp.add_argument("--points", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="relative tolerance of the stiff integrator "
                         "(evolve)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_pde)

    sp = sub.add_parser("synth", help="generate a synthetic decay trace")
    sp.add_argument("--amplitude", type=_qty("rate"), required=True)
    sp.add_argument("--rprime", type=float, required=True)
    sp.add_argument("--tauss", type=_qty("time"), required=True)
    sp.add_argument("--gamma0", type=_qty("rate"), required=True)
    sp.add_argument("--noise", type=float, required=True,
                    help="relative noise level, e.g. 0.02")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--tgrid", required=True,
                    help="log:<t0>:<t1>:<n> or lin:<t0>:<t1>:<n>, "
                         "e.g. log:0.2ms:80ms:40")
    sp.add_argument("--out-file", default=None, metavar="PATH")
    sp.add_argument("--no-timestamp", action="store_true")
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("t1fit",
                        help="steady-state line fit: 1/T1 vs tau_ss")
    sp.add_argument("points", help="CSV file (tau_ss,inv_t1[,sigma_inv_t1])")
    _add_coupling(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_t1fit)

    sp = sub.add_parser("estimate", help="closed-form auxiliary estimators")
    sp.add_argument("what", choices=("injection", "qprate", "trapping-power",
                                     "freqshift", "vortex-profile"))
    sp.add_argument("--rj", type=_qty("resistance"), default=None,
                    help="junction resistance, e.g. 8kohm")
    sp.add_argument("--delta", type=_qty("energy"), default=None,
                    help="superconducting gap, e.g. 180ueV")
    sp.add_argument("--qin", type=float, default=None)
    sp.add_argument("--qout", type=float, default=None)
    sp.add_argument("--qw", type=float, default=None)
    sp.add_argument("--qj", type=float, default=None)
    sp.add_argument("--rcore", type=_qty("length"), default=None,
                    help="vortex core radius, e.g. 100nm")
    sp.add_argument("--taun", type=_qty("time"), default=None,
                    help="core relaxation time, e.g. 83ns")
    sp.add_argument("--rate", type=_qty("rate"), default=None,
                    help="core relaxation rate, e.g. 1.2e7/s")
    sp.add_argument("--gamma", type=_qty("rate"), default=None)
    sp.add_argument("--omega", type=_omega, default=None)
    sp.add_argument("--factor", type=float, default=1.0,
                    help="empirical frequency-shift reduction factor")
    sp.add_argument("--p", type=_qty("diffusivity"), default=None)
    sp.add_argument("--d", type=_qty("diffusivity"), default=None)
    sp.add_argument("--rho", default=None,
                    help="comma list of radii, e.g. 50nm,100nm,80um")
    _add_common(sp)
    sp.set_defaults(func=_cmd_estimate)
    return parser


_REQUIRED_BY_ESTIMATE = {
    "injection": ("rj", "delta", "qin", "qout", "qw", "qj"),
    "qprate": ("rj", "delta"),
    "trapping-power": ("rcore",),
    "freqshift": ("gamma", "omega", "delta"),
    "vortex-profile": ("p", "d", "rcore", "rho"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "estimate":
            missing = [f"--{k}" for k in _REQUIRED_BY_ESTIMATE[args.what]
                       if getattr(args, k.replace("-", "_")) is None]
            if args.what == "trapping-power" and args.taun is None \
                    and args.rate is None:
                missing.append("--taun or --rate")
            if missing:
                raise InvalidParameterError(
                    f"estimate {args.what} requires {', '.join(missing)}")
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"qpdyn: file not found: {exc.filename or exc}",
              file=sys.stderr)
        return _EXIT_MISSING_FILE
    except QpdynError as exc:
        print(f"qpdyn: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
