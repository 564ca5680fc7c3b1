"""The three workloads: inputs, one op, and the correctness gate per op.

Each workload exposes
  setup()      generate the inputs, build the program objects, warm up
  run(i)       op i through ``self.api`` (the only timed code)
  check(i, out)   raise CheckFailed, or return the op's relative error
                  against the workload's reference (None if it has none)
  finish()     failed checks outside the ops
  extra(tracer)   traced run only: reference kernels outside the ops
  prepare()     fill the references, after set-up and before the loop
References are never computed inside run() or setup().
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
from layers import Api
from reference import REF_RTOL

BENCH = Path(__file__).resolve().parent

EV = 1.602176634e-19
# lab-unit suffix -> SI factor, for recomputing the SI values of CLI flags
_UNITS = {"us": 1e-6, "ms": 1e-3, "/s": 1.0, "cm2/s": 1e-4, "ueV": 1e-6 * EV,
          "GHz": 1e9, "mG": 1e-7, "kohm": 1e3, "nm": 1e-9, "um": 1e-6,
          "um2": 1e-12}
_QTY = re.compile(r"^([+-]?[0-9.]+(?:[eE][+-]?\d+)?)(.*)$")

# correctness tolerances
ODE_REL = 1e-8            # integrate_ode vs xqp_analytic (test_dynamics)
FIT_TAU_BAND = 0.05       # criterion 1: fitted tau_ss within 5% (or 5 sigma)
EIGEN_PDE_REL = 0.005     # criterion 8: full form vs PDE slowest mode
REDUCED_PDE_REL = 0.05    # reduced form omits the central wire; the gap
                          # measured over this input box is <= 1.6%
FACTORIZED_REL = 0.05     # criterion 9
EVOLVE_REF_REL = 1e-4     # driven evolve at tol 1e-6 vs the Radau
                          # reference, per output point (gap ~1e-6)
RELEASE_REL = 0.01        # criterion 10's level, only at output points
RELEASE_WINDOW_S = 5e-6   # this close after t_inj, where the drive stops:
                          # evolve's smoothing burst leaves ~1e-3 at 0.2 us
                          # after a clamp release, 7e-4 at 1 us after a
                          # rate switch-off, ~1e-5 at 4 us, ~1e-6 at 10 us
CLAMP_REL = 1e-6          # test_clamped_injection_holds_density
CLI_REL = 1e-9            # CLI JSON/CSV numbers vs the in-process call
PDE_REF_RESOLUTION = 200


class CheckFailed(Exception):
    pass


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(b), 1e-300)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _bundled_geoms(root: Path):
    from qpdyn.geometry import load_geometry
    return {k: load_geometry(root / "src" / "qpdyn" / "data"
                             / f"geometry_{k}_like.cfg")
            for k in inputs.GEOMS}


class Workload:
    """Base class; tail_pct is the latency percentile reported as the
    tail, fixed per workload so runs compare like with like."""

    tail_pct = 50.0

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.api = Api()
        self.tracer = None
        self.ops: list = []
        self.counters: dict[str, list[float]] = {}
        self.discs: list = []
        self.meshes: list = []
        self.problems: list[str] = []

    def count(self, name, value):
        if self.tracer is not None:
            self.counters.setdefault(name, []).append(float(value))

    def count_build(self, disc):
        """Problem-size counts of a traced build; keeps a few for lu_kernel."""
        if self.tracer is None:
            return
        gen = disc.generator
        self.count("pde_sim.build.n_nodes", disc.n_nodes)
        self.count("pde_sim.build.nnz", gen.nnz)
        self.count("pde_sim.build.generator_bytes",
                   gen.data.nbytes + gen.indices.nbytes + gen.indptr.nbytes)
        if len(self.discs) < 8:
            self.discs.append(disc)

    def prepare(self):
        """Fill the references before the timed loop: one untimed, checked
        pass over the ops.  A failure here recurs, and is counted, when
        the loop runs the op."""
        for i in range(len(self.ops)):
            try:
                self.check(i, self.run(i))
            except Exception:
                pass

    def finish(self) -> list[str]:
        """Failed checks outside the ops (the traced run's extra calls)."""
        return self.problems

    def extra(self, tracer):
        pass

    def sizes(self) -> dict:
        out = {"ops_in_pool": len(self.ops)}
        if self.meshes:
            for k, key in enumerate(("n_nodes", "nnz", "generator_bytes")):
                out[f"{key}_median"] = float(np.median(
                    [m[k] for m in self.meshes]))
        return out

    def mesh(self, disc):
        """Record a reference mesh's computed size."""
        gen = disc.generator
        self.meshes.append((disc.n_nodes, gen.nnz, gen.data.nbytes
                            + gen.indices.nbytes + gen.indptr.nbytes))


# --------------------------------------------------------------- vortex-modes

class VortexModes(Workload):
    name = "vortex-modes"
    tail_pct = 95.0

    def setup(self):
        from qpdyn.eigenmode import TransportParams, VortexConfig
        from qpdyn.geometry import scaled
        geoms = _bundled_geoms(self.root)
        self.ops = []
        for op in inputs.vortex_modes_ops(self.seed):
            op = dict(op)
            op["geometry"] = scaled(geoms[op["geom"]], op["scale"])
            op["tp"] = TransportParams(d=op["d"], s0=op["s0"])
            if "n_left" in op:
                op["vc"] = VortexConfig(op["n_left"], op["n_right"], op["p"])
            if op["kind"] == "sweep":
                op["b_grid"] = np.linspace(0.0, op["b_max"], op["points"])
            self.ops.append(op)
        self.pde_refs: dict = {}
        self.full_refs: dict = {}
        for kind in ("root", "steps", "sweep", "root_pde"):
            self.run(next(i for i, op in enumerate(self.ops)
                          if op["kind"] == kind))

    def run(self, i):
        op, api = self.ops[i], self.api
        geom, tp = op["geometry"], op["tp"]
        kind = op["kind"]
        if kind == "steps":
            return api.step_sequence(geom, tp, op["p"], series=op["series"],
                                     max_steps=op["max_steps"],
                                     form=op["form"])
        if kind == "sweep":
            return api.field_sweep(geom, tp, op["p"], op["b_grid"],
                                   op["b_k"], op["slope"], pads=op["pads"],
                                   form=op["form"])
        sol = api.smallest_root(geom, op["vc"], tp, form=op["form"])
        if kind == "root":
            return sol
        disc = api.build(geom, op["vc"], tp, resolution=PDE_REF_RESOLUTION)
        self.count_build(disc)
        return sol, api.slowest_mode(disc)

    def _s_pde(self, i, nl, nr):
        key = (i, nl, nr)
        if key not in self.pde_refs:
            from qpdyn.eigenmode import VortexConfig
            from qpdyn.pde_sim import build, slowest_mode
            op = self.ops[i]
            disc = build(op["geometry"], VortexConfig(nl, nr, op["p"]),
                         op["tp"], resolution=PDE_REF_RESOLUTION)
            self.mesh(disc)
            self.pde_refs[key] = slowest_mode(disc)[0]
        return self.pde_refs[key]

    def _check_s(self, i, nl, nr, s):
        """Relative error of a full-form rate vs the PDE (else None)."""
        op = self.ops[i]
        if nl + nr == 0:
            _require(abs(s - op["s0"]) <= 1e-12 * max(op["s0"], 1.0),
                     "no-vortex rate must equal s0")
            return None
        err = _rel(s, self._s_pde(i, nl, nr))
        if op["form"] == "full":
            _require(err < EIGEN_PDE_REL,
                     f"full form vs PDE {err:.3g} for ({nl}, {nr})")
            return err
        _require(err < REDUCED_PDE_REL,
                 f"reduced form vs PDE {err:.3g} for ({nl}, {nr})")
        return None

    def check(self, i, out):
        op = self.ops[i]
        kind = op["kind"]
        if kind in ("steps", "sweep"):
            rates = [row[-1] if kind == "sweep" else row[2] for row in out]
            counts = [row[1:3] if kind == "sweep" else row[:2] for row in out]
            _require(all(b >= a for a, b in zip(rates, rates[1:])),
                     "rates must not fall as vortices enter")
            errs = [self._check_s(i, nl, nr, s)
                    for (nl, nr), s in zip(counts, rates)]
            errs = [e for e in errs if e is not None]
            return max(errs) if errs else None
        sol = out if kind == "root" else out[0]
        nl, nr = op["n_left"], op["n_right"]
        err = self._check_s(i, nl, nr, sol.s)
        if kind == "root":
            return err
        s_pde, mode = out[1]
        _require(np.all(mode >= 0), "PDE slow mode must be non-negative")
        if i not in self.full_refs:
            from qpdyn.eigenmode import smallest_root
            self.full_refs[i] = smallest_root(op["geometry"], op["vc"],
                                              op["tp"], form="full").s
        err_pde = _rel(s_pde, self.full_refs[i])
        _require(err_pde < EIGEN_PDE_REL, f"PDE vs full form {err_pde:.3g}")
        return max(err_pde, err or 0.0)

    def extra(self, tracer):
        """Per-call residual cost on a fixed batch, and the LU floor."""
        from qpdyn.eigenmode import eigen_residual
        eigen_residual = tracer.wrap("eigenmode.eigen_residual",
                                     eigen_residual)
        zs = np.linspace(0.05, 1.5, 32)
        roots = [op for op in self.ops if op["kind"].startswith("root")][:10]
        for op in roots:
            for form in inputs.FORMS:
                for z in zs:
                    eigen_residual(float(z), op["geometry"], op["vc"],
                                   op["tp"], form)
        lu_kernel(tracer, self.discs)


# ----------------------------------------------------------------- pde-evolve

def lu_kernel(tracer, discs, dt=1e-6, solves=20):
    """Reference implicit-step floor: splu of I - dt/2 G, then solves."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    for disc in discs:
        a = sp.csc_matrix(sp.identity(disc.n_nodes, format="csc")
                          - 0.5 * dt * disc.generator)
        with tracer.span("pde_sim.lu_factor"):
            lu = spla.splu(a)
        b = np.ones(disc.n_nodes)
        for _ in range(solves):
            with tracer.span("pde_sim.lu_solve"):
                b = lu.solve(b)


class PdeEvolve(Workload):
    name = "pde-evolve"
    tail_pct = 75.0

    def setup(self):
        from qpdyn.eigenmode import TransportParams, VortexConfig
        from qpdyn.pde_sim import EvolveSpec
        geoms = _bundled_geoms(self.root)
        self.ops = []
        for op in inputs.pde_evolve_ops(self.seed):
            op = dict(op)
            op["geometry"] = geoms[op["geom"]]
            op["vc"] = VortexConfig(op["n_left"], op["n_right"], op["p"])
            op["tp"] = TransportParams(d=op["d"], s0=op["s0"])
            if op["drive"] != "free":
                t_grid = np.linspace(0.0, op["t_max"], op["n_points"] + 1)[1:]
                op["spec"] = EvolveSpec(
                    r=op["r"], g=op["g"], t_grid=tuple(t_grid), x_init=0.0,
                    injection_rate=op.get("injection_rate", 0.0),
                    injection_density=op.get("injection_density"),
                    t_inj=op["t_inj"])
            self.ops.append(op)
        self.refs: dict[int, np.ndarray] = {}
        self.cache_dir = self.root / ".bench_cache"
        for drive in inputs.DRIVES:
            self._warm(next(op for op in self.ops if op["drive"] == drive))

    def _warm(self, op):
        """One short run of an op kind: the same calls, a tenth of the span."""
        from dataclasses import replace
        disc = self.api.build(op["geometry"], op["vc"], op["tp"],
                              resolution=op["resolution"])
        if op["drive"] == "free":
            self.api.factorized_dynamics_check(
                disc, op["r"], op["g"], op["x_init_amp"],
                t_window_start=0.1 * op["t_end"], t_end=0.2 * op["t_end"],
                n_points=4)
        else:
            spec = replace(op["spec"], t_grid=op["spec"].t_grid[:1])
            self.api.evolve(disc, spec, tol=op["tol"])

    def run(self, i):
        op, api = self.ops[i], self.api
        disc = api.build(op["geometry"], op["vc"], op["tp"],
                         resolution=op["resolution"])
        self.count_build(disc)
        if op["drive"] == "free":
            return disc, api.factorized_dynamics_check(
                disc, op["r"], op["g"], op["x_init_amp"], t_end=op["t_end"],
                n_points=op["n_points"])
        return disc, api.evolve(disc, op["spec"], tol=op["tol"])

    def prepare(self):
        """Radau references for every driven op, from a disk cache keyed by
        generator and spec, else from reference.py in a separate process,
        so the reference solver's memory stays out of this process's peak
        RSS."""
        import pickle
        from qpdyn.pde_sim import build
        todo = {}
        for i, op in enumerate(self.ops):
            if op["drive"] == "free":
                continue
            disc = build(op["geometry"], op["vc"], op["tp"],
                         resolution=op["resolution"])
            self.mesh(disc)
            path = self._cache_path(disc, op["spec"])
            if path.is_file():
                self.refs[i] = np.array(json.loads(path.read_text()))
            else:
                todo[i] = (disc, path)
        if not todo:
            return
        self.workdir.mkdir(parents=True, exist_ok=True)
        jobs, results = self.workdir / "ref-jobs.pkl", \
            self.workdir / "ref-results.json"
        with open(jobs, "wb") as fh:
            pickle.dump([(disc, self.ops[i]["spec"])
                         for i, (disc, _) in todo.items()], fh)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        subprocess.run([sys.executable, str(BENCH / "reference.py"),
                        str(jobs), str(results)], check=True, env=env,
                       timeout=150)
        self.cache_dir.mkdir(exist_ok=True)
        for (i, (_, path)), ref in zip(todo.items(),
                                       json.loads(results.read_text())):
            if isinstance(ref, str):
                self.refs[i] = ref
                continue
            self.refs[i] = np.array(ref)
            path.write_text(json.dumps(ref))

    def _cache_path(self, disc, spec) -> Path:
        h = hashlib.sha256()
        for arr in (disc.generator.data, disc.generator.indices,
                    disc.generator.indptr):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((disc.junction_index, spec, REF_RTOL)).encode())
        return self.cache_dir / f"evolve-{h.hexdigest()[:32]}.json"

    def check(self, i, out):
        op = self.ops[i]
        disc, res = out
        if op["drive"] == "free":
            _require(res.within_validity, "factorized check out of regime")
            _require(res.max_rel_deviation < FACTORIZED_REL,
                     f"PDE vs 0-D model {res.max_rel_deviation:.3g}")
            return None
        x = np.asarray(res)
        _require(np.all(np.isfinite(x)) and np.all(x >= 0),
                 "evolve must stay finite and non-negative")
        t = np.asarray(op["spec"].t_grid)
        if op["drive"] == "clamp":
            held = x[t < op["t_inj"]]
            _require(_rel(held, op["injection_density"]) <= CLAMP_REL,
                     "clamped junction must hold its density")
        tol = np.where((t > op["t_inj"])
                       & (t <= op["t_inj"] + RELEASE_WINDOW_S),
                       RELEASE_REL, EVOLVE_REF_REL)
        ref = self.refs.get(i)
        _require(isinstance(ref, np.ndarray), f"no reference: {ref}")
        dev = np.abs(x - ref) / np.maximum(np.abs(ref), 1e-300)
        k = int(np.argmax(dev / tol))
        _require(dev[k] <= tol[k],
                 f"junction trace vs Radau {dev[k]:.3g} at t = {t[k]:.3g} s")
        return float(dev.max())

    def extra(self, tracer):
        """The LU floor, and the well-mixed ODE oracle on a fixed batch."""
        from qpdyn.dynamics import (RateParams, solution_from_rates,
                                    steady_state, xqp_analytic)
        lu_kernel(tracer, self.discs)
        for k, op in enumerate(inputs.ode_ops(self.seed)):
            rp = RateParams(r=op["r"], s=op["s"], g=op["g"])
            t = np.linspace(0.0, op["t_end"], op["n_t"])
            # start x_i above the steady state, as the closed form does
            x = self.api.integrate_ode(rp, op["x_i"] + steady_state(rp).x0, t)
            err = _rel(x, xqp_analytic(t, solution_from_rates(rp, op["x_i"])))
            if err > ODE_REL:
                self.problems.append(
                    f"integrate_ode #{k} vs closed form {err:.3g}")


# ------------------------------------------------------------------- cli-tour

def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _si(text: str) -> float:
    num, unit = _QTY.match(text).groups()
    return float(num) * _UNITS[unit] if unit else float(num)


def _parse_cfg(text: str) -> dict:
    vals = {}
    for line in text.splitlines():
        key, _, val = line.split("#", 1)[0].partition("=")
        key, val = key.strip(), val.strip()
        if key in ("w_wire", "l_wire", "h_cap", "l_half_gap", "w_cap",
                   "l_cap", "s_pad"):
            vals[key] = _si(val)
    return vals


class CliTour(Workload):
    name = "cli-tour"
    tail_pct = 50.0

    def setup(self):
        import qpdyn.cli as cli
        self.cli = cli
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for op in inputs.cli_tour_ops(self.seed):
            op = dict(op)
            for name, text in op["files"].items():
                (self.workdir / name).write_text(text, encoding="utf-8")
            op["argv"] = [str(self.workdir / a[1:]) if a.startswith("@")
                          else a for a in op["argv"]]
            self.ops.append(op)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
               else []))
        self.refs: dict[int, dict] = {}
        for kind in inputs.CLI_KINDS:
            op = next(op for op in self.ops if op["kind"] == kind)
            with contextlib.redirect_stdout(_io.StringIO()):
                code = cli.main(op["argv"])
            if code != 0:
                raise RuntimeError(f"warm-up of {kind} exited {code}")

    def run(self, i):
        argv = self.ops[i]["argv"]
        tracer = self.tracer
        if tracer is None:
            cmd = [sys.executable, "-m", "qpdyn.cli", *argv]
            return subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, timeout=120)
        spans = self.workdir / "child-spans.json"
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
               str(spans), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=self.env, timeout=120)
        if spans.is_file():
            tracer.adopt(json.loads(spans.read_text()))
            spans.unlink()
        return proc

    def prepare(self):
        for i, op in enumerate(self.ops):
            try:
                self.refs[i] = self._reference(op)
            except Exception as exc:  # the op's check reports it
                self.refs[i] = exc

    # reference: the library call the command makes, on the SI values
    def _reference(self, op) -> dict:
        from qpdyn import constants, eigenmode, estimates, pde_sim, trace_fit
        from qpdyn.geometry import DeviceGeometry
        a, kind = op["argv"], op["kind"]
        if kind in ("eigenrate", "steps", "sweep", "pde-eigen"):
            geom = _flag(a, "--geom")
            path = Path(geom) if geom.endswith(".cfg") else \
                self.root / "src" / "qpdyn" / "data" / f"geometry_{geom}_like.cfg"
            geometry = DeviceGeometry(**_parse_cfg(path.read_text()))
            tp = eigenmode.TransportParams(d=_si(_flag(a, "--d")),
                                           s0=_si(_flag(a, "--s0")))
            p, form = _si(_flag(a, "--p")), _flag(a, "--form")
            if kind in ("eigenrate", "pde-eigen"):
                vc = eigenmode.VortexConfig(int(_flag(a, "--nl")),
                                            int(_flag(a, "--nr")), p)
            if kind == "eigenrate":
                sol = eigenmode.smallest_root(geometry, vc, tp, form=form)
                return {"z": sol.z, "s_per_s": sol.s}
            if kind == "pde-eigen":
                disc = pde_sim.build(geometry, vc, tp,
                                     resolution=int(_flag(a, "--resolution")))
                return {"s_per_s": pde_sim.slowest_mode(disc)[0],
                        "n_nodes": disc.n_nodes}
            if kind == "steps":
                rows = eigenmode.step_sequence(
                    geometry, tp, p, series=_flag(a, "--series"),
                    max_steps=int(_flag(a, "--max")), form=form)
                return {"s_per_s": [r[2] for r in rows]}
            b_grid = np.linspace(_si(_flag(a, "--bmin")),
                                 _si(_flag(a, "--bmax")),
                                 int(_flag(a, "--points")))
            rows = eigenmode.field_sweep(
                geometry, tp, p, b_grid, _si(_flag(a, "--bk")),
                float(_flag(a, "--slope")) / _UNITS["mG"],
                pads=_flag(a, "--pads"), form=form)
            return {"s_per_s": [r[3] for r in rows]}
        if kind in ("fit", "rates", "synth"):
            if kind == "fit":
                from qpdyn.io import read_trace
                fit = trace_fit.fit_gamma_trace(
                    read_trace(a[1]), t_min=_si(_flag(a, "--tmin")),
                    weighting=_flag(a, "--weighting"))
                coupling = constants.qp_coupling_constant(
                    constants.QubitParams(
                        omega_q=2.0 * math.pi * _si(_flag(a, "--omega")),
                        delta_gap=_si(_flag(a, "--delta"))))
            else:
                fit = trace_fit.FitResult.from_params(
                    _si(_flag(a, "--amplitude")), float(_flag(a, "--rprime")),
                    _si(_flag(a, "--tauss")), _si(_flag(a, "--gamma0")))
            if kind == "synth":
                _, lo, hi, n = _flag(a, "--tgrid").split(":")
                t = np.logspace(math.log10(_si(lo)), math.log10(_si(hi)),
                                int(n))
                tr = trace_fit.synth_trace(fit, t, float(_flag(a, "--noise")),
                                           int(_flag(a, "--seed")))
                return {"t": list(tr.t), "gamma": list(tr.gamma)}
            if kind == "rates":
                coupling = _si(_flag(a, "--c"))
            ex = trace_fit.extract_rates(fit, coupling)
            ref = {"rates.r_per_s": ex.r, "rates.s_min_per_s": ex.s_min,
                   "rates.s_max_per_s": ex.s_max,
                   "rates.g_max_per_s": ex.g_max, "rates.x_i": ex.x_i}
            if kind == "fit":
                ref.update({"fit.amplitude_per_s": fit.amplitude,
                            "fit.r_prime": fit.r_prime,
                            "fit.tau_ss_s": fit.tau_ss,
                            "fit.gamma0_per_s": fit.gamma0})
            return ref
        if kind == "t1fit":
            from qpdyn.io import read_points
            res = trace_fit.fit_t1_vs_tau(read_points(a[1]),
                                          _si(_flag(a, "--c")))
            return {"g_per_s": res.g, "gamma_ex_per_s": res.gamma_ex}
        rj, delta = _si(_flag(a, "--rj", "0")), _si(_flag(a, "--delta", "0"))
        if kind == "estimate-injection":
            qs = estimates.CavityQs(*(float(_flag(a, k)) for k in
                                      ("--qin", "--qout", "--qw", "--qj")))
            return {"p_in_w": estimates.injection_power(rj, delta, qs),
                    "q_tot": qs.q_tot}
        if kind == "estimate-qprate":
            return {"g_per_s": estimates.qp_injection_rate(rj, delta)}
        if kind == "estimate-trapping-power":
            micro = estimates.VortexMicro(r_core=_si(_flag(a, "--rcore")),
                                          tau_n=1.0 / _si(_flag(a, "--rate")))
            return {"p_m2_per_s": estimates.microscopic_trapping_power(micro)}
        if kind == "estimate-freqshift":
            return {"delta_omega_rad_per_s": estimates.frequency_shift(
                _si(_flag(a, "--gamma")),
                2.0 * math.pi * _si(_flag(a, "--omega")), delta)}
        rhos = [_si(t) for t in _flag(a, "--rho").split(",")]
        return {"ratio": [float(estimates.vortex_profile(
            rho, _si(_flag(a, "--p")), _si(_flag(a, "--d")),
            _si(_flag(a, "--rcore")))) for rho in rhos]}

    @staticmethod
    def _parse(op, stdout) -> dict:
        """The CLI's numbers under the reference's keys."""
        if op["csv"]:
            lines = [ln for ln in stdout.splitlines()
                     if not ln.startswith("#")]
            rows = list(csv.DictReader(lines))
            _require(rows, "empty CSV output")
            if op["kind"] == "synth":
                return {"t": [float(r["t"]) for r in rows],
                        "gamma": [float(r["gamma"]) for r in rows]}
            return {"s_per_s": [float(r["s_per_s"]) for r in rows]}
        doc = json.loads(stdout)
        _require("manifest" in doc, "JSON output lacks its manifest")
        res = doc["result"]
        if op["kind"] == "estimate-vortex-profile":
            return {"ratio": [row["ratio"] for row in res["profile"]]}
        flat = {}
        for key, val in res.items():
            if isinstance(val, dict):
                flat.update({f"{key}.{k}": v for k, v in val.items()})
            else:
                flat[key] = val
        return flat

    def check(self, i, out):
        op = self.ops[i]
        _require(out.returncode == 0,
                 f"exit {out.returncode}: {out.stderr.strip()[-200:]}")
        try:
            got = self._parse(op, out.stdout)
        except (ValueError, KeyError) as exc:
            raise CheckFailed(f"unparseable output: {exc}") from None
        ref = self.refs[i]
        _require(isinstance(ref, dict), f"no reference: {ref}")
        err = 0.0
        for key, want in ref.items():
            _require(key in got, f"output lacks {key}")
            _require(np.shape(got[key]) == np.shape(want),
                     f"{key} has the wrong length")
            err = max(err, _rel(got[key], want))
        _require(err <= CLI_REL, f"CLI vs in-process call {err:.3g}")
        self._check_truth(op, got)
        return err

    @staticmethod
    def _check_truth(op, got):
        """The library call itself, where the tour knows the answer: a fit
        recovers the tau_ss its trace was made from, and rates match the
        closed form."""
        a = op["argv"]
        if op["kind"] == "fit":
            tau = got["fit.tau_ss_s"]
            err = abs(tau - op["tau_ss"]) / op["tau_ss"]
            _require(err < max(FIT_TAU_BAND,
                               5.0 * got["fit.tau_ss_sigma"] / tau),
                     f"fitted tau_ss off by {err:.3g} (> 5 sigma)")
        elif op["kind"] == "rates":
            r_prime = float(_flag(a, "--rprime"))
            tau = _si(_flag(a, "--tauss"))
            x_i = _si(_flag(a, "--amplitude")) / _si(_flag(a, "--c"))
            err = max(_rel(got["rates.x_i"], x_i),
                      _rel(got["rates.r_per_s"],
                           r_prime / (1.0 - r_prime) / (tau * x_i)),
                      _rel(got["rates.s_max_per_s"], 1.0 / tau))
            _require(err <= CLI_REL, f"rates vs closed form {err:.3g}")

    def extra(self, tracer):
        """Interpreter start-up, and the Gauss-Newton iteration count of
        the tour's fits (the CLI does not report it)."""
        from qpdyn.io import read_trace
        from qpdyn.trace_fit import fit_gamma_trace
        for _ in range(10):
            with tracer.span("cli.interp_start"):
                subprocess.run([sys.executable, "-c", "pass"], check=True,
                               env=self.env, timeout=60)
        for op in self.ops:
            if op["kind"] == "fit":
                a = op["argv"]
                _, info = fit_gamma_trace(
                    read_trace(a[1]), t_min=_si(_flag(a, "--tmin")),
                    weighting=_flag(a, "--weighting"), full_output=True)
                self.count("trace_fit.fit_gamma_trace.gn_iterations",
                           info["n_iterations"])


WORKLOADS = {w.name: w for w in (CliTour, VortexModes, PdeEvolve)}
