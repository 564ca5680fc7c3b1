"""Seeded input generator: the same (workload, seed) gives the same ops.

Each op is plain data (numbers, strings, lists).  The workloads turn ops
into the inputs the program receives: CSV files and argv for the CLI,
``DeviceGeometry``/``EvolveSpec`` objects for the library.  Categorical
choices (op kind, geometry, drive, form, weighting) are stratified by op
index so every prefix of the op list has the same mix; the seed draws the
continuous parameters and the counts within each stratum.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("cli-tour", "vortex-modes", "pde-evolve")
GEOMS = ("b1", "b2", "b3")
DESIGN_SEED = 20140628  # the stratum pairings of every _Strata
FORMS = ("reduced", "full")


def _rng(stream: str, seed: int):
    return np.random.Generator(
        np.random.Philox(key=[seed, (*WORKLOADS, "ode").index(stream)]))


def _logu(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _g(x: float) -> str:
    """Short decimal text; the SI value is recomputed from this text."""
    return f"{x:.6g}"


def _gamma_model(t, amplitude, r_prime, tau_ss, gamma0):
    """Gamma(t) = A (1 - r') / (exp(t/tau) - r') + Gamma0."""
    return amplitude * (1.0 - r_prime) / (np.exp(t / tau_ss) - r_prime) \
        + gamma0


def _trace_params(rng, r_prime_lo=0.5):
    tau = _logu(rng, 8e-3, 25e-3)
    amp = _logu(rng, 3e5, 6e6)
    return {"amplitude": amp, "r_prime": rng.uniform(r_prime_lo, 0.95),
            "tau_ss": tau, "gamma0": amp * _logu(rng, 3e-3, 0.05)}


class _Strata:
    """Latin-hypercube uniforms per op class.

    Every continuous parameter of the j-th op of a class reads the next
    coordinate of row j, and each coordinate takes each of the class's n
    equal-probability strata exactly once.  Which strata share a row is
    fixed (drawn from DESIGN_SEED); the seed draws where in its stratum
    each value lies.  Op costs are products of powers of the parameters,
    so with random pairings the cost of the op list would move by ~10%
    from seed to seed; with fixed pairings it barely moves.
    """

    def __init__(self, rng, counts: dict, dims: int):
        design = np.random.default_rng(DESIGN_SEED)
        self.rows = {c: (np.argsort(design.random((dims, n)), axis=1).T
                         + rng.random((n, dims))) / n
                     for c, n in counts.items()}
        self.used = dict.fromkeys(counts, 0)

    def row(self, cls):
        j = self.used[cls]
        self.used[cls] += 1
        return _Row(self.rows[cls][j])


class _Row:
    def __init__(self, u):
        self.u = iter(u)

    def lin(self, lo, hi):
        return lo + (hi - lo) * float(next(self.u))

    def log(self, lo, hi):
        return float(10.0 ** self.lin(math.log10(lo), math.log10(hi)))

    def int(self, lo, hi):
        """Integer in [lo, hi]."""
        return min(hi, lo + int(float(next(self.u)) * (hi - lo + 1)))


def _counts(kinds, n):
    out = {}
    for i in range(n):
        out[kinds[i % len(kinds)]] = out.get(kinds[i % len(kinds)], 0) + 1
    return out


# ---------------------------------------------------------------- ODE batch

def ode_ops(seed: int, n: int = 16) -> list[dict]:
    """Fixed batch of well-mixed rate equations for ``integrate_ode``."""
    rng = _rng("ode", seed)
    strata = _Strata(rng, {"ode": n}, 5)
    ops = []
    for _ in range(n):
        u = strata.row("ode")
        s = u.log(10.0, 10 ** 2.5)
        ops.append({"r": u.log(1 / 300e-9, 1 / 80e-9), "s": s,
                    "g": u.log(10 ** -4.5, 10 ** -3.5),
                    "x_i": u.log(10 ** -4.5, 10 ** -3.5),
                    "t_end": 5.0 / s, "n_t": u.int(20, 200)})
    return ops


# ------------------------------------------------------------- vortex-modes

# ten-op block: two roots, three roots also cross-checked by the PDE
# oracle, three step sequences, two field sweeps.  Roots take ~1-3 ms,
# PDE-checked roots and step sequences ~6-12 ms, sweeps ~60-120 ms; with
# six ops in ten from the middle group the median lies inside it, not on
# the gap below it, where a small shift in speed moved it by half.
_VORTEX_BLOCK = ("root_pde", "steps", "root", "sweep", "root_pde",
                 "steps", "root_pde", "steps", "sweep", "root")
_PAIRS = [(a, b) for a in range(7) for b in range(7) if a != b]


def vortex_modes_ops(seed: int, n: int = 60) -> list[dict]:
    """The k-th op of a kind alternates its branch (equal or unequal
    counts, series, pads) with k and its form with k // 2, so each kind
    covers every pairing of the two."""
    rng = _rng("vortex-modes", seed)
    strata = _Strata(rng, _counts(_VORTEX_BLOCK, n), 8)
    seen = dict.fromkeys(_VORTEX_BLOCK, 0)
    ops = []
    for i in range(n):
        kind = _VORTEX_BLOCK[i % len(_VORTEX_BLOCK)]
        k = seen[kind]
        seen[kind] += 1
        u = strata.row(kind)
        op = {"kind": kind, "geom": GEOMS[i % 3], "scale": u.lin(0.8, 1.25),
              "form": FORMS[(k // 2) % 2],
              "d": u.lin(10e-4, 30e-4), "s0": u.lin(0.0, 100.0),
              "p": u.lin(0.02e-4, 0.2e-4)}
        if kind.startswith("root"):
            if k % 2 == 0:          # equal counts: the factorized path
                nl = nr = u.int(1 if kind == "root_pde" else 0, 6)
            else:                   # unequal counts: the general scan
                nl, nr = _PAIRS[u.int(0, len(_PAIRS) - 1)]
            op.update(n_left=nl, n_right=nr)
        elif kind == "steps":
            series = ("alternating", "pairs")[k % 2]
            op.update(series=series,
                      max_steps=4 if series == "alternating" else 3)
        else:
            b_k = u.lin(5.0, 15.0) * 1e-7              # tesla
            b_max = u.lin(120.0, 200.0) * 1e-7
            n_max = u.lin(3.0, 6.4)                    # vortices per pad
            op.update(pads=("equal", "alternating")[k % 2],
                      b_k=b_k, b_max=b_max, points=41,
                      slope=n_max / (b_max - b_k))     # per tesla
        ops.append(op)
    return ops


# --------------------------------------------------------------- pde-evolve

DRIVES = ("rate", "clamp", "free")
EVOLVE_TOL = 1e-6  # the step-control tolerance acceptance criterion 10 uses


def pde_evolve_ops(seed: int, n: int = 36) -> list[dict]:
    """Build + evolve ops.  Driven runs use tol 1e-6: at the default 1e-8
    a clamped junction with recombination takes ~30 s per run on this
    commit, longer than a whole measurement."""
    rng = _rng("pde-evolve", seed)
    strata = _Strata(rng, _counts(DRIVES, n), 13)
    ops = []
    for i in range(n):
        drive = DRIVES[i % 3]
        u = strata.row(drive)
        op = {"drive": drive, "geom": GEOMS[(i // 3) % 3],
              "resolution": u.int(20, 32),
              "n_left": u.int(0, 3), "n_right": u.int(0, 3),
              "p": u.lin(0.02e-4, 0.1e-4), "d": u.lin(15e-4, 21e-4),
              "s0": u.lin(40.0, 100.0), "r": u.log(1 / 300e-9, 1 / 100e-9),
              "g": u.log(10 ** -4.5, 10 ** -3.5)}
        if drive == "free":
            op.update(x_init_amp=u.log(1e-6, 1e-5), t_end=u.lin(1e-3, 3e-3),
                      n_points=u.int(20, 60))
        else:
            t_inj = u.lin(50e-6, 400e-6 if drive == "rate" else 200e-6)
            op.update(t_inj=t_inj, t_max=t_inj + u.lin(0.3e-3, 1.0e-3),
                      n_points=u.int(10, 25), tol=EVOLVE_TOL)
            if drive == "rate":
                op["injection_rate"] = u.log(10 ** 3.5, 10 ** 4.3)
            else:
                op["injection_density"] = u.log(10 ** -6.3, 10 ** -5.5)
        ops.append(op)
    return ops


# ----------------------------------------------------------------- cli-tour

CLI_KINDS = ("fit", "rates", "eigenrate", "steps", "sweep", "pde-eigen",
             "synth", "t1fit", "estimate-injection", "estimate-qprate",
             "estimate-trapping-power", "estimate-freqshift",
             "estimate-vortex-profile")


def _geom_arg(rng, i):
    """Bundled name, or a generated config file with scaled dimensions."""
    name = GEOMS[i % 3]
    if (i // 3) % 2 == 0:
        return name, None
    k = rng.uniform(0.8, 1.25)
    dims = {"b1": (12, 200, 75, 7.5, 15, 600), "b2": (12, 200, 75, 5, 10, 600),
            "b3": (12, 200, 75, 15, 30, 600)}[name]
    keys = ("w_wire", "l_wire", "h_cap", "l_half_gap", "w_cap", "l_cap")
    text = f"label = {name}-scaled\n" + "".join(
        f"{key} = {_g(v * k)}um\n" for key, v in zip(keys, dims)) \
        + f"s_pad = {_g(6400 * k * k)}um2\n"
    return f"@geom{i}.cfg", text


def _mode_args(rng, i, with_counts=True):
    p, d, s0 = (_g(rng.uniform(0.02, 0.2)), _g(rng.uniform(10.0, 30.0)),
                _g(rng.uniform(0.0, 100.0)))
    geom, cfg = _geom_arg(rng, i)
    argv = ["--geom", geom, "--p", f"{p}cm2/s", "--d", f"{d}cm2/s",
            "--s0", f"{s0}/s", "--form", FORMS[(i // 13) % 2]]
    if with_counts:
        argv += ["--nl", str(int(rng.integers(0, 7))),
                 "--nr", str(int(rng.integers(0, 7)))]
    files = {geom[1:]: cfg} if cfg else {}
    return argv, files


def _trace_csv(rng, tp, t, noise):
    model = _gamma_model(t, **tp)
    gamma = model * (1.0 + noise * rng.standard_normal(t.size))
    return "t,gamma,sigma\n" + "".join(
        f"{a!r},{b!r},{c!r}\n"
        for a, b, c in zip(t.tolist(), gamma.tolist(), (model * noise).tolist()))


def cli_tour_ops(seed: int, n: int = 26) -> list[dict]:
    rng = _rng("cli-tour", seed)
    ops = []
    for i in range(n):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        files = {}
        csv_out = False
        tau_ss = None   # the truth a fitted trace was made from
        if kind == "fit":
            tp = _trace_params(rng, 0.7)
            tau_ss = tp["tau_ss"]
            t = np.logspace(math.log10(0.2e-3), math.log10(80e-3), 60)
            files[f"trace{i}.csv"] = _trace_csv(rng, tp, t, 0.02)
            argv = ["fit", f"@trace{i}.csv", "--tmin", "200us",
                    "--omega", f"{_g(rng.uniform(4.0, 8.0))}GHz",
                    "--delta", f"{_g(rng.uniform(170.0, 200.0))}ueV",
                    "--weighting", ("relative", "absolute", "sigma")[i % 3]]
        elif kind in ("rates", "synth"):
            tp = _trace_params(rng)
            argv = [kind, "--amplitude", f"{_g(tp['amplitude'])}/s",
                    "--rprime", _g(tp["r_prime"]),
                    "--tauss", f"{_g(tp['tau_ss'] * 1e3)}ms",
                    "--gamma0", f"{_g(tp['gamma0'])}/s"]
            if kind == "rates":
                argv += ["--c", f"{_g(rng.uniform(3e10, 6e10))}/s"]
            else:
                argv += ["--noise", _g(rng.uniform(0.005, 0.03)),
                         "--seed", str(int(rng.integers(2 ** 31))),
                         "--tgrid", f"log:0.2ms:80ms:{rng.integers(20, 81)}"]
                csv_out = True
        elif kind == "eigenrate":
            argv, files = _mode_args(rng, i)
            argv = ["eigenrate"] + argv
        elif kind == "steps":
            argv, files = _mode_args(rng, i, with_counts=False)
            series = ("alternating", "pairs")[(i // 13) % 2]
            argv = ["steps"] + argv + ["--series", series, "--max",
                                       "4" if series == "alternating" else "3",
                                       "--out", "csv"]
            csv_out = True
        elif kind == "sweep":
            argv, files = _mode_args(rng, i, with_counts=False)
            bk, bmax = rng.uniform(5.0, 15.0), rng.uniform(120.0, 200.0)
            argv = ["sweep"] + argv + [
                "--bk", f"{_g(bk)}mG",
                "--slope", _g(rng.uniform(3.0, 6.4) / (bmax - bk)),
                "--bmin", "0mG", "--bmax", f"{_g(bmax)}mG", "--points", "41",
                "--pads", ("equal", "alternating")[(i // 13) % 2],
                "--out", "csv"]
            csv_out = True
        elif kind == "pde-eigen":
            argv, files = _mode_args(rng, i)
            argv = ["pde", "eigen"] + argv + [
                "--resolution", str(int(rng.integers(50, 101)))]
        elif kind == "t1fit":
            g, gex, c = (_logu(rng, 0.5e-4, 2e-4), _logu(rng, 2e4, 8e4),
                         rng.uniform(3e10, 6e10))
            taus = np.linspace(2e-3, 18e-3, 10)
            y = c * g * taus + gex
            y_obs = y * (1.0 + 0.01 * rng.standard_normal(taus.size))
            files[f"points{i}.csv"] = "tau_ss,inv_t1,sigma_inv_t1\n" + "".join(
                f"{a!r},{b!r},{s!r}\n"
                for a, b, s in zip(taus.tolist(), y_obs.tolist(),
                                   (0.01 * y).tolist()))
            argv = ["t1fit", f"@points{i}.csv", "--c", f"{_g(c)}/s"]
        elif kind == "estimate-injection":
            argv = ["estimate", "injection",
                    "--rj", f"{_g(rng.uniform(4.0, 12.0))}kohm",
                    "--delta", f"{_g(rng.uniform(170.0, 200.0))}ueV",
                    "--qin", _g(_logu(rng, 3e5, 3e6)),
                    "--qout", _g(_logu(rng, 1e4, 2e5)),
                    "--qw", _g(_logu(rng, 1e4, 1e8)),
                    "--qj", _g(_logu(rng, 5e3, 3e4))]
        elif kind == "estimate-qprate":
            argv = ["estimate", "qprate",
                    "--rj", f"{_g(rng.uniform(4.0, 12.0))}kohm",
                    "--delta", f"{_g(rng.uniform(170.0, 200.0))}ueV"]
        elif kind == "estimate-trapping-power":
            argv = ["estimate", "trapping-power",
                    "--rcore", f"{_g(rng.uniform(50.0, 300.0))}nm",
                    "--rate", f"{_g(_logu(rng, 3e6, 3e7))}/s"]
        elif kind == "estimate-freqshift":
            argv = ["estimate", "freqshift",
                    "--gamma", f"{_g(_logu(rng, 1e3, 1e6))}/s",
                    "--omega", f"{_g(rng.uniform(4.0, 8.0))}GHz",
                    "--delta", f"{_g(rng.uniform(170.0, 200.0))}ueV"]
        else:
            rhos = sorted(rng.uniform(0.0, 80.0, size=4))
            argv = ["estimate", "vortex-profile",
                    "--p", f"{_g(rng.uniform(0.02, 0.2))}cm2/s",
                    "--d", f"{_g(rng.uniform(10.0, 30.0))}cm2/s",
                    "--rcore", f"{_g(rng.uniform(50.0, 300.0))}nm",
                    "--rho", ",".join(f"{_g(r)}um" for r in rhos)]
        ops.append({"kind": kind, "argv": argv + ["--no-timestamp"],
                    "files": files, "csv": csv_out, "tau_ss": tau_ss})
    return ops


def ops_for(workload: str, seed: int) -> list[dict]:
    return {"cli-tour": cli_tour_ops, "vortex-modes": vortex_modes_ops,
            "pde-evolve": pde_evolve_ops}[workload](seed)
