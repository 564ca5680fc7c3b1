"""Tight-tolerance reference for the pde-evolve workload.

    python3 reference.py JOBS_PICKLE RESULTS_JSON

JOBS_PICKLE holds a list of (Discretization, EvolveSpec) pairs written by
the benchmark; RESULTS_JSON receives, per job, the junction density on the
spec's output grid, or an error message.  The benchmark runs this as a
separate process so the reference solver's memory never counts in the
measured process's peak RSS.
"""

import json
import multiprocessing
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

REF_RTOL = 1e-9


def radau_reference(disc, spec) -> list[float]:
    """Junction density on spec.t_grid from scipy Radau at REF_RTOL.

    Integrates dx/dt = G x - r x^2 + g (+ injection on the junction, or the
    junction held fixed) piecewise on [0, t_inj] and [t_inj, t_end].
    """
    import scipy.sparse as sp
    from scipy.integrate import solve_ivp
    gen, jj, n = disc.generator, disc.junction_index, disc.n_nodes
    t_grid = np.asarray(spec.t_grid, dtype=float)
    x = np.zeros(n)
    clamp = spec.injection_density is not None and spec.t_inj > 0
    if clamp:
        x[jj] = spec.injection_density
    out = np.empty(t_grid.size)
    pieces = [(0.0, spec.t_inj, True), (spec.t_inj, t_grid[-1], False)] \
        if spec.t_inj > 0 else [(0.0, t_grid[-1], False)]
    for t0, t1, on in pieces:
        if t1 <= t0:
            continue
        src = np.full(n, spec.g)
        if on and not clamp:
            src[jj] += spec.injection_rate
        held = on and clamp

        def f(t, y, src=src, held=held):
            dy = gen @ y - spec.r * y * y + src
            if held:
                dy[jj] = 0.0
            return dy

        def jac(t, y, held=held):
            j = (gen - sp.diags(2.0 * spec.r * y)).tocsr()
            if held:
                j = j.tolil()
                j.rows[jj], j.data[jj] = [], []
                j = j.tocsr()
            return j

        sel = (t_grid > t0) & (t_grid <= t1) if t0 > 0 else (t_grid <= t1)
        t_eval = np.unique(np.concatenate([t_grid[sel], [t1]]))
        sol = solve_ivp(f, (t0, t1), x, method="Radau", jac=jac,
                        rtol=REF_RTOL, atol=1e-20, t_eval=t_eval)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        out[sel] = sol.y[jj, np.searchsorted(sol.t, t_grid[sel])]
        x = sol.y[:, -1]
    return [float(v) for v in out]


def _job(disc, spec):
    try:
        return radau_reference(disc, spec)
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def main(jobs_path, results_path) -> int:
    with open(jobs_path, "rb") as fh:
        jobs = pickle.load(fh)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=ctx) as pool:
        results = list(pool.map(_job, *zip(*jobs)))
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
