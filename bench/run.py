"""qpdyn benchmark: three workloads timed end to end, and per layer if traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: it imports qpdyn from the
checkout's ``src/`` and nothing else, and exits non-zero when that is
missing.  One closed-loop client in this process issues ops back to back
until the ops have taken ``--seconds`` in total; every op's output is
checked after its timer stops.

--trace 0 prints the end-to-end metrics (latency median and tail, ops/s,
peak RSS, set-up time, failed share, max relative error).  --trace 1
spends half the time on an untraced pass and half on a traced pass over
the same ops, and prints per-layer metrics from the spans.  The last line
of stdout is always one JSON object: correct, attempted, failed, metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7      # set-up is measured this many times; median reported
WALL_CAP_S = 100.0     # stop a loop early if checks make it run this long

END_TO_END = {  # name -> unit
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s", "failed_frac": "fraction",
    "max_rel_err": "ratio"}
# reported by name in the table; bounded in BENCHMARK.json only where a
# later change can be compared run against run (failed_frac is 0 and
# max_rel_err is 0 on cli-tour, so neither has a spread to bound)
BOUNDED = ("latency_p50_ms", "latency_tail_ms", "ops_per_s", "peak_rss_mb",
           "setup_s")


def cap_threads():
    """One BLAS/OpenMP thread, set before numpy loads.

    The client is a single closed loop and the largest matrix has ~2k
    rows, so a second BLAS thread gains nothing measurable; with two, peak
    RSS read 90 MB or 110 MB at random on the same pde-evolve seed (the
    second thread's buffer), and with one it read 90 MB every time.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_checkout():
    """Put the checkout's src/ and bench/ first on sys.path and import qpdyn."""
    if not (SRC / "qpdyn" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no qpdyn sources under {SRC}")
    for path in (str(BENCH), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import qpdyn
    if SRC not in Path(qpdyn.__file__).resolve().parents:
        raise SystemExit(f"benchmark: qpdyn imported from {qpdyn.__file__}, "
                         f"not from {SRC}")
    return qpdyn


def tail(values, pct):
    """Nearest-rank value at pct; returns (value, samples beyond it)."""
    data = sorted(values)
    k = max(0, -(-int(pct * len(data)) // 100) - 1)
    return data[k], len(data) - k - 1


def run_loop(wl, seconds, n_ops=None, log=print):
    """Closed loop over wl.ops; returns latencies, errors and failures."""
    tracer = wl.tracer
    lat, errs, fails = [], [], []
    busy, k = 0.0, 0
    wall0 = time.perf_counter()
    while (busy < seconds) if n_ops is None else (k < n_ops):
        i = k % len(wl.ops)
        exc = out = None
        t = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(i)
            else:
                tracer.op_id = k
                with tracer.span("bench.op"):
                    out = wl.run(i)
        except Exception as e:  # an op that raises is a failed op
            exc = e
        dt = time.perf_counter() - t
        busy += dt
        k += 1
        lat.append(dt)
        if exc is None:
            try:
                err = wl.check(i, out)
            except Exception as e:  # a failed check fails the op
                exc = e
            else:
                if err is not None:
                    errs.append(err)
        if exc is not None:
            fails.append(f"op {k - 1} (pool #{i}): {type(exc).__name__}: "
                         f"{exc}")
            log(f"FAILED {fails[-1]}")
        if time.perf_counter() - wall0 > WALL_CAP_S:
            log(f"note: loop stopped at the {WALL_CAP_S:.0f} s wall cap")
            break
    return {"lat": lat, "errs": errs, "fails": fails, "busy": busy}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_sample(workload, seed) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def context(wl) -> dict:
    import numpy
    import scipy
    import qpdyn
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "qpdyn": qpdyn.__version__,
            "machine": platform.machine(), "nproc": NPROC,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "workload": wl.name, "seed": wl.seed,
            "tail_percentile": wl.tail_pct, "sizes": wl.sizes()}


def end_to_end(wl, res, setup_samples, rss):
    lat_ms = [1e3 * v for v in res["lat"]]
    n = len(lat_ms)
    tail_ms, beyond = tail(lat_ms, wl.tail_pct)
    m = {"latency_p50_ms": statistics.median(lat_ms),
         "latency_tail_ms": tail_ms,
         # a mean over the whole run: this machine's speed drifts in
         # phases, and a mean averages them where a median picks one
         "ops_per_s": n / res["busy"],
         "peak_rss_mb": rss, "setup_s": statistics.median(setup_samples),
         "failed_frac": len(res["fails"]) / n,
         "max_rel_err": max(res["errs"]) if res["errs"] else 0.0}
    notes = {"latency_p50_ms": f"n={n}",
             "latency_tail_ms": f"p{wl.tail_pct:g}, n={n}, {beyond} beyond",
             "ops_per_s": f"{n} ops in {res['busy']:.2f} s of op time",
             "peak_rss_mb": "RUSAGE_CHILDREN" if wl.name == "cli-tour"
                            else "RUSAGE_SELF",
             "setup_s": f"median of {len(setup_samples)} set-ups",
             "failed_frac": f"{len(res['fails'])}/{n}",
             "max_rel_err": f"over {len(res['errs'])} checked ops"}
    return m, notes


PER_LAYER_EXTRA = {  # name -> unit
    "cli.import_ms": "ms", "cli.interp_start_ms": "ms",
    "trace_fit.fit_gamma_trace.gn_iterations": "count",
    "pde_sim.build.n_nodes": "count", "pde_sim.build.nnz": "count",
    "pde_sim.build.generator_bytes": "bytes",
    "pde_sim.lu_factor_ms": "ms", "pde_sim.lu_solve_us": "us",
    "bench.op.self_s": "s", "bench.trace_overhead_frac": "ratio"}
LAYER_FIELDS = {"calls": "count", "self_s": "s", "p50_ms": "ms",
                "failed": "count"}


def per_layer_units() -> dict:
    from layers import traced_names
    units = {f"{name}.{field}": unit for name in traced_names()
             for field, unit in LAYER_FIELDS.items()}
    units.update(PER_LAYER_EXTRA)
    return units


def per_layer(wl, tracer, res_u, res_t):
    from layers import traced_names
    from tracing import layer_table
    names = list(traced_names())
    table = layer_table(tracer.spans, names + [
        "cli.import", "cli.interp_start", "pde_sim.lu_factor",
        "pde_sim.lu_solve", "bench.op"])
    m = {f"{name}.{field}": float(table[name][field])
         for name in names for field in LAYER_FIELDS}

    def med(key):
        vals = wl.counters.get(key)
        return statistics.median(vals) if vals else 0.0

    m.update({
        "cli.import_ms": table["cli.import"]["p50_ms"],
        "cli.interp_start_ms": table["cli.interp_start"]["p50_ms"],
        "trace_fit.fit_gamma_trace.gn_iterations": statistics.fmean(
            wl.counters["trace_fit.fit_gamma_trace.gn_iterations"])
        if wl.counters.get("trace_fit.fit_gamma_trace.gn_iterations")
        else 0.0,
        "pde_sim.build.n_nodes": med("pde_sim.build.n_nodes"),
        "pde_sim.build.nnz": med("pde_sim.build.nnz"),
        "pde_sim.build.generator_bytes": med("pde_sim.build.generator_bytes"),
        "pde_sim.lu_factor_ms": table["pde_sim.lu_factor"]["p50_ms"],
        "pde_sim.lu_solve_us": 1e3 * table["pde_sim.lu_solve"]["p50_ms"],
        "bench.op.self_s": table["bench.op"]["self_s"],
        "bench.trace_overhead_frac": res_t["busy"] / res_u["busy"] - 1.0})
    return m, table


def attribution(tracer, res_u, res_t, overhead) -> str:
    """Where the traced op time went, against the untraced op time."""
    from tracing import self_times
    layer = bench = 0.0
    for rec, st in zip(tracer.spans, self_times(tracer.spans)):
        if rec["op"] is None:
            continue
        if rec["name"] == "bench.op":
            bench += st
        else:
            layer += st
    n = len(res_t["lat"])
    return (f"attribution over {n} ops: untraced {1e3 * res_u['busy'] / n:.3f}"
            f" ms/op (p50 {1e3 * statistics.median(res_u['lat']):.3f} ms); "
            f"traced {1e3 * res_t['busy'] / n:.3f} ms/op = layer self time "
            f"{1e3 * layer / n:.3f} + benchmark self time {1e3 * bench / n:.3f}"
            f" ms/op; trace overhead {overhead:+.2%}")


def print_table(title, metrics, units, notes=None, log=print):
    log(title)
    width = max(len(k) for k in metrics)
    for key, val in metrics.items():
        note = f"  ({notes[key]})" if notes and key in notes else ""
        log(f"  {key:<{width}}  {val:>14.6g} {units[key]}{note}")


def run(workload, seed, seconds, trace, log=print,
        setup_samples=SETUP_SAMPLES):
    """One benchmark run; returns the result object of the last line.
    Call cap_threads() before anything imports numpy."""
    import_checkout()
    from layers import Api, traced_names
    from tracing import Tracer
    from workloads import WORKLOADS
    workdir = ROOT / ".bench_out" / f"{workload}-{seed}"
    wl = WORKLOADS[workload](ROOT, seed, workdir)
    wl.setup()
    setup_main = time.perf_counter() - _T0
    wl.prepare()
    log(f"qpdyn benchmark: workload {workload}, seed {seed}, "
        f"{seconds:g} s of ops, trace {trace}")
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        why = {w["name"]: w["why"]
               for w in json.loads(spec.read_text())["workloads"]}
        log(f"  why: {why.get(workload, '')}")

    if not trace:
        res = run_loop(wl, seconds, log=log)
        rss = peak_rss_mb(children=workload == "cli-tour")
        samples = [setup_main] + [setup_sample(workload, seed)
                                  for _ in range(setup_samples - 1)]
        metrics, notes = end_to_end(wl, res, samples, rss)
        print_table("end-to-end metrics:", metrics, END_TO_END, notes, log)
        attempted, fails = len(res["lat"]), res["fails"]
        out_metrics = {k: {"value": metrics[k], "unit": END_TO_END[k]}
                       for k in BOUNDED}
    else:
        res_u = run_loop(wl, seconds / 2.0, log=log)
        tracer = Tracer()
        wl.tracer, wl.api = tracer, Api(tracer)
        res_t = run_loop(wl, 0.0, n_ops=len(res_u["lat"]), log=log)
        tracer.op_id = None
        wl.extra(tracer)
        workdir.mkdir(parents=True, exist_ok=True)
        tracer.dump(workdir / "spans.json")
        metrics, table = per_layer(wl, tracer, res_u, res_t)
        units = per_layer_units()
        moves = {f"{name}.calls": f"should move: {metric}"
                 for name, metric in traced_names().items()}
        print_table("per-layer metrics (traced pass):",
                    {k: v for k, v in metrics.items()
                     if not k.endswith((".calls", ".self_s", ".p50_ms",
                                        ".failed"))
                     or table[k.rsplit(".", 1)[0]]["calls"]},
                    units, moves, log=log)
        log(attribution(tracer, res_u, res_t,
                        metrics["bench.trace_overhead_frac"]))
        attempted = len(res_u["lat"]) + len(res_t["lat"])
        fails = res_u["fails"] + res_t["fails"]
        out_metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}

    problems = wl.finish()
    for msg in problems:
        log(f"FAILED aggregate check: {msg}")
    log("context: " + json.dumps(context(wl)))
    return {"correct": not fails and not problems, "attempted": attempted,
            "failed": len(fails), "metrics": out_metrics}


def main(argv=None) -> int:
    cap_threads()
    from inputs import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print {\"setup_s\": ...} and exit")
    args = ap.parse_args(argv)
    if args.setup_only:
        import_checkout()
        from workloads import WORKLOADS as CLASSES
        wl = CLASSES[args.workload](ROOT, args.seed,
                                    ROOT / ".bench_out" / "setup-probe")
        wl.setup()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception as exc:  # no result line: report and exit non-zero
        print(f"benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
