"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

They check that the input generator is deterministic per seed, that every
metric name is well formed and matches BENCHMARK.json, that span self
times are computed correctly, that the correctness gate rejects wrong
outputs, and run every workload for a single op.
"""

import json
import re
import subprocess
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
from inputs import WORKLOADS, ode_ops, ops_for
from tracing import Tracer, self_times

run.cap_threads()
run.import_checkout()

from layers import Api  # noqa: E402
from workloads import WORKLOADS as CLASSES, CheckFailed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _plain(ops):
    return json.dumps(ops, sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _plain(ops_for(workload, 5)) == _plain(ops_for(workload, 5))
    assert _plain(ops_for(workload, 5)) != _plain(ops_for(workload, 6))


def test_metric_names_are_well_formed_and_declared():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    assert e2e == set(run.BOUNDED)
    assert layer == set(run.per_layer_units())
    for name in set(run.END_TO_END) | layer:
        assert NAME.match(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 3.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 4.0, "parent": 0},
        {"name": "d", "start": 6.0, "end": 7.0, "parent": 0},
        {"name": "e", "start": 6.5, "end": 7.0, "parent": 3},
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.5, 0.5])


def _setup(workload, tmp_path):
    wl = CLASSES[workload](run.ROOT, 3, tmp_path)
    wl.setup()
    wl.prepare()
    return wl


def test_gate_rejects_a_wrong_ode_oracle(tmp_path):
    wl = _setup("pde-evolve", tmp_path)
    wl.tracer = tracer = Tracer()
    wl.api = Api(tracer)
    wl.extra(tracer)
    assert wl.finish() == []
    good = wl.api.integrate_ode
    wl.api.integrate_ode = lambda *a: good(*a) * (1.0 + 1e-6)
    wl.extra(tracer)
    assert len(wl.finish()) == len(ode_ops(wl.seed))


def test_gate_rejects_a_wrong_mode_rate(tmp_path):
    wl = _setup("vortex-modes", tmp_path)
    i = next(i for i, op in enumerate(wl.ops) if op["kind"] == "root"
             and op["form"] == "full" and op["n_left"] + op["n_right"] > 0)
    sol = wl.run(i)
    assert wl.check(i, sol) < 0.005
    with pytest.raises(CheckFailed):
        wl.check(i, replace(sol, s=sol.s * 1.01))


def test_gate_rejects_a_wrong_evolve_trace(tmp_path):
    wl = _setup("pde-evolve", tmp_path)
    i = next(i for i, op in enumerate(wl.ops) if op["drive"] == "rate")
    disc, x = wl.run(i)
    assert wl.check(i, (disc, x)) < 1e-4
    with pytest.raises(CheckFailed):
        wl.check(i, (disc, x * 1.02))
    with pytest.raises(CheckFailed):
        wl.check(i, (disc, x * 1.001))
    with pytest.raises(CheckFailed):
        wl.check(i, (disc, -x))


def test_gate_rejects_a_failed_or_wrong_cli_op(tmp_path):
    wl = _setup("cli-tour", tmp_path)
    i = next(i for i, op in enumerate(wl.ops) if op["kind"] == "rates")
    proc = wl.run(i)
    assert wl.check(i, proc) == 0.0
    with pytest.raises(CheckFailed):
        wl.check(i, subprocess.CompletedProcess(proc.args, 5, "", "bad"))
    doc = json.loads(proc.stdout)
    doc["result"]["rates"]["r_per_s"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed):
        wl.check(i, subprocess.CompletedProcess(proc.args, 0,
                                                json.dumps(doc), ""))
    argv = list(wl.ops[i]["argv"])
    argv[argv.index("--rprime") + 1] = "0.5"
    wl.ops[i] = dict(wl.ops[i], argv=argv)          # closed form moves
    with pytest.raises(CheckFailed):
        wl.check(i, proc)
    j = next(j for j, op in enumerate(wl.ops) if op["kind"] == "fit")
    proc = wl.run(j)
    assert wl.check(j, proc) == 0.0
    wl.ops[j] = dict(wl.ops[j], tau_ss=2.0 * wl.ops[j]["tau_ss"])
    with pytest.raises(CheckFailed):
        wl.check(j, proc)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_one_op(workload, trace):
    lines = []
    res = run.run(workload, 4, 1e-3, trace, log=lines.append,
                  setup_samples=1)
    assert res["correct"] and res["failed"] == 0, lines
    assert res["attempted"] >= 1 + trace
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(res["metrics"][m["name"]]["value"])


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in Path(run.BENCH).glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        ["python3", "bench/run.py", "--workload", "vortex-modes", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
