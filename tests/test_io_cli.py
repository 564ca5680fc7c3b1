import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdyn import io as qio
from qpdyn.cli import main
from qpdyn.errors import TraceParseError
from qpdyn.trace_fit import DecayTrace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTraceFiles:
    def test_three_line_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,gamma\n1e-4,1e5\n2e-4,8e4\n3e-4,6e4\n")
        tr = qio.read_trace(p)
        assert tr.n == 3
        assert tr.sigma is None
        assert tr.gamma[1] == 8e4

    def test_out_of_order_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,gamma\n1e-4,1e5\n3e-4,8e4\n2e-4,6e4\n")
        with pytest.raises(TraceParseError) as exc:
            qio.read_trace(p)
        assert exc.value.line == 4

    def test_units_comment(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# units: t=us gamma=1/ms\n"
                     "t,gamma,sigma\n100,50,1\n200,30,1\n")
        tr = qio.read_trace(p)
        assert tr.t[0] == pytest.approx(100e-6)
        assert tr.gamma[0] == pytest.approx(50e3)
        assert tr.sigma[0] == pytest.approx(1.0)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,rate\n1,2\n")
        with pytest.raises(TraceParseError) as exc:
            qio.read_trace(p)
        assert exc.value.line == 1

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,gamma\n1e-4,abc\n")
        with pytest.raises(TraceParseError) as exc:
            qio.read_trace(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        p = tmp_path / "t.csv"
        p.write_text(f"t,gamma\n1e-4,5e4\n2e-4,{value}\n")
        with pytest.raises(TraceParseError) as exc:
            qio.read_trace(p)
        assert exc.value.line == 3

    def test_round_trip_many_random_traces(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(55))
        p = tmp_path / "rt.csv"
        for k in range(1000):
            n = int(rng.integers(2, 12))
            t = np.sort(rng.uniform(1e-5, 1e-1, n))
            while np.any(np.diff(t) <= 0):
                t = np.sort(rng.uniform(1e-5, 1e-1, n))
            gamma = 10 ** rng.uniform(1, 7, n)
            sigma = 10 ** rng.uniform(0, 3, n) if k % 2 else None
            tr = DecayTrace(t=t, gamma=gamma, sigma=sigma)
            qio.write_trace(tr, p)
            back = qio.read_trace(p)
            assert np.array_equal(back.t, tr.t)
            assert np.array_equal(back.gamma, tr.gamma)
            if sigma is None:
                assert back.sigma is None
            else:
                assert np.array_equal(back.sigma, tr.sigma)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-30, max_value=1e30,
                              allow_nan=False), min_size=1, max_size=8))
    def test_reserialization_is_byte_identical(self, tmp_path_factory,
                                               gammas):
        t = np.arange(1.0, len(gammas) + 1.0)
        tr = DecayTrace(t=t, gamma=np.array(gammas))
        text = qio.format_trace(tr)
        p = tmp_path_factory.mktemp("rt") / "x.csv"
        p.write_text(text)
        assert qio.format_trace(qio.read_trace(p)) == text


class TestPointsFile:
    def test_read_points(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("tau_ss,inv_t1,sigma_inv_t1\n"
                     "2e-3,1e5,1e3\n9e-3,2e5,2e3\n")
        pts = qio.read_points(p)
        assert len(pts) == 2
        assert pts[1].tau_ss == 9e-3
        assert pts[1].sigma_inv_t1 == 2e3


class TestManifest:
    def test_deterministic_without_timestamp(self, tmp_path):
        f = tmp_path / "in.csv"
        f.write_text("t,gamma\n1e-4,1e5\n2e-4,9e4\n")
        m1 = qio.build_manifest("demo", {"a": 1.0}, [f], seed=3,
                                no_timestamp=True)
        m2 = qio.build_manifest("demo", {"a": 1.0}, [f], seed=3,
                                no_timestamp=True)
        assert m1.to_dict() == m2.to_dict()
        assert len(m1.input_hashes[str(f)]) == 64

    def test_timestamp_present_by_default(self):
        m = qio.build_manifest("demo", {})
        assert "timestamp" in m.to_dict()


# Each numeric flag of the README tour set to an extreme finite value (0,
# 1e-320 or 1e300 in its unit): every one used to exit 1 with a traceback.
_EVOLVE = ("pde evolve --geom b2 --nl 0 --nr 0 --p 0cm2/s --d 18cm2/s "
           "--s0 100/s --r 6.25e6/s --g 1e-4/s --amp 1e4/s --tinj 600us "
           "--tmax 8ms --points 100")
_INJECTION = dict(qin="2e6", qout="1e5", qw="1e8", qj="1.1e4")
EXTREME_INPUTS = [
    "rates --amplitude 1e-320/s --rprime 0.9 --tauss 18ms --gamma0 1e5/s "
    "--c 4.6e10/s",
    "rates --amplitude 3.9e6/s --rprime 0.9 --tauss 1e-320ms --gamma0 1e5/s "
    "--c 4.6e10/s",
    "rates --amplitude 3.9e6/s --rprime 0.9 --tauss 1e300ms --gamma0 1e5/s "
    "--c 4.6e10/s",
    "eigenrate --geom b1 --nl 1 --nr 0 --p 1e300cm2/s --d 18cm2/s",
    "steps --geom b1 --p 1e300cm2/s --d 18cm2/s --max 4",
    *(_EVOLVE.replace(old, new) for old, new in [
        ("--d 18cm2/s", "--d 1e300cm2/s"), ("--s0 100/s", "--s0 1e300/s"),
        ("--r 6.25e6/s", "--r 1e300/s"), ("--g 1e-4/s", "--g 1e300/s")]),
    _EVOLVE + " --xinit 1e300",
    _EVOLVE + " --clamp-density 1e300",
    *("estimate injection --rj 8kohm --delta 180ueV "
      + " ".join(f"--{k} {'1e-320' if k == flag else v}"
                 for k, v in _INJECTION.items())
      for flag in _INJECTION),
    "estimate qprate --rj 1e-320kohm --delta 180ueV",
    "estimate trapping-power --rcore 1e300nm --rate 1.2e7/s",
]
# a zero amplitude or coupling is an invalid parameter (exit 5), not a
# division by zero
BAD_INPUTS = [(argv, (5, 6)) for argv in EXTREME_INPUTS] + [
    ("rates --amplitude 0/s --rprime 0.9 --tauss 18ms --gamma0 1e5/s "
     "--c 4.6e10/s", (5,)),
    ("t1fit {points} --c 0/s", (5,))] + [
    # generator rates that overflow, and a mesh too fine to allocate
    (f"pde eigen --geom b1 --nl 1 --nr 0 --p 0.067cm2/s {flags}", (5, 6))
    for flags in ("--d 1e307cm2/s",
                  "--d 18cm2/s --resolution 10000000000000")] + [
    # diffusion so fast that the slowest rate drowns in round-off, the LU
    # factor is singular, or the iterate underflows: each exits 6
    (f"pde eigen --geom b1 --nl 1 --nr 0 --p 0.067cm2/s --d {d}cm2/s", (6,))
    for d in ("1e12", "1e14", "1e18", "1e20", "1e40", "1e100", "1e200",
              "1e300")] + [
    # a weak-trapping root the mode scan cannot resolve exits 5
    (f"eigenrate --geom b1 --nl 1 --nr 0 --p 0.067cm2/s --d {d}cm2/s "
     "--form full", (5,)) for d in ("1e12", "1e16", "1e20")]


@pytest.fixture()
def b1_trace_path():
    from importlib import resources
    return str(resources.files("qpdyn.data") / "trace_b1_like.csv")


class TestCli:
    def test_fit_bundled_trace(self, capsys, b1_trace_path):
        code, out, err = run_cli(
            capsys, "fit", b1_trace_path, "--omega", "6GHz",
            "--delta", "180ueV", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["fit"]["tau_ss_s"] == pytest.approx(
            18e-3, rel=0.1)
        assert doc["result"]["rates"]["r_per_s"] == pytest.approx(
            1 / 170e-9, rel=0.15)
        assert doc["manifest"]["command"] == "fit"
        assert len(doc["manifest"]["input_hashes"]) == 1

    def test_fit_deterministic_output(self, capsys, b1_trace_path):
        args = ("fit", b1_trace_path, "--c", "4.6e10/s", "--no-timestamp")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_eigenrate_zero_vortices_echoes_s0(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigenrate", "--geom", "b1", "--nl", "0", "--nr", "0",
            "--p", "0.067cm2/s", "--d", "18cm2/s", "--s0", "41/s",
            "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["s_per_s"] == 41.0
        assert doc["result"]["z"] == 0.0

    def test_steps_csv_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "steps", "--geom", "b1", "--p", "0.067cm2/s",
            "--d", "18cm2/s", "--max", "4", "--out", "csv",
            "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "step,n_left,n_right,s_per_s,sA_cm2_per_s"
        rows = [ln.split(",") for ln in lines[2:]]
        assert rows[0][:3] == ["0", "0", "0"]
        # floats are written with repr, so they read back exactly
        assert all(repr(float(v)) == v for r in rows for v in r[3:])
        s_a = [float(r[4]) for r in rows]
        assert all(b > a for a, b in zip(s_a, s_a[1:]))
        incr = np.diff(s_a)
        assert np.all(incr > 0.85 * 0.067) and np.all(incr < 1.0 * 0.067)

    def test_sweep_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--geom", "b2", "--p", "0.067cm2/s",
            "--d", "18cm2/s", "--bk", "11mG", "--slope", "0.45",
            "--bmin", "0mG", "--bmax", "150mG", "--points", "7",
            "--out", "csv", "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "b_mG,n_left,n_right,s_per_s,sA_cm2_per_s"
        assert len(lines) == 2 + 7

    def test_synth_fit_loop(self, capsys, tmp_path):
        out_file = str(tmp_path / "synthetic.csv")
        code, _, _ = run_cli(
            capsys, "synth", "--amplitude", "2e5/s", "--rprime", "0.8",
            "--tauss", "12ms", "--gamma0", "3e4/s", "--noise", "0.01",
            "--seed", "5", "--tgrid", "log:0.3ms:60ms:40",
            "--out-file", out_file, "--no-timestamp")
        assert code == 0
        code, out, _ = run_cli(capsys, "fit", out_file, "--c", "4.6e10/s",
                               "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["fit"]["tau_ss_s"] == pytest.approx(
            12e-3, rel=0.15)

    def test_synth_deterministic(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ("synth", "--amplitude", "2e5/s", "--rprime", "0.8",
                "--tauss", "12ms", "--gamma0", "3e4/s", "--noise", "0.02",
                "--seed", "9", "--tgrid", "log:0.3ms:60ms:25",
                "--no-timestamp")
        run_cli(capsys, *args, "--out-file", a)
        run_cli(capsys, *args, "--out-file", b)
        assert Path(a).read_text() == Path(b).read_text()

    def test_bundled_trace_regenerates_from_library(self, b1_trace_path,
                                                    capsys, tmp_path):
        regen = str(tmp_path / "regen.csv")
        code, _, _ = run_cli(
            capsys, "synth", "--amplitude", "3885106.95528956/s",
            "--rprime", "0.9", "--tauss", "18ms", "--gamma0", "4e4/s",
            "--noise", "0.02", "--seed", "7",
            "--tgrid", "log:0.2ms:80ms:40", "--no-timestamp",
            "--out-file", regen)
        assert code == 0
        assert Path(regen).read_text() == Path(
            b1_trace_path).read_text()

    def test_t1fit(self, capsys, tmp_path, coupling):
        pts = tmp_path / "pts.csv"
        taus = np.linspace(2e-3, 16e-3, 8)
        lines = ["tau_ss,inv_t1"]
        for tv in taus:
            lines.append(
                f"{float(tv)!r},{float(coupling * 0.7e-4 * tv + 1 / 26e-6)!r}")
        pts.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "t1fit", str(pts), "--c",
                               f"{coupling}/s", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["g_per_s"] == pytest.approx(0.7e-4, rel=1e-6)
        assert doc["result"]["gamma_ex_per_s"] == pytest.approx(
            1 / 26e-6, rel=1e-6)

    def test_pde_eigen_cross_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "pde", "eigen", "--geom", "b1", "--nl", "1", "--nr", "0",
            "--p", "0.067cm2/s", "--d", "18cm2/s", "--s0", "33.3/s",
            "--no-timestamp")
        assert code == 0
        s_pde = json.loads(out)["result"]["s_per_s"]
        code, out, _ = run_cli(
            capsys, "eigenrate", "--geom", "b1", "--nl", "1", "--nr", "0",
            "--p", "0.067cm2/s", "--d", "18cm2/s", "--s0", "33.3/s",
            "--form", "full", "--no-timestamp")
        s_eq = json.loads(out)["result"]["s_per_s"]
        assert s_pde == pytest.approx(s_eq, rel=0.005)

    def test_pde_evolve_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "pde", "evolve", "--geom", "b2", "--nl", "0", "--nr", "0",
            "--p", "0cm2/s", "--d", "18cm2/s", "--s0", "100/s",
            "--r", "6.25e6/s", "--g", "1e-4/s", "--amp", "1e4/s",
            "--tinj", "300us", "--tmax", "2ms", "--points", "10",
            "--tol", "1e-6", "--out", "csv", "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "t_s,x_jj"
        vals = [float(ln.split(",")[1]) for ln in lines[2:]]
        assert all(v >= 0 for v in vals)
        assert max(vals) > 0

    def test_rates_extraction_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--amplitude", "3885106.95528956/s",
            "--rprime", "0.9", "--tauss", "18ms", "--gamma0", "1.05e5/s",
            "--c", "45707140650.4654/s", "--no-timestamp")
        assert code == 0
        rates = json.loads(out)["result"]["rates"]
        assert rates["r_per_s"] == pytest.approx(1 / 170e-9, rel=1e-6)
        assert rates["s_min_per_s"] <= 1 / 30e-3 <= rates["s_max_per_s"]

    def test_estimate_injection_and_qprate(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "injection", "--rj", "8kohm",
            "--delta", "180ueV", "--qin", "2e6", "--qout", "1e5",
            "--qw", "1e8", "--qj", "1.1e4", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["result"]["p_in_dbm"] == pytest.approx(
            -60.0, abs=2.0)
        code, out, _ = run_cli(capsys, "estimate", "qprate", "--rj", "8kohm",
                               "--delta", "180ueV", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["result"]["g_per_us"] == pytest.approx(
            5e5, rel=0.2)

    def test_estimate_freqshift_and_trapping_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "freqshift", "--gamma", "1e5/s",
            "--omega", "6GHz", "--delta", "180ueV", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["result"]["ratio_to_gamma"] == pytest.approx(
            -0.91, abs=0.01)
        code, out, _ = run_cli(
            capsys, "estimate", "trapping-power", "--rcore", "270nm",
            "--rate", "1.2e7/s", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["result"]["p_cm2_per_s"] == pytest.approx(
            0.027, rel=0.1)

    def test_estimate_injection_non_finite_exit_5(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "injection", "--rj", "8kohm",
            "--delta", "180ueV", "--qin", "inf", "--qout", "1e5",
            "--qw", "1e8", "--qj", "1.1e4", "--no-timestamp")
        assert code == 5
        assert out == ""
        assert "q_in must be finite" in err

    def test_estimate_freqshift_non_finite_exit_5(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "freqshift", "--gamma", "1e5/s",
            "--omega", "6GHz", "--delta", "180ueV", "--factor", "inf",
            "--no-timestamp")
        assert code == 5
        assert out == ""
        assert "empirical_factor must be finite" in err

    def test_sweep_non_finite_slope_exit_5(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--geom", "b2", "--p", "0.067cm2/s",
            "--d", "18cm2/s", "--bk", "11mG", "--slope", "inf",
            "--bmin", "0mG", "--bmax", "150mG", "--points", "7",
            "--no-timestamp")
        assert code == 5
        assert out == ""
        assert "slope must be finite" in err

    def test_rates_non_finite_result_exit_6(self, capsys):
        # r' = 5e-324 puts g_bound = 1/(4 r tau^2) at infinity, which JSON
        # cannot carry
        code, out, err = run_cli(
            capsys, "rates", "--amplitude", "4.865e5/s", "--rprime",
            "5e-324", "--tauss", "5.51ms", "--gamma0", "2.22e5/s",
            "--c", "4.6e10/s", "--no-timestamp")
        assert code == 6
        assert out == ""
        assert "rates.g_bound_per_s = inf" in err

    def test_fit_short_linear_trace_sigma_weighting(self, capsys, tmp_path):
        trace = str(tmp_path / "short.csv")
        code, _, _ = run_cli(
            capsys, "synth", "--amplitude", "4.865e5/s", "--rprime", "0.277",
            "--tauss", "5.51ms", "--gamma0", "2.22e5/s", "--noise", "0.027",
            "--seed", "0", "--tgrid", "lin:0.2ms:33.06ms:13",
            "--out-file", trace, "--no-timestamp")
        assert code == 0
        code, out, err = run_cli(capsys, "fit", trace, "--weighting", "sigma",
                                 "--c", "4.6e10/s", "--no-timestamp")
        assert code == 0, err
        fit = json.loads(out)["result"]["fit"]
        assert abs(fit["tau_ss_s"] - 5.51e-3) < 3 * fit["tau_ss_sigma"]

    def test_geometry_non_finite_length_exit_4(self, capsys, tmp_path):
        from importlib import resources
        text = (resources.files("qpdyn.data")
                / "geometry_b1_like.cfg").read_text()
        geom = tmp_path / "huge.cfg"
        geom.write_text(text.replace("l_cap = 600um", "l_cap = 1e400um"))
        code, out, err = run_cli(
            capsys, "eigenrate", "--geom", str(geom), "--nl", "1", "--nr",
            "0", "--p", "0.067cm2/s", "--d", "18cm2/s", "--no-timestamp")
        assert code == 4
        assert out == ""
        assert "not a finite quantity" in err and "line" in err

    def test_estimate_missing_flags_exit_5(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "qprate", "--rj", "8kohm")
        assert code == 2
        assert "--delta" in err

    def test_estimate_trapping_power_taun_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "trapping-power", "--rcore", "100nm",
            "--taun", "83.3ns", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["result"]["p_cm2_per_s"] == pytest.approx(
            0.00377, rel=0.02)

    def test_pde_eigen_mode_shape_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "pde", "eigen", "--geom", "b1", "--nl", "3", "--nr", "3",
            "--p", "0.067cm2/s", "--d", "18cm2/s", "--out", "csv",
            "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "segment,y_um,density"
        rows = [ln.split(",") for ln in lines[2:]]
        segs = {r[0] for r in rows}
        assert {"junction", "pad_left", "pad_right",
                "wire_left", "arm_left_thin"} <= segs
        dens = {r[0]: float(r[2]) for r in rows}
        assert dens["junction"] == 1.0
        assert 0 < dens["pad_left"] < 1.0

    def test_fit_csv_output(self, capsys, b1_trace_path):
        code, out, _ = run_cli(
            capsys, "fit", b1_trace_path, "--c", "4.6e10/s", "--out", "csv",
            "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "quantity,value"
        values = dict(ln.split(",", 1) for ln in lines[2:])
        assert float(values["tau_ss_s"]) == pytest.approx(18e-3, rel=0.1)

    def test_estimate_vortex_profile_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "vortex-profile", "--p", "0.067cm2/s",
            "--d", "18cm2/s", "--rcore", "100nm", "--rho", "0nm,100nm,80um",
            "--out", "csv", "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "rho_m,ratio"
        ratios = [float(ln.split(",")[1]) for ln in lines[2:]]
        assert ratios[0] == 1.0
        assert ratios[1] < 1.001
        assert ratios[2] < 1.01

    def test_exit_codes(self, capsys, tmp_path, b1_trace_path):
        # unknown flag -> argparse usage error
        code, _, _ = run_cli(capsys, "fit", b1_trace_path, "--bogus", "1")
        assert code == 2
        # missing file
        code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.csv"),
                               "--c", "4.6e10/s")
        assert code == 3
        # malformed trace file
        bad = tmp_path / "bad.csv"
        bad.write_text("t,gamma\n2e-4,1e5\n1e-4,2e5\n")
        code, _, err = run_cli(capsys, "fit", str(bad), "--c", "4.6e10/s")
        assert code == 4
        assert "line" in err
        # non-finite sample: a parse error naming the line, not a traceback
        nan = tmp_path / "nan.csv"
        nan.write_text("t,gamma\n1e-4,2e5\n2e-4,nan\n3e-4,1e5\n")
        code, _, err = run_cli(capsys, "fit", str(nan), "--c", "4.6e10/s")
        assert code == 4
        assert "line 3" in err
        # invalid parameters: missing coupling
        code, _, err = run_cli(capsys, "fit", b1_trace_path)
        assert code == 5

    def test_integrator_failure_exits_6(self, capsys, monkeypatch):
        import types

        import scipy.integrate
        monkeypatch.setattr(scipy.integrate, "solve_ivp",
                            lambda *a, **k: types.SimpleNamespace(
                                success=False, message="step size too small"))
        code, out, err = run_cli(capsys, "pde", "evolve", "--geom", "b1",
                                 "--nl", "0", "--nr", "0", "--p", "0cm2/s",
                                 "--d", "18cm2/s", "--xinit", "1e-4",
                                 "--tmax", "1ms", "--points", "5")
        assert code == 6
        assert out == ""
        assert "step size too small" in err

    def test_every_error_class_maps_to_a_documented_exit_code(self):
        import inspect
        import pathlib
        import re

        from qpdyn import errors
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        table = re.search(r"^Exit codes:(.*?)\n\n", readme, re.M | re.S)
        documented = {int(c) for c in re.findall(r"`(\d)`", table[1])}
        classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                   if issubclass(c, errors.QpdynError)
                   and c is not errors.QpdynError]
        assert len(classes) == 14
        for cls in classes:
            assert cls.exit_code in documented - {0, 2, 3}, cls.__name__

    def test_version_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0

    @pytest.mark.parametrize("argv, code, named", [
        ("synth --amplitude 3.9e6/s --rprime 0.9 --tauss 18ms --gamma0 4e4/s "
         "--noise 0.02 --seed -1 --tgrid log:0.2ms:80ms:40", 5, "--seed"),
        ("sweep --geom b1 --p 0.067cm2/s --d 18cm2/s --bk 11mG --slope 0.45 "
         "--bmin 0mG --bmax 200mG --points -3", 5, "--points"),
        ("pde evolve --geom b1 --nl 0 --nr 0 --p 0cm2/s --d 18cm2/s "
         "--xinit 1e-4 --points 0", 5, "--points"),
        ("estimate trapping-power --rcore 100nm --rate 0/s", 5, "--rate"),
        ("eigenrate --geom {dir} --nl 1 --nr 0 --p 0.067cm2/s --d 18cm2/s",
         3, "{dir}"),
    ], ids=["synth-seed", "sweep-points", "evolve-points",
            "trapping-power-rate", "geom-directory"])
    def test_bad_input_exits_without_traceback(self, capsys, tmp_path, argv,
                                               code, named):
        got, out, err = run_cli(capsys, *argv.format(dir=tmp_path).split())
        assert got == code
        assert out == ""
        assert named.format(dir=tmp_path) in err

    @pytest.mark.parametrize(
        "argv, codes", BAD_INPUTS,
        ids=[f"{a.split(' --')[0].split(' {')[0].replace(' ', '-')}-{k}"
             for k, (a, _) in enumerate(BAD_INPUTS)])
    def test_extreme_finite_input_exits_without_traceback(self, capsys,
                                                          recwarn, tmp_path,
                                                          argv, codes):
        points = tmp_path / "points.csv"
        points.write_text("tau_ss,inv_t1\n2e-3,1e5\n9e-3,2e5\n16e-3,3e5\n")
        argv = argv.format(points=points).split()
        command = "-".join(a for a in argv[:2] if not a.startswith(("-", "/")))
        code, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert code in codes, err
        assert out == ""
        assert "Traceback" not in err
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        assert err.count("\n") == 1
        assert err.startswith(f"qpdyn {command}: ")

    def test_pde_evolve_overflow_is_one_named_line(self, capsys, recwarn):
        code, out, err = run_cli(capsys, *(
            "pde evolve --geom b2 --nl 0 --nr 0 --p 0cm2/s --d 18cm2/s "
            "--r 1e300/s --xinit 1e300 --tmax 1ms").split())
        assert code == 6
        assert out == ""
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        (line,) = err.splitlines()
        assert line.startswith("qpdyn pde-evolve: stiff integrator failed on "
                               "the undriven piece [0, 0.001] s: float64 "
                               "overflow with r = 1e+300 1/s, density scale "
                               "1e+300 ")

    @pytest.mark.parametrize("p, s_weak", [("1e-300", "3.48554e-297"),
                                           ("1e-20", "3.48554e-17")])
    def test_pde_eigen_names_weak_trapping_limit(self, capsys, p, s_weak):
        code, out, err = run_cli(capsys, *(
            f"pde eigen --geom b1 --nl 1 --nr 1 --p {p}cm2/s --d 18cm2/s "
            "--no-timestamp").split())
        assert code == 6
        assert out == ""
        assert err == (
            "qpdyn pde-eigen: LU factorization of the generator failed: "
            "Factor is exactly singular; the trapping sink is below "
            "round-off of the diffusion operator; the weak-trapping limit "
            f"s = {s_weak} 1/s applies\n")

    def test_linalg_error_exits_6_without_traceback(self, capsys,
                                                    monkeypatch,
                                                    b1_trace_path):
        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        code, out, err = run_cli(capsys, "fit", b1_trace_path, "--c",
                                 "4.6e10/s")
        assert code == 6
        assert out == ""
        assert err == ("qpdyn fit: numerical failure (LinAlgError: SVD did "
                       "not converge)\n")

    def test_unwritable_out_file_stops_before_the_work(self, capsys,
                                                       monkeypatch, tmp_path,
                                                       b1_trace_path):
        import qpdyn.cli

        def never(*args, **kwargs):
            raise AssertionError("the computation started")

        monkeypatch.setattr(qpdyn.io, "read_trace", never)
        monkeypatch.setattr(qpdyn.cli, "fit_gamma_trace", never)
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run_cli(capsys, "fit", b1_trace_path, "--c",
                                     "4.6e10/s", "--out-file", str(target))
            assert code == 3
            assert out == ""
            assert f"{str(target)!r} is not writable" in err
        assert not (tmp_path / "missing").exists()

    def test_failed_run_leaves_out_file_untouched(self, capsys, tmp_path):
        target = tmp_path / "kept.json"
        target.write_text("earlier result\n")
        code, _, _ = run_cli(capsys, "rates", "--amplitude", "0/s",
                             "--rprime", "0.9", "--tauss", "18ms",
                             "--gamma0", "1e5/s", "--c", "4.6e10/s",
                             "--out-file", str(target))
        assert code == 5
        assert target.read_text() == "earlier result\n"

    def test_eigenrate_csv_matches_json(self, capsys):
        argv = ("eigenrate", "--geom", "b1", "--nl", "1", "--nr", "0", "--p",
                "0.067cm2/s", "--d", "18cm2/s", "--s0", "33/s",
                "--no-timestamp")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)["result"]
        code, out, _ = run_cli(capsys, *argv, "--out", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "quantity,value"
        rows = dict(ln.split(",", 1) for ln in lines[2:])
        assert float(rows["s_per_s"]) == doc["s_per_s"]
        assert "bracket" not in rows
        assert set(rows) == set(doc) - {"bracket"}

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_synth_needs_two_grid_points(self, capsys, n):
        code, out, err = run_cli(
            capsys, "synth", "--amplitude", "3.9e6/s", "--rprime", "0.9",
            "--tauss", "18ms", "--gamma0", "4e4/s", "--noise", "0.02",
            "--seed", "7", "--tgrid", f"log:0.2ms:80ms:{n}")
        assert code == 4
        assert out == ""
        assert "n >= 2" in err


def test_import_cli_loads_no_scipy():
    import pathlib
    import subprocess
    import sys

    import qpdyn
    src = str(pathlib.Path(qpdyn.__file__).parents[1])
    probe = ("import sys, qpdyn.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env={"PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


# The README tour with the manifest parameters each command recorded when
# every command spelled its manifest out by hand: each key must keep its
# name and value.  "{trace}", "{points}" and "{synth}" are paths under the
# test's temporary directory.
README_TOUR = [
    ("fit {trace} --tmin 200us --omega 6GHz --delta 180ueV",
     {"trace": "{trace}", "t_min_s": 0.00019999999999999998,
      "weighting": "relative", "coupling_per_s": 45707140650.4654}),
    ("rates --amplitude 3.9e6/s --rprime 0.9 --tauss 18ms --gamma0 1e5/s "
     "--c 4.6e10/s",
     {"amplitude_per_s": 3900000.0, "r_prime": 0.9,
      "tau_ss_s": 0.018000000000000002, "gamma0_per_s": 100000.0,
      "coupling_per_s": 46000000000.0}),
    ("eigenrate --geom b1 --nl 1 --nr 0 --p 0.067cm2/s --d 18cm2/s --s0 33/s",
     {"geom": "b1", "n_left": 1, "n_right": 0,
      "p_m2_per_s": 6.700000000000001e-06,
      "d_m2_per_s": 0.0018000000000000002, "s0_per_s": 33.0,
      "form": "reduced"}),
    ("steps --geom b1 --p 0.067cm2/s --d 18cm2/s --max 4 --out csv",
     {"geom": "b1", "p_m2_per_s": 6.700000000000001e-06,
      "d_m2_per_s": 0.0018000000000000002, "s0_per_s": 0.0,
      "series": "alternating", "max_steps": 4, "form": "reduced"}),
    ("sweep --geom b1 --p 0.067cm2/s --d 18cm2/s --bk 11mG --slope 0.45 "
     "--bmin 0mG --bmax 200mG --points 41 --out csv",
     {"geom": "b1", "p_m2_per_s": 6.700000000000001e-06,
      "d_m2_per_s": 0.0018000000000000002, "s0_per_s": 0.0,
      "b_k_t": 1.1e-06, "slope_per_t": 4500000.0, "b_min_t": 0.0,
      "b_max_t": 1.9999999999999998e-05, "points": 41, "pads": "equal"}),
    ("pde eigen --geom b1 --nl 1 --nr 0 --p 0.067cm2/s --d 18cm2/s",
     {"geom": "b1", "n_left": 1, "n_right": 0,
      "p_m2_per_s": 6.700000000000001e-06,
      "d_m2_per_s": 0.0018000000000000002, "s0_per_s": 0.0,
      "resolution": 50}),
    ("pde evolve --geom b2 --nl 0 --nr 0 --p 0cm2/s --d 18cm2/s --s0 100/s "
     "--r 6.25e6/s --g 1e-4/s --amp 1e4/s --tinj 600us --tmax 8ms "
     "--points 100 --out csv",
     {"geom": "b2", "n_left": 0, "n_right": 0, "p_m2_per_s": 0.0,
      "d_m2_per_s": 0.0018000000000000002, "s0_per_s": 100.0,
      "r_per_s": 6250000.0, "g_per_s": 0.0001,
      "injection_rate_per_s": 10000.0, "t_inj_s": 0.0006, "x_init": 0.0,
      "t_max_s": 0.008, "points": 100, "resolution": 50, "tol": 1e-08}),
    ("synth --amplitude 3.9e6/s --rprime 0.9 --tauss 18ms --gamma0 4e4/s "
     "--noise 0.02 --seed 7 --tgrid log:0.2ms:80ms:40 --out-file {synth}",
     {"amplitude_per_s": 3900000.0, "r_prime": 0.9,
      "tau_ss_s": 0.018000000000000002, "gamma0_per_s": 40000.0,
      "noise_rel": 0.02, "tgrid": "log:0.2ms:80ms:40"}),
    ("t1fit {points} --c 4.6e10/s",
     {"points": "{points}", "coupling_per_s": 46000000000.0}),
    ("estimate injection --rj 8kohm --delta 180ueV --qin 2e6 --qout 1e5 "
     "--qw 1e8 --qj 1.1e4",
     {"r_j_ohm": 8000.0, "delta_j": 2.8839179412e-23, "q_in": 2000000.0,
      "q_out": 100000.0, "q_w": 100000000.0, "q_j": 11000.0}),
    ("estimate qprate --rj 8kohm --delta 180ueV",
     {"r_j_ohm": 8000.0, "delta_j": 2.8839179412e-23}),
    ("estimate trapping-power --rcore 100nm --rate 1.2e7/s",
     {"r_core_m": 1.0000000000000001e-07, "tau_n_s": 8.333333333333334e-08}),
    ("estimate freqshift --gamma 1e5/s --omega 6GHz --delta 180ueV",
     {"gamma_per_s": 100000.0, "omega_rad_per_s": 37699111843.077515,
      "delta_j": 2.8839179412e-23, "empirical_factor": 1.0}),
    ("estimate vortex-profile --p 0.067cm2/s --d 18cm2/s --rcore 100nm "
     "--rho 0nm,100nm,80um",
     {"p_m2_per_s": 6.700000000000001e-06,
      "d_m2_per_s": 0.0018000000000000002,
      "r_core_m": 1.0000000000000001e-07, "rho": "0nm,100nm,80um"}),
]


def test_mode_and_closed_form_commands_load_no_scipy(tmp_path):
    """import qpdyn, then every command that needs no fit, PDE or ODE,
    runs in one interpreter without importing any scipy module."""
    import subprocess
    import sys

    import qpdyn
    points = tmp_path / "points.csv"
    points.write_text("tau_ss,inv_t1\n2e-3,1e5\n9e-3,2e5\n16e-3,3e5\n")
    files = {"points": str(points), "synth": str(tmp_path / "t.csv")}
    tour = [argv.format(**files).split() for argv, _ in README_TOUR
            if argv.split()[0] not in ("fit", "pde")]
    tour.insert(3, README_TOUR[2][0].split() + ["--form", "full"])
    assert {a[0] for a in tour} == {"rates", "eigenrate", "steps", "sweep",
                                    "synth", "t1fit", "estimate"}
    probe = (
        "import json, os, sys\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import qpdyn\n"
        "report = [['import qpdyn', 0, scipy()]]\n"
        "from qpdyn.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = main(argv + ['--out-file', os.devnull])\n"
        "    report.append([' '.join(argv[:2]), code, scipy()])\n"
        "print(json.dumps(report))\n")
    src = str(Path(qpdyn.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(tour)],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": src})
    report = json.loads(done.stdout)
    assert len(report) == len(tour) + 1
    assert all(code == 0 for _, code, _ in report), report
    assert [cmd for cmd, _, loaded in report if loaded] == []


def _leaf_parsers(parser):
    """(command name, parser) for every leaf subcommand of the CLI."""
    import argparse
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser.get_default("_command"), parser
    for action in subs:
        for sp in action.choices.values():
            yield from _leaf_parsers(sp)


class TestManifestProvenance:
    @pytest.fixture()
    def files(self, tmp_path, b1_trace_path):
        import shutil
        trace, points = tmp_path / "trace.csv", tmp_path / "points.csv"
        shutil.copy(b1_trace_path, trace)
        points.write_text("tau_ss,inv_t1\n2e-3,1e5\n9e-3,2e5\n16e-3,3e5\n")
        return {"trace": str(trace), "points": str(points),
                "synth": str(tmp_path / "t.csv")}

    def manifest(self, capsys, files, argv):
        argv = [a.format(**files) for a in argv.split()]
        code, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert code == 0, err
        if "--out-file" in argv:
            out = Path(argv[argv.index("--out-file") + 1]).read_text()
        if out.startswith("# manifest: "):
            return json.loads(out.splitlines()[0][len("# manifest: "):])
        return json.loads(out)["manifest"]

    def test_every_flag_recorded_and_old_keys_kept(self, capsys, files):
        from qpdyn.cli import build_parser
        leaves = dict(_leaf_parsers(build_parser()))
        seen = set()
        for argv, pinned in README_TOUR:
            man = self.manifest(capsys, files, argv)
            params = man["parameters"]
            for key, value in pinned.items():
                if isinstance(value, str):
                    value = value.format(**files)
                assert params.get(key, "missing") == value, (argv, key)
            flags = {a.dest for a in leaves[man["command"]]._actions
                     if a.dest not in ("help", "out", "out_file",
                                       "no_timestamp")}
            recorded = set(params) | ({"seed"} if man["seed"] is not None
                                      else set())
            assert flags <= recorded, (argv, flags - recorded)
            seen.add(man["command"])
        assert seen == set(leaves)

    @pytest.mark.parametrize("argv, key, values", [
        ("sweep --geom b1 --p 0.067cm2/s --d 18cm2/s --bk 11mG --slope 0.45 "
         "--bmin 0mG --bmax 200mG --points 5 --form {}", "form",
         ("reduced", "full")),
        ("pde evolve --geom b1 --nl 0 --nr 0 --p 0cm2/s --d 18cm2/s "
         "--s0 100/s --r 6.25e6/s --tinj 300us --tmax 2ms --points 5 "
         "--tol 1e-6 --clamp-density {}", "clamp_density", (1e-3, 2e-3)),
    ], ids=["sweep-form", "evolve-clamp"])
    def test_outputs_that_differ_have_manifests_that_differ(
            self, capsys, files, argv, key, values):
        docs = []
        for v in values:
            code, out, err = run_cli(capsys, *argv.format(v).split(),
                                     "--no-timestamp")
            assert code == 0, err
            docs.append(json.loads(out))
        assert docs[0]["result"] != docs[1]["result"]
        assert [d["manifest"]["parameters"][key] for d in docs] == list(values)
