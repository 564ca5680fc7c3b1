import warnings

import numpy as np
import pytest

from qpdyn.errors import InvalidGeometryError, TraceParseError
from qpdyn.geometry import (DeviceGeometry, derive, format_geometry,
                            parse_geometry, scaled)


class TestDerive:
    def test_pad_area(self, b1_geom):
        assert b1_geom.s_pad == pytest.approx(6.4e-5 * 1e-4, rel=1e-12)

    def test_diffusion_time(self):
        g = DeviceGeometry(w_wire=12e-6, l_wire=250e-6, h_cap=75e-6,
                           l_half_gap=7.5e-6, w_cap=15e-6, l_cap=600e-6,
                           s_pad=6400e-12)
        der = derive(g, 18e-4)
        assert der.tau_d == pytest.approx(34.7e-6, rel=0.01)

    def test_areas(self, b1_geom):
        der = derive(b1_geom, 18e-4)
        assert der.a_w == pytest.approx(200e-6 * 12e-6, rel=1e-12)
        assert der.a_c == pytest.approx(
            2 * (600e-6 * 15e-6 + 75e-6 * 12e-6), rel=1e-12)
        expected_total = (2 * 6400e-12 + 2 * der.a_w + 2 * der.a_c
                          + 2 * 7.5e-6 * 12e-6)
        assert der.a_total == pytest.approx(expected_total, rel=1e-12)
        assert der.a_total >= 2 * b1_geom.s_pad
        assert der.aspect_a == pytest.approx(6400e-12 / der.a_w, rel=1e-12)

    def test_degenerate_capacitor_reduces_to_thin_arm(self, b1_geom):
        from dataclasses import replace
        g = replace(b1_geom, w_cap=b1_geom.w_wire, l_cap=0.0)
        der = derive(g, 18e-4)
        assert der.a_c == pytest.approx(2 * g.h_cap * g.w_wire, rel=1e-12)

    def test_homogeneous_scaling(self, b1_geom):
        lam = 2.5
        d1 = derive(b1_geom, 18e-4)
        d2 = derive(scaled(b1_geom, lam), 18e-4)
        assert d2.a_w == pytest.approx(lam**2 * d1.a_w, rel=1e-12)
        assert d2.a_c == pytest.approx(lam**2 * d1.a_c, rel=1e-12)
        assert d2.a_total == pytest.approx(lam**2 * d1.a_total, rel=1e-12)
        assert d2.tau_d == pytest.approx(lam**2 * d1.tau_d, rel=1e-12)
        assert d2.aspect_a == pytest.approx(d1.aspect_a, rel=1e-12)

    def test_invalid_diffusivity(self, b1_geom):
        with pytest.raises(InvalidGeometryError):
            derive(b1_geom, 0.0)


class TestValidation:
    def test_all_violations_listed(self):
        with pytest.raises(InvalidGeometryError) as exc:
            DeviceGeometry(w_wire=-1.0, l_wire=200e-6, h_cap=0.0,
                           l_half_gap=7.5e-6, w_cap=15e-6, l_cap=600e-6,
                           s_pad=6400e-12)
        assert len(exc.value.violations) == 2

    @pytest.mark.parametrize("name", ["w_wire", "l_cap", "s_pad"])
    def test_infinite_dimension_rejected(self, b1_geom, name):
        from dataclasses import replace
        with pytest.raises(InvalidGeometryError, match=f"{name} must be finite"):
            replace(b1_geom, **{name: np.inf})

    def test_wide_wire_warning(self):
        with pytest.warns(UserWarning, match="W << L"):
            DeviceGeometry(w_wire=50e-6, l_wire=200e-6, h_cap=75e-6,
                           l_half_gap=7.5e-6, w_cap=15e-6, l_cap=600e-6,
                           s_pad=6400e-12)

    def test_long_gap_warning(self):
        with pytest.warns(UserWarning, match="l_half_gap"):
            DeviceGeometry(w_wire=12e-6, l_wire=200e-6, h_cap=75e-6,
                           l_half_gap=60e-6, w_cap=15e-6, l_cap=600e-6,
                           s_pad=6400e-12)


class TestConfigFormat:
    def test_parse_lab_units(self):
        text = """
        # a comment
        label = demo
        w_wire = 12um
        l_wire = 0.02cm
        h_cap = 75um
        l_half_gap = 7.5um
        w_cap = 15um
        l_cap = 600um
        s_pad = 6.4e-5cm2
        example_only = true
        """
        g = parse_geometry(text)
        assert g.label == "demo"
        assert g.l_wire == pytest.approx(200e-6, rel=1e-12)
        assert g.s_pad == pytest.approx(6400e-12, rel=1e-12)
        assert g.example_only

    def test_round_trip_exact(self, b1_geom):
        g2 = parse_geometry(format_geometry(b1_geom))
        for name in ("w_wire", "l_wire", "h_cap", "l_half_gap", "w_cap",
                     "l_cap", "s_pad"):
            assert getattr(g2, name) == getattr(b1_geom, name)
        assert g2.label == b1_geom.label

    def test_round_trip_random_values(self):
        rng = np.random.Generator(np.random.Philox(31))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(50):
                g = DeviceGeometry(
                    w_wire=rng.uniform(5e-6, 30e-6),
                    l_wire=rng.uniform(1e-4, 5e-4),
                    h_cap=rng.uniform(2e-5, 2e-4),
                    l_half_gap=rng.uniform(1e-6, 2e-5),
                    w_cap=rng.uniform(5e-6, 40e-6),
                    l_cap=rng.uniform(0.0, 1e-3),
                    s_pad=rng.uniform(1e-9, 1e-8), label="rt")
                g2 = parse_geometry(format_geometry(g))
                assert g2 == g

    def test_unknown_key_error(self):
        with pytest.raises(TraceParseError) as exc:
            parse_geometry("w_wire = 12um\nbogus = 3um\n")
        assert exc.value.line == 2

    def test_missing_keys_error(self):
        with pytest.raises(TraceParseError, match="missing"):
            parse_geometry("w_wire = 12um\n")

    def test_bare_number_rejected(self):
        with pytest.raises(TraceParseError):
            parse_geometry("w_wire = 12\n")

    def test_bundled_files_load(self):
        from importlib import resources
        from qpdyn.geometry import load_geometry
        for name, label in (("geometry_b1_like.cfg", "B1-like"),
                            ("geometry_b2_like.cfg", "B2-like"),
                            ("geometry_b3_like.cfg", "B3-like")):
            g = load_geometry(resources.files("qpdyn.data") / name)
            assert g.label == label
            assert g.example_only
            assert g.s_pad == pytest.approx(6400e-12, rel=1e-12)
