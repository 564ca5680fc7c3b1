import math

import pytest

from qpdyn.errors import UnitParseError
from qpdyn.units import parse_angular_frequency, parse_quantity, unit_factor


class TestParseQuantity:
    @pytest.mark.parametrize("text,kind,si", [
        ("200us", "time", 200e-6),
        ("18ms", "time", 18e-3),
        ("438ns", "time", 438e-9),
        ("80um", "length", 80e-6),
        ("100nm", "length", 100e-9),
        ("6.4e-5cm2", "area", 6.4e-9),
        ("6400um2", "area", 6400e-12),
        ("0.067cm2/s", "diffusivity", 0.067e-4),
        ("18cm2/s", "diffusivity", 18e-4),
        ("4.6e10/s", "rate", 4.6e10),
        ("1/ms", "rate", 1e3),
        ("33.3/s", "rate", 33.3),
        ("180ueV", "energy", 180e-6 * 1.602176634e-19),
        ("11mG", "field", 11e-7),
        ("8kohm", "resistance", 8e3),
        ("1e-9W", "power", 1e-9),
    ])
    def test_lab_units(self, text, kind, si):
        assert parse_quantity(text, kind) == pytest.approx(si, rel=1e-12)

    def test_bare_number_rejected(self):
        with pytest.raises(UnitParseError, match="bare numbers"):
            parse_quantity("200", "time")

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnitParseError, match="unknown time unit"):
            parse_quantity("200parsec", "time")

    def test_garbage_rejected(self):
        with pytest.raises(UnitParseError):
            parse_quantity("abc", "time")

    def test_dimensionless_plain_number(self):
        assert parse_quantity("0.9", "dimensionless") == 0.9
        with pytest.raises(UnitParseError):
            parse_quantity("oops", "dimensionless")

    @pytest.mark.parametrize("text,kind", [
        ("1e400um", "length"), ("1e308GHz", "frequency"),
        ("inf", "dimensionless"), ("nan", "dimensionless")])
    def test_non_finite_rejected(self, text, kind):
        with pytest.raises(UnitParseError, match="not a finite"):
            parse_quantity(text, kind)

    def test_whitespace_tolerated(self):
        assert parse_quantity(" 200 us ", "time") == pytest.approx(200e-6)


class TestAngularFrequency:
    def test_plain_frequency_multiplied_by_two_pi(self):
        assert parse_angular_frequency("6GHz") == pytest.approx(
            2 * math.pi * 6e9, rel=1e-12)

    def test_explicit_angular_value(self):
        assert parse_angular_frequency("3.77e10rad/s") == 3.77e10

    def test_bad_input(self):
        with pytest.raises(UnitParseError):
            parse_angular_frequency("6")
        with pytest.raises(UnitParseError, match="not a finite"):
            parse_angular_frequency("1e400rad/s")


def test_unit_factor():
    assert unit_factor("us", "time") == 1e-6
    with pytest.raises(UnitParseError):
        unit_factor("lightyear", "length")
    with pytest.raises(UnitParseError):
        unit_factor("us", "nonsense-kind")
