"""Wire-format rational parsing."""

from fractions import Fraction

import pytest

from lipcert.rationals import RationalFormatError, format_rational, parse_rational


def test_parse_integers_and_fractions():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/8") == Fraction(1, 2)
    assert parse_rational(5) == 5
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_parse_rejects_decimals_and_junk():
    for bad in ("1.5", "1/0", "a/b", "", "1/-2", "2 / 3", None, 1.5, True, False):
        with pytest.raises(RationalFormatError):
            parse_rational(bad)


def test_format_round_trip():
    for value in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(1, 64)):
        assert parse_rational(format_rational(value)) == value
