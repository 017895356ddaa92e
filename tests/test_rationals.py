"""Wire-format rational parsing."""

import sys
from fractions import Fraction

import pytest

from lipcert import certify, freespace, interval, lipschitz, lp
from lipcert.metric import PointedMetricSpace, restrict
from lipcert.rationals import (
    RationalFormatError,
    format_rational,
    lcm_scale_rows,
    parse_rational,
    parse_rows,
)

from helpers import equilateral


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


def test_parse_rejects_non_ascii_digits():
    # int() reads every Unicode decimal digit, the wire format only ASCII
    # ones: Arabic-Indic three, one over Arabic-Indic two, a fullwidth
    # seven, an ASCII one before a Devanagari four
    for bad in ("\u0663", "1/\u0662", "\uff17", "1\u096a", "-\u0663"):
        with pytest.raises(RationalFormatError):
            parse_rational(bad)


def test_library_coefficients_reject_floats():
    # every place that takes a number from a caller coerces it with
    # parse_rational, so a float raises instead of entering as a binary
    # fraction
    space = equilateral(3)
    f = lipschitz.functional(space, [0, 1, 1])
    v = freespace.free_vector(space, [1, 0])
    p = interval.pwl([0, 1], [0, 1])
    flat = lipschitz.zero_functional(restrict(space, [0, 1]))
    entry_points = {
        "mcshane_pwl bound": lambda c: interval.mcshane_pwl([(0, 0), (1, 0)], c),
        "mcshane_pwl sample value": lambda c: interval.mcshane_pwl([(0, 0), (1, c)], 1),
        "mcshane_pwl sample point": lambda c: interval.mcshane_pwl([(0, 0), (c, 0)], 1),
        "PwlFunctional.scale": p.scale,
        "pwl_combination": lambda c: interval.pwl_combination([p], [c]),
        "c0_block": lambda c: interval.c0_block([1, c]),
        "FreeVector.scale": v.scale,
        "free_vector": lambda c: freespace.free_vector(space, [c, 0]),
        "LipFunctional.scale": f.scale,
        "functional": lambda c: lipschitz.functional(space, [0, c, 0]),
        "combine": lambda c: lipschitz.combine([f], [c]),
        "mcshane_extend bound": lambda c: lipschitz.mcshane_extend(flat, space, c),
        "combo_norm": lambda c: certify.combo_norm([f], [c]),
    }
    for name, call in entry_points.items():
        with pytest.raises(ValueError):
            call(0.1)
        assert call("1/2") == call(Fraction(1, 2)), name
        assert call(1) == call("1"), name


_EXACT_ENTRY_POINTS = {
    "make_program objective": lambda c: lp.make_program([c], [([1], lp.GE, 0)]),
    "make_program coefficient": lambda c: lp.make_program([1], [([c], lp.GE, 0)]),
    "make_program rhs": lambda c: lp.make_program([1], [([1], lp.GE, c)]),
    "make_program bound": lambda c: lp.make_program([1], [], bounds=[(c, None)]),
    "FreeOperator.from_matrix": lambda c: freespace.FreeOperator.from_matrix(
        equilateral(3), [[c, 0], [0, 1]]
    ),
    "PointedMetricSpace.from_matrix": lambda c: PointedMetricSpace.from_matrix([[0, c], [c, 0]]),
}


@pytest.mark.parametrize("name", list(_EXACT_ENTRY_POINTS))
def test_exact_entry_points_reject_floats(name):
    # the exact LP, the free-space operators and the metric matrices coerce
    # every number with parse_rational, so 0.1 raises instead of entering as
    # 3602879701896397/36028797018963968
    call = _EXACT_ENTRY_POINTS[name]
    with pytest.raises(RationalFormatError):
        call(0.1)
    assert call("1/2") == call(Fraction(1, 2))
    assert call(1) == call("1") == call(Fraction(1))


def test_format_round_trip():
    for value in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(1, 64)):
        assert parse_rational(format_rational(value)) == value


def test_lcm_scale_rows_keeps_the_shape_and_scales_by_one_lcm():
    F = Fraction
    rows = [(F(1, 2), F(-3), F(0)), (), (F(5, 6),), [F(7, 4), 2]]
    ints, d = lcm_scale_rows(rows)
    assert d == 12
    assert ints == ((6, -36, 0), (), (10,), (21, 24))
    for row, scaled in zip(rows, ints):
        assert list(scaled) == [x * d for x in row]
        assert all(type(v) is int for v in scaled)
    assert lcm_scale_rows([]) == ((), 1)
    assert lcm_scale_rows([[], []]) == (((), ()), 1)


def _raised(call, *args):
    with pytest.raises(RationalFormatError) as info:
        call(*args)
    return type(info.value), str(info.value)


def test_parse_rows_matches_parse_rational():
    rows = [["0", "1/2", "1/2"], ("1/2", 3, Fraction(1, 3)), [], ["-7/2", "+4/8", " 5 "]]
    assert parse_rows(rows) == [tuple(parse_rational(v) for v in row) for row in rows]
    assert all(type(v) is Fraction for row in parse_rows(rows) for v in row)
    # a repeated string is parsed once per call, into one shared value
    first, second = parse_rows([["22/7"], ["22/7"]])
    assert first[0] is second[0]
    long_digits = "1" * (sys.get_int_max_str_digits() + 1)
    for bad in (0.5, True, ["1"], None, "1.5", "\u0663", long_digits, "1/0"):
        expected = _raised(parse_rational, bad)
        assert _raised(parse_rows, [["1", bad]]) == expected, bad
        assert _raised(parse_rows, [["1/2"], ["0", bad, 1.5]]) == expected, bad
    # the first bad entry in row order is the one named
    assert _raised(parse_rows, [["0", "1"], ["x", 0.5], ["y"]]) == _raised(parse_rational, "x")
    assert _raised(parse_rows, [["0", 0.5], ["x"]]) == _raised(parse_rational, 0.5)


def test_parse_rows_rejects_a_string_or_dict_row():
    # strings and dicts are iterable, so without the check "100" would read
    # as the row ["1", "0", "0"], and {"0": "x", "1": "y"} as ["0", "1"]
    for rows in (["100"], [["1", "0"], "01"], [{"0": "x", "1": "y"}]):
        with pytest.raises(RationalFormatError, match="expected a row of rationals, got"):
            parse_rows(rows)
