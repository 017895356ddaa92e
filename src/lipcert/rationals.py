"""Exact rational parsing/formatting used by the wire formats.

Rationals are stdlib ``fractions.Fraction`` throughout: arbitrary precision,
always reduced, denominator positive.  No floating point enters the library.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

# ASCII only: without it, \d matches every Unicode decimal digit
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?", re.ASCII)


class RationalFormatError(ValueError):
    """String is not an integer or 'p/q' rational."""


def parse_rational(value) -> Fraction:
    """Parse 'p/q' or integer strings into a Fraction; ints pass through.

    Decimal notation is deliberately rejected: the file formats carry exact
    rationals only.  JSON booleans are not integers, though Python's bool is.
    """
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip())
        if match:
            # the groups are the numerator and denominator; Fraction reduces
            num, den = match.groups()
            try:
                return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
            except ValueError as exc:  # more digits than int() converts
                limit = sys.get_int_max_str_digits()
                raise RationalFormatError(f"malformed rational: more than {limit} digits") from exc
        raise RationalFormatError(f"malformed rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise RationalFormatError(f"expected rational string, got {type(value).__name__}")


def parse_rows(rows) -> list[tuple[Fraction, ...]]:
    """``parse_rational`` of every entry of every row, as one tuple per row.

    Each distinct string is parsed once per call: a symmetric distance
    matrix holds about half as many distinct strings as entries.  A row
    that is a string or a dict is rejected rather than read as its
    characters or its keys.  The first bad entry in row order raises what
    ``parse_rational`` raises for it.
    """
    seen: dict[str, Fraction] = {}
    out = []
    for row in rows:
        if isinstance(row, (str, dict)):
            raise RationalFormatError(f"expected a row of rationals, got {row!r}")
        parsed = []
        for v in row:
            if type(v) is str:
                q = seen.get(v)
                if q is None:
                    q = seen[v] = parse_rational(v)
            else:
                q = parse_rational(v)
            parsed.append(q)
        out.append(tuple(parsed))
    return out


def format_rational(q: Fraction) -> str:
    """Canonical string form: 'p' when integral, else 'p/q' reduced.

    Raises RationalFormatError when ``p`` or ``q`` has more digits than
    Python converts to a string (``sys.get_int_max_str_digits()``).
    """
    q = q if type(q) is Fraction else Fraction(q)
    try:
        return str(q)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise RationalFormatError(f"cannot format a rational of more than {limit} digits") from exc


def lcm_scale(values) -> tuple[list[int], int]:
    """Rationals ``values`` over their lcm denominator ``d``: the integer
    numerators and ``d``."""
    ratios = [v.as_integer_ratio() for v in values]
    d = lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def lcm_scale_rows(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A matrix of rationals, rows of any lengths, over the lcm ``d`` of all
    its denominators: integer rows of the same shape, and ``d``."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    d = lcm(*(q for row in ratios for _, q in row))
    return tuple(tuple(p * (d // q) for p, q in row) for row in ratios), d


def reduce_over(nums, den: int) -> tuple[tuple[int, ...], int]:
    """Integers ``nums`` over the positive denominator ``den`` in lowest
    terms: both divided by their gcd, the numerators and denominator
    ``lcm_scale`` gives for the rationals ``a / den``."""
    g = gcd(den, *nums)
    if g > 1:
        return tuple(a // g for a in nums), den // g
    return tuple(nums), den
