"""Exact LP solver: examples, certificates, termination."""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from lipcert import lp

F = Fraction


def check(program, sense, out):
    bad = lp.certificate_violations(program, sense, out)
    assert not bad, bad


def test_min_with_lower_constraint():
    program = lp.make_program([1], [([1], lp.GE, 3)])
    out = lp.solve(program, "min")
    assert out.status == "optimal"
    assert out.value == 3
    assert out.primal == [F(3)]
    check(program, "min", out)


def test_max_two_ceilings_dual_weight():
    program = lp.make_program([1], [([1], lp.LE, 1), ([1], lp.LE, 2)])
    out = lp.solve(program, "max")
    assert out.status == "optimal"
    assert out.value == 1
    assert out.dual == [F(1), F(0)]
    check(program, "max", out)


def test_transportation_instance_equilateral():
    # free vector (1, 1, -2) on the equilateral 4-point space; cost rho = 1
    points = range(4)
    pairs = [(x, y) for x in points for y in points if x != y]
    rows = []
    demand = {1: F(1), 2: F(1), 3: F(-2)}
    for p in (1, 2, 3):
        coeffs = [F(0)] * len(pairs)
        for idx, (x, y) in enumerate(pairs):
            if x == p:
                coeffs[idx] += 1
            if y == p:
                coeffs[idx] -= 1
        rows.append((coeffs, lp.EQ, demand[p]))
    program = lp.make_program([1] * len(pairs), rows, bounds=[(0, None)] * len(pairs))
    out = lp.solve(program, "min")
    assert out.status == "optimal"
    assert out.value == 2
    check(program, "min", out)


def test_feasible_interval():
    out = lp.feasible([([1], lp.GE, 0), ([1], lp.LE, 1)])
    assert out.status == "optimal"
    (x,) = out.primal
    assert 0 <= x <= 1


def test_infeasible_certificate():
    out = lp.feasible([([1], lp.GE, 2), ([1], lp.LE, 1)])
    assert out.status == "infeasible"
    assert out.farkas is not None
    program = lp.make_program([0], [([1], lp.GE, 2), ([1], lp.LE, 1)])
    check(program, "min", out)


def _tamperings(out, fields):
    """Copies of ``out`` with one entry of one field moved by +-1."""
    for field in fields:
        stored = getattr(out, field)
        for delta in (1, -1):
            if isinstance(stored, list):
                for i in range(len(stored)):
                    vec = list(stored)
                    vec[i] += delta
                    yield field, i, replace(out, **{field: vec})
            else:
                yield field, None, replace(out, **{field: stored + delta})


def test_recheck_rejects_tampered_certificates():
    # x0 ends at its upper bound, so the bound side of the re-check is live too
    program = lp.make_program(
        [1, 1], [([1, 2], lp.LE, 4), ([3, 1], lp.LE, 6)], bounds=[(0, 1), (0, None)]
    )
    out = lp.solve(program, "max")
    assert (out.value, out.primal, out.dual) == (F(5, 2), [F(1), F(3, 2)], [F(1, 2), F(0)])
    check(program, "max", out)
    for field, i, bad in _tamperings(out, ("value", "primal", "dual")):
        assert lp.certificate_violations(program, "max", bad), (field, i)

    program = lp.make_program([0, 0], [([1, 1], lp.LE, 1), ([1, -1], lp.EQ, 0), ([1, 1], lp.GE, 3)])
    out = lp.solve(program, "min")
    assert out.status == "infeasible"
    check(program, "min", out)
    for field, i, bad in _tamperings(out, ("farkas",)):
        assert lp.certificate_violations(program, "min", bad), (field, i)


def test_unbounded_with_ray():
    program = lp.make_program([-1], [([1], lp.GE, 0)])
    out = lp.solve(program, "min")
    assert out.status == "unbounded"
    check(program, "min", out)


def test_min_max_negation():
    rows = [([1, 2], lp.LE, 4), ([3, -1], lp.GE, -2), ([1, -1], lp.EQ, 1)]
    objective = [2, -5]
    neg = [-c for c in objective]
    a = lp.solve(lp.make_program(objective, rows), "min")
    b = lp.solve(lp.make_program(neg, rows), "max")
    assert a.status == b.status == "optimal"
    assert a.value == -b.value


def test_equality_and_free_variables():
    program = lp.make_program(
        [1, 1], [([1, 1], lp.EQ, 2), ([1, -1], lp.EQ, 0)]
    )
    out = lp.solve(program, "min")
    assert out.status == "optimal"
    assert out.value == 2
    assert out.primal == [F(1), F(1)]
    check(program, "min", out)


def test_bounds_shift_and_upper():
    program = lp.make_program(
        [1], [([1], lp.GE, -10)], bounds=[(F(-5), F(7))]
    )
    out = lp.solve(program, "min")
    assert out.value == -5
    check(program, "min", out)
    out = lp.solve(program, "max")
    assert out.value == 7
    check(program, "max", out)


def test_bound_conflict_infeasible():
    program = lp.make_program([1], [([1], lp.GE, 0)], bounds=[(F(2), F(1))])
    out = lp.solve(program, "min")
    assert out.status == "infeasible"


def test_upper_bound_only_variable():
    program = lp.make_program([-1], [([1], lp.LE, 100)], bounds=[(None, F(3))])
    out = lp.solve(program, "min")
    assert out.status == "optimal"
    assert out.value == -3
    check(program, "min", out)


# classic degenerate instance that cycles under naive Dantzig pricing
BEALE = lp.make_program(
    [F(-3, 4), 150, F(-1, 50), 6],
    [
        ([F(1, 4), -60, F(-1, 25), 9], lp.LE, 0),
        ([F(1, 2), -90, F(-1, 50), 3], lp.LE, 0),
        ([0, 0, 1, 0], lp.LE, 1),
    ],
    bounds=[(0, None)] * 4,
)

# after phase-1 pivots an artificial is basic outside its own row
PHASE1_ROWS = [([-3, 3], lp.EQ, -4), ([-1, -3], lp.EQ, -3), ([-3, 2], lp.GE, 1)]
PHASE1 = lp.make_program([0, 0], PHASE1_ROWS, bounds=[(0, None)] * 2)


def test_beale_cycling_instance_terminates():
    out = lp.solve(BEALE, "min")
    assert out.status == "optimal"
    assert out.value == F(-1, 20)
    # Dantzig stalls past the limit after 41 pivots; Bland's rule ends it in 2
    assert out.pivots == 43
    check(BEALE, "min", out)


def test_phase1_counts_artificial_basic_in_another_row():
    # the program is infeasible and must say so with a checked Farkas vector
    out = lp.feasible(PHASE1_ROWS, n_vars=2, bounds=PHASE1.bounds)
    assert out.status == "infeasible"
    assert out.farkas is not None
    check(PHASE1, "min", out)


def _random_bound(rng):
    # free, lower-bounded, upper-bounded or boxed, drawn evenly
    kind = rng.randrange(4)
    a = F(rng.randint(-3, 3))
    if kind == 0:
        return None, None
    if kind == 1:
        return a, None
    if kind == 2:
        return None, a
    return a, a + rng.randint(0, 4)


def _random_programs(seed, count):
    """(program, sense) pairs with many tied rows, so many degenerate pivots."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        rows = []
        for _ in range(m):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
            rel = rng.choice([lp.LE, lp.GE, lp.EQ])
            rows.append((coeffs, rel, F(rng.randint(-4, 4))))
        bounds = [_random_bound(rng) for _ in range(n)]
        objective = [F(rng.randint(-3, 3)) for _ in range(n)]
        yield lp.make_program(objective, rows, bounds=bounds), rng.choice(["min", "max"])


def test_degenerate_random_programs_certified():
    for program, sense in _random_programs(7, 2000):
        # solve() re-checks its own certificate and raises on any violation
        out = lp.solve(program, sense)
        assert out.status in ("optimal", "infeasible", "unbounded")


def test_pivot_path_pinned():
    # The simplex path (entering column, leaving row, ties, the Bland switch)
    # is fixed by the pivot rule, not by how the tableau stores its numbers.
    # Any change of representation must return these outcomes field for
    # field, pivot counts included.
    batch = [(BEALE, "min"), (PHASE1, "min"), (PHASE1, "max")]
    batch += _random_programs(13, 2000)
    digest = hashlib.sha256()
    statuses = Counter()
    for program, sense in batch:
        out = lp.solve(program, sense)
        statuses[out.status] += 1
        digest.update(repr(out).encode())
    assert statuses == {"optimal": 462, "infeasible": 1219, "unbounded": 322}
    assert digest.hexdigest() == (
        "bc7513f0cbb465dbbb2c43634c9c057b68dbc5da4ebf492da16abfed28166baf"
    )


def test_make_program_rejects_bad_shapes():
    with pytest.raises(lp.LpFormatError):
        lp.make_program([1, 2], [([1], lp.LE, 0)])
    with pytest.raises(lp.LpFormatError):
        lp.make_program([1], [([1], "<", 0)])
    with pytest.raises(lp.LpFormatError):
        lp.solve(lp.make_program([1], []), "maximize")


def test_make_program_passes_fractions_through():
    c = F(3, 7)
    program = lp.make_program([c, 2], [([c, "1/2"], lp.LE, c)], bounds=[(c, None), (None, "5")])
    assert program.objective[0] is c
    assert program.constraints[0].coeffs[0] is c
    assert program.constraints[0].rhs is c
    assert program.bounds[0][0] is c
    converted = [program.objective[1], program.constraints[0].coeffs[1], program.bounds[1][1]]
    assert converted == [F(2), F(1, 2), F(5)]
    assert all(type(v) is Fraction for v in converted)
