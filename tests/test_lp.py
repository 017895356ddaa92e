"""Exact LP solver: examples, certificates, termination."""

import hashlib
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from lipcert import construct, freespace, lp
from lipcert.metric import random_space

from helpers import random_coeffs

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
    out = lp.feasible([([1], lp.GE, 0), ([1], lp.LE, 1)], n_vars=1)
    assert out.status == "optimal"
    (x,) = out.primal
    assert 0 <= x <= 1


def test_infeasible_certificate():
    out = lp.feasible([([1], lp.GE, 2), ([1], lp.LE, 1)], n_vars=1)
    assert out.status == "infeasible"
    assert out.farkas is not None
    program = lp.make_program([0], [([1], lp.GE, 2), ([1], lp.LE, 1)])
    check(program, "min", out)


def _tamperings(out, fields):
    """Copies of ``out`` with one entry of one field moved by +-1 or +-1/7;
    the sevenths give the tampered vector a new lcm denominator."""
    for field in fields:
        stored = getattr(out, field)
        for delta in (1, -1, F(1, 7), F(-1, 7)):
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
    # row 1 is slack: a dual moved the sign-feasible way breaks complementary slackness
    bad = replace(out, dual=[out.dual[0], F(1, 7)])
    assert "complementary slackness fails on row 1" in lp.certificate_violations(program, "max", bad)

    program = lp.make_program([0, 0], [([1, 1], lp.LE, 1), ([1, -1], lp.EQ, 0), ([1, 1], lp.GE, 3)])
    out = lp.solve(program, "min")
    assert out.status == "infeasible"
    check(program, "min", out)
    for field, i, bad in _tamperings(out, ("farkas",)):
        assert lp.certificate_violations(program, "min", bad), (field, i)
    # only a bound conflict is infeasible with no Farkas vector
    program = lp.make_program([1], [([1], lp.GE, 0)], bounds=[(0, None)])
    assert lp.solve(program, "min").status == "optimal"
    assert lp.certificate_violations(program, "min", lp.LpOutcome("infeasible")) == [
        "infeasible outcome has no farkas vector and no bound conflict"
    ]

    # x1 = 2 x0 pins both the point and the ray to the row
    program = lp.make_program([-1, 0], [([2, -1], lp.EQ, 0)], bounds=[(0, None), (None, None)])
    out = lp.solve(program, "min")
    assert (out.status, out.primal, out.ray) == ("unbounded", [F(0), F(0)], [F(1, 2), F(1)])
    check(program, "min", out)
    for field, i, bad in _tamperings(out, ("primal", "ray")):
        assert lp.certificate_violations(program, "min", bad), (field, i)


def test_recheck_rejects_tampered_zero_objective_outcomes():
    # A zero objective and its zero duals are read over 1 without scaling;
    # a nonzero dual, value or primal put in their place must be rejected
    # all the same, and in the same words
    program = lp.make_program(
        [0, 0],
        [([1, 1], lp.LE, 2), ([1, -1], lp.EQ, 0), ([1, 0], lp.GE, F(1, 2))],
        bounds=[(0, None), (None, 3)],
    )
    for sense in ("min", "max"):
        out = lp.solve(program, sense)
        assert (out.value, out.primal, out.dual) == (0, [1, 1], [0, 0, 0])
        check(program, sense, out)
        for field, i, bad in _tamperings(out, ("value", "primal", "dual")):
            assert lp.certificate_violations(program, sense, bad), (sense, field, i)
    out = lp.solve(program, "min")
    expected = {
        "dual": (
            [F(1, 7), F(0), F(0)],
            ["dual[0] = 1/7 > 0 on a <= row", "reduced cost 0 < 0 with no upper bound",
             "reduced cost 1 < 0 but x[1] not at upper bound"],
        ),
        "value": (F(1, 7), ["stored value 1/7 != objective 0"]),
        "primal": ([F(2), F(1)], ["row 0: 3 > 2", "row 1: 1 != 0"]),
    }
    for field, (value, words) in expected.items():
        bad = replace(out, **{field: value})
        assert lp.certificate_violations(program, "min", bad) == words, field
    bad = replace(out, dual=[F(0), F(0), F(1, 3)])
    assert lp.certificate_violations(program, "min", bad) == [
        "complementary slackness fails on row 2", "reduced cost 0 < 0 with no upper bound"
    ]


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
    assert (out.status, out.farkas) == ("infeasible", None)
    check(program, "min", out)


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


def test_bland_path_pinned(monkeypatch):
    # With no stall tolerated, the first degenerate pivot of a solve
    # switches it to Bland's rule for good.  The outcomes must agree with
    # the default path in status and value, and the Bland path itself is
    # pinned field for field.
    batch = [(BEALE, "min"), (PHASE1, "min"), (PHASE1, "max")]
    batch += _random_programs(13, 2000)
    default = [lp.solve(program, sense) for program, sense in batch]
    monkeypatch.setattr(lp, "_STALL_LIMIT", 0)
    digest = hashlib.sha256()
    moved = 0
    for (program, sense), before in zip(batch, default):
        out = lp.solve(program, sense)
        assert (out.status, out.value) == (before.status, before.value)
        moved += repr(out) != repr(before)
        digest.update(repr(out).encode())
    # Bland's rule really ran: it took another path on these programs
    assert moved >= 20
    assert digest.hexdigest() == (
        "ce495dd6e508b4cff3241c29b5330b74b5480df68dfe147ab32dbf1c0d9fec83"
    )


def _fraction_oracle_holds(program, sense, out):
    """Independent re-substitution in Fractions: does the outcome's
    certificate hold?  Optimality is read through weak duality: a feasible
    primal, a sign-feasible dual whose reduced costs are paid by bounds, and
    a dual objective equal to the primal one."""
    bounds = program.bounds
    # each row's coefficients, then its rhs, as Fractions
    rows = [[F(a, con.den) for a in con.nums] for con in program.constraints]
    rels = [con.rel for con in program.constraints]

    def along(row, v):
        return sum(a * x for a, x in zip(row, v))

    def sign_ok(rel, value):  # value <= 0 on <= rows, >= 0 on >= rows, 0 on = rows
        return value == 0 or rel == (lp.GE if value > 0 else lp.LE)

    def multipliers_ok(mult):  # a multiplier has the sign of its row's slack, free on = rows
        return all(rel == lp.EQ or sign_ok(rel, v) for rel, v in zip(rels, mult))

    def feasible_point(x):
        return all(sign_ok(rel, along(row, x) - row[-1]) for row, rel in zip(rows, rels)) and all(
            (lo is None or xj >= lo) and (hi is None or xj <= hi) for xj, (lo, hi) in zip(x, bounds)
        )

    def box_max(weights):  # max of weights . x over the bounds, None if unbounded
        total = 0
        for w, (lo, hi) in zip(weights, bounds):
            if w:
                side = hi if w > 0 else lo
                if side is None:
                    return None
                total += w * side
        return total

    def combination(mult):  # (A^T mult, mult . b)
        return (
            [sum(m * row[j] for m, row in zip(mult, rows)) for j in range(program.n_vars)],
            sum(m * row[-1] for m, row in zip(mult, rows)),
        )

    if out.status == "optimal":
        if None in (out.primal, out.dual, out.value):
            return False
        flip = 1 if sense == "min" else -1
        x, y = out.primal, [flip * v for v in out.dual]
        if not feasible_point(x) or not multipliers_ok(y):
            return False
        aty, yb = combination(y)
        # the minimum of r . x over the bounds, r = c - A^T y
        low = box_max([aty_j - flip * c for c, aty_j in zip(program.objective, aty)])
        objective = sum(c * xj for c, xj in zip(program.objective, x))
        return low is not None and flip * objective == yb - low and out.value == objective
    if out.status == "infeasible":
        if out.farkas is None:
            return True
        lam = out.farkas
        if not multipliers_ok(lam):
            return False
        q, beta = combination(lam)
        best = box_max(q)
        return best is not None and best < beta
    if out.status == "unbounded":
        x, d = out.primal, out.ray
        if x is None or d is None or not feasible_point(x):
            return False
        # d is a direction of the feasible set: rows and bounds hold along it
        if not all(sign_ok(rel, along(row, d)) for row, rel in zip(rows, rels)):
            return False
        if any((lo is not None and dj < 0) or (hi is not None and dj > 0)
               for dj, (lo, hi) in zip(d, bounds)):
            return False
        drift = sum(c * dj for c, dj in zip(program.objective, d))
        return drift < 0 if sense == "min" else drift > 0
    return False


def test_integer_recheck_agrees_with_fraction_oracle():
    rng = random.Random(29)
    batch = [(BEALE, "min"), (PHASE1, "min"), (PHASE1, "max")]
    batch += _random_programs(13, 2000)
    held = rejected = 0
    for program, sense in batch:
        out = lp.solve(program, sense)
        assert _fraction_oracle_holds(program, sense, out)
        fields = [f for f in ("value", "primal", "dual", "farkas", "ray") if getattr(out, f) is not None]
        if not fields:
            continue
        field = rng.choice(fields)
        stored = getattr(out, field)
        delta = rng.choice([1, -1, F(1, 7), F(-1, 7), F(2, 3)])
        if isinstance(stored, list):
            vec = list(stored)
            vec[rng.randrange(len(vec))] += delta
            bad = replace(out, **{field: vec})
        else:
            bad = replace(out, **{field: stored + delta})
        holds = _fraction_oracle_holds(program, sense, bad)
        assert holds == (not lp.certificate_violations(program, sense, bad)), (field, bad)
        held += holds
        rejected += not holds
    # some tamperings keep a valid certificate (a slack row's zero dual moved
    # the allowed way, say); most break it
    assert rejected > 1000 and held > 10, (held, rejected)


def test_constraint_rows_scaled_once(monkeypatch):
    # A row built from integers (the ball rows, the biorthogonality
    # equalities, the cuts, the direct search's coordinate equalities) is
    # never lcm-scaled; a row given as a rational triple is scaled once, by
    # make_program, however many programs then share its Constraint.
    scaled = Counter()
    programs = []
    real_scale, real_solve = lp.lcm_scale, lp.solve

    def counting_scale(values):
        values = tuple(values)
        scaled[values] += 1
        return real_scale(values)

    def recording_solve(program, sense="min"):
        programs.append(program)
        return real_solve(program, sense)

    monkeypatch.setattr(lp, "lcm_scale", counting_scale)
    monkeypatch.setattr(lp, "solve", recording_solve)

    def shared_rows():
        # each distinct Constraint object once
        return list({id(con): con for program in programs for con in program.constraints}.values())

    def values(con):
        return tuple(F(a, con.den) for a in con.nums)

    # one complementation search whose LP takes three cut rounds: every row
    # is built from integers
    search = freespace.search_one_complemented(random_space(4, 0, "range"), 2)
    assert search.found and search.tuples_l1_valid == 1
    assert len(programs) == 3
    rows = shared_rows()
    assert len(rows) > len(programs[0].constraints)  # the cuts
    assert [scaled[values(con)] for con in rows] == [0] * len(rows)

    # one k=3 direct search: each coordinate LP shares the same ball rows and
    # adds equality rows of its own, all built from integers
    scaled.clear()
    programs.clear()
    space = random_space(8, 0, "range")
    result = construct.direct_search_l1(space, 3)
    assert result.found and len(programs) >= 3
    rows = shared_rows()
    ball_ids = {id(con) for con in rows if con.rel == lp.LE}
    assert len(ball_ids) == len(freespace.lipschitz_ball_rows(space, 1))
    assert len(rows) - len(ball_ids) >= 3 * 4
    assert [scaled[values(con)] for con in rows] == [0] * len(rows)

    # a row given in rationals is scaled once, by make_program; a second
    # program that shares its Constraint scales nothing
    scaled.clear()
    row = lp.make_program([1, 1], [((F(1, 2), F(-1, 3)), lp.LE, F(5, 6))]).constraints[0]
    assert (row.nums, row.den) == ((3, -2, 5), 6)
    for sense in ("min", "max"):
        lp.solve(lp.make_program([1, 1], [row], [(0, 4), (0, 4)]), sense)
    assert scaled[values(row)] == 1


def test_make_program_keeps_a_constraint():
    con = lp.Constraint((3, -18, 5), 6, lp.LE)
    program = lp.make_program([1, 1], [con, ([1, 1], lp.GE, 0)])
    assert program.constraints[0] is con
    # a row is kept in lowest terms over a positive denominator
    reduced = lp.Constraint((2, -4, 6), 4, lp.LE)
    assert (reduced.nums, reduced.den) == ((1, -2, 3), 2)
    assert reduced == lp.Constraint((1, -2, 3), 2, lp.LE)
    for den in (0, -2):
        with pytest.raises(lp.LpFormatError):
            lp.Constraint((1, 1, 0), den, lp.LE)
    with pytest.raises(lp.LpFormatError):
        lp.make_program([1], [con])
    with pytest.raises(lp.LpFormatError):
        lp.make_program([1, 1], [lp.Constraint((1, 1, 0), 1, "<")])


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
    assert program.bounds[0][0] is c
    converted = [program.objective[1], program.bounds[1][1]]
    assert converted == [F(2), F(5)]
    assert all(type(v) is Fraction for v in converted)
    # the row (3/7, 1/2 | 3/7) over its lcm 14
    assert program.constraints[0] == lp.Constraint((6, 7, 6), 14, lp.LE)


# Fraction oracle for the exact elimination: Gauss-Jordan over Fractions,
# row swaps and all, as a reference for ``lp.rank`` and ``lp.solve_linear``.


def _oracle_eliminate(matrix, rhs):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow = aug[r]
        inv = F(1) / prow[c]
        aug[r] = prow = [x * inv for x in prow]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], prow)]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    return aug, pivot_cols


def _oracle_rank(matrix):
    return len(_oracle_eliminate(matrix, [F(0)] * len(matrix))[1])


def _oracle_solve(matrix, rhs):
    n = len(matrix[0]) if matrix else 0
    aug, pivot_cols = _oracle_eliminate(matrix, rhs)
    if any(aug[i][n] != 0 for i in range(len(pivot_cols), len(aug))):
        return None
    x = [F(0)] * n
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][n]
    return x


def _random_entry(rng, integer):
    if rng.random() < 0.3:
        return 0 if integer else F(0)
    if integer:
        return rng.randint(-5, 5)
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def _random_system(rng, case):
    """An m x n matrix of rank at most r (a product of m x r and r x n
    factors, so often rank-deficient), maybe with a zeroed row or column,
    and 1-3 right-hand sides, each consistent (A x) or drawn at random."""
    if case % 10 == 0:
        m = n = 1
    else:
        m, n = rng.randint(1, 6), rng.randint(1, 6)
    integer = case % 5 == 1
    r = rng.randint(0, min(m, n))
    left = [[_random_entry(rng, integer) for _ in range(r)] for _ in range(m)]
    right = [[_random_entry(rng, integer) for _ in range(n)] for _ in range(r)]
    zero = 0 if integer else F(0)
    a = [[sum((left[i][k] * right[k][j] for k in range(r)), zero) for j in range(n)]
         for i in range(m)]
    if rng.random() < 0.2:
        a[rng.randrange(m)] = [zero] * n
    if rng.random() < 0.2:
        j = rng.randrange(n)
        for row in a:
            row[j] = zero
    columns = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            x = [_random_entry(rng, integer) for _ in range(n)]
            columns.append([sum((aij * xj for aij, xj in zip(row, x)), zero) for row in a])
        else:
            columns.append([_random_entry(rng, integer) for _ in range(m)])
    return a, [list(row) for row in zip(*columns)]


def test_elimination_agrees_with_fraction_oracle():
    rng = random.Random("gauss-jordan")
    seen = Counter()
    for case in range(3000):
        a, b = _random_system(rng, case)
        m, n = len(a), len(a[0])
        rank = _oracle_rank(a)
        assert lp.rank(a) == rank
        solutions = [_oracle_solve(a, list(col)) for col in zip(*b)]
        got = lp.solve_linear(a, b)
        if any(x is None for x in solutions):
            assert got is None
            seen["inconsistent"] += 1
        else:
            assert got == [list(row) for row in zip(*solutions)]
        seen["tall" if m > n else "wide" if m < n else "square"] += 1
        seen["1x1"] += m == n == 1
        seen["deficient"] += rank < min(m, n)
        seen["zero_row"] += any(not any(row) for row in a)
        seen["zero_col"] += any(not any(col) for col in zip(*a))
        seen["many_rhs"] += len(b[0]) > 1
        seen["integer"] += type(a[0][0]) is int
    assert seen["inconsistent"] >= 1000, seen
    assert min(seen.values()) > 100, seen


def test_elimination_edge_shapes():
    assert lp.rank([]) == 0
    assert lp.solve_linear([], []) == []
    assert lp.rank([[0, 0], [0, 0]]) == 0
    assert lp.solve_linear([[0, 0]], [[0, 0]]) == [[0, 0], [0, 0]]
    assert lp.solve_linear([[0, 0]], [[0, 1]]) is None
    # the free variable is set to zero; the pivot column reads rhs / den
    assert lp.solve_linear([[F(2, 3), 1]], [[F(1, 2)]]) == [[F(3, 4)], [0]]


def test_duality_lift_eliminates_once(monkeypatch):
    calls = []
    real = lp._gauss_jordan

    def counting(matrix, rhs):
        calls.append(len(matrix))
        return real(matrix, rhs)

    def forbidden(*args):
        raise AssertionError("the lift solves U C = P in one elimination")

    search = freespace.search_one_complemented(random_space(6, 1, "range"), 2)
    assert search.found
    monkeypatch.setattr(lp, "_gauss_jordan", counting)
    monkeypatch.setattr(freespace.FreeOperator, "apply", forbidden)
    monkeypatch.setattr(freespace, "delta", forbidden)
    cert = construct.duality_lift(search.certificate)
    assert cert.valid and len(cert.basis) == 2
    assert calls == [5]


def _written_out(kern):
    """Every row of the tableau as ``{column: Fraction}``, with the mirror
    columns and the implicit rows written out: an implicit row ``i + 1`` is
    ``e_s + e_s' + p/q - R_i`` for the basic slacks ``s``, ``s'`` of the
    two rows and ``twins[i] = (p, q)``."""
    full = []
    for i, (row, d) in enumerate(zip(kern.rows, kern.den)):
        if row is None:
            p, q = kern.twins[i - 1]
            out = {j: -v for j, v in full[i - 1].items()}
            for j, v in ((kern.basis[i - 1], 1), (kern.basis[i], 1), (-1, F(p, q))):
                out[j] = out.get(j, 0) + v
            out = {j: v for j, v in out.items() if v}
        else:
            out = {j: F(a, d) for j, a in row.items()}
            out.update({kern.mirror[j]: -v for j, v in out.items() if j in kern.mirror})
        full.append(out)
    return full


def _fraction_pivot(full, r, t):
    """The pivot on row ``r``, column ``t`` of written-out rows, in Fractions."""
    prow = {j: v / full[r][t] for j, v in full[r].items()}
    out = []
    for i, row in enumerate(full):
        f = row.get(t, 0) if i != r else 0
        row = dict(prow if i == r else row)
        if f:
            for j, v in prow.items():
                row[j] = row.get(j, 0) - f * v
        out.append({j: v for j, v in row.items() if v})
    return out


def test_tableau_rows_are_sparse_and_never_store_zero(monkeypatch):
    # every stored tableau row is a {column: int} dict of its nonzeros, the
    # rhs under -1, with no mirror column, before and after every pivot of
    # the simplex and of the Gauss-Jordan elimination; and the tableau they
    # imply, with every mirror column and implicit twin row written out in
    # Fractions, is the Fraction pivot of the one before
    pivots = implicit = materialized = 0
    real = lp._Kernel._pivot

    def assert_sparse(kern):
        for row in kern.rows:
            if row is not None:
                assert type(row) is dict
                assert all(type(v) is int and v for v in row.values()), row
                assert not any(j in kern.plus_of for j in row), row
        assert all(kern.rows[i] is not None and kern.rows[i + 1] is None for i in kern.twins)
        assert sum(row is None for row in kern.rows) == len(kern.twins)

    def checking(kern, r, t):
        nonlocal pivots, implicit, materialized
        assert_sparse(kern)
        # the first pivot of a kernel starts its written-out copy
        before = getattr(kern, "written_out", None) or _written_out(kern)
        twins = len(kern.twins)
        prow = real(kern, r, t)
        assert_sparse(kern)
        col, sign = kern.stored(t)
        assert prow is kern.rows[r] and sign * prow[col] == kern.den[r]
        kern.written_out = _written_out(kern)
        assert kern.written_out == _fraction_pivot(before, r, t)
        pivots += 1
        implicit += len(kern.twins)
        materialized += twins - len(kern.twins)
        return prow

    # the reduced-cost row too: a sparse row after every optimize, with
    # its rhs under -1, no mirror column and no key past the last column
    optimizes = 0
    real_optimize = lp._Kernel.optimize

    def checking_optimize(kern, cost, cost_den):
        nonlocal optimizes
        t = real_optimize(kern, cost, cost_den)
        assert type(kern.reduced) is dict
        assert all(type(v) is int and v for v in kern.reduced.values()), kern.reduced
        assert all(-1 <= j < kern.n_cols and j not in kern.plus_of for j in kern.reduced)
        assert kern.reduced_den > 0
        optimizes += 1
        return t

    monkeypatch.setattr(lp._Kernel, "_pivot", checking)
    monkeypatch.setattr(lp._Kernel, "optimize", checking_optimize)
    batch = [(BEALE, "min"), (PHASE1, "min"), (PHASE1, "max")]
    batch += _random_programs(13, 2000)
    batch += _twin_programs(27, 500)
    for n in range(4, 8):
        space = random_space(n, n, "range")
        coeffs = random_coeffs(f"sparse:{n}", n - 1)
        batch.append((lp.make_program(coeffs, freespace.lipschitz_ball_rows(space, 1)), "max"))
    for program, sense in batch:
        lp.solve(program, sense)
    rng = random.Random("sparse-rows")
    for case in range(300):
        a, b = _random_system(rng, case)
        lp.solve_linear(a, b)
    assert pivots > 3000, pivots
    assert optimizes > 2000, optimizes
    # implicit rows were carried through pivots, and some were stored
    assert implicit > 400 and materialized > 100, (implicit, materialized)


def _whole_tableau_solve(program, sense, drive_out):
    """``lp.solve`` with the phase-1 drive-out always made on the whole
    tableau, the path of a program with an objective: an oracle for a zero
    objective, whose drive-out ``lp.solve`` counts on the artificial rows
    alone.  No certificate re-check; the outcomes are compared instead.
    Adds to the Counter ``drive_out`` the drive-out's pivots (``driven``)
    and the artificials it leaves basic on rows with no real entry
    (``left``)."""
    flip = sense == "max"
    low = lp._Lowering(program, flip)
    kern, sign, n_real = low.build_kernel()
    home = kern.basis[:]
    m = len(program.constraints)
    if n_real < kern.n_cols:
        phase1_cost = dict.fromkeys(range(n_real, kern.n_cols), 1)
        assert kern.optimize(phase1_cost, 1) < 0
        if any(row.get(-1, 0) > 0 for row, b in zip(kern.rows, kern.basis) if b >= n_real):
            farkas = lp._recover_duals(kern, phase1_cost, 1, sign, home)[:m]
            return lp.LpOutcome("infeasible", farkas=farkas, pivots=kern.pivots)
        before = kern.pivots
        lp._drive_out_artificials(kern, n_real)
        drive_out["driven"] += kern.pivots - before
        drive_out["left"] += sum(b >= n_real for b in kern.basis)
        kern.n_enter = n_real
    cost, cost_den = low.cost, low.cost_den
    t = kern.optimize(cost, cost_den)
    primal = lp._extract_primal(low, kern)
    if t >= 0:
        ray = lp._extract_ray(low, kern, t)
        return lp.LpOutcome("unbounded", primal=primal, ray=ray, pivots=kern.pivots)
    dual = lp._recover_duals(kern, cost, cost_den, sign, home)[:m]
    if flip:
        dual = [-v for v in dual]
    value = sum(c * x for c, x in zip(program.objective, primal))
    return lp.LpOutcome("optimal", value, primal, dual, pivots=kern.pivots)


def _feasibility_programs(seed, count):
    """Zero-objective programs in every relation, each variable free, one-
    sided or boxed (a box adds a row), whose rows are often repeated or a
    combination of earlier equalities, so phase 1 leaves artificials basic
    on rows with no real entry.  Most rows hold at a point inside the
    bounds; a few get a random rhs, which makes many programs infeasible."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        bounds = [_random_bound(rng) for _ in range(n)]
        point = [
            lo if lo is not None else hi if hi is not None else F(rng.randint(-3, 3))
            for lo, hi in bounds
        ]
        rows = []
        for _ in range(rng.randint(1, 7)):
            equalities = [row for row in rows if row[1] == lp.EQ]
            kind = rng.randrange(6)
            if kind == 0 and rows:
                rows.append(rng.choice(rows))
                continue
            if kind == 1 and len(equalities) >= 2:
                (a, _, b), (c, _, d) = rng.sample(equalities, 2)
                s, t = rng.randint(-2, 2), rng.randint(-2, 2)
                rows.append(([s * x + t * y for x, y in zip(a, c)], lp.EQ, s * b + t * d))
                continue
            coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
            rel = rng.choice([lp.LE, lp.GE, lp.EQ, lp.EQ])
            at = sum(c * x for c, x in zip(coeffs, point))
            rhs = F(rng.randint(-4, 4)) if kind == 5 else at
            if rel == lp.LE:
                rhs += rng.randint(0, 2) * (kind != 5)
            elif rel == lp.GE:
                rhs -= rng.randint(0, 2) * (kind != 5)
            rows.append((coeffs, rel, rhs))
        yield lp.make_program([0] * n, rows, bounds=bounds)


@pytest.fixture(scope="module")
def acceptance_lps():
    """Criterion 02's 100 k=2 pipelines and criterion 03's 20 k=3 direct
    searches, each run once, as ``{name: (solved, eliminations, handed)}``:
    every ``(program, outcome)`` of ``lp.solve``, the number of
    ``_eliminate`` calls, and per ``_drive_out_artificials`` call whether its
    program's objective is zero and whether every row handed in sits on an
    artificial."""
    runs = {
        "criterion 02": lambda: [
            construct.theorem_pipeline(
                random_space(4 + i % 5, i, "euclidean" if i % 3 == 0 else "range"), 2
            )
            for i in range(100)
        ],
        "criterion 03": lambda: [
            construct.direct_search_l1(random_space(8, seed, "range"), 3) for seed in range(20)
        ],
    }
    real_solve, real_eliminate, real_drive_out = lp.solve, lp._eliminate, lp._drive_out_artificials
    out = {}
    for name, run in runs.items():
        solved, handed = [], []
        eliminations = 0
        zero = None

        def recording_solve(program, sense="min"):
            nonlocal zero
            zero = not any(program.objective)
            outcome = real_solve(program, sense)
            solved.append((program, sense, outcome))
            return outcome

        def counting_eliminate(*args):
            nonlocal eliminations
            eliminations += 1
            return real_eliminate(*args)

        def checking_drive_out(kern, n_real):
            handed.append((zero, all(b >= n_real for b in kern.basis)))
            return real_drive_out(kern, n_real)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "solve", recording_solve)
            mp.setattr(lp, "_eliminate", counting_eliminate)
            mp.setattr(lp, "_drive_out_artificials", checking_drive_out)
            run()
        out[name] = solved, eliminations, handed
    return out


def test_zero_objective_solves_match_the_whole_tableau_drive_out(acceptance_lps):
    # A zero objective counts its drive-out pivots on copies of the
    # artificial rows and leaves the tableau as phase 1 left it; every
    # outcome must still be the whole-tableau path's, field for field,
    # pivots included.  Seeded feasibility programs (repeated and dependent
    # equalities, bounds and box rows, infeasible ones), the 2003 pinned
    # programs with their objectives zeroed, and the acceptance LPs.
    batch = [(program, "min") for program in _feasibility_programs(24, 1500)]
    pinned = [(BEALE, "min"), (PHASE1, "min"), (PHASE1, "max"), *_random_programs(13, 2000)]
    batch += [(replace(program, objective=(F(0),) * program.n_vars), sense)
              for program, sense in pinned]
    for name in ("criterion 02", "criterion 03"):
        batch += [(program, sense) for program, sense, _ in acceptance_lps[name][0]]
    statuses, drive_out = Counter(), Counter()
    for program, sense in batch:
        out = lp.solve(program, sense)
        assert out == _whole_tableau_solve(program, sense, drive_out), program
        statuses[out.status] += 1
    assert statuses["optimal"] > 1000 and statuses["infeasible"] > 1000, statuses
    # drive-out pivots were made, and artificials were left on rows with no
    # real entry, where none is counted
    assert drive_out["driven"] > 400 and drive_out["left"] > 500, drive_out


def test_elimination_work_pinned(acceptance_lps):
    # The eliminations of criterion 02's 100 pipelines and criterion 03's 20
    # direct searches: every simplex pivot, reduced-cost update and
    # Gauss-Jordan step (24,287 and 16,538 while a zero objective drove its
    # artificials out of the whole tableau, 18,626 and 11,844 while the
    # tableau stored both rows of a +- pair, 12,767 and 7,429 while each
    # cut-loop round re-solved from scratch instead of resuming the last
    # round's pivot path).  A zero objective hands the drive-out its
    # artificial rows only.
    counts = {}
    for name, (solved, eliminations, handed) in acceptance_lps.items():
        counts[name] = eliminations, len(solved), sum(out.pivots for _, _, out in solved)
        assert all(artificial_only for zero, artificial_only in handed if zero), name
    assert counts == {"criterion 02": (8664, 282, 2270), "criterion 03": (7429, 60, 778)}


def _twin_programs(seed, count):
    """(program, sense) pairs built from ± row pairs: each pair is a row
    and its negation (sometimes scaled), in one relation, with rhs of mixed
    signs, among single rows and equalities, over free, one-sided and boxed
    variables.  So some pairs start with both slacks basic and some do
    not, and some variables are free and some are not."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        bounds = [(None, None) if rng.random() < 0.7 else _random_bound(rng) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
            kind = rng.randrange(5)
            if kind == 0:
                rows.append((coeffs, rng.choice([lp.LE, lp.GE, lp.EQ]), F(rng.randint(-4, 4))))
                continue
            rel = lp.GE if kind == 1 else lp.LE
            scale = F(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2]))
            low, high = (-5, 2) if rel == lp.GE else (-2, 5)
            rows.append((coeffs, rel, F(rng.randint(low, high))))
            rows.append(([-scale * a for a in coeffs], rel, scale * rng.randint(low, high)))
        objective = [F(rng.randint(-3, 3)) if rng.random() < 0.8 else F(0) for _ in range(n)]
        yield lp.make_program(objective, rows, bounds=bounds), rng.choice(["min", "max"])


def test_twin_heavy_outcomes_pinned(acceptance_lps):
    # LPs whose rows come in ± pairs, as every LP over the 1-Lipschitz ball
    # does, field for field: the dual free norms on random spaces (an
    # objective, so slacks enter in phase 2), criterion 03's coordinate
    # LPs, and seeded programs whose pairs and variables are mixed.
    batch = []
    for n in range(4, 11):
        for seed in range(3):
            space = random_space(n, seed, "euclidean" if seed == 2 else "range")
            coeffs = random_coeffs(f"twin:{n}:{seed}", n - 1)
            batch.append((lp.make_program(coeffs, freespace.lipschitz_ball_rows(space, 1)), "max"))
    batch += [(program, sense) for program, sense, _ in acceptance_lps["criterion 03"][0]]
    batch += _twin_programs(27, 1500)
    digest = hashlib.sha256()
    statuses = Counter()
    for program, sense in batch:
        out = lp.solve(program, sense)
        statuses[out.status] += 1
        digest.update(repr(out).encode())
    assert statuses == {"optimal": 485, "infeasible": 674, "unbounded": 422}
    assert digest.hexdigest() == (
        "7e30ae1d1aeadd1ff650048b3034e94f0a325170e350fd58d16b5456847aee60"
    )


def _typed_programs(seed, count):
    """(program, sense) pairs whose outcomes carry every field: objectives
    zero about half the time, rational rows, and each variable free,
    shifted by a nonzero bound on one side, or boxed."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        bounds = [_random_bound(rng) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n)]
            rhs = F(rng.randint(-4, 4), rng.choice([1, 2]))
            rows.append((coeffs, rng.choice([lp.LE, lp.GE, lp.EQ]), rhs))
        zero = rng.random() < 0.5
        objective = [F(0) if zero else F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
        yield lp.make_program(objective, rows, bounds=bounds), rng.choice(["min", "max"])


def test_outcome_values_and_types_pinned():
    # Every field of every outcome by its repr, so an entry that turns from
    # a Fraction into an int (a zero objective's value is Fraction(0), never
    # 0) changes the digest as a changed number does; and the types are
    # asserted outright.  Zero and nonzero objectives, in min and max, over
    # free, shifted and boxed variables.
    digest = hashlib.sha256()
    statuses, kinds = Counter(), Counter()
    for program, sense in _typed_programs(29, 1500):
        for lo, hi in program.bounds:
            kinds["free" if lo is None and hi is None else "boxed" if None not in (lo, hi)
                  else "shifted" if lo or hi else "at zero"] += 1
        out = lp.solve(program, sense)
        statuses[out.status, "zero" if not any(program.objective) else sense] += 1
        for field in fields(out):
            digest.update(f"{field.name}={getattr(out, field.name)!r};".encode())
        assert out.value is None or type(out.value) is F
        for vector in (out.primal, out.dual, out.farkas, out.ray):
            assert vector is None or all(type(v) is F for v in vector)
    assert statuses == {
        ("optimal", "zero"): 332, ("infeasible", "zero"): 440,
        ("optimal", "min"): 81, ("infeasible", "min"): 219, ("unbounded", "min"): 88,
        ("optimal", "max"): 70, ("infeasible", "max"): 192, ("unbounded", "max"): 78,
    }
    assert kinds == {"free": 1147, "shifted": 1929, "at zero": 352, "boxed": 1131}
    assert digest.hexdigest() == (
        "71ef009a6955c3cd404046c1baf81ddfac29e6d0dab1e9bba9ac9ce7f27301de"
    )


def _appended_rows(rng, n, rows):
    """One round of rows appended to ``rows`` (``(coeffs, rel, rhs)``
    triples over ``n`` variables), as a cut loop appends them, each
    starting on its slack, and also: a ``+-`` pair, the negation of the
    last row, a scaled copy of an earlier row (its ratio ties that row's
    in every ratio test), a tight bound that can make the program
    infeasible, and in about one round in ten a row that needs an
    artificial."""
    out = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
        kind = rng.randrange(6)
        if kind == 0:
            out.append((coeffs, lp.LE, F(rng.randint(0, 4))))
        elif kind == 1:
            out.append((coeffs, lp.GE, F(rng.randint(-4, -1))))
        elif kind == 2:
            scale = F(rng.choice([1, 1, 2]), rng.choice([1, 3]))
            out.append((coeffs, lp.LE, F(rng.randint(0, 4))))
            out.append(([-scale * a for a in coeffs], lp.LE, scale * rng.randint(0, 4)))
        elif kind == 3:
            last, rel, _ = (rows + out)[-1]
            rhs = F(rng.randint(-4, -1)) if rel == lp.GE else F(rng.randint(0, 4))
            out.append(([-a for a in last], lp.GE if rel == lp.GE else lp.LE, rhs))
        elif kind == 4:
            # a row that starts on its slack, so its copy does too
            on_slack = [row for row in rows + out if (row[1], row[2] >= 0) in
                        ((lp.LE, True), (lp.GE, False))]
            old, rel, rhs = rng.choice(on_slack or [(coeffs, lp.LE, F(1))])
            scale = F(rng.randint(1, 3), rng.randint(1, 2))
            out.append(([scale * a for a in old], rel, scale * rhs))
        else:
            j = rng.randrange(n)
            out.append(([F(int(k == j)) for k in range(n)], lp.LE, F(rng.randint(0, 1))))
    if rng.random() < 0.1:
        coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
        row = coeffs, rng.choice([lp.EQ, lp.GE]), F(rng.randint(0, 3))
        out.insert(rng.randint(0, len(out)), row)
    return out


def _extension_chains(seed, count):
    """Seeded chains of 2-5 programs, each the one before it with a round of
    rows appended (``_appended_rows``), all carrying one ``lp.Resume``
    holder, as a cut loop's rounds do, as ``(programs, sense)``.  The
    first program has an equality or a negative rhs, so phase 1 runs;
    variables are mostly free, some shifted by a bound or boxed (a box
    adds a row after the constraints); objectives are zero about half the
    time."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        bounds = [(None, None) if rng.random() < 0.85 else _random_bound(rng) for _ in range(n)]
        point = [F(rng.randint(-2, 2)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
            at = sum(c * x for c, x in zip(coeffs, point))
            rel = rng.choice([lp.LE, lp.LE, lp.GE, lp.EQ])
            slack = 0 if rel == lp.EQ else rng.randint(0, 3) * (1 if rel == lp.LE else -1)
            rows.append((coeffs, rel, at + slack))
        rows.append(([F(rng.randint(-3, 3)) for _ in range(n)], lp.EQ, F(rng.randint(-3, 3))))
        zero = rng.random() < 0.5
        objective = [F(0) if zero else F(rng.randint(-3, 3)) for _ in range(n)]
        holder = lp.Resume()
        programs = [lp.make_program(objective, rows, bounds, holder)]
        for _ in range(rng.randint(1, 4)):
            added = _appended_rows(rng, n, rows)
            rows = rows + added
            programs.append(
                lp.make_program(objective, programs[-1].constraints + tuple(added), bounds, holder)
            )
        yield programs, rng.choice(["min", "max"])


@pytest.mark.parametrize("kept", [lp._KEPT, 1])
@pytest.mark.parametrize("stall_limit", [lp._STALL_LIMIT, 0])
def test_extended_programs_resume_the_cold_path(monkeypatch, stall_limit, kept):
    # A program that appends rows to the last program solved with its
    # ``lp.Resume`` holder resumes that solve's phase-1 pivot path: it
    # replays the recorded steps against the appended rows alone and
    # restores the last checkpoint at or before the step where one of them
    # first wins a ratio test.  Each outcome
    # must be a cold solve's of the whole program, field for field, under
    # Dantzig's rule with its Bland switch and under Bland's rule from the
    # first degenerate pivot, with checkpoints kept as usual and as sparse
    # as they go: past the last two steps, one per doubling of the distance.
    monkeypatch.setattr(lp, "_STALL_LIMIT", stall_limit)
    monkeypatch.setattr(lp, "_KEPT", kept)
    replayed = []
    real_replay = lp._replay

    def counting_replay(path, *args):
        k, seen = real_replay(path, *args)
        replayed.append(k)
        return k, seen

    monkeypatch.setattr(lp, "_replay", counting_replay)
    statuses, extensions = Counter(), 0
    for programs, sense in _extension_chains(31, 600):
        for i, program in enumerate(programs):
            out = lp.solve(program, sense)
            cold = lp.solve(replace(program, resume=None), sense)
            assert repr(out) == repr(cold) and out == cold, program
            statuses[out.status, i == 0] += 1
        extensions += len(programs) - 1
    assert statuses[("infeasible", False)] > 200 and statuses[("optimal", False)] > 200, statuses
    assert statuses[("unbounded", False)] > 20, statuses
    # most extensions resumed past the base's first step; the rest had an
    # appended row that needs an artificial, box rows, or no phase 1
    assert sum(k > 0 for k in replayed) > extensions / 2, (len(replayed), extensions)


def _other_bounds(rng, bounds):
    """``bounds`` with one variable's bound drawn anew until it differs."""
    j = rng.randrange(len(bounds))
    bound = bounds[j]
    while bound == bounds[j]:
        bound = _random_bound(rng)
    return bounds[:j] + (bound,) + bounds[j + 1:]


def test_resume_holder_falls_back_to_a_cold_solve(monkeypatch):
    # A program whose first rows are not the rows last solved with its
    # holder, or whose bounds are not that program's, must not resume the
    # recorded path: its outcome must be a cold solve's, field for field.
    # Each chain's first program is solved with the holder, so a path is
    # recorded, and the next round is handed the same holder with one of
    # the first program's rows replaced (not appended to), or with one
    # variable's bound changed.
    replayed = []
    real_replay = lp._replay

    def counting_replay(path, *args):
        replayed.append(path)
        return real_replay(path, *args)

    monkeypatch.setattr(lp, "_replay", counting_replay)
    rng = random.Random(32)
    recorded, statuses = Counter(), Counter()
    for programs, sense in _extension_chains(33, 400):
        first, after = programs[0], programs[1]
        holder = first.resume
        rows = list(after.constraints)
        i = rng.randrange(len(first.constraints))
        while rows[i] == first.constraints[i]:
            nums = tuple(rng.randint(-3, 3) for _ in range(first.n_vars + 1))
            rows[i] = lp.Constraint(nums, 1, rows[i].rel)
        cases = {
            "replaced": lp.make_program(first.objective, rows, first.bounds, holder),
            "bounds": lp.make_program(
                first.objective, after.constraints, _other_bounds(rng, first.bounds), holder
            ),
        }
        for kind, program in cases.items():
            lp.solve(first, sense)
            recorded[kind] += holder.last is not None
            out = lp.solve(program, sense)
            cold = lp.solve(replace(program, resume=None), sense)
            assert repr(out) == repr(cold) and out == cold, (kind, program)
            statuses[kind, out.status] += 1
    assert not replayed
    # most first programs recorded a path that the next round could have
    # resumed; the rest had box rows or no phase 1
    assert min(recorded.values()) > 300, recorded
    assert all(statuses[kind, status] > 100 for kind in recorded
               for status in ("optimal", "infeasible")), statuses
