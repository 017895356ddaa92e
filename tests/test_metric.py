"""Metric-space parsing, validation, generation, restriction."""

import json
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from math import lcm

import pytest

from lipcert import freespace, metric
from lipcert.metric import (
    MetricViolationError,
    PointedMetricSpace,
    SpaceFormatError,
    parse_space,
    random_space,
    restrict,
    serialize_space,
    validate,
)

from helpers import equilateral, fraction_validate


def test_parse_two_point_space():
    space = parse_space('{"dist": [["0", "1"], ["1", "0"]]}')
    assert space.n == 2
    assert space.rho(0, 1) == 1


def test_parse_four_point_with_long_edge():
    # d(0,1)=1, d(2,3)=3, everything else 2: triangle holds since 3 <= 2+2
    doc = {
        "dist": [
            ["0", "1", "2", "2"],
            ["1", "0", "2", "2"],
            ["2", "2", "0", "3"],
            ["2", "2", "3", "0"],
        ]
    }
    space = parse_space(json.dumps(doc))
    assert validate(space.dist) == []
    # oracle: all ordered triples by hand
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert space.rho(i, k) <= space.rho(i, j) + space.rho(j, k)


def test_parse_reports_triangle_violation():
    doc = {"dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]}
    with pytest.raises(MetricViolationError) as err:
        parse_space(json.dumps(doc))
    kinds = {(v.kind, v.indices) for v in err.value.violations}
    assert ("triangle", (0, 1, 2)) in kinds


def test_parse_rejects_malformed_rational():
    with pytest.raises(SpaceFormatError):
        parse_space('{"dist": [["0", "1.5"], ["1.5", "0"]]}')


@pytest.mark.parametrize("base", ["true", "false"])
def test_parse_rejects_non_integer_base(base):
    with pytest.raises(SpaceFormatError):
        parse_space('{"dist": [["0", "1"], ["1", "0"]], "base": %s}' % base)


def test_parse_rejects_ragged_matrix():
    with pytest.raises(MetricViolationError):
        parse_space('{"dist": [["0", "1"], ["1", "0", "2"]]}')


def test_validate_equilateral_empty():
    assert validate(equilateral(4).dist) == []


def test_validate_asymmetry_and_zero():
    rows = [
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(2), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
    ]
    out = validate(rows)
    assert [v.kind for v in out] == ["symmetry"]
    rows = [
        [Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
    ]
    out = validate(rows)
    assert [v.kind for v in out] == ["positivity"]
    assert out[0].indices == (0, 1)


def test_round_trip_bit_exact():
    for seed in range(20):
        space = random_space(5, seed, "euclidean")
        assert parse_space(serialize_space(space)) == space
    labeled = parse_space('{"points": ["p", "q"], "dist": [["0", "1/3"], ["1/3", "0"]]}')
    assert parse_space(serialize_space(labeled)) == labeled


def test_random_space_two_points_range():
    space = random_space(2, 123, "range")
    assert Fraction(1) <= space.rho(0, 1) <= Fraction(2)


def test_random_space_reproducible():
    assert random_space(5, 9, "range") == random_space(5, 9, "range")
    assert random_space(5, 9, "euclidean") == random_space(5, 9, "euclidean")
    assert random_space(5, 9, "range") != random_space(5, 10, "range")


def test_random_space_rejects_small():
    with pytest.raises(ValueError):
        random_space(1, 0, "range")


def test_range_generator_properties_1000_seeds():
    for seed in range(1000):
        space = random_space(4, seed, "range")
        assert validate(space.dist) == []
        assert all(
            Fraction(1) <= space.rho(i, j) <= Fraction(2) for i, j in space.pairs()
        )


def test_euclidean_generator_properties_1000_seeds():
    for seed in range(1000):
        space = random_space(5, seed, "euclidean")
        assert validate(space.dist) == []


def test_restrict_full_identity():
    space = random_space(5, 3, "range")
    sub = restrict(space, range(5))
    assert sub.dist == space.dist
    assert sub.parent_map == (0, 1, 2, 3, 4)


def test_restrict_equilateral():
    sub = restrict(equilateral(6), [0, 1, 2, 3])
    assert sub.dist == equilateral(4).dist


def test_restrict_new_base():
    space = random_space(5, 3, "range")
    sub = restrict(space, [2, 0, 4])
    assert sub.base == 0
    assert sub.parent_map == (2, 0, 4)
    assert sub.rho(0, 1) == space.rho(2, 0)
    assert sub.rho(0, 2) == space.rho(2, 4)


def test_restrict_rejects_duplicates_and_range():
    space = equilateral(4)
    with pytest.raises(ValueError):
        restrict(space, [0, 0, 1])
    with pytest.raises(ValueError):
        restrict(space, [0, 9])
    with pytest.raises(ValueError):
        restrict(space, [0])


def test_restrict_commutes_with_label_permutation():
    space = random_space(5, 12, "range")
    relabeled = PointedMetricSpace.from_matrix(
        space.dist, labels=[f"x{i}" for i in range(5)]
    )
    indices = [0, 3, 1]
    a = restrict(relabeled, indices)
    b = restrict(space, indices)
    assert a.dist == b.dist
    assert a.labels == ("x0", "x3", "x1")


def test_restrict_matches_from_matrix_without_validating(monkeypatch):
    # a restriction of a metric is a metric, so restrict skips the O(n^3)
    # triangle check and must still build what from_matrix builds
    cases = []
    for seed in range(20):
        space = random_space(4 + seed % 5, seed, "range" if seed % 2 else "euclidean")
        rng = random.Random(seed)
        indices = rng.sample(range(space.n), rng.randint(2, space.n))
        expected = PointedMetricSpace.from_matrix(
            [[space.dist[a][b] for b in indices] for a in indices],
            labels=[space.labels[i] for i in indices],
            parent_map=indices,
        )
        cases.append((space, indices, expected))

    def forbidden(matrix):
        raise AssertionError("restrict re-validated a metric")

    monkeypatch.setattr(metric, "validate", forbidden)
    for space, indices, expected in cases:
        sub = restrict(space, indices)
        for field in fields(PointedMetricSpace):
            assert getattr(sub, field.name) == getattr(expected, field.name), field.name
            assert type(getattr(sub, field.name)) is type(getattr(expected, field.name))


def test_integer_dist_is_lcm_scaled_and_computed_once(monkeypatch):
    calls = []
    real = metric.lcm_scale_rows
    monkeypatch.setattr(metric, "lcm_scale_rows", lambda rows: calls.append(1) or real(rows))
    space = random_space(6, 3, "euclidean")
    scale = lcm(*(x.denominator for row in space.dist for x in row))
    assert scale > 1
    ints = space.integer_dist
    assert ints == tuple(tuple(x * scale for x in row) for row in space.dist)
    assert all(type(x) is int for row in ints for x in row)
    for x in range(1, space.n):
        freespace.free_norm(freespace.delta(space, x))
    assert space.integer_dist is ints
    assert len(calls) == 1
    assert isinstance(ints, tuple) and all(isinstance(row, tuple) for row in ints)
    with pytest.raises(FrozenInstanceError):
        space.integer_dist = ()


def _perturbed(matrix, rng):
    """A copy of ``matrix`` with one to three seeded faults, each of one
    metric axiom or of the shape."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("shape", "diagonal", "symmetry", "positivity", "triangle"))
        i, j = rng.sample(range(n), 2)
        if kind == "shape":
            del rows[i][rng.randrange(len(rows[i]))]
        elif kind == "diagonal" and len(rows[i]) > i:
            rows[i][i] = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 4))
        elif kind == "symmetry" and len(rows[i]) > j:
            rows[i][j] += Fraction(rng.choice((1, -1)), rng.randint(1, 64))
        elif kind == "positivity" and len(rows[i]) > j and len(rows[j]) > i:
            rows[i][j] = rows[j][i] = Fraction(-rng.randint(0, 3), rng.randint(1, 3))
        elif kind == "triangle" and len(rows[i]) > j and len(rows[j]) > i:
            rows[i][j] = rows[j][i] = rows[i][j] * rng.randint(2, 6)
    return rows


def test_validate_agrees_with_fraction_oracle():
    # the axioms are decided on lcm-scaled ints; the violation list, texts
    # included, must be the one the Fraction comparisons give
    rng = random.Random(41)
    kinds = Counter()
    matrices = [[], [[0]], [[Fraction(1, 2)]]]
    for seed in range(300):
        space = random_space(2 + seed % 7, seed, "range" if seed % 2 else "euclidean")
        matrices += [space.dist, space.integer_dist]
        matrices += [_perturbed(space.dist, rng) for _ in range(2)]
    for matrix in matrices:
        expected = fraction_validate(matrix)
        assert validate(matrix) == expected
        kinds.update(v.kind for v in expected)
        if expected:
            with pytest.raises(MetricViolationError) as err:
                PointedMetricSpace.from_matrix(matrix)
            assert list(err.value.violations) == expected
        else:
            # the integers seeded at construction are the ones a fresh
            # instance computes
            space = PointedMetricSpace.from_matrix(matrix)
            fresh = replace(space)
            assert (space.integer_dist, space.dist_scale) == (fresh.integer_dist, fresh.dist_scale)
    assert set(kinds) == {"shape", "diagonal", "symmetry", "positivity", "triangle"}
    assert min(kinds.values()) > 20, kinds
