"""Shared test utilities: independent oracles and seeded generators.

The oracles here deliberately avoid the library's computation paths: the
free-norm oracle enumerates polytope vertices instead of running the simplex,
and the operator-norm oracle enumerates signed molecules directly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from lipcert import interval
from lipcert.lipschitz import LipFunctional
from lipcert.metric import PointedMetricSpace, Violation
from lipcert.rationals import parse_rational


def nested_list(depth: int) -> list:
    """The empty list wrapped in ``depth`` more lists."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def equilateral(n: int) -> PointedMetricSpace:
    return PointedMetricSpace.from_matrix(
        [[int(i != j) for j in range(n)] for i in range(n)]
    )


def random_functional(space, seed, denominator=8, span=16) -> LipFunctional:
    rng = random.Random(f"func:{seed}")
    values = [Fraction(0)] + [
        Fraction(rng.randint(-span, span), rng.randint(1, denominator))
        for _ in range(space.n - 1)
    ]
    return LipFunctional(space, tuple(values))


def random_coeffs(seed, n, denominator=8, span=16):
    rng = random.Random(f"coeffs:{seed}")
    return [Fraction(rng.randint(-span, span), rng.randint(1, denominator)) for _ in range(n)]


def _solve_square(rows, rhs):
    """Unique solution of a square exact system, or None (singular)."""
    n = len(rows)
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def free_norm_vertex_oracle(space, coeffs) -> Fraction:
    """Brute-force free norm: enumerate the vertices of the dual Lipschitz
    polytope {f: |f(x) - f(y)| <= rho(x,y), f(0) = 0} over all constraint
    subsets and maximize the pairing.  Exact; intended for n <= 4."""
    n = space.n
    dim = n - 1
    rows = []
    rhs = []
    for x in range(n):
        for y in range(x + 1, n):
            coeff = [Fraction(0)] * dim
            if x != 0:
                coeff[x - 1] += 1
            if y != 0:
                coeff[y - 1] -= 1
            for s in (1, -1):
                rows.append([s * c for c in coeff])
                rhs.append(space.rho(x, y))
    best = Fraction(0)
    for subset in combinations(range(len(rows)), dim):
        point = _solve_square([rows[i] for i in subset], [rhs[i] for i in subset])
        if point is None:
            continue
        if any(
            sum(a * b for a, b in zip(rows[i], point)) > rhs[i] for i in range(len(rows))
        ):
            continue
        value = abs(sum(a * b for a, b in zip(coeffs, point)))
        if value > best:
            best = value
    return best


def random_pwl(seed, max_breaks=6, denominator=8, span=8) -> interval.PwlFunctional:
    rng = random.Random(f"pwl:{seed}")
    cuts = sorted(
        {Fraction(rng.randint(1, 31), 32) for _ in range(rng.randint(0, max_breaks))}
    )
    breakpoints = [Fraction(0)] + cuts + [Fraction(1)]
    values = [Fraction(0)]
    for _ in range(len(breakpoints) - 1):
        values.append(Fraction(rng.randint(-span, span), rng.randint(1, denominator)))
    return interval.PwlFunctional(tuple(breakpoints), tuple(values))


def random_hybrid(seed, max_extras=3, max_breaks=8) -> interval.HybridSpace:
    """Random valid hybrid space.

    Profiles are arbitrary positive 1-Lipschitz piecewise-linear curves
    (random slopes in [-1,1], shifted up to clear positivity and the endpoint
    pair inequality); extra-extra distances route through the interval,
    d(z,w) = min_t (d_z(t) + d_w(t)), which satisfies every triangle
    inequality by construction.
    """
    rng = random.Random(f"hybrid:{seed}")
    extras = rng.randint(1, max_extras)
    profiles = []
    for _ in range(extras):
        cuts = sorted(
            {Fraction(rng.randint(1, 63), 64) for _ in range(rng.randint(0, max_breaks - 2))}
        )
        breakpoints = [Fraction(0)] + cuts + [Fraction(1)]
        values = [Fraction(rng.randint(8, 64), 32)]
        for i in range(len(breakpoints) - 1):
            slope = Fraction(rng.randint(-8, 8), 8)
            values.append(values[-1] + slope * (breakpoints[i + 1] - breakpoints[i]))
        lowest = min(values)
        if lowest <= 0:
            shift = -lowest + Fraction(1, 4)
            values = [v + shift for v in values]
        if values[0] + values[-1] < 1:
            shift = (1 - values[0] - values[-1]) / 2
            values = [v + shift for v in values]
        profiles.append(interval.DistanceProfile(tuple(breakpoints), tuple(values)))
    dist = [[Fraction(0)] * extras for _ in range(extras)]
    for z in range(extras):
        for w in range(z + 1, extras):
            grid = sorted(set(profiles[z].breakpoints) | set(profiles[w].breakpoints))
            through = min(profiles[z].evaluate(t) + profiles[w].evaluate(t) for t in grid)
            dist[z][w] = dist[w][z] = through
    return interval.HybridSpace(tuple(profiles), tuple(tuple(r) for r in dist))


# --- Fraction oracles of the read path ---------------------------------------
# Copies of metric.validate and of interval's _evaluate, hybrid_validate,
# retraction and hybrid_norm as they were before those moved to lcm-scaled
# integers: every comparison and every quotient in Fractions.


def fraction_validate(matrix) -> list[Violation]:
    n = len(matrix)
    out: list[Violation] = []
    if n < 2:
        out.append(Violation("shape", (n,), "a pointed metric space needs at least 2 points"))
        return out
    for i, row in enumerate(matrix):
        if len(row) != n:
            out.append(Violation("shape", (i,), f"row {i} has length {len(row)}, expected {n}"))
            return out
    for i in range(n):
        if matrix[i][i] != 0:
            out.append(Violation("diagonal", (i,), f"d({i},{i}) = {matrix[i][i]} != 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                out.append(
                    Violation(
                        "symmetry",
                        (i, j),
                        f"d({i},{j}) = {matrix[i][j]} != d({j},{i}) = {matrix[j][i]}",
                    )
                )
            elif matrix[i][j] <= 0:
                out.append(Violation("positivity", (i, j), f"d({i},{j}) = {matrix[i][j]} <= 0"))
    if out:
        return out
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j == i or j == k:
                    continue
                if matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    out.append(
                        Violation(
                            "triangle",
                            (i, j, k),
                            f"d({i},{k}) = {matrix[i][k]} > "
                            f"d({i},{j}) + d({j},{k}) = {matrix[i][j] + matrix[j][k]}",
                        )
                    )
    return out


def fraction_evaluate(breakpoints, values, t):
    t = parse_rational(t)
    if not 0 <= t <= 1:
        raise ValueError(f"{t} outside [0,1]")
    for i in range(len(breakpoints) - 1):
        if breakpoints[i] <= t <= breakpoints[i + 1]:
            a, b = breakpoints[i], breakpoints[i + 1]
            va, vb = values[i], values[i + 1]
            return va + (vb - va) * (t - a) / (b - a)
    raise AssertionError("unreachable: t inside [0,1]")


def _fraction_slopes(breakpoints, values):
    return tuple(
        (values[i + 1] - values[i]) / (breakpoints[i + 1] - breakpoints[i])
        for i in range(len(breakpoints) - 1)
    )


def _refine(bps_a, bps_b):
    return tuple(sorted(set(bps_a) | set(bps_b)))


def _at(f, t):
    return fraction_evaluate(f.breakpoints, f.values, t)


def fraction_hybrid_validate(h) -> list[interval.HybridViolation]:
    HybridViolation = interval.HybridViolation
    out = []
    for z, prof in enumerate(h.profiles):
        for t, v in zip(prof.breakpoints, prof.values):
            if v <= 0:
                out.append(HybridViolation("profile-positivity", (z, t), f"d_z({t}) = {v} <= 0"))
        for i, s in enumerate(_fraction_slopes(prof.breakpoints, prof.values)):
            if abs(s) > 1:
                piece = (prof.breakpoints[i], prof.breakpoints[i + 1])
                out.append(
                    HybridViolation("profile-slope", (z,) + piece, f"slope {s} outside [-1,1]")
                )
        points = tuple(zip(prof.breakpoints, prof.values))
        for i, (s, ds) in enumerate(points):
            for t, dt in points[i + 1:]:
                if ds + dt < t - s:
                    out.append(
                        HybridViolation(
                            "interval-pair",
                            (z, s, t),
                            f"d_z({s}) + d_z({t}) < |{s} - {t}|",
                        )
                    )
    e = h.extras
    for z in range(e):
        if h.extra_dist[z][z] != 0:
            out.append(HybridViolation("extra-diagonal", (z,), "nonzero diagonal"))
        for w in range(z + 1, e):
            if h.extra_dist[z][w] != h.extra_dist[w][z]:
                out.append(HybridViolation("extra-symmetry", (z, w), "asymmetric entry"))
            elif h.extra_dist[z][w] <= 0:
                out.append(HybridViolation("extra-positivity", (z, w), "nonpositive distance"))
    for z in range(e):
        for w in range(e):
            for v in range(e):
                if len({z, w, v}) == 3:
                    if h.extra_dist[z][w] > h.extra_dist[z][v] + h.extra_dist[v][w]:
                        out.append(
                            HybridViolation(
                                "extra-triangle",
                                (z, v, w),
                                f"d(z{z},z{w}) > d(z{z},z{v}) + d(z{v},z{w})",
                            )
                        )
    for z in range(e):
        for w in range(z + 1, e):
            dzw = h.extra_dist[z][w]
            grid = _refine(h.profiles[z].breakpoints, h.profiles[w].breakpoints)
            for t in grid:
                dz = _at(h.profiles[z], t)
                dw = _at(h.profiles[w], t)
                if dzw > dz + dw:
                    out.append(
                        HybridViolation(
                            "extra-pair-upper", (z, w, t), f"d(z{z},z{w}) > d_z({t}) + d_w({t})"
                        )
                    )
                if abs(dz - dw) > dzw:
                    out.append(
                        HybridViolation(
                            "extra-pair-lower", (z, w, t), f"|d_z({t}) - d_w({t})| > d(z{z},z{w})"
                        )
                    )
    return out


def _fraction_require_valid(h):
    violations = fraction_hybrid_validate(h)
    if violations:
        raise interval.HybridInvalidError(violations)


def fraction_retraction(h):
    _fraction_require_valid(h)
    out = []
    for prof in h.profiles:
        raw = min(t + v for t, v in zip(prof.breakpoints, prof.values))
        out.append(min(Fraction(1), max(Fraction(0), raw)))
    for z, prof in enumerate(h.profiles):
        checkpoints = set(prof.breakpoints)
        checkpoints.add(out[z])
        for t in checkpoints:
            if abs(out[z] - t) > _at(prof, t):
                raise AssertionError(f"|F(z{z}) - {t}| > d_z({t})")
    for z in range(h.extras):
        for w in range(z + 1, h.extras):
            if abs(out[z] - out[w]) > h.extra_dist[z][w]:
                raise AssertionError(f"|F(z{z}) - F(z{w})| > d(z{z},z{w})")
    return tuple(out)


def fraction_pwl_norm(f):
    slopes = _fraction_slopes(f.breakpoints, f.values)
    norm = max((abs(s) for s in slopes), default=Fraction(0))
    pieces = tuple(
        (f.breakpoints[i], f.breakpoints[i + 1])
        for i, s in enumerate(slopes)
        if abs(s) == norm
    )
    return norm, pieces


def fraction_hybrid_norm(u, h):
    _fraction_require_valid(h)
    if len(u.extra_values) != h.extras:
        raise ValueError(f"{len(u.extra_values)} extra values for {h.extras} extras")
    best = Fraction(0)
    witness = None
    norm, pieces = fraction_pwl_norm(u.pwl)
    if norm > 0:
        best = norm
        witness = interval.HybridWitness("interval", pieces[0])
    for z in range(h.extras):
        for w in range(z + 1, h.extras):
            q = abs(u.extra_values[z] - u.extra_values[w]) / h.extra_dist[z][w]
            if q > best:
                best = q
                witness = interval.HybridWitness("extra-extra", (z, w))
    for z in range(h.extras):
        prof = h.profiles[z]
        grid = _refine(u.pwl.breakpoints, prof.breakpoints)
        for t in grid:
            q = abs(u.extra_values[z] - _at(u.pwl, t)) / _at(prof, t)
            if q > best:
                best = q
                witness = interval.HybridWitness("extra-interval", (z, t))
    return best, witness
