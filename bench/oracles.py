"""Checks of constructed bases computed apart from lipcert's code paths.

Only the raw data of a result is read (basis values, the distance matrix,
witness pairs); every quantity is recomputed here by brute force over
``Fraction`` values:

* the Lipschitz norm of a combination, max over pairs |f(x) - f(y)| / rho(x, y),
  must equal the l1 norm of its coefficients (isometric l1^k);
* each sign witness's quotient vector must equal its sign class, and the
  witnesses must cover every sign class modulo global sign exactly once;
* pipeline witnesses must lie in the recorded subset.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product


def sign_classes(k: int) -> list[tuple[int, ...]]:
    """All sign vectors in {-1, 1}^k with first entry +1."""
    return [(1,) + rest for rest in product((1, -1), repeat=k - 1)]


def lipschitz_norm(values, dist) -> Fraction:
    return max(
        abs(values[x] - values[y]) / dist[x][y]
        for x, y in combinations(range(len(values)), 2)
    )


def combination(basis_values, coeffs) -> list[Fraction]:
    return [
        sum(c * v[p] for c, v in zip(coeffs, basis_values))
        for p in range(len(basis_values[0]))
    ]


def quotients(basis_values, dist, x: int, y: int) -> tuple[Fraction, ...]:
    return tuple((v[x] - v[y]) / dist[x][y] for v in basis_values)


def check_l1_basis(basis_values, dist, witnesses, label: str, subset=None) -> list[str]:
    """Problems found in a claimed isometric l1^k basis; empty when it holds.

    ``witnesses`` holds (epsilon, x, y) triples; ``label`` seeds the random
    coefficient vectors so a rerun checks the same combinations.
    """
    k = len(basis_values)
    problems = []
    rng = random.Random(f"combos:{label}")
    coefficient_sets = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    coefficient_sets += sign_classes(k)
    coefficient_sets += [
        tuple(Fraction(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(k))
        for _ in range(4)
    ]
    for coeffs in coefficient_sets:
        norm = lipschitz_norm(combination(basis_values, coeffs), dist)
        expected = sum(abs(Fraction(c)) for c in coeffs)
        if norm != expected:
            problems.append(f"norm of combination {coeffs} is {norm}, not {expected}")
    classes = sign_classes(k)
    seen = [tuple(eps) for eps, _, _ in witnesses]
    if sorted(seen) != sorted(classes):
        problems.append(f"witness sign classes {seen} are not the {len(classes)} classes")
    for eps, x, y in witnesses:
        if x == y or quotients(basis_values, dist, x, y) != tuple(Fraction(e) for e in eps):
            problems.append(f"witness pair ({x},{y}) does not realize sign class {eps}")
        if subset is not None and not (x in subset and y in subset):
            problems.append(f"witness pair ({x},{y}) lies outside the subset {sorted(subset)}")
    return problems
