"""Exact isometry certificates for spans of Lipschitz functionals.

Two independent, equivalent criteria are implemented for l1:

* cube + sign (``l1_isometry_lip``): every pair's difference-quotient vector
  lies in [-1,1]^n, and every sign vector (mod global sign) is realized
  exactly by some pair.  The witnesses double as strong-attainment pairs for
  the corresponding sign combinations.
* corner (``l1_isometry_corner``): the combination norm equals n at every
  sign vector and 1 at every unit vector.  A norm dominated by the l1 norm
  that matches it on all sign vertices equals it everywhere (pinch along the
  cube's edges), so the two verdicts agree on every input; the artifact
  cross-checks them.

The dual l∞ criterion replaces the cube by the l1 ball and sign vectors by
the vertices ±e_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .lipschitz import LipFunctional
from .rationals import lcm_scale_rows, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def sign_class_representatives(n: int):
    """All epsilon in {-1,1}^n modulo global sign, first coordinate fixed +1,
    generated lazily in class order: there are 2^(n-1) of them, so a check
    that stops early builds only the classes it reaches."""
    return ((1,) + bits for bits in product((1, -1), repeat=n - 1))


def sign_class(n: int, index: int) -> tuple[int, ...]:
    """The ``index``-th class of ``sign_class_representatives(n)``: the bits
    of ``index`` from the highest, 0 for +1 and 1 for -1, after the leading
    +1."""
    return (1,) + tuple(-1 if index >> j & 1 else 1 for j in range(n - 2, -1, -1))


def is_sign_class(eps, n: int) -> bool:
    """Is the tuple ``eps`` one of ``sign_class_representatives(n)``?  Class
    order is then descending tuple order, since +1 comes before -1."""
    return len(eps) == n and eps[:1] == (1,) and all(e in (1, -1) for e in eps)


def quotient_vector(basis, x: int, y: int) -> tuple[Fraction, ...]:
    """w_{xy} = ((f_k(x) - f_k(y)) / rho(x, y))_k."""
    rho = basis[0].space.rho(x, y)
    return tuple((f.values[x] - f.values[y]) / rho for f in basis)


def _scaled_quotients(basis):
    """The basis values over one lcm ``L``, times the space's distance scale
    ``s``: point-indexed integer tuples ``num`` with, for D the space's
    ``integer_dist``,

        q_k(x, y) = (num[x][k] - num[y][k]) / (L * D[x][y]).

    Returns ``(num, L, D)``.  Every quotient comparison of a certificate is
    an integer comparison against ``L * D[x][y]`` on these."""
    space = basis[0].space
    rows, den = lcm_scale_rows([f.values for f in basis])
    s = space.dist_scale
    num = [tuple(s * v for v in column) for column in zip(*rows)]
    return num, den, space.integer_dist


def _check_common_space(basis):
    if not basis:
        raise ValueError("empty basis")
    space = basis[0].space
    for f in basis[1:]:
        if f.space != space:
            raise ValueError("basis functionals live on different spaces")
    return space


def combo_norm(basis, coeffs) -> Fraction:
    """lip_norm(sum_k coeffs[k] f_k), computed as max |<coeffs, w_xy>|."""
    space = _check_common_space(basis)
    coeffs = [parse_rational(c) for c in coeffs]
    if len(coeffs) != len(basis):
        raise ValueError(f"{len(coeffs)} coefficients for {len(basis)} basis elements")
    best = _ZERO
    for x, y in space.pairs():
        v = abs(sum(a * q for a, q in zip(coeffs, quotient_vector(basis, x, y))))
        if v > best:
            best = v
    return best


@dataclass(frozen=True)
class CubeViolation:
    x: int
    y: int
    coordinate: int
    quotient: Fraction


@dataclass(frozen=True)
class SignWitness:
    epsilon: tuple[int, ...]
    x: int
    y: int


@dataclass(frozen=True)
class L1IsometryCertificate:
    """Exact evidence that span(basis) is isometric l1^n inside SNA.

    Valid iff the cube check holds and every sign class has an exact witness
    pair; each witness is then a strong-attainment pair for its combination.
    """

    basis: tuple[LipFunctional, ...]
    cube_violation: CubeViolation | None
    sign_witnesses: tuple[SignWitness, ...]
    missing_epsilon: tuple[int, ...] | None

    @property
    def valid(self) -> bool:
        return self.cube_violation is None and self.missing_epsilon is None

    @property
    def status(self) -> str:
        return "valid" if self.valid else "invalid"


def l1_isometry_lip(basis, pinned_pairs=None) -> L1IsometryCertificate:
    """Cube + sign certificate for an l1^n isometry.

    ``pinned_pairs`` optionally maps sign classes to ordered pairs; those
    pairs are verified instead of searched, which lets a caller pin
    witnesses inside a subspace, and an unpinned class is missing.  Without
    pinning, each class gets the lexicographically smallest ordered pair
    realizing it.  The missing class reported is the first in class order.
    """
    space = _check_common_space(basis)
    n = len(basis)
    basis = tuple(basis)
    num, den, dist = _scaled_quotients(basis)

    # Each unordered pair is walked once: (y, x) has the negated quotients of
    # (x, y), the same cube verdict, and the negated sign vector.
    cube_violation = None
    sign_pairs: dict[tuple, tuple[int, int]] = {}
    for x, y in space.pairs():
        t = den * dist[x][y]
        w = [a - b for a, b in zip(num[x], num[y])]
        for k, a in enumerate(w):
            if a > t or a < -t:
                # (x, y) with x < y is the first violating ordered pair
                if cube_violation is None:
                    cube_violation = CubeViolation(x, y, k, Fraction(a, t))
                break
        else:
            if pinned_pairs is None and all(a == t or a == -t for a in w):
                # the class representative has first coordinate +1
                if w[0] > 0:
                    key, pair = tuple(1 if a > 0 else -1 for a in w), (x, y)
                else:
                    key, pair = tuple(-1 if a > 0 else 1 for a in w), (y, x)
                if key not in sign_pairs or pair < sign_pairs[key]:
                    sign_pairs[key] = pair

    if pinned_pairs is not None:
        for eps, pair in pinned_pairs.items():
            if not is_sign_class(eps, n):
                raise ValueError(f"pinned key {eps} is not a sign class of l1^{n}")
            if _realizes(num, den, dist, pair, eps):
                sign_pairs[eps] = pair
    witnesses = tuple(
        SignWitness(eps, *sign_pairs[eps]) for eps in sorted(sign_pairs, reverse=True)
    )
    missing = next((eps for eps in sign_class_representatives(n) if eps not in sign_pairs), None)
    return L1IsometryCertificate(
        basis=basis,
        cube_violation=cube_violation,
        sign_witnesses=witnesses,
        missing_epsilon=missing,
    )


def _realizes(num, den, dist, pair, eps) -> bool:
    """Is the quotient vector of the ordered pair exactly ``eps``?"""
    x, y = pair
    if not (0 <= x < len(num) and 0 <= y < len(num)) or x == y:
        # a diagonal pair would pass as 0 == 0 * eps
        raise ValueError(f"pinned pair {pair} is not two distinct point indices")
    t = den * dist[x][y]
    return all(a - b == e * t for a, b, e in zip(num[x], num[y], eps))


@dataclass(frozen=True)
class CornerReport:
    """Corner-criterion verdict: independent cross-oracle for l1 isometry."""

    unit_norms: tuple[Fraction, ...]
    corner_values: tuple[tuple[tuple[int, ...], Fraction], ...]
    failing_coeffs: tuple[Fraction, ...] | None
    failing_value: Fraction | None

    @property
    def valid(self) -> bool:
        return self.failing_coeffs is None


def l1_isometry_corner(basis) -> CornerReport:
    """Valid iff combo_norm(e_k) = 1 for all k and combo_norm(eps) = n for all
    sign vectors eps modulo global sign."""
    _check_common_space(basis)
    n = len(basis)
    unit_norms = []
    failing = None
    fail_value = None
    for k in range(n):
        e = [_ZERO] * n
        e[k] = _ONE
        v = combo_norm(basis, e)
        unit_norms.append(v)
        if v != 1 and failing is None:
            failing = tuple(e)
            fail_value = v
    corners = []
    for eps in sign_class_representatives(n):
        v = combo_norm(basis, eps)
        corners.append((eps, v))
        if v != n and failing is None:
            failing = tuple(Fraction(e) for e in eps)
            fail_value = v
    return CornerReport(
        unit_norms=tuple(unit_norms),
        corner_values=tuple(corners),
        failing_coeffs=failing,
        failing_value=fail_value,
    )


@dataclass(frozen=True)
class FreeL1Report:
    """l1^m isometry check inside the free space, via exact transport norms."""

    unit_norms: tuple[Fraction, ...]
    combo_norms: tuple[tuple[tuple[int, ...], Fraction], ...]
    failure: str | None

    @property
    def valid(self) -> bool:
        return self.failure is None


def l1_isometry_free(vectors) -> FreeL1Report:
    """Valid iff every vector has free norm 1 and every sign combination
    (mod global sign) has free norm m.  Sufficiency is the corner argument:
    the triangle inequality gives domination by the l1 norm for free.
    Stops at the first failing combination.  All coefficients are scaled
    over one lcm ``L``, so a combination is an integer sum whose free norm is
    its transport cost over ``L`` times the space's ``dist_scale`` (the cost
    is positively homogeneous).
    """
    from .freespace import transport_cost

    vectors = tuple(vectors)
    if not vectors:
        raise ValueError("empty vector tuple")
    space = vectors[0].space
    for u in vectors[1:]:
        if u.space != space:
            raise ValueError("vectors live on different spaces")
    m = len(vectors)
    rows, den = lcm_scale_rows([u.coeffs for u in vectors])
    cols = list(zip(*rows))
    den *= space.dist_scale
    unit_norms = []
    for row in rows:
        value = Fraction(transport_cost(space, row), den)
        unit_norms.append(value)
        if value != 1:
            return FreeL1Report(
                unit_norms=tuple(unit_norms),
                combo_norms=(),
                failure=f"basis vector {len(unit_norms) - 1} has free norm {value}, not 1",
            )
    combos = []
    for eps in sign_class_representatives(m):
        w = [sum(map(mul, eps, col)) for col in cols]
        value = Fraction(transport_cost(space, w), den)
        combos.append((eps, value))
        if value != m:
            return FreeL1Report(
                unit_norms=tuple(unit_norms),
                combo_norms=tuple(combos),
                failure=f"sign combination {eps} has free norm {value}, not {m}",
            )
    return FreeL1Report(tuple(unit_norms), tuple(combos), None)


@dataclass(frozen=True)
class BallViolation:
    x: int
    y: int
    l1_norm: Fraction


@dataclass(frozen=True)
class VertexWitness:
    coordinate: int
    x: int
    y: int


@dataclass(frozen=True)
class LinfIsometryCertificate:
    """Exact evidence that span(basis) is isometric l-infinity^m inside SNA."""

    basis: tuple[LipFunctional, ...]
    ball_violation: BallViolation | None
    vertex_witnesses: tuple[VertexWitness, ...]
    missing_coordinate: int | None

    @property
    def valid(self) -> bool:
        return self.ball_violation is None and self.missing_coordinate is None

    @property
    def status(self) -> str:
        return "valid" if self.valid else "invalid"


def linf_isometry_lip(basis) -> LinfIsometryCertificate:
    """Ball + vertex certificate for an l-infinity^m isometry.

    Valid iff every pair's quotient vector has l1 norm at most 1 and each
    basis vertex +e_j is realized exactly by some ordered pair (the pair
    reversed realizes -e_j).
    """
    space = _check_common_space(basis)
    m = len(basis)
    basis = tuple(basis)
    num, den, dist = _scaled_quotients(basis)
    ball_violation = None
    vertex_pair: dict[int, tuple[int, int]] = {}
    for x, y in space.pairs():
        t = den * dist[x][y]
        w = [a - b for a, b in zip(num[x], num[y])]
        total = sum(abs(a) for a in w)
        if total > t:
            # (x, y) with x < y is the first violating ordered pair
            if ball_violation is None:
                ball_violation = BallViolation(x, y, Fraction(total, t))
            continue
        for j, a in enumerate(w):
            if a == t:
                pair = (x, y)
            elif a == -t:
                pair = (y, x)
            else:
                continue
            if j not in vertex_pair or pair < vertex_pair[j]:
                vertex_pair[j] = pair
    witnesses = []
    missing = None
    for j in range(m):
        pair = vertex_pair.get(j)
        if pair is None:
            if missing is None:
                missing = j
        else:
            witnesses.append(VertexWitness(j, *pair))
    return LinfIsometryCertificate(
        basis=basis,
        ball_violation=ball_violation,
        vertex_witnesses=tuple(witnesses),
        missing_coordinate=missing,
    )
