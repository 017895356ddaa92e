"""Lipschitz functionals on finite pointed spaces.

Norm with complete strong-attainment witness sets, rebasing, McShane
extension, norm-preserving extension of certified l1 bases, and exact
feasibility of prescribed differences of a 1-Lipschitz function: from
scratch by Bellman-Ford, which returns a solution or a negative cycle, or
one difference constraint at a time on a shortest-path closure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

from .metric import PointedMetricSpace
from .rationals import lcm_scale, lcm_scale_rows, parse_rational

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LipFunctional:
    """Element of Lip_0: rational values per point, zero at the base point."""

    space: PointedMetricSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.space.n:
            raise ValueError(f"{len(self.values)} values for {self.space.n} points")
        if self.values[self.space.base] != 0:
            raise ValueError(f"value at base point is {self.values[self.space.base]}, not 0")

    def __call__(self, i: int) -> Fraction:
        return self.values[i]

    def __add__(self, other: "LipFunctional") -> "LipFunctional":
        _same_space(self, other)
        return LipFunctional(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "LipFunctional") -> "LipFunctional":
        _same_space(self, other)
        return LipFunctional(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c) -> "LipFunctional":
        c = parse_rational(c)
        return LipFunctional(self.space, tuple(c * v for v in self.values))


def functional(space: PointedMetricSpace, values) -> LipFunctional:
    return LipFunctional(space, tuple(parse_rational(v) for v in values))


def zero_functional(space: PointedMetricSpace) -> LipFunctional:
    return LipFunctional(space, tuple(_ZERO for _ in range(space.n)))


def combine(basis, coeffs) -> LipFunctional:
    """sum_k coeffs[k] * basis[k], one coefficient per basis element: values
    and coefficients lcm-scaled once, one integer dot product per point."""
    if not basis:
        raise ValueError("empty basis")
    coeffs = [parse_rational(a) for a in coeffs]
    if len(coeffs) != len(basis):
        raise ValueError(f"{len(coeffs)} coefficients for {len(basis)} basis elements")
    for f in basis:
        _same_space(basis[0], f)
    a_int, a_den = lcm_scale(coeffs)
    f_int, f_den = lcm_scale_rows([f.values for f in basis])
    den = a_den * f_den
    return LipFunctional(
        basis[0].space,
        tuple(Fraction(sum(map(mul, a_int, col)), den) for col in zip(*f_int)),
    )


def _same_space(f: LipFunctional, g: LipFunctional):
    if f.space != g.space:
        raise ValueError("functionals live on different spaces")


@dataclass(frozen=True)
class WitnessPair:
    """Attaining pair, oriented so the quotient is positive: x != y and
    (f(x) - f(y)) / rho(x, y) = +norm."""

    x: int
    y: int
    quotient: Fraction


def lip_norm(f: LipFunctional) -> tuple[Fraction, tuple[WitnessPair, ...]]:
    """Best Lipschitz constant and the complete set of attaining pairs.

    On a finite space the sup over pairs is a max, so every nonzero
    functional attains strongly; the zero functional returns (0, ()) by
    convention.  Witnesses are oriented to positive quotient and sorted
    lexicographically.
    """
    space = f.space
    # q(i, j) = s * (nums[i] - nums[j]) / (den * D[i][j]) with D the
    # integer_dist over its scale s, so |q| is ordered as |a| / t below.
    nums, den = lcm_scale(f.values)
    dist = space.integer_dist
    best_a, best_t = 0, 1
    diffs = []
    for i, j in space.pairs():
        a = nums[i] - nums[j]
        t = dist[i][j]
        diffs.append((i, j, a, t))
        if abs(a) * best_t > best_a * t:
            best_a, best_t = abs(a), t
    if best_a == 0:
        return _ZERO, ()
    norm = Fraction(space.dist_scale * best_a, den * best_t)
    witnesses = []
    for i, j, a, t in diffs:
        if a * best_t == best_a * t:
            witnesses.append(WitnessPair(i, j, norm))
        elif -a * best_t == best_a * t:
            witnesses.append(WitnessPair(j, i, norm))
    witnesses.sort(key=lambda w: (w.x, w.y))
    return norm, tuple(witnesses)


def rebase(f: LipFunctional, new_base: int) -> LipFunctional:
    """Shift values by -f(new_base); an isometry onto Lip_0 of the rebased space.

    Point order and distances are untouched, so the norm and the witness-pair
    set are exactly preserved.
    """
    space = f.space
    if not 0 <= new_base < space.n:
        raise ValueError(f"base index {new_base} out of range")
    if new_base == space.base:
        return f
    shifted_space = replace(space, base=new_base)
    shift = f.values[new_base]
    return LipFunctional(shifted_space, tuple(v - shift for v in f.values))


def mcshane_extend(
    f: LipFunctional, parent: PointedMetricSpace, lip_bound
) -> LipFunctional:
    """McShane inf-convolution extension of f from a restricted subspace.

    ``f.space`` must have been produced by ``restrict(parent, indices)``.
    Computes g(x) = min_{y in K} (f(y) + L * rho(x, y)), then shifts so the
    parent's base gets value 0 (a norm- and witness-preserving rebase, needed
    when the base of the parent is not in K).  With L = lip_norm(f) the
    restriction of g to K equals f up to that shift and the norm is exactly L.
    """
    lip_bound = parse_rational(lip_bound)
    space = f.space
    if space.parent_map is None:
        raise ValueError("functional's space does not record a parent index map")
    idx = space.parent_map
    if len(idx) != space.n or any(not 0 <= i < parent.n for i in idx):
        raise ValueError("index map does not match the parent space")
    norm, _ = lip_norm(f)
    if lip_bound < norm:
        raise ValueError(f"extension bound {lip_bound} below the Lipschitz norm {norm}")
    # f(y) + (p/q) rho(x, y) = (nums[y] q s + p den D[x][y]) / (den q s) with
    # f = nums / den and D the parent's integer_dist over its scale s
    nums, den = lcm_scale(f.values)
    p, q = lip_bound.as_integer_ratio()
    s = parent.dist_scale
    dist = parent.integer_dist
    base_terms = [v * q * s for v in nums]
    slope = p * den
    raw = [
        min(base_terms[k] + slope * dist[x][idx[k]] for k in range(space.n))
        for x in range(parent.n)
    ]
    shift = raw[parent.base]
    common = den * q * s
    return LipFunctional(parent, tuple(Fraction(v - shift, common) for v in raw))


def extend_basis(certificate, parent: PointedMetricSpace):
    """Norm-preserving extension of a certified l1 basis to a parent space.

    Each element of the certificate's basis is extended by McShane with
    L = 1; the returned certificate on the parent holds the extended basis
    and is rebuilt with the original witness pairs mapped through the index
    map, so every witness stays inside K.  Raises on an invalid input
    certificate.
    """
    from . import certify

    if not certificate.valid:
        raise ValueError("input l1 certificate is invalid")
    idx = certificate.basis[0].space.parent_map
    if idx is None:
        raise ValueError("basis space does not record a parent index map")
    extended = tuple(mcshane_extend(f, parent, 1) for f in certificate.basis)
    witness_pairs = {w.epsilon: (idx[w.x], idx[w.y]) for w in certificate.sign_witnesses}
    parent_cert = certify.l1_isometry_lip(extended, pinned_pairs=witness_pairs)
    if not parent_cert.valid:
        raise AssertionError("extension lemma failed: extended basis lost its certificate")
    return parent_cert


def differences_feasible(dist_int, equalities):
    """Is there a 1-Lipschitz f with f(x) - f(y) = c for every (x, y, c)?

    ``dist_int`` is a space's ``integer_dist`` and every c is an integer on
    the same scale.  The system is one of difference constraints:
    f(x) <= f(y) + c and f(y) <= f(x) - c per equality, f(a) <= f(b) + rho
    per pair.  It is feasible iff its constraint graph has no negative
    cycle, decided by integer Bellman-Ford.  Only the endpoints need nodes:
    McShane extends a 1-Lipschitz f from them, and the metric arcs between
    them are already shortest paths.

    Returns ``(True, f)`` with f a point-indexed list of integers that
    solves the system on the endpoints (other entries are 0 and mean
    nothing), or ``(False, cycle)`` with a negative cycle of the constraint
    graph as a list of its edges ``(b, a, w)``, each the constraint
    f(a) <= f(b) + w, in walking order.
    """
    nodes = sorted({p for x, y, _ in equalities for p in (x, y)})
    edges = [(p, q, dist_int[q][p]) for p in nodes for q in nodes if p != q]
    for x, y, c in equalities:
        edges.append((y, x, c))
        edges.append((x, y, -c))
    rounds = len(nodes)
    dist = [0] * len(dist_int)
    pred = [None] * len(dist_int)
    point = _relax(edges, dist, rounds, pred)
    if point is None:
        return True, dist
    # The last point relaxed in the final round has a predecessor chain that
    # runs into a cycle within ``rounds`` steps, and that cycle is negative.
    for _ in range(rounds):
        point = pred[point][0]
    cycle = [pred[point]]
    while cycle[-1][0] != point:
        cycle.append(pred[cycle[-1][0]])
    cycle.reverse()
    return False, cycle


def closure_add(closure, u, v, w):
    """The shortest-path closure after adding the constraint f(v) - f(u) <= w,
    the arc u -> v of weight w, as a new matrix (``closure`` is left as it
    is, so a search can backtrack to it).

    ``closure[a][b]`` is the tightest upper bound on f(b) - f(a) that a
    feasible system of difference constraints implies; a space's
    ``integer_dist`` is the closure of the bare 1-Lipschitz condition, since
    a metric is its own shortest-path closure.  The system stays feasible
    exactly when w + closure[v][u] >= 0, and a shortest path then uses the
    arc at most once (Cotton and Maler, 2006): D'[a][b] = min(D[a][b],
    D[a][u] + w + D[v][b]), so a search can read an entry of D' from D in
    place without building D'.  A closure satisfies D[a][b] <= D[a][v] +
    D[v][b], so row ``a`` is lowered only if D[a][u] + w < D[a][v]; a row
    that is not is shared with ``closure``, not copied (a search never
    changes a closure; it backtracks by dropping it).  Rows are lists; the
    tuple rows of a space's ``integer_dist`` are copied once.  O(n^2)
    integer operations.

    An extreme equality f(u) - f(v) = rho(u, v) is feasible exactly when
    closure[v][u] == rho, since a closure never exceeds the metric, and is
    then the one arc u -> v of weight -rho: its other arc, v -> u of weight
    rho, parallels a path no longer than itself.
    """
    if type(closure) is tuple:
        closure = [list(row) for row in closure]
    row_v = closure[v]
    new = []
    for row in closure:
        via = row[u] + w
        if via < row[v]:
            new.append([t if (t := via + b) < d else d for d, b in zip(row, row_v)])
        else:
            new.append(row)
    return new


def _relax(edges, dist, rounds, pred):
    """Bellman-Ford rounds over ``edges`` from ``dist`` (every point at
    distance 0 from a virtual source).  Returns None once a round changes
    nothing, else the last point relaxed in the final round; records each
    relaxing edge in ``pred``."""
    last = None
    for _ in range(rounds):
        last = None
        for edge in edges:
            b, a, w = edge
            alt = dist[b] + w
            if alt < dist[a]:
                dist[a] = alt
                last = a
                pred[a] = edge
        if last is None:
            return None
    return last
