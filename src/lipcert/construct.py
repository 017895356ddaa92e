"""Constructions of certified isometric subspaces.

* explicit 4-point l1^2 basis from the minimal-pairing labeling,
* Rademacher sign matrix embedding l1^n into l-infinity^(2^(n-1)),
* duality lift of a 1-complemented l1^m of the free space to an
  l-infinity^m of Lipschitz functionals,
* the end-to-end pipeline: subset selection, complementation search,
  duality lift, Rademacher composition, norm-preserving extension,
* an independent direct search for certified l1^k bases: witness-pair
  assignments pruned by incremental shortest-path closures, then one LP per
  basis coordinate,
* evaluation embeddings of l1^d / l-infinity^d over their dual balls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from . import certify, freespace, lipschitz, lp
from .certify import L1IsometryCertificate, LinfIsometryCertificate
from .lipschitz import LipFunctional, combine, functional, extend_basis
from .metric import PointedMetricSpace, restrict
from .rationals import lcm_scale_rows

_ZERO = Fraction(0)


class ConstructionError(AssertionError):
    """A construction the theory guarantees has failed; carries a space dump."""


_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def four_point_basis(space: PointedMetricSpace):
    """Explicit l1^2 basis on a 4-point space.

    Labels x1 the base, x4 its partner in the first pair-partition (in
    ``_PAIRINGS`` order) minimizing rho14 + rho23, and x2, x3 the other pair
    in index order.  With a, b, c, d, e, g = rho12, rho13, rho14, rho23,
    rho24, rho34, the closed forms on x1..x4 are f1 = (0, c - e, c - e + d, c)
    and f2 = (0, a, a - d, c).  So (x4, x1) attains (1, 1), (x3, x2) attains
    (1, -1), and every quotient lies in [-1, 1]: the bounds c + d - e <= b
    and c + d - a <= g are the minimality inequalities, which swapping x2
    and x3 only exchanges, and the rest are triangle inequalities.  The
    first labeling therefore always certifies; ConstructionError guards that.
    """
    if space.n != 4:
        raise ValueError(f"four_point_basis needs exactly 4 points, got {space.n}")
    if space.base != 0:
        raise ValueError("four_point_basis expects the base point at index 0")
    rho = space.rho
    (_, x4), (x2, x3) = min(_PAIRINGS, key=lambda pairing: rho(*pairing[0]) + rho(*pairing[1]))
    f1, f2 = _four_point_formulas(space, x2, x3, x4)
    cert = certify.l1_isometry_lip([f1, f2])
    if not cert.valid:
        raise ConstructionError(
            "4-point construction failed to certify; space dump: "
            + repr([[str(x) for x in row] for row in space.dist])
        )
    return f1, f2, cert


def _four_point_formulas(space, x2, x3, x4):
    rho = space.rho
    values1 = [_ZERO] * 4
    values2 = [_ZERO] * 4
    values1[x2] = rho(0, x4) - rho(x2, x4)
    values1[x3] = rho(0, x4) - rho(x2, x4) + rho(x2, x3)
    values1[x4] = rho(0, x4)
    values2[x2] = rho(0, x2)
    values2[x3] = rho(0, x2) - rho(x2, x3)
    values2[x4] = rho(0, x4)
    return functional(space, values1), functional(space, values2)


def rademacher_embedding(n: int):
    """Sign matrix (2^(n-1) rows, n columns) with max_row |<a, row>| = ||a||_1.

    Rows are indexed by sign patterns; the first column is all ones, column
    k >= 2 carries the (k-1)-th pattern entry, mirroring the Rademacher
    functions.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(certify.sign_class_representatives(n))


def duality_lift(certificate: freespace.ComplementationCertificate) -> LinfIsometryCertificate:
    """Certified l-infinity^m basis dual to a 1-complemented l1^m of the
    free space; the basis is the returned certificate's.

    g_j(x) is the j-th coefficient of P(delta_x) in the basis (u_1..u_m);
    this is the coordinate functional composed with the projection, so it is
    biorthogonal to the basis and the span is an isometric l-infinity^m.
    P(delta_x) is column x - 1 of P, so one exact solve of U C = P gives
    every g_j(x) = C[j][x - 1].
    """
    if not certificate.valid:
        raise ValueError("input complementation certificate is invalid")
    space = certificate.space
    basis = certificate.basis
    m = len(basis)
    u_matrix = [[u.coeffs[p] for u in basis] for p in range(space.n - 1)]
    coeffs = lp.solve_linear(u_matrix, certificate.projection.matrix)
    if coeffs is None:
        raise AssertionError("projection image left the basis span")
    g = tuple(LipFunctional(space, (_ZERO, *row)) for row in coeffs)
    # <g_j, u_i> = sum_p C[j][p] u_i[p]; with C = G / a and u_i = V_i / b
    # lcm-scaled, the pairings are G V^T / (a b), which must be the identity
    g_ints, a = lcm_scale_rows(coeffs)
    u_ints, b = lcm_scale_rows([u.coeffs for u in basis])
    for i in range(m):
        for j in range(m):
            expected = int(i == j)
            if sum(map(mul, g_ints[j], u_ints[i])) != expected * a * b:
                raise AssertionError(f"biorthogonality <g_{j}, u_{i}> != {expected}")
    cert = certify.linf_isometry_lip(g)
    if not cert.valid:
        raise AssertionError("duality lift lost the l-infinity certificate")
    return cert


def compose_l1_in_linf(linf_certificate: LinfIsometryCertificate, sign_matrix):
    """f_k = sum_j R[j][k] g_j turns the basis (g_j) of a valid l-infinity^m
    certificate into a certified l1^n basis, n = 1 + log2(m); the new basis
    is the returned certificate's.  Each f_k is one ``combine`` of the basis
    with the matrix's +-1 column k, an integer dot product per point."""
    if not linf_certificate.valid:
        raise ValueError("input l-infinity certificate is invalid")
    basis = linf_certificate.basis
    m = len(basis)
    if len(sign_matrix) != m:
        raise ValueError(f"sign matrix has {len(sign_matrix)} rows for {m} basis elements")
    n = len(sign_matrix[0])
    if m != 2 ** (n - 1):
        raise ValueError(f"sign matrix of {m} rows cannot target l1^{n}")
    f = tuple(
        combine(basis, [sign_matrix[j][k] for j in range(m)])
        for k in range(n)
    )
    cert = certify.l1_isometry_lip(f)
    if not cert.valid:
        raise AssertionError("Rademacher composition lost the l1 certificate")
    return cert


def select_subset(space: PointedMetricSpace, size: int):
    """Deterministic farthest-point sweep from the base; returns sorted indices
    (base first) of a spread-out subset.  Each step adds the point farthest
    from the chosen ones, the lowest index on a tie; distances compare on
    the space's ``integer_dist``, which orders them as rho does."""
    dist = space.integer_dist
    chosen = [space.base]
    rest = [p for p in range(space.n) if p != space.base]
    while len(chosen) < size:
        best = max(rest, key=lambda p: (min(dist[p][q] for q in chosen), -p))
        chosen.append(best)
        rest.remove(best)
    return [space.base] + sorted(p for p in chosen if p != space.base)


@dataclass(frozen=True)
class PipelineResult:
    """The main-theorem pipeline's input and its certificate at each stage;
    the subset K is the complementation search's space.  When that search
    found none, the three certificates are None and ``complementation``
    holds its counts."""

    space: PointedMetricSpace
    k: int
    subset_indices: tuple[int, ...]
    complementation: freespace.ComplementationSearch
    linf_certificate: LinfIsometryCertificate | None
    subset_certificate: L1IsometryCertificate | None
    certificate: L1IsometryCertificate | None

    @property
    def found(self) -> bool:
        return self.certificate is not None


def theorem_pipeline(space: PointedMetricSpace, k: int, tuple_budget=None) -> PipelineResult:
    """Certified l1^k inside SNA of any space with at least 2^k points.

    Chain: restrict to a spread-out 2^k-point subset K, find a 1-complemented
    l1^(2^(k-1)) with molecule basis in the free space of K, lift by duality
    to an l-infinity basis, compose with the Rademacher matrix, and extend to
    the whole space with the witnesses kept inside K.  Exhaustion of the
    complementation search is a result, as in ``direct_search_l1``: ``found``
    is False and the counts are ``complementation``'s.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    # n < 2^k compared by bit length, so that a large k formats no 2^k
    if space.n.bit_length() <= k:
        raise ValueError(f"need at least 2^{k} points for k = {k}, got {space.n}")
    if space.base != 0:
        raise ValueError("theorem_pipeline expects the base point at index 0")
    indices = select_subset(space, 2 ** k)
    subset = restrict(space, indices)
    search = freespace.search_one_complemented(subset, 2 ** (k - 1), tuple_budget)
    if not search.found:
        return PipelineResult(space, k, tuple(indices), search, None, None, None)
    linf_cert = duality_lift(search.certificate)
    subset_cert = compose_l1_in_linf(linf_cert, rademacher_embedding(k))
    return PipelineResult(
        space=space,
        k=k,
        subset_indices=tuple(indices),
        complementation=search,
        linf_certificate=linf_cert,
        subset_certificate=subset_cert,
        certificate=extend_basis(subset_cert, space),
    )


@dataclass(frozen=True)
class DirectSearchResult:
    """A direct search's counts and its certificate, None if it found none."""

    space: PointedMetricSpace
    k: int
    certificate: L1IsometryCertificate | None
    assignments_tried: int
    budget_exhausted: bool

    @property
    def found(self) -> bool:
        return self.certificate is not None


def direct_search_l1(space: PointedMetricSpace, k: int, node_budget=None) -> DirectSearchResult:
    """Independent oracle: assign witness pairs to sign classes and solve for
    the functional values by LP feasibility.

    Depth-first over assignments of ordered pairs (sorted by decreasing
    distance, then lexicographically; a pair's place in that order is its
    rank) to the 2^(k-1) sign classes.  Each basis coordinate's assigned
    pairs form a system of difference constraints; the search keeps its
    all-pairs shortest-path closure on the stack (``lipschitz.closure_add``),
    and backtracking drops the child's closures.  Every equality is extreme,
    f(u) - f(v) = rho(u, v) with (u, v) = (x, y) when e = +1 and (y, x) when
    e = -1, so a candidate pair is accepted by one integer comparison per
    coordinate, C[v][u] == rho, and adds one arc per coordinate, u -> v of
    weight -rho.  The first full assignment goes to one LP per basis
    coordinate, whose solutions give the certified basis with the assignment
    as its sign witnesses; its closures admitted it, so the LPs are feasible.

    Each node scans only what its parent left.  Every class has e_0 = +1
    and a closure only ever goes down, so a pair that fails coordinate 0 at
    a node fails it at every descendant: a node keeps the ranks that pass
    coordinate 0 on its own closure, filtered from its parent's list (the
    root's is every rank), and hands that list to its children.  Every rank
    in that list is tight, C[y][x] == rho, on the parent's closure, the one
    the child reads (at the root, the symmetric metric), so the child keeps
    a rank exactly when its sum through the arc does not fall below rho, and
    compares nothing else.  The pairs it skips unread still count as tried:
    one int mask holds the unused ranks (at the root, the first class's),
    and before each admitted rank the count grows by the unused ranks up to
    it, the rest after the scan, so ``assignments_tried`` and the budget's
    cut-off are those of trying every unused pair in rank order.

    A node holds, per coordinate, a view (C, u0, v0, w): its parent's
    closure C and the one arc u0 -> v0 of weight w it added (the root, the
    metric and the trivial arc 0 -> 0 of weight 0).  It reads its own
    closure C' from C in place: C'[a][b] = min(C[a][b], C[a][u0] + w +
    C[v0][b]), and a closure never exceeds the metric, so C'[v][u] == rho
    exactly when C[v][u] == rho and C[v][u0] + C[v0][u] + w >= rho.  A node
    builds its own closures (``lipschitz.closure_add``) only when it first
    admits a child, and a node of the last class never does, since its
    children go straight to the LPs.

    Coordinates share closures while their signs agree.  Class d has
    e_j = -1 exactly when bit k-1-j of d is set, so coordinate j >= 1 is +1
    on classes 0 .. 2^(k-1-j) - 1 and has added exactly coordinate 0's arcs
    up to there.  A node at depth d therefore checks coordinate j only when
    d >= 2^(k-1-j), since below that its check is coordinate 0's, which the
    survivor filter has made; and it builds one closure that coordinate 0
    shares with every coordinate j with 2^(k-1-j) >= d, plus one for each
    other coordinate, 1 + #{j >= 1 : 2^(k-1-j) < d} in all.  Both bounds
    come from the closed form, once per depth, beside the depth's class.

    It searches ``min(k, k')`` coordinates, k' = P.bit_length() + 1 for the
    P = n(n-1)/2 unordered pairs.  Each class takes its own pair, so every
    class reached has index at most P < 2^(k'-1), and its coordinates
    1..k-k' are +1: copies of coordinate 0, which admit nothing it does not.
    The nodes, count, cut-off and verdict are those of all k coordinates;
    the result's ``k`` is the requested one.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if space.base != 0:
        raise ValueError("direct_search_l1 expects the base point at index 0")
    k_search = min(k, (space.n * (space.n - 1) // 2).bit_length() + 1)
    last = (1 << (k_search - 1)) - 1  # class d of the search is sign_class(k_search, d)
    # integer-scaled distances keep the feasibility pruning in int arithmetic
    dist_int = space.integer_dist
    candidates = sorted(
        space.ordered_pairs(),
        key=lambda p: (-dist_int[p[0]][p[1]], p),
    )
    rank = {pair: r for r, pair in enumerate(candidates)}
    xs = [x for x, _ in candidates]
    ys = [y for _, y in candidates]
    rhos = [dist_int[x][y] for x, y in candidates]
    pair_bits = [1 << r | 1 << rank[y, x] for r, (x, y) in enumerate(candidates)]
    # The all-ones class may fix its pair orientation: negating the basis
    # swaps both orientations, so nothing is lost modulo global sign.
    first_mask = sum(1 << r for r, (x, y) in enumerate(candidates) if x < y)
    unused = (1 << len(candidates)) - 1  # ranks of pairs unused either way round
    tried = 0
    assignment: list[tuple[int, int]] = []

    # shared by every coordinate LP of every full assignment
    ball = freespace.lipschitz_ball_rows(space, 1)

    def count(m):
        """Count ``m`` more tried pairs; False if the budget runs out first,
        which leaves the count at the budget."""
        nonlocal tried
        if node_budget is not None and tried + m > node_budget:
            tried = node_budget
            return False
        tried += m
        return True

    # per depth d reached so far: sign_class(k_search, d), the first
    # coordinate with a -1 in classes 0..d (the ones checked), and how many
    # have none in classes 0..d-1 (the ones sharing coordinate 0's closure)
    classes = []

    def dfs(depth, views, survivors):
        # ``views``: per coordinate, the parent's closure and the arc
        # (u0, v0, w) this node added; ``survivors``: the parent's list
        nonlocal unused
        if depth == len(classes):
            classes.append((
                certify.sign_class(k_search, depth),
                k_search - depth.bit_length(),
                k_search - max(depth - 1, 0).bit_length(),
            ))
        eps, checked, shared = classes[depth]
        survivors = _still_tight(survivors, views[0], xs, ys, rhos)
        checks = [(eps[j], *views[j]) for j in range(checked, k_search)]
        mask = first_mask if depth == 0 else unused
        counted = 0  # unused ranks in the mask up to the last admitted one
        own = None  # this node's closures, built when it first admits a child
        for r in survivors:
            if not mask >> r & 1:
                continue
            x, y, rho = xs[r], ys[r], rhos[r]
            for e, closure, u0, v0, w in checks:
                u, v = (x, y) if e > 0 else (y, x)
                row = closure[v]
                if row[u] != rho or row[u0] + closure[v0][u] + w < rho:
                    break
            else:
                upto = (mask & ((2 << r) - 1)).bit_count()
                if not count(upto - counted):
                    return "budget"
                counted = upto
                assignment.append((x, y))
                if depth == last:
                    return _direct_search_solve(space, k_search, assignment, ball)
                if own is None:
                    own = [lipschitz.closure_add(*views[0])] * shared
                    own += [lipschitz.closure_add(*view) for view in views[shared:]]
                unused ^= pair_bits[r]
                arcs = [(c, *((x, y) if e > 0 else (y, x)), -rho) for e, c in zip(eps, own)]
                outcome = dfs(depth + 1, arcs, survivors)
                unused ^= pair_bits[r]
                if outcome is not None:
                    return outcome
                assignment.pop()
        return None if count(mask.bit_count() - counted) else "budget"

    # the root reads the metric through the trivial arc 0 -> 0 of weight 0,
    # which lowers no entry
    root = [(dist_int, 0, 0, 0)] * k_search
    outcome = dfs(0, root, range(len(candidates)))
    if outcome == "budget":
        return DirectSearchResult(space, k, None, tried, True)
    return DirectSearchResult(space, k, outcome, tried, False)


def _still_tight(survivors, view, xs, ys, rhos):
    """The ranks of ``survivors`` whose pair (x, y) is tight, C'[y][x] ==
    rho, on the closure C' = ``closure_add(C, u0, v0, w)`` of the view
    ``(C, u0, v0, w)``, read in place: C'[y][x] = min(C[y][x], C[y][u0] + w
    + C[v0][x]).  Every rank handed in is tight on C, so the sum through
    the arc decides alone."""
    closure, u0, v0, w = view
    row_v0 = closure[v0]
    return [r for r in survivors if closure[ys[r]][u0] + row_v0[xs[r]] + w >= rhos[r]]


def _direct_search_solve(space, k, assignment, ball) -> L1IsometryCertificate:
    """The certified basis of a fully assigned witness map: one LP per basis
    coordinate, the 1-Lipschitz ball rows ``ball`` plus that coordinate's
    equalities f(x) - f(y) = e * rho(x, y), each the
    ``freespace.difference_row`` with rhs ``e * D[x][y]`` over s, from the
    space's ``integer_dist`` D over its ``dist_scale`` s.

    Every LP is feasible: the search admitted the assignment on shortest-path
    closures, and a system of difference constraints is feasible exactly when
    its closure finds no negative cycle."""
    s = space.dist_scale
    dist = space.integer_dist
    pinned = {certify.sign_class(k, d): pair for d, pair in enumerate(assignment)}
    basis = []
    for kappa in range(k):
        rows = list(ball)
        for eps, (x, y) in pinned.items():
            rhs = eps[kappa] * dist[x][y]
            rows.append(freespace.difference_row(space, 1, [(0, x, y, 1)], rhs, s, lp.EQ))
        outcome = lp.feasible(rows, n_vars=space.n - 1)
        if outcome.status != "optimal":
            raise AssertionError(f"closure-feasible assignment has an {outcome.status} LP")
        (values,) = freespace.block_values(space, outcome.primal, 1)
        basis.append(LipFunctional(space, values))
    cert = certify.l1_isometry_lip(tuple(basis), pinned_pairs=pinned)
    if not cert.valid:
        raise AssertionError("feasible witness assignment must certify")
    return cert


@dataclass(frozen=True)
class EvaluationEmbedding:
    kind: str
    dimension: int
    certificate: L1IsometryCertificate | LinfIsometryCertificate


def evaluation_embedding(kind: str, d: int) -> EvaluationEmbedding:
    """Coordinate evaluation functionals over the dual unit ball.

    For Y = l1^d the dual ball is the l-infinity cube: the space is the origin
    plus the cube's vertices under the l-infinity metric, and the evaluations
    of e_1..e_d span a certified l1^d.  For Y = l-infinity^d the dual ball is
    the cross-polytope: origin plus +-e_j under the l1 metric, certified
    l-infinity^d.  Each combination attains at a pair involving the origin.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if d > 6:
        raise ValueError("evaluation embeddings are limited to d <= 6")
    if kind == "l1":
        points = [tuple([0] * d)] + [bits for bits in product((1, -1), repeat=d)]
        metric_fn = lambda p, q: max(abs(a - b) for a, b in zip(p, q))
    elif kind == "linf":
        points = [tuple([0] * d)]
        for j in range(d):
            plus = [0] * d
            plus[j] = 1
            minus = [0] * d
            minus[j] = -1
            points.append(tuple(plus))
            points.append(tuple(minus))
        metric_fn = lambda p, q: sum(abs(a - b) for a, b in zip(p, q))
    else:
        raise ValueError(f"kind must be 'l1' or 'linf', got {kind!r}")
    labels = [",".join(str(c) for c in p) or "0" for p in points]
    labels[0] = "0"
    rows = [[Fraction(metric_fn(p, q)) for q in points] for p in points]
    space = PointedMetricSpace.from_matrix(rows, labels=labels)
    basis = tuple(
        functional(space, [p[i] for p in points]) for i in range(d)
    )
    if kind == "l1":
        cert = certify.l1_isometry_lip(basis)
    else:
        cert = certify.linf_isometry_lip(basis)
    if not cert.valid:
        raise AssertionError("evaluation embedding must certify")
    return EvaluationEmbedding(kind, d, cert)
