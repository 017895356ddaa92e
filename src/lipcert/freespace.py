"""Lipschitz-free space over a finite pointed metric space.

The free norm is the transportation cost: the minimum of
sum |a_xy| rho(x,y) over representations v = sum a_xy (delta_x - delta_y).
``free_norm`` computes it as an exact integer transport, by cycle canceling
until a 1-Lipschitz potential is tight on every arc that carries flow; the
flow and the potential are re-checked as a full optimality certificate.
The flow LP ``free_norm_primal`` serves ``lipcert free-norm``, which prints
its decomposition, and the tests as a cross-oracle; the dual route
``free_norm_dual`` maximizes <v, f> over the 1-Lipschitz ball and must
agree exactly.  Operator norms reduce to molecule enumeration because the
unit ball is the absolutely convex hull of the molecules.
``search_one_complemented`` looks for 1-complemented isometric l1^m
subspaces with molecule bases.

Every LP over Lipschitz functionals (the dual free norm, the complementation
master LP and its cuts, the direct search's coordinate LPs) has differences
f(x) - f(y) as rows, each written by ``difference_row``; ``block_values``
reads the functionals' values back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import lp
from .lipschitz import LipFunctional, closure_add, differences_feasible
from .metric import PointedMetricSpace
from .rationals import lcm_scale, lcm_scale_rows, parse_rational, reduce_over

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _require_base_zero(space: PointedMetricSpace):
    if space.base != 0:
        raise ValueError("free-space operations expect the base point at index 0")


@dataclass(frozen=True)
class FreeVector:
    """Element of the free space: coeffs[i] weights delta_{i+1} (delta_0 = 0)."""

    space: PointedMetricSpace
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        _require_base_zero(self.space)
        if len(self.coeffs) != self.space.n - 1:
            raise ValueError(f"{len(self.coeffs)} coefficients for {self.space.n - 1} dimensions")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "FreeVector") -> "FreeVector":
        if self.space != other.space:
            raise ValueError("vectors live on different spaces")
        return FreeVector(self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        if self.space != other.space:
            raise ValueError("vectors live on different spaces")
        return FreeVector(self.space, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "FreeVector":
        c = parse_rational(c)
        return FreeVector(self.space, tuple(c * v for v in self.coeffs))


def free_vector(space: PointedMetricSpace, coeffs) -> FreeVector:
    return FreeVector(space, tuple(parse_rational(c) for c in coeffs))


def delta(space: PointedMetricSpace, x: int) -> FreeVector:
    """Evaluation functional delta_x as a free vector (delta_0 = 0)."""
    _require_base_zero(space)
    coeffs = [_ZERO] * (space.n - 1)
    if x != 0:
        coeffs[x - 1] = _ONE
    return FreeVector(space, tuple(coeffs))


@dataclass(frozen=True)
class Molecule:
    """(delta_x - delta_y) / rho(x, y); always of free norm exactly 1."""

    space: PointedMetricSpace
    x: int
    y: int

    def as_free_vector(self) -> FreeVector:
        """1/rho at x and -1/rho at y; the base entry (delta_0 = 0) is dropped."""
        inv = 1 / self.space.rho(self.x, self.y)
        coeffs = [_ZERO] * self.space.n
        coeffs[self.x] = inv
        coeffs[self.y] = -inv
        return FreeVector(self.space, tuple(coeffs[1:]))


def canonical_molecules(space: PointedMetricSpace) -> tuple[Molecule, ...]:
    """One molecule per unordered pair, (delta_j - delta_i)/rho for i < j,
    in lexicographic pair order; the sign twins are skipped."""
    _require_base_zero(space)
    return tuple(Molecule(space, j, i) for i, j in space.pairs())


def pairing(f: LipFunctional, v: FreeVector) -> Fraction:
    """<f, v> under the identification of Lip_0 with the dual of the free space."""
    if f.space != v.space:
        raise ValueError("functional and vector live on different spaces")
    return sum(c * f.values[p + 1] for p, c in enumerate(v.coeffs))


@dataclass(frozen=True)
class TransportArc:
    """One weighted arc of an optimal decomposition: weight * (delta_x - delta_y)."""

    x: int
    y: int
    weight: Fraction


def free_norm(v: FreeVector) -> Fraction:
    """Transportation-cost norm by exact integer transport.

    The coefficients are scaled to integer masses by the lcm of their
    denominators, the base takes the balance -sum v, and
    ``integer_transport`` finds an optimal flow with its potential at the
    arc costs of the space's ``integer_dist``; ``check_transport`` re-checks
    both before the cost is returned in the space's own units.
    """
    coeffs, scale = lcm_scale(v.coeffs)
    return Fraction(transport_cost(v.space, coeffs), scale * v.space.dist_scale)


def transport_cost(space: PointedMetricSpace, coeffs) -> int:
    """Optimal transport cost, in ``integer_dist`` units, of the integer free
    vector ``coeffs`` (delta coordinates; the base takes the balance
    -sum coeffs), run by ``integer_transport`` and re-checked by
    ``check_transport``."""
    mass = [-sum(coeffs), *coeffs]
    dist_int = space.integer_dist
    flow, potential = integer_transport(mass, dist_int)
    return check_transport(mass, dist_int, flow, potential)


def integer_transport(mass, dist_int):
    """Min-cost flow that moves the integer point masses ``mass`` (summing to
    0) from positive to negative points, at arc costs ``dist_int``.

    Starts from the greedy flow that serves the cheapest positive-negative
    pairs first.  Then asks ``differences_feasible`` for a 1-Lipschitz f with
    f(x) - f(y) = rho(x, y) on every arc (x, y) that carries flow: such an f
    is an optimal dual (Kantorovich-Rubinstein), and a negative cycle of the
    constraint graph is a cost-lowering cycle of the residual flow.  Each
    push lowers the integer cost by at least 1, so the loop ends.  Returns
    ``(flow, f)``: a dict of positive arc flows and the point-indexed
    potential.
    """
    left = list(mass)
    flow = {}
    pairs = sorted(
        (dist_int[p][q], p, q)
        for p in range(len(mass))
        if mass[p] > 0
        for q in range(len(mass))
        if mass[q] < 0
    )
    for _, p, q in pairs:
        a = min(left[p], -left[q])
        if a > 0:
            flow[p, q] = a
            left[p] -= a
            left[q] += a
    while True:
        feasible, witness = differences_feasible(
            dist_int, [(x, y, dist_int[x][y]) for x, y in flow]
        )
        if feasible:
            return flow, witness
        _push_around(flow, witness)


def _push_around(flow, cycle):
    """Push flow around the residual cycle of a negative constraint cycle.

    An edge (b, a, w) with w < 0 is the tightness constraint of the flow arc
    (b, a): that arc loses flow.  An edge with w > 0 is the Lipschitz
    constraint f(a) - f(b) <= rho(a, b): the arc (a, b) gains flow.  The
    amount is the least flow on a losing arc, so the cost falls by that
    amount times -sum(w).
    """
    if sum(w for _, _, w in cycle) >= 0:
        raise AssertionError(f"constraint cycle {cycle} is not negative")
    delta = min(flow[b, a] for b, a, w in cycle if w < 0)
    for b, a, w in cycle:
        if w < 0:
            flow[b, a] -= delta
            if not flow[b, a]:
                del flow[b, a]
        else:
            flow[a, b] = flow.get((a, b), 0) + delta


def check_transport(mass, dist_int, flow, potential):
    """Exact optimality certificate of a transport flow: returns the flow's
    cost and raises on any fault.

    The flow is nonnegative on every arc and balances ``mass`` at every
    point; the potential is 1-Lipschitz on every pair of points that an arc
    with flow touches and tight on every such arc; and there is no gap:
    sum_p mass_p f(p) equals the flow's cost.  These are primal and dual
    feasibility plus complementary slackness of the flow LP.
    """
    balance = [0] * len(mass)
    cost = 0
    for (x, y), a in flow.items():
        if a < 0:
            raise AssertionError(f"transport arc ({x},{y}) carries negative flow {a}")
        balance[x] += a
        balance[y] -= a
        cost += a * dist_int[x][y]
    if balance != list(mass):
        raise AssertionError(f"transport flow moves {balance}, not the masses {list(mass)}")
    nodes = {p for (x, y), a in flow.items() if a for p in (x, y)}
    for x in nodes:
        for y in nodes:
            if x != y and potential[x] - potential[y] > dist_int[x][y]:
                raise AssertionError(f"transport potential is not 1-Lipschitz on ({x},{y})")
    for (x, y), a in flow.items():
        if a and potential[x] - potential[y] != dist_int[x][y]:
            raise AssertionError(f"transport potential is not tight on arc ({x},{y})")
    if sum(m * potential[p] for p, m in enumerate(mass) if m) != cost:
        raise AssertionError("transport potential leaves a duality gap")
    return cost


def free_norm_primal(v: FreeVector) -> tuple[Fraction, tuple[TransportArc, ...]]:
    """Transportation-cost norm with an optimal decomposition.

    Flow-balance LP over all ordered pairs (the base included): minimize
    sum a_xy rho(x,y) subject to, at every non-base point p,
    sum_y (a_py - a_yp) = v_p, a >= 0.  ``free_norm`` computes the same
    value faster; this LP stays because ``lipcert free-norm`` prints its
    decomposition, which must not change (an optimal transport need not be
    unique, and the two routes can pick different ones), and because the
    tests use it as an independent cross-oracle.
    """
    space = v.space
    if v.is_zero():
        return _ZERO, ()
    pairs = list(space.ordered_pairs())
    rows = []
    for p in range(1, space.n):
        coeffs = [_ZERO] * len(pairs)
        for k, (x, y) in enumerate(pairs):
            if x == p:
                coeffs[k] += _ONE
            if y == p:
                coeffs[k] -= _ONE
        rows.append((coeffs, lp.EQ, v.coeffs[p - 1]))
    objective = [space.rho(x, y) for x, y in pairs]
    program = lp.make_program(objective, rows, bounds=[(_ZERO, None)] * len(pairs))
    out = lp.solve(program, "min")
    if out.status != "optimal":
        raise AssertionError(f"transport LP is always feasible, got {out.status}")
    decomposition = tuple(
        TransportArc(x, y, w)
        for (x, y), w in zip(pairs, out.primal)
        if w != 0
    )
    return out.value, decomposition


def difference_row(space: PointedMetricSpace, blocks, terms, rhs, den, rel) -> lp.Constraint:
    """The LP row sum e * s * (f_b(x) - f_b(y)) rel rhs, every entry over
    ``den``, for (b, x, y, e) in ``terms``, with s the space's
    ``dist_scale``.  This is the one column layout of the LPs over ``blocks``
    Lipschitz functionals: block b holds f_b(1), ..., f_b(n-1) in columns
    b*(n-1) onward, and f_b(0) = 0 is not a variable.  ``lp.Constraint``
    keeps the row in lowest terms."""
    nb = space.n - 1
    s = space.dist_scale
    nums = [0] * (blocks * nb + 1)
    for b, x, y, e in terms:
        if x != 0:
            nums[b * nb + x - 1] += e * s
        if y != 0:
            nums[b * nb + y - 1] -= e * s
    nums[-1] = rhs
    return lp.Constraint(nums, den, rel)


def block_values(space: PointedMetricSpace, primal, blocks: int) -> list[tuple[Fraction, ...]]:
    """Each block's point-indexed values f_b(0), ..., f_b(n-1), read from an
    LP solution in ``difference_row``'s layout; f_b(0) = 0 at the base."""
    nb = space.n - 1
    return [(_ZERO, *primal[b * nb:(b + 1) * nb]) for b in range(blocks)]


def lipschitz_ball_rows(space: PointedMetricSpace, blocks: int) -> list[lp.Constraint]:
    """LP rows +-(f(x) - f(y)) <= rho(x, y) over every pair, for each of
    ``blocks`` functionals: block, then pair, then the + row before the -
    row.  Each is the ``difference_row`` with rhs ``D[x][y]`` over s, from
    the space's ``integer_dist`` D over its ``dist_scale`` s; programs that
    reuse the returned constraints share those integers and their
    lowering."""
    dist = space.integer_dist
    s = space.dist_scale
    return [
        difference_row(space, blocks, [(b, x, y, e)], dist[x][y], s, lp.LE)
        for b in range(blocks)
        for x, y in space.pairs()
        for e in (1, -1)
    ]


def free_norm_dual(v: FreeVector) -> tuple[Fraction, LipFunctional]:
    """Dual route: maximize <v, f> over f with every pairwise quotient in
    [-1, 1] and f(0) = 0.  Agrees with the primal exactly (strong duality)."""
    space = v.space
    if v.is_zero():
        zero = tuple(_ZERO for _ in range(space.n))
        return _ZERO, LipFunctional(space, zero)
    program = lp.make_program(list(v.coeffs), lipschitz_ball_rows(space, 1))
    out = lp.solve(program, "max")
    if out.status != "optimal":
        raise AssertionError(f"dual LP is bounded by the cube constraints, got {out.status}")
    (values,) = block_values(space, out.primal, 1)
    return out.value, LipFunctional(space, values)


@dataclass(frozen=True)
class FreeOperator:
    """Linear map of the free space in delta coordinates ((n-1) x (n-1)):
    the integer ``rows`` over the positive ``den``, kept in lowest terms."""

    space: PointedMetricSpace
    rows: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self):
        _require_base_zero(self.space)
        nb = self.space.n - 1
        if len(self.rows) != nb or any(len(r) != nb for r in self.rows):
            raise ValueError(f"projection matrix must be {nb}x{nb}")
        if self.den <= 0:
            raise ValueError(f"operator denominator must be positive, got {self.den}")
        flat, den = reduce_over([a for r in self.rows for a in r], self.den)
        # frozen: store the reduced rows as the generated __init__ would
        object.__setattr__(self, "rows", tuple(flat[p * nb:(p + 1) * nb] for p in range(nb)))
        object.__setattr__(self, "den", den)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rationals, ``rows / den``."""
        return tuple(tuple(Fraction(a, self.den) for a in row) for row in self.rows)

    def apply(self, v: FreeVector) -> FreeVector:
        if v.space != self.space:
            raise ValueError("vector lives on a different space")
        coeffs, scale = lcm_scale(v.coeffs)
        den = self.den * scale
        return FreeVector(
            self.space,
            tuple(Fraction(sum(map(mul, row, coeffs)), den) for row in self.rows),
        )

    def compose(self, other: "FreeOperator") -> "FreeOperator":
        if other.space != self.space:
            raise ValueError("operators live on different spaces")
        cols = list(zip(*other.rows))
        return FreeOperator(
            self.space,
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows),
            self.den * other.den,
        )

    def rank(self) -> int:
        return lp.rank(self.rows)

    @staticmethod
    def identity(space: PointedMetricSpace) -> "FreeOperator":
        nb = space.n - 1
        rows = tuple(tuple(int(i == j) for j in range(nb)) for i in range(nb))
        return FreeOperator(space, rows, 1)

    @staticmethod
    def from_matrix(space: PointedMetricSpace, rows) -> "FreeOperator":
        """The operator of a matrix of ints, ``Fraction``s or 'p/q' strings;
        every entry goes through ``parse_rational``, so no float enters."""
        return FreeOperator(space, *lcm_scale_rows([[parse_rational(x) for x in r] for r in rows]))


def operator_norm(op: FreeOperator) -> tuple[Fraction, Molecule | None]:
    """max over molecules of ||P m||, with the first maximizing molecule.

    The free-space unit ball is the absolutely convex hull of the molecules,
    so the max over one sign representative per pair is the operator norm.
    With P = M / L over integers and D the space's ``integer_dist``,
    P m = (M col_x - M col_y) / (L rho(x, y)) for m = (delta_x - delta_y) /
    rho(x, y), so ||P m|| is the transport cost of that integer column
    difference over L * D[x][y].  The pairs (y, x) of ``space.pairs()`` are
    the canonical molecules (x, y) in their order; only the witness becomes
    a ``Molecule``.
    """
    rows, den = op.rows, op.den
    dist = op.space.integer_dist
    cols = [(0,) * len(rows)] + list(zip(*rows))  # point-indexed; delta_0 = 0
    best_cost, best_t = None, 1
    witness = None
    for y, x in op.space.pairs():
        cost = transport_cost(op.space, [a - b for a, b in zip(cols[x], cols[y])])
        t = den * dist[x][y]
        if best_cost is None or cost * best_t > best_cost * t:
            best_cost, best_t = cost, t
            witness = x, y
    if best_cost is None:
        return None, None
    return Fraction(best_cost, best_t), Molecule(op.space, *witness)


@dataclass(frozen=True)
class ComplementationCertificate:
    """The four exact checks for a norm-one projection onto an l1^m span."""

    space: PointedMetricSpace
    basis: tuple[FreeVector, ...]
    projection: FreeOperator
    idempotent_ok: bool
    fixes_basis: bool
    rank: int
    operator_norm_value: Fraction
    norm_witness: Molecule | None
    l1_report: "FreeL1Report"

    @property
    def rank_ok(self) -> bool:
        return self.rank == len(self.basis)

    @property
    def norm_ok(self) -> bool:
        return self.operator_norm_value == 1

    @property
    def valid(self) -> bool:
        return self.idempotent_ok and self.fixes_basis and self.rank_ok and self.norm_ok and self.l1_report.valid

    @property
    def status(self) -> str:
        return "valid" if self.valid else "invalid"


def verify_one_complemented(space, basis, projection) -> ComplementationCertificate:
    """Check (i) P.P = P, (ii) P u_i = u_i and rank(P) = m, (iii) ||P|| = 1,
    (iv) the basis spans an isometric l1^m, all exactly.  Failures are
    reported in the certificate, not raised."""
    from .certify import l1_isometry_free

    basis = tuple(basis)
    if not basis:
        raise ValueError("empty basis")
    for u in basis:
        if u.space != space:
            raise ValueError("basis vector lives on a different space")
    if projection.space != space:
        raise ValueError("projection lives on a different space")
    square = projection.compose(projection)
    idempotent_ok = (square.rows, square.den) == (projection.rows, projection.den)
    # P u = u is M c = L c on integers, for P = M / L and u = c / d lcm-scaled
    scaled = [lcm_scale(u.coeffs)[0] for u in basis]
    fixes_basis = all(sum(map(mul, row, c)) == projection.den * cp
                      for c in scaled for row, cp in zip(projection.rows, c))
    rank = projection.rank()
    norm_value, norm_witness = operator_norm(projection)
    report = l1_isometry_free(basis)
    return ComplementationCertificate(
        space=space,
        basis=basis,
        projection=projection,
        idempotent_ok=idempotent_ok,
        fixes_basis=fixes_basis,
        rank=rank,
        operator_norm_value=norm_value,
        norm_witness=norm_witness,
        l1_report=report,
    )


@dataclass(frozen=True)
class ComplementationSearch:
    """Outcome of the candidate-tuple search; exhaustion is explicit data,
    and the certificate is None when the search found none."""

    space: PointedMetricSpace
    m: int
    certificate: ComplementationCertificate | None
    tuples_tried: int
    tuples_l1_valid: int
    budget_exhausted: bool

    @property
    def found(self) -> bool:
        return self.certificate is not None


def molecules_span_l1(molecules) -> bool:
    """Do the molecules m_i = (delta_x_i - delta_y_i)/rho_i span an isometric
    l1^m?  Each has norm 1, so by the corner argument it suffices that every
    sign combination sum_i eps_i m_i has norm m.  Under Lip_0 = F(M)* that
    holds iff some 1-Lipschitz f has f(x_i) - f(y_i) = eps_i rho_i for all i.
    The sign classes are a binary tree of closures (``closure_add``) from
    the metric, built a level at a time: m_0 takes only +, and a sign of
    m_i = (x, y) is the arc x -> y (+) or y -> x (-) of weight -rho_i,
    admitted by one comparison; the last molecule is only tested."""
    dist = molecules[0].space.integer_dist
    closures = [dist]
    for i, mol in enumerate(molecules):
        rho = dist[mol.x][mol.y]
        arcs = ((mol.x, mol.y), (mol.y, mol.x))[: 2 if i else 1]
        if any(c[v][u] != rho for c in closures for u, v in arcs):
            return False
        if i + 1 < len(molecules):
            closures = [closure_add(c, u, v, -rho) for c in closures for u, v in arcs]
    return True


def search_one_complemented(space, m, tuple_budget=None) -> ComplementationSearch:
    """Search canonical-molecule m-tuples (lexicographic order) for a
    1-complemented isometric l1^m subspace.

    Molecules are the extreme points of the free ball.  Tuples whose span
    is not an isometric l1^m are dropped on shortest-path closures
    (``molecules_span_l1``).  For each surviving tuple an exact feasibility
    LP looks for biorthogonal functionals g_j with
    ||sum_j g_j(mol) u_j|| <= 1 for every molecule; all share the ball rows,
    built at the first such tuple.  Success returns P(v) = sum_j g_j(v) u_j,
    verified; otherwise the search reports exhaustion with counts.
    """
    _require_base_zero(space)
    if m < 1:
        raise ValueError("need m >= 1")
    if space.n < 2 * m:
        raise ValueError(f"need at least {2 * m} points for m = {m}, got {space.n}")
    tried = 0
    l1_valid = 0
    ball = None
    for molecules in combinations(canonical_molecules(space), m):
        if tuple_budget is not None and tried >= tuple_budget:
            return ComplementationSearch(space, m, None, tried, l1_valid, True)
        tried += 1
        if not molecules_span_l1(molecules):
            continue
        l1_valid += 1
        if ball is None:
            ball = lipschitz_ball_rows(space, m)
        g = _biorthogonal_functionals(space, molecules, ball)
        if g is None:
            continue
        vectors = tuple(mol.as_free_vector() for mol in molecules)
        certificate = verify_one_complemented(space, vectors, _projection_from(space, vectors, g))
        if not certificate.valid:
            raise AssertionError("feasible biorthogonal system must verify")
        return ComplementationSearch(space, m, certificate, tried, l1_valid, False)
    return ComplementationSearch(space, m, None, tried, l1_valid, False)


def _projection_from(space, basis, g_point_values):
    """P[p][q] = sum_j u_j[p] g_j(q+1); g_point_values[j] is point-indexed
    (length n, zero at the base).  The product is taken on the lcm-scaled
    basis and g, over the product of their denominators."""
    u_int, u_den = lcm_scale_rows([u.coeffs for u in basis])
    g_int, g_den = lcm_scale_rows([g[1:] for g in g_point_values])
    g_cols = list(zip(*g_int))
    rows = tuple(tuple(sum(map(mul, u_p, g_q)) for g_q in g_cols) for u_p in zip(*u_int))
    return FreeOperator(space, rows, u_den * g_den)


def _biorthogonal_functionals(space, molecules, ball):
    """Feasibility for functionals g_j biorthogonal to the molecules, with
    ||P mol|| <= 1 for every molecule; returns point-indexed g value tuples,
    or None if infeasible.  ``ball`` is ``lipschitz_ball_rows(space, m)``.

    The molecules passed the l1 filter, so ||sum_j c_j u_j|| = sum_j |c_j|
    exactly, and ||P mol|| <= 1 are the facets sum_j s_j g_j(mol) <= 1 of
    per-molecule l1 coefficient balls.  The master starts from the
    biorthogonality equalities g_j(x_i) - g_j(y_i) = delta_ij rho(x_i, y_i)
    plus the 1-Lipschitz ball rows of each g_j; a molecule with
    sum_j |g_j(mol)| > 1 adds the facet s_j = sign(g_j(mol)) as a cut; the
    molecules are walked as the pairs (y, x) of ``space.pairs()``.  Each
    cut removes the current candidate and the facet family is finite, so the
    loop terminates.  Every row is a ``difference_row`` over an entry of the
    space's ``integer_dist`` D or its ``dist_scale``, so no rational is
    scaled, and is kept across rounds.  The loop holds one ``lp.Resume``
    and hands it to ``lp.feasible`` with each round's rows, so each round
    after the first resumes the last round's pivot path up to the first
    pivot a cut changes; its outcome is a cold solve's, and ``lp.feasible``
    re-checks it against every row.
    Separation uses this l1 identity; the final projection is still checked
    by exact transport norms in ``verify_one_complemented``.

    For m = 2 the master is always feasible.  The filter gives 1-Lipschitz
    f++ and f+- with f(x_1) - f(y_1) = rho_1 and f(x_2) - f(y_2) = +rho_2
    and -rho_2.  Then g_1 = (f++ + f+-)/2 and g_2 = (f++ - f+-)/2 meet the
    biorthogonality equalities, and for every pair of points, with
    a = df++ and b = df+- their differences there,
    |dg_1| + |dg_2| = (|a + b| + |a - b|)/2 = max(|a|, |b|) <= rho.  So
    sum_j |g_j(mol)| <= 1 for every molecule: (g_1, g_2) meets the ball rows
    and every facet cut, and the loop ends with a feasible master.  The
    closed form is not what the loop returns; it returns its LP vertex.
    """
    m = len(molecules)
    s = space.dist_scale
    dist = space.integer_dist
    rows = []
    for i, mol in enumerate(molecules):
        rho = dist[mol.x][mol.y]
        for j in range(m):
            terms = [(j, mol.x, mol.y, 1)]
            rows.append(difference_row(space, m, terms, int(i == j) * rho, rho, lp.EQ))
    rows.extend(ball)
    pairs = list(space.pairs())
    n_vars = m * (space.n - 1)
    resume = lp.Resume()

    while True:
        outcome = lp.feasible(rows, n_vars, resume=resume)
        if outcome.status != "optimal":
            return None
        g_values = block_values(space, outcome.primal, m)
        # g_j(mol) = s (G_j[x] - G_j[y]) / (L D[x][y]), G = g * L integers
        g_int, g_den = lcm_scale_rows(g_values)
        cuts = []
        for y, x in pairs:
            c = [g[x] - g[y] for g in g_int]
            if s * sum(abs(cj) for cj in c) <= g_den * dist[x][y]:
                continue
            # sum_j sign(c_j) g_j(mol) <= 1, over D[x][y]
            terms = [(j, x, y, 1 if cj >= 0 else -1) for j, cj in enumerate(c)]
            cuts.append(difference_row(space, m, terms, dist[x][y], dist[x][y], lp.LE))
        if not cuts:
            return g_values
        rows.extend(cuts)
