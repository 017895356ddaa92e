"""Lipschitz-free space over a finite pointed metric space.

The free norm is the transportation cost: the minimum of
sum |a_xy| rho(x,y) over representations v = sum a_xy (delta_x - delta_y),
computed by an exact flow LP; the dual route maximizes <v, f> over the
1-Lipschitz ball and must agree exactly.  Operator norms reduce to molecule
enumeration because the unit ball is the absolutely convex hull of the
molecules.  ``search_one_complemented`` looks for 1-complemented isometric
l1^m subspaces with molecule bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg, lp
from .certify import sign_class_representatives
from .lipschitz import LipFunctional, differences_feasible, integer_distances
from .metric import PointedMetricSpace

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
        c = Fraction(c)
        return FreeVector(self.space, tuple(c * v for v in self.coeffs))


def free_vector(space: PointedMetricSpace, coeffs) -> FreeVector:
    return FreeVector(space, tuple(Fraction(c) for c in coeffs))


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
        rho = self.space.rho(self.x, self.y)
        return (delta(self.space, self.x) - delta(self.space, self.y)).scale(1 / rho)


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


def free_norm_primal(v: FreeVector) -> tuple[Fraction, tuple[TransportArc, ...]]:
    """Transportation-cost norm with an optimal decomposition.

    Flow-balance LP over all ordered pairs (the base included): minimize
    sum a_xy rho(x,y) subject to, at every non-base point p,
    sum_y (a_py - a_yp) = v_p, a >= 0.
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


def lipschitz_ball_rows(space: PointedMetricSpace, blocks: int):
    """LP rows +-(f(x) - f(y)) <= rho(x, y) over every pair, for each of
    ``blocks`` functionals; block b holds f_b(1), ..., f_b(n-1) in columns
    b*(n-1) onward (f_b(0) = 0 is not a variable)."""
    nb = space.n - 1
    rows = []
    for b in range(blocks):
        for x, y in space.pairs():
            coeffs = [_ZERO] * (blocks * nb)
            if x != 0:
                coeffs[b * nb + x - 1] += _ONE
            if y != 0:
                coeffs[b * nb + y - 1] -= _ONE
            rho = space.rho(x, y)
            rows.append((coeffs, lp.LE, rho))
            rows.append(([-c for c in coeffs], lp.LE, rho))
    return rows


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
    f = LipFunctional(space, tuple([_ZERO] + list(out.primal)))
    return out.value, f


@dataclass(frozen=True)
class FreeOperator:
    """Linear map of the free space in delta coordinates ((n-1) x (n-1))."""

    space: PointedMetricSpace
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _require_base_zero(self.space)
        nb = self.space.n - 1
        if len(self.matrix) != nb or any(len(r) != nb for r in self.matrix):
            raise ValueError(f"projection matrix must be {nb}x{nb}")

    def apply(self, v: FreeVector) -> FreeVector:
        if v.space != self.space:
            raise ValueError("vector lives on a different space")
        return FreeVector(self.space, tuple(linalg.mat_vec(self.matrix, list(v.coeffs))))

    def compose(self, other: "FreeOperator") -> "FreeOperator":
        if other.space != self.space:
            raise ValueError("operators live on different spaces")
        prod = linalg.mat_mul(self.matrix, other.matrix)
        return FreeOperator(self.space, tuple(tuple(r) for r in prod))

    def rank(self) -> int:
        return linalg.rank(self.matrix)

    @staticmethod
    def identity(space: PointedMetricSpace) -> "FreeOperator":
        return FreeOperator(space, tuple(tuple(r) for r in linalg.identity(space.n - 1)))

    @staticmethod
    def from_matrix(space: PointedMetricSpace, rows) -> "FreeOperator":
        return FreeOperator(space, tuple(tuple(Fraction(x) for x in r) for r in rows))


def operator_norm(op: FreeOperator) -> tuple[Fraction, Molecule | None]:
    """max over molecules of ||P m||, with the first maximizing molecule.

    The free-space unit ball is the absolutely convex hull of the molecules,
    so the max over one sign representative per pair is the operator norm.
    """
    best = None
    witness = None
    for mol in canonical_molecules(op.space):
        value, _ = free_norm_primal(op.apply(mol.as_free_vector()))
        if best is None or value > best:
            best = value
            witness = mol
    return best, witness


@dataclass(frozen=True)
class ComplementationCertificate:
    """The four exact checks for a norm-one projection onto an l1^m span."""

    space: PointedMetricSpace
    basis: tuple[FreeVector, ...]
    projection: FreeOperator
    idempotent_ok: bool
    fixes_basis: bool
    rank: int
    rank_ok: bool
    operator_norm_value: Fraction
    norm_witness: Molecule | None
    norm_ok: bool
    l1_report: "FreeL1Report"

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
    m = len(basis)
    idempotent_ok = projection.compose(projection).matrix == projection.matrix
    fixes_basis = all(projection.apply(u) == u for u in basis)
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
        rank_ok=rank == m,
        operator_norm_value=norm_value,
        norm_witness=norm_witness,
        norm_ok=norm_value == 1,
        l1_report=report,
    )


@dataclass(frozen=True)
class ComplementationSearch:
    """Outcome of the candidate-tuple search; exhaustion is explicit data."""

    space: PointedMetricSpace
    m: int
    found: bool
    basis: tuple[FreeVector, ...] | None
    projection: FreeOperator | None
    certificate: ComplementationCertificate | None
    tuples_tried: int
    tuples_l1_valid: int
    budget_exhausted: bool


def molecules_span_l1(dist_int, molecules) -> bool:
    """Do the molecules m_i = (delta_x_i - delta_y_i)/rho_i span an isometric
    l1^m?  Each has norm 1, so by the corner argument it suffices that every
    sign combination sum_i eps_i m_i has norm m.  Under Lip_0 = F(M)* that
    holds iff some 1-Lipschitz f has f(x_i) - f(y_i) = eps_i rho_i for all i:
    one difference-constraint check per sign class."""
    return all(
        differences_feasible(
            dist_int,
            [(mol.x, mol.y, e * dist_int[mol.x][mol.y]) for e, mol in zip(eps, molecules)],
        )
        for eps in sign_class_representatives(len(molecules))
    )


def search_one_complemented(space, m, tuple_budget=None) -> ComplementationSearch:
    """Search canonical-molecule m-tuples (lexicographic order) for a
    1-complemented isometric l1^m subspace.

    Molecules are the extreme points of the free ball.  Tuples whose span
    is not an isometric l1^m are dropped by difference-constraint feasibility
    (``molecules_span_l1``).  For each surviving tuple an exact feasibility
    LP looks for biorthogonal functionals g_j with
    ||sum_j g_j(mol) u_j|| <= 1 for every molecule.  Success returns
    P(v) = sum_j g_j(v) u_j, verified; otherwise the search reports
    exhaustion with counts.
    """
    _require_base_zero(space)
    if m < 1:
        raise ValueError("need m >= 1")
    if space.n < 2 * m:
        raise ValueError(f"need at least {2 * m} points for m = {m}, got {space.n}")
    dist_int = integer_distances(space)
    tried = 0
    l1_valid = 0
    for molecules in combinations(canonical_molecules(space), m):
        if tuple_budget is not None and tried >= tuple_budget:
            return ComplementationSearch(
                space, m, False, None, None, None, tried, l1_valid, True
            )
        tried += 1
        if not molecules_span_l1(dist_int, molecules):
            continue
        l1_valid += 1
        vectors = tuple(mol.as_free_vector() for mol in molecules)
        g = _biorthogonal_functionals(space, vectors)
        if g is None:
            continue
        projection = _projection_from(space, vectors, g)
        certificate = verify_one_complemented(space, vectors, projection)
        if not certificate.valid:
            raise AssertionError("feasible biorthogonal system must verify")
        return ComplementationSearch(
            space, m, True, vectors, projection, certificate, tried, l1_valid, False
        )
    return ComplementationSearch(space, m, False, None, None, None, tried, l1_valid, False)


def _projection_from(space, basis, g_point_values):
    """P[p][q] = sum_j u_j[p] g_j(q+1); g_point_values[j] is point-indexed
    (length n, zero at the base)."""
    nb = space.n - 1
    m = len(basis)
    rows = [
        tuple(
            sum(basis[j].coeffs[p] * g_point_values[j][q + 1] for j in range(m))
            for q in range(nb)
        )
        for p in range(nb)
    ]
    return FreeOperator(space, tuple(rows))


def _biorthogonal_functionals(space, basis):
    """Feasibility for biorthogonal g_j's with ||P mol|| <= 1 for every
    molecule; returns point-indexed g value lists, or None if infeasible.

    The basis passed the l1 filter, so ||sum_j c_j u_j|| = sum_j |c_j|
    exactly, and ||P mol|| <= 1 are the facets sum_j s_j g_j(mol) <= 1 of
    per-molecule l1 coefficient balls.  The master starts from the
    biorthogonality equalities plus the 1-Lipschitz cube rows of each g_j;
    a molecule with sum_j |g_j(mol)| > 1 adds the facet s_j = sign(g_j(mol))
    as a cut.  Each cut removes the current candidate and the facet family is
    finite, so the loop terminates.  Separation uses this l1 identity; the
    final projection is still checked by transport LPs in
    ``verify_one_complemented``.
    """
    n = space.n
    nb = n - 1
    m = len(basis)
    mols = canonical_molecules(space)
    n_g = m * nb

    def g_col(j, p):
        # column of variable g_j(p); p is a non-base point index
        return j * nb + (p - 1)

    rows = []
    for i in range(m):
        for j in range(m):
            coeffs = [_ZERO] * n_g
            for p in range(1, n):
                c = basis[i].coeffs[p - 1]
                if c:
                    coeffs[g_col(j, p)] = c
            rows.append((coeffs, lp.EQ, _ONE if i == j else _ZERO))
    rows.extend(lipschitz_ball_rows(space, m))

    while True:
        outcome = lp.feasible(rows, n_vars=n_g)
        if outcome.status != "optimal":
            return None
        g_values = [
            [_ZERO] + [outcome.primal[g_col(j, p)] for p in range(1, n)]
            for j in range(m)
        ]
        cuts = []
        for mol in mols:
            rho_m = space.rho(mol.x, mol.y)
            c = [(g[mol.x] - g[mol.y]) / rho_m for g in g_values]
            if sum(abs(cj) for cj in c) <= 1:
                continue
            coeffs = [_ZERO] * n_g
            for j, cj in enumerate(c):
                sj = _ONE if cj >= 0 else -_ONE
                if mol.x != 0:
                    coeffs[g_col(j, mol.x)] += sj / rho_m
                if mol.y != 0:
                    coeffs[g_col(j, mol.y)] -= sj / rho_m
            cuts.append((coeffs, lp.LE, _ONE))
        if not cuts:
            return g_values
        rows.extend(cuts)
