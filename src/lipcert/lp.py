"""Exact rational linear programming with primal and dual certificates.

Two-phase dense simplex over ``Fraction``.  Pricing is Dantzig's rule until a
run of degenerate pivots is detected, after which the solve switches to
Bland's rule permanently, which guarantees termination on every input.  Every
optimal outcome carries the pair (primal, dual) as an exact
complementary-slackness certificate; infeasible outcomes carry a Farkas
certificate.  Both are re-checked against the original program before being
returned; the re-check derives the reduced costs ``c - A^T y`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

LE = "<="
EQ = "="
GE = ">="

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 40


class LpFormatError(ValueError):
    """Malformed program: ragged rows, bad relation, bad sense."""


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """min/max ``objective . x`` subject to rows and per-variable bounds.

    Bounds default to free variables; entries are (lower, upper) with None
    for unbounded sides.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[Fraction | None, Fraction | None], ...]

    @property
    def n_vars(self) -> int:
        return len(self.objective)


def make_program(objective, constraints, bounds=None) -> LinearProgram:
    """Normalize raw lists into a validated LinearProgram."""
    obj = tuple(Fraction(c) for c in objective)
    n = len(obj)
    rows = []
    for k, (coeffs, rel, rhs) in enumerate(constraints):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != n:
            raise LpFormatError(f"constraint {k} has {len(coeffs)} coefficients, expected {n}")
        if rel not in (LE, EQ, GE):
            raise LpFormatError(f"constraint {k} has unknown relation {rel!r}")
        rows.append(Constraint(coeffs, rel, Fraction(rhs)))
    if bounds is None:
        bnds = tuple((None, None) for _ in range(n))
    else:
        if len(bounds) != n:
            raise LpFormatError(f"{len(bounds)} bounds for {n} variables")
        bnds = tuple(
            (None if lo is None else Fraction(lo), None if hi is None else Fraction(hi))
            for lo, hi in bounds
        )
    return LinearProgram(obj, tuple(rows), bnds)


@dataclass
class LpOutcome:
    """Solver result with exact certificates.

    optimal:    value, primal and dual (one multiplier per constraint) form a
                zero-gap certificate; the reduced costs ``c - A^T dual`` are
                derived by ``certificate_violations``, not stored.
    infeasible: farkas holds multipliers per constraint certifying emptiness.
    unbounded:  primal is a feasible point, ray an improving direction.
    """

    status: str
    value: Fraction | None = None
    primal: list[Fraction] | None = None
    dual: list[Fraction] | None = None
    farkas: list[Fraction] | None = None
    ray: list[Fraction] | None = None
    pivots: int = 0


class _Kernel:
    """Standard-form simplex state: min cost.x, rows.x = rhs, x >= 0, rhs >= 0."""

    def __init__(self, rows, rhs, n_cols):
        self.rows = rows          # list of row lists, mutated in place
        self.rhs = rhs
        self.n_cols = n_cols
        self.basis: list[int] = []
        self.banned: set[int] = set()
        self.pivots = 0

    def _pivot(self, r, t):
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        piv = prow[t]
        if piv != 1:
            inv = _ONE / piv
            rows[r] = prow = [x * inv for x in prow]
            rhs[r] = rhs[r] * inv
        rr = rhs[r]
        for i, row in enumerate(rows):
            if i == r:
                continue
            factor = row[t]
            if factor:
                rows[i] = [a - factor * b if b else a for a, b in zip(row, prow)]
                if rr:
                    rhs[i] -= factor * rr
        self.basis[r] = t
        self.pivots += 1

    def optimize(self, cost):
        """Run simplex for ``cost`` from the current basis.

        Returns ('optimal', reduced) or ('unbounded', entering_col, reduced),
        where ``reduced`` is the reduced-cost row against the original columns.
        """
        rows, rhs, basis = self.rows, self.rhs, self.basis
        m = len(rows)
        reduced = list(cost)
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                row = rows[i]
                reduced = [d - cb * a if a else d for d, a in zip(reduced, row)]
        banned = self.banned
        bland = False
        stall = 0
        while True:
            t = -1
            if bland:
                for j, d in enumerate(reduced):
                    if d < 0 and j not in banned:
                        t = j
                        break
            else:
                best = _ZERO
                for j, d in enumerate(reduced):
                    if d < best and j not in banned:
                        best = d
                        t = j
            if t < 0:
                return "optimal", reduced
            leave = -1
            theta = None
            for i in range(m):
                a = rows[i][t]
                if a > 0:
                    ratio = rhs[i] / a
                    if theta is None or ratio < theta or (
                        ratio == theta and basis[i] < basis[leave]
                    ):
                        theta = ratio
                        leave = i
            if leave < 0:
                return "unbounded", t, reduced
            degenerate = theta == 0
            rt = reduced[t]
            self._pivot(leave, t)
            prow = rows[leave]
            reduced = [d - rt * a if a else d for d, a in zip(reduced, prow)]
            reduced[t] = _ZERO
            if degenerate:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0


class _BoundConflict(Exception):
    def __init__(self, var, lo, hi):
        self.var = var
        super().__init__(f"variable {var} has lower bound {lo} > upper bound {hi}")


class _Lowering:
    """Original program -> standard form, with maps for pulling answers back.

    The tableau rows are built variable by variable: a free variable becomes
    the column pair ``(a, -a)``, a lower-bounded one the column ``a`` shifted
    by its bound, an upper-bounded one the column ``-a`` reflected at it.  A
    boxed variable is shifted and adds a row ``x <= hi - lo`` after the
    original rows.
    """

    def __init__(self, lp: LinearProgram, minimize_obj):
        cons = lp.constraints
        # var_map[j] = (plus, minus, offset): x_j = offset + std[plus] - std[minus],
        # where -1 marks an absent column
        self.var_map: list[tuple[int, int, Fraction]] = []
        self.cost: list[Fraction] = []
        rows: list[list[Fraction]] = [[] for _ in cons]
        rhs = [c.rhs for c in cons]
        box_rows: list[tuple[int, Fraction]] = []  # (std col, hi - lo)

        for j, (lo, hi) in enumerate(lp.bounds):
            cj = minimize_obj[j]
            col = len(self.cost)
            if lo is None and hi is None:
                for row, c in zip(rows, cons):
                    row += (c.coeffs[j], -c.coeffs[j])
                self.cost += (cj, -cj)
                self.var_map.append((col, col + 1, _ZERO))
                continue
            if lo is None:
                sign, offset = -_ONE, hi
                self.var_map.append((-1, col, hi))
            else:
                if hi is not None:
                    if lo > hi:
                        raise _BoundConflict(j, lo, hi)
                    box_rows.append((col, hi - lo))
                sign, offset = _ONE, lo
                self.var_map.append((col, -1, lo))
            self.cost.append(sign * cj)
            for i, c in enumerate(cons):
                a = c.coeffs[j]
                rows[i].append(sign * a)
                if offset:
                    rhs[i] -= a * offset

        self.n_struct = len(self.cost)
        for col, width in box_rows:
            rows.append([_ONE if k == col else _ZERO for k in range(self.n_struct)])
            rhs.append(width)
        self.rows = rows
        self.rhs0 = rhs
        self.n_rows = len(rows)
        self.rel = [c.rel for c in cons] + [LE] * len(box_rows)

    def build_kernel(self):
        """Assemble the phase-1 tableau: (kernel, row signs, slack/art columns)."""
        n_rows = self.n_rows
        sign = [_ONE] * n_rows
        rows = self.rows
        rhs = list(self.rhs0)
        slack_col = [-1] * n_rows
        for i in range(n_rows):
            if self.rel[i] == LE:
                for k in range(n_rows):
                    rows[k].append(_ONE if k == i else _ZERO)
                slack_col[i] = len(rows[0]) - 1
            elif self.rel[i] == GE:
                for k in range(n_rows):
                    rows[k].append(-_ONE if k == i else _ZERO)
                slack_col[i] = len(rows[0]) - 1
        for i in range(n_rows):
            if rhs[i] < 0:
                sign[i] = -_ONE
                rows[i] = [-x for x in rows[i]]
                rhs[i] = -rhs[i]
        art_col = [-1] * n_rows
        basis = []
        for i in range(n_rows):
            sc = slack_col[i]
            if sc >= 0 and rows[i][sc] == 1:
                basis.append(sc)
            else:
                for k in range(n_rows):
                    rows[k].append(_ONE if k == i else _ZERO)
                art_col[i] = len(rows[0]) - 1
                basis.append(art_col[i])
        n_cols = len(rows[0]) if rows else self.n_struct
        kern = _Kernel(rows, rhs, n_cols)
        kern.basis = basis
        return kern, sign, slack_col, art_col


def solve(lp: LinearProgram, sense: str = "min") -> LpOutcome:
    """Solve exactly; the returned certificate is re-verified before return."""
    if sense not in ("min", "max"):
        raise LpFormatError(f"sense must be 'min' or 'max', got {sense!r}")
    flip = sense == "max"
    minimize_obj = [-c for c in lp.objective] if flip else list(lp.objective)

    try:
        low = _Lowering(lp, minimize_obj)
    except _BoundConflict:
        return LpOutcome(status="infeasible")

    kern, sign, slack_col, art_col = low.build_kernel()
    n_rows = low.n_rows
    n_total = kern.n_cols

    # Phase 1: minimize the artificial sum.
    if any(c >= 0 for c in art_col):
        phase1_cost = [_ZERO] * n_total
        for i in range(n_rows):
            if art_col[i] >= 0:
                phase1_cost[art_col[i]] = _ONE
        status1 = kern.optimize(phase1_cost)
        if status1[0] != "optimal":
            raise AssertionError("phase 1 cannot be unbounded")
        # an artificial may sit basic in another row than its own after pivots
        art_set = {c for c in art_col if c >= 0}
        art_vals = sum(kern.rhs[i] for i in range(n_rows) if kern.basis[i] in art_set)
        if art_vals > 0:
            y = _recover_duals(kern, status1[1], phase1_cost, sign, slack_col, art_col, n_rows)
            farkas = [y[i] for i in range(len(lp.constraints))]
            out = LpOutcome(status="infeasible", farkas=farkas, pivots=kern.pivots)
            _assert_certificate(lp, sense, out)
            return out
        _drive_out_artificials(kern, art_set)
        kern.banned |= art_set

    phase2_cost = low.cost + [_ZERO] * (n_total - low.n_struct)
    result = kern.optimize(phase2_cost)

    if result[0] == "unbounded":
        t = result[1]
        out = LpOutcome(
            status="unbounded",
            primal=_extract_primal(low, kern),
            ray=_extract_ray(low, kern, t),
            pivots=kern.pivots,
        )
        _assert_certificate(lp, sense, out)
        return out

    primal = _extract_primal(low, kern)
    y = _recover_duals(kern, result[1], phase2_cost, sign, slack_col, art_col, n_rows)
    dual = [y[i] for i in range(len(lp.constraints))]
    if flip:
        dual = [-v for v in dual]
    value = sum(c * x for c, x in zip(lp.objective, primal))
    out = LpOutcome(status="optimal", value=value, primal=primal, dual=dual, pivots=kern.pivots)
    _assert_certificate(lp, sense, out)
    return out


def feasible(constraints, n_vars=None, bounds=None) -> LpOutcome:
    """Feasibility check: witness vector or Farkas infeasibility certificate."""
    rows = list(constraints)
    if n_vars is None:
        if not rows:
            raise LpFormatError("cannot infer variable count from zero constraints")
        n_vars = len(rows[0][0])
    lp = make_program([_ZERO] * n_vars, rows, bounds)
    return solve(lp, "min")


def _drive_out_artificials(kern, art_set):
    """Pivot zero-valued basic artificials onto real columns.

    Rows whose tableau row is zero on every real column are redundant; their
    artificial stays basic at zero and is banned from re-entering, which keeps
    it harmless (no real entering column can change it).
    """
    for i in range(len(kern.rows)):
        if kern.basis[i] in art_set:
            row = kern.rows[i]
            for j in range(kern.n_cols):
                if j not in art_set and row[j] != 0:
                    kern._pivot(i, j)
                    break


def _recover_duals(kern, reduced, cost, sign, slack_col, art_col, n_rows):
    """Duals of the original-orientation rows.

    Each row keeps a single-entry recovery column (its artificial, else its
    slack chosen as initial basis), which is +e_i in the sign-normalized
    system; reduced[col] = cost[col] - yhat_i then yields yhat, and the
    row-flip sign maps back.
    """
    y = []
    for i in range(n_rows):
        col = art_col[i] if art_col[i] >= 0 else slack_col[i]
        yhat = cost[col] - reduced[col]
        y.append(sign[i] * yhat)
    return y


def _pull_back(low, v_std, offsets):
    """Original-variable vector of a standard-form vector: a point when
    ``offsets`` adds each variable's bound shift, a direction when not."""
    out = []
    for plus, minus, offset in low.var_map:
        v = offset if offsets else _ZERO
        if plus >= 0:
            v += v_std[plus]
        if minus >= 0:
            v -= v_std[minus]
        out.append(v)
    return out


def _extract_primal(low, kern):
    x_std = [_ZERO] * kern.n_cols
    for i, b in enumerate(kern.basis):
        x_std[b] = kern.rhs[i]
    return _pull_back(low, x_std, offsets=True)


def _extract_ray(low, kern, t):
    d_std = [_ZERO] * kern.n_cols
    d_std[t] = _ONE
    for i, b in enumerate(kern.basis):
        a = kern.rows[i][t]
        if a:
            d_std[b] = -a
    return _pull_back(low, d_std, offsets=False)


def _dot(coeffs, x):
    """Exact dot product, skipping zero terms."""
    return sum(a * b for a, b in zip(coeffs, x) if a and b)


def _transpose_times(rows, y, n_vars):
    """``A^T y`` over the constraint rows, skipping zero multipliers and
    zero coefficients."""
    out = [_ZERO] * n_vars
    for con, yi in zip(rows, y):
        if yi:
            for j, a in enumerate(con.coeffs):
                if a:
                    out[j] += yi * a
    return out


def certificate_violations(lp: LinearProgram, sense: str, out: LpOutcome) -> list[str]:
    """Exact re-substitution check of an outcome against the original program.

    Empty list iff the outcome's certificates all hold.  For 'optimal' this
    verifies primal feasibility, dual sign feasibility, complementary
    slackness on rows and on bounds (through the reduced costs ``c - A^T y``
    derived here), the stored value and the zero duality gap, all as
    rational equalities.
    """
    bad: list[str] = []
    rows = lp.constraints
    if out.status == "optimal":
        x = out.primal
        y = out.dual
        if x is None or y is None or out.value is None:
            return ["optimal outcome missing primal/dual/value"]
        # orient everything as a minimization
        c = list(lp.objective) if sense == "min" else [-v for v in lp.objective]
        yy = list(y) if sense == "min" else [-v for v in y]
        value = out.value if sense == "min" else -out.value
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and x[j] < lo:
                bad.append(f"x[{j}] = {x[j]} below lower bound {lo}")
            if hi is not None and x[j] > hi:
                bad.append(f"x[{j}] = {x[j]} above upper bound {hi}")
        for i, con in enumerate(rows):
            lhs = _dot(con.coeffs, x)
            if con.rel == LE and lhs > con.rhs:
                bad.append(f"row {i}: {lhs} > {con.rhs}")
            if con.rel == GE and lhs < con.rhs:
                bad.append(f"row {i}: {lhs} < {con.rhs}")
            if con.rel == EQ and lhs != con.rhs:
                bad.append(f"row {i}: {lhs} != {con.rhs}")
            if con.rel == LE and yy[i] > 0:
                bad.append(f"dual[{i}] = {yy[i]} > 0 on a <= row")
            if con.rel == GE and yy[i] < 0:
                bad.append(f"dual[{i}] = {yy[i]} < 0 on a >= row")
            if yy[i] * (lhs - con.rhs) != 0:
                bad.append(f"complementary slackness fails on row {i}")
        dual_obj = _dot(yy, [con.rhs for con in rows])
        aty = _transpose_times(rows, yy, lp.n_vars)
        for j, (lo, hi) in enumerate(lp.bounds):
            r = c[j] - aty[j]
            if r > 0:
                if lo is None:
                    bad.append(f"reduced cost {j} > 0 with no lower bound")
                elif x[j] != lo:
                    bad.append(f"reduced cost {j} > 0 but x[{j}] not at lower bound")
                else:
                    dual_obj += r * lo
            elif r < 0:
                if hi is None:
                    bad.append(f"reduced cost {j} < 0 with no upper bound")
                elif x[j] != hi:
                    bad.append(f"reduced cost {j} < 0 but x[{j}] not at upper bound")
                else:
                    dual_obj += r * hi
        obj = _dot(c, x)
        if value != obj:
            bad.append(f"stored value {value} != objective {obj}")
        if not bad and obj != dual_obj:
            bad.append(f"duality gap: primal {obj} != dual {dual_obj}")
    elif out.status == "infeasible":
        if out.farkas is None:
            return []  # bound-conflict infeasibility carries no row certificate
        lam = out.farkas
        q = _transpose_times(rows, lam, lp.n_vars)
        beta = _dot(lam, [con.rhs for con in rows])
        for i, con in enumerate(rows):
            if con.rel == LE and lam[i] > 0:
                bad.append(f"farkas[{i}] > 0 on a <= row")
            if con.rel == GE and lam[i] < 0:
                bad.append(f"farkas[{i}] < 0 on a >= row")
        best = _ZERO
        for j, (lo, hi) in enumerate(lp.bounds):
            if q[j] > 0:
                if hi is None:
                    bad.append(f"farkas combination needs upper bound on x[{j}]")
                else:
                    best += q[j] * hi
            elif q[j] < 0:
                if lo is None:
                    bad.append(f"farkas combination needs lower bound on x[{j}]")
                else:
                    best += q[j] * lo
        if not bad and best >= beta:
            bad.append(f"farkas bound {best} >= rhs combination {beta}")
    elif out.status == "unbounded":
        x = out.primal
        d = out.ray
        if x is None or d is None:
            return ["unbounded outcome missing feasible point or ray"]
        for i, con in enumerate(rows):
            lhs = _dot(con.coeffs, x)
            step = _dot(con.coeffs, d)
            if con.rel == LE and (lhs > con.rhs or step > 0):
                bad.append(f"row {i} not maintained along ray")
            if con.rel == GE and (lhs < con.rhs or step < 0):
                bad.append(f"row {i} not maintained along ray")
            if con.rel == EQ and (lhs != con.rhs or step != 0):
                bad.append(f"row {i} not maintained along ray")
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and (x[j] < lo or d[j] < 0):
                bad.append(f"lower bound on x[{j}] not maintained along ray")
            if hi is not None and (x[j] > hi or d[j] > 0):
                bad.append(f"upper bound on x[{j}] not maintained along ray")
        drift = _dot(lp.objective, d)
        if sense == "min" and drift >= 0:
            bad.append(f"ray is not improving: c.d = {drift} >= 0 for min")
        if sense == "max" and drift <= 0:
            bad.append(f"ray is not improving: c.d = {drift} <= 0 for max")
    else:
        bad.append(f"unknown status {out.status!r}")
    return bad


def _assert_certificate(lp, sense, out):
    bad = certificate_violations(lp, sense, out)
    if bad:
        raise AssertionError("lp solver produced a bad certificate: " + "; ".join(bad))
