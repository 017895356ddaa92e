"""Exact rational linear programming with primal and dual certificates.

Two-phase revised simplex that factors the basis, not the tableau.  A solve
lowers its program's rows from their ``Constraint`` once and keeps them as
lowered: a sparse ``{column: int}`` dict of a row's nonzero numerators, its
slack and artificial included and its rhs under the key -1, over one
positive denominator.  A slack or an artificial is nonzero in its own row
only, so the basis is an identity on the rows whose slack or artificial is
basic, plus a block of structural columns, at most one per variable, over
the other rows.  The kernel stores the tableau rows of that block only (the
explicit rows): sparse rows over one positive denominator each, reduced by
their gcd after every update (the integer pivoting of Bareiss and of Avis's
``lrs``, with a denominator per row).  Any other row is read from its lowered
row minus the explicit rows of the basic columns in its support, which is
its row of ``B^-1 [A | b]``.  The ratio test reads one entry and the rhs of
such a row, and only of the rows that a column index says can be nonzero; a
pivot rewrites the explicit rows and the reduced-cost row alone, so a row on
its slack is never rewritten.

The values the pivot rule compares are the tableau's, so the simplex path is
the one exact rational arithmetic takes.  Pricing reads the reduced-cost
row, a sparse row updated by the same elimination, under Dantzig's rule
until a run of degenerate pivots is detected, and then under Bland's rule
permanently, which guarantees termination on every input; pricing ties go
to the lowest column and ratio ties to the lowest basic column.  A free
variable's minus column is minus its plus column in every row, so only the
plus column is stored, and the minus column is formed as its negation where
it enters.  After a feasible phase 1 every basic artificial sits at zero,
and the drive-out pivots each onto the lowest real column of its row,
degenerately.

A cut loop's rounds append rows to the last round's program, and each round
resumes the last round's phase-1 path instead of repeating its ratio tests.
The loop holds that state itself: a ``Resume`` that it hands with every
round's rows to ``feasible``, and that each round's program carries.  Only a
program that carries a holder records its phase-1 path: per pivot, the
entering column, the winning ratio with its basic column and position, and
the pivot row; no tableau.  An appended row sits on its slack, which costs
nothing, so each recorded step prices as it did, and every other row of the
tableau is as it was.  The next round lowers its appended rows alone, onto
the last round's lowered rows, replays the recorded pivot rows onto its
explicit rows and reduced costs, testing each step's winning ratio against
its appended rows alone, up to the first step where one of them would win,
and continues the same pivot loop from there.  Artificial columns are
numbered past every real column, so the appended slacks renumber no column
and ties break as in a cold solve.  A cold solve is that loop with nothing
to replay, and the outcome is the cold solve's, pivot count included.  A
program whose first rows are not the holder's last rows, or whose bounds
differ, solves cold; so does one whose appended row needs an artificial (it
changes the phase-1 cost), and one with a bounded variable's box row (it
comes after the constraints).

A ``Constraint`` stores its row (coefficients, then rhs) once, as integers
over one positive denominator in lowest terms; ``make_program`` scales a
rational row to that form once, and every program that shares the row reads
those integers.  The cost is lowered from the objective's nonzero entries
only.  Rationals (``Fraction``) appear only at the boundary: the program,
and the primal, ray, dual and objective values read back from the explicit
rows and the reduced costs, where a zero cost, bound offset or entry adds no
``Fraction`` term (a zero value is still ``Fraction(0)``).  Every optimal
outcome carries the pair (primal, dual) as an exact complementary-slackness
certificate; infeasible outcomes carry a Farkas certificate.  Both are
re-checked against the original program's rows before being returned.  The
re-check scales each certificate vector to integers over its lcm once (an
all-zero one, such as a feasibility program's objective and duals, is read
over 1 unscaled) and decides every condition in integers, deriving the
reduced costs ``c - A^T y`` itself; a ``Fraction`` is built only to word a
violation.  Exact rank and linear solves (``rank``, ``solve_linear``) are one
Gauss-Jordan elimination of ``[A | B]`` with the simplex's row operation, so
the library has one exact elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .rationals import lcm_scale, parse_rational, reduce_over

LE = "<="
EQ = "="
GE = ">="

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 40

# The first artificial column: past every real column of any program that
# fits in memory (a real column is a variable's or a row's), so appending
# rows with slacks shifts no column number.
_ART = 1 << 30


class LpFormatError(ValueError):
    """Malformed program: ragged rows, bad relation, bad sense, a row
    denominator that is not positive."""


@dataclass(frozen=True)
class Constraint:
    """The row ``nums[:-1] . x rel nums[-1]`` with every entry over the
    positive denominator ``den``, kept in lowest terms (the numerators and
    ``den`` divided by their gcd): the integers ``lcm_scale`` gives the
    row's rationals."""

    nums: tuple[int, ...]
    den: int
    rel: str

    def __post_init__(self):
        if self.den <= 0:
            raise LpFormatError(f"row denominator must be positive, got {self.den}")
        nums, den = reduce_over(self.nums, self.den)
        # frozen: store the reduced row as the generated __init__ would
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)


class Resume:
    """What a cut loop's next round resumes from, held by the loop across
    its rounds: ``last`` is None, or the rows and bounds of the last
    program solved with this holder, with that solve's recorded phase-1
    path and its lowered rows (``_Lowering.build_kernel``).  A solve takes
    ``last`` (one reader) and leaves its own."""

    __slots__ = ("last",)

    def __init__(self):
        self.last = None


@dataclass(frozen=True)
class LinearProgram:
    """min/max ``objective . x`` subject to rows and per-variable bounds.

    Bounds default to free variables; entries are (lower, upper) with None
    for unbounded sides.  ``resume`` is the ``Resume`` of the cut loop
    whose round this is, or None; it is not part of the program's value.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[Fraction | None, Fraction | None], ...]
    resume: Resume | None = field(default=None, repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return len(self.objective)


def make_program(objective, constraints, bounds=None, resume=None) -> LinearProgram:
    """Normalize raw lists into a validated LinearProgram.

    Every number goes through ``parse_rational``: an int, a ``Fraction`` or
    a 'p/q' string, never a float.  A row is a ``Constraint``, which is kept
    as it is, so programs that share it share its integers, or a
    ``(coeffs, rel, rhs)`` triple, scaled to integers over its lcm once.
    ``resume`` is a cut loop's ``Resume`` holder, carried by the program.
    """
    obj = tuple(map(parse_rational, objective))
    n = len(obj)
    if bounds is None:
        bnds = tuple((None, None) for _ in range(n))
    else:
        if len(bounds) != n:
            raise LpFormatError(f"{len(bounds)} bounds for {n} variables")
        bnds = tuple(
            (None if lo is None else parse_rational(lo), None if hi is None else parse_rational(hi))
            for lo, hi in bounds
        )
    rows = []
    for k, con in enumerate(constraints):
        if type(con) is not Constraint:
            coeffs, rel, rhs = con
            nums, d = lcm_scale([*map(parse_rational, coeffs), parse_rational(rhs)])
            con = Constraint(tuple(nums), d, rel)
        if len(con.nums) != n + 1:
            raise LpFormatError(
                f"constraint {k} has {len(con.nums) - 1} coefficients, expected {n}"
            )
        if con.rel not in (LE, EQ, GE):
            raise LpFormatError(f"constraint {k} has unknown relation {con.rel!r}")
        rows.append(con)
    return LinearProgram(obj, tuple(rows), bnds, resume)


@dataclass
class LpOutcome:
    """Solver result with exact certificates.

    optimal:    value, primal and dual (one multiplier per constraint) form a
                zero-gap certificate; the reduced costs ``c - A^T dual`` are
                derived by ``certificate_violations``, not stored.
    infeasible: farkas holds multipliers per constraint certifying emptiness.
    unbounded:  primal is a feasible point, ray an improving direction.

    ``pivots`` counts the pivots of the simplex path, the phase-1
    drive-out's included.
    """

    status: str
    value: Fraction | None = None
    primal: list[Fraction] | None = None
    dual: list[Fraction] | None = None
    farkas: list[Fraction] | None = None
    ray: list[Fraction] | None = None
    pivots: int = 0


def _eliminate(row, den, f, p, prow):
    """``row/den - (f/den) * prow/p`` in lowest terms, as ``(row, den)``, on
    sparse rows: ``{column: entry}`` dicts that hold no zero.

    Only the entries stored in ``prow`` are touched; ``den`` and ``p`` are
    positive.  The result is a new dict and ``row`` is left as it is, so a
    lowered row, or a pivot row a recorded path holds, never changes.
    """
    g = gcd(p, f)
    pg, fg = p // g, f // g
    row = row.copy() if pg == 1 else {j: a * pg for j, a in row.items()}
    get = row.get
    for j, b in prow.items():
        a = get(j, 0) - fg * b
        if a:
            row[j] = a
        else:
            del row[j]
    den *= pg
    g = gcd(den, *row.values())
    if g > 1:
        row = {j: a // g for j, a in row.items()}
        den //= g
    return row, den


class _Kernel:
    """Standard-form simplex state: min cost.x, A x = b, x >= 0, b >= 0,
    with the basis factored as its structural block.

    ``lowered[k] / lowered_den[k]`` is row ``k`` of ``[A | b]``, a sparse
    row as ``_Lowering.build_kernel`` lowers it, never changed; ``terms[k]``
    holds its structural entries as ``(column, entry)`` pairs, ``home[k]``
    and ``sign[k]`` its initial basic column and the sign it was scaled by;
    ``index[j]`` lists the rows nonzero on the structural column ``j``, and
    ``unit_row`` maps each slack and artificial to its row.  ``basis[i]`` is
    the basic column of position ``i`` (``home[i]`` at the start).  Where it
    is structural, ``rows[i] / den[i]`` is the position's tableau row, an
    explicit row: a sparse row that holds ``den[i]`` on its basic column,
    over a positive denominator, reduced by their gcd after every update,
    and ``where`` maps its stored column to ``(i, sign)``, where the basic
    column is ``sign`` times the stored one.  Elsewhere ``rows[i]`` is None,
    and the position's row is read from the lowered row of its slack's or
    artificial's row (``row``); ``on[k]`` is the position of row ``k``'s
    basic slack or artificial, -1 when neither is basic.  The reduced-cost
    row ``reduced / reduced_den`` is a sparse row as well, updated by the
    same ``_eliminate``.  Every comparison the pivot rule makes reads
    numerators over a positive denominator, so the path is the one exact
    rational arithmetic takes.  Only columns below ``n_enter`` may enter
    the basis.  ``mirror`` maps a free variable's plus column to its minus
    column, which no row stores.

    While ``path`` is a list, ``run`` records its pivot path there, one
    step per pivot: the entering column as ``(t, col, sign)``, the winning
    ratio ``num / quo``, the winner's basic column and position, and the
    pivot row over its denominator.
    """

    def __init__(self, lowering, n_struct, mirror):
        self.lowering = lowering
        (self.lowered, self.lowered_den, self.terms, self.home, self.sign, self.unit_row,
         self.index, _, self.n_cols) = lowering
        self.n_struct = n_struct
        self.n_enter = self.n_cols
        self.mirror = mirror
        m = len(self.home)
        self.basis = self.home[:]
        self.rows: list[dict[int, int] | None] = [None] * m
        self.den = [0] * m
        self.where: dict[int, tuple[int, int]] = {}
        self.on = list(range(m))
        self.pivots = 0
        self.reduced: dict[int, int] = {}
        self.reduced_den = 1
        self.path: list | None = None

    def row(self, i):
        """Position ``i``'s tableau row, as ``(row, den)``: its explicit row,
        or the lowered row of its basic slack or artificial ``u`` minus the
        explicit rows of the basic columns in its support, signed to hold
        ``den`` on ``u``."""
        row = self.rows[i]
        if row is not None:
            return row, self.den[i]
        u = self.basis[i]
        k = self.unit_row[u]
        row, d = self.lowered[k], self.lowered_den[k]
        if row[u] < 0:
            row = {j: -a for j, a in row.items()}
        where, rows, den = self.where, self.rows, self.den
        for j, _ in self.terms[k]:
            hit = where.get(j)
            if hit:
                p, s = hit
                row, d = _eliminate(row, d, s * row[j], den[p], rows[p])
        return row, d

    def _entering(self, red, bland):
        """The column that enters for the reduced-cost row ``red`` under
        Dantzig's rule, or Bland's when ``bland``, as ``(t, col, sign)``:
        column ``t`` is ``sign`` times the stored column ``col``; ``t`` is
        -1 at an optimum.  A column may enter where its reduced cost is
        negative: each negative stored entry, and the mirror of each
        positive one."""
        mirror, n_enter = self.mirror, self.n_enter
        best, t, col, sign = 0, -1, -1, 1
        for j, d in red.items():
            if d < 0:
                if j < 0 or j >= n_enter:
                    continue
                s, c = 1, j
            elif j in mirror:
                d, s, c = -d, -1, mirror[j]
            else:
                continue
            if t < 0 or (c < t if bland or d == best else d < best):
                best, t, col, sign = d, c, j, s
        return t, col, sign

    def _column(self, col, sign):
        """The entering column, ``sign`` times the stored column ``col``, and
        the rhs on the explicit rows, over one denominator ``D``: ``(at,
        rhs, D)``, where ``at[j]`` and ``rhs[j]`` are ``s * D`` times the
        entry and the rhs of the explicit row whose basic column is ``s``
        times the stored column ``j``, for the nonzero ones.  ``D`` is the
        lcm of the explicit rows' denominators, which all divide one
        determinant: the structural block's, its rows scaled to integers."""
        rows, den = self.rows, self.den
        d = lcm(*(den[i] for i, _ in self.where.values()))
        at, rhs = {}, {}
        for j, (i, s) in self.where.items():
            row = rows[i]
            m = s * (d // den[i])
            a = row.get(col)
            if a:
                at[j] = sign * a * m
            b = row.get(-1)
            if b:
                rhs[j] = b * m
        return at, rhs, d

    def _ratio(self, col, sign):
        """The ratio test on the entering column, ``sign`` times the stored
        column ``col``: ``(position, num, quo)`` of the winning ratio
        ``rhs_i / a_i = num / quo`` over the positive entries, ties to the
        lowest basic column, so the row order does not matter; position -1
        when no entry is positive.  The explicit rows are read from the
        column; of the others, only those whose lowered row is nonzero on
        ``col`` or on a basic column whose explicit row is."""
        basis, where, index = self.basis, self.where, self.index
        at, rhs, d = self._column(col, sign)
        leave = low = -1
        num = quo = 0
        rows_hit = set(index[col]) if col < self.n_struct else {self.unit_row[col]}
        for j, a in at.items():
            rows_hit.update(index[j])
            i, s = where[j]
            a *= s
            if a > 0:
                b = s * rhs.get(j, 0)
                if leave < 0 or b * quo < num * a or (b * quo == num * a and basis[i] < low):
                    num, quo, leave, low = b, a, i, basis[i]
        return self._derived_ratio(rows_hit, col, sign, (at, rhs, d), (leave, num, quo, low))

    def _derived_ratio(self, rows_hit, col, sign, column, best):
        """The ratio test of ``_ratio`` continued over those of the rows
        ``rows_hit`` whose slack or artificial is basic, from the winner
        ``best``: ``(position, num, quo, basic column)``.  Such a row of the
        tableau is ``(L - sum_j s_j L_j E_j) / L_u`` for its lowered row
        ``L``, its basic column ``u`` and the explicit rows ``E_j`` of the
        basic columns ``s_j`` times ``j``, so its entry and rhs, times ``L_u
        D``, are read from ``column``, the ``(at, rhs, D)`` of ``_column``.
        ``L_u D`` cancels in the ratio but for its sign."""
        at, rhs, d = column
        leave, num, quo, low = best
        on, basis, lowered, terms = self.on, self.basis, self.lowered, self.terms
        for k in rows_hit:
            i = on[k]
            if i < 0:
                continue
            row = lowered[k]
            a = sign * row.get(col, 0) * d
            for j, x in terms[k]:
                e = at.get(j)
                if e:
                    a -= x * e
            if not a or (a < 0) == (row[basis[i]] > 0):
                continue
            b = row.get(-1, 0) * d
            for j, x in terms[k]:
                e = rhs.get(j)
                if e:
                    b -= x * e
            if a < 0:
                a, b = -a, -b
            if leave < 0 or b * quo < num * a or (b * quo == num * a and basis[i] < low):
                num, quo, leave, low = b, a, i, basis[i]
        return leave, num, quo

    def _pivot(self, r, t, col, sign, prow=None):
        """Pivot on position ``r``, column ``t``, ``sign`` times the stored
        column ``col``; returns the pivot row and its denominator.  ``prow``
        is position ``r``'s row when the caller has read it."""
        if prow is None:
            prow, _ = self.row(r)
        p = sign * prow[col]
        if p < 0:
            prow = {j: -x for j, x in prow.items()}
            p = -p
        # the row keeps its numerators; the pivot entry becomes its denominator
        self._apply(r, t, col, sign, prow, p)
        return prow, p

    def _apply(self, r, t, col, sign, prow, p):
        """Make ``t`` the basic column of position ``r``, whose tableau row
        is ``prow / p``: eliminate it from the other explicit rows, and keep
        it as an explicit row iff ``t`` is structural."""
        rows, den, basis, where, on = self.rows, self.den, self.basis, self.where, self.on
        for i, _ in where.values():
            f = rows[i].get(col)
            if f and i != r:
                rows[i], den[i] = _eliminate(rows[i], den[i], sign * f, p, prow)
        if rows[r] is None:
            on[self.unit_row[basis[r]]] = -1
        else:
            del where[next(j for j, (i, _) in where.items() if i == r)]
        if t < self.n_struct:
            rows[r], den[r] = prow, p
            where[col] = r, sign
        else:
            rows[r] = None
            on[self.unit_row[t]] = r
        basis[r] = t
        self.pivots += 1

    def price(self, cost, cost_den):
        """The reduced-cost row of ``cost / cost_den`` at the current basis,
        as ``(red, rd)``; ``cost`` is a sparse row with no rhs, on stored
        structural columns and on artificials."""
        red, rd = cost, cost_den
        rows, den, basis, on = self.rows, self.den, self.basis, self.on
        for j, (i, s) in self.where.items():
            cb = cost.get(j)
            if cb:
                # red/rd - (s * cb/cost_den) * row/den[i]
                red, rd = _eliminate(red, rd, s * cb * rd, cost_den * den[i], rows[i])
        for u, cb in cost.items():
            if u >= self.n_struct:
                i = on[self.unit_row[u]]
                if i >= 0 and basis[i] == u:
                    row, d = self.row(i)
                    red, rd = _eliminate(red, rd, cb * rd, cost_den * d, row)
        return red, rd

    def run(self, red, rd, stall, bland):
        """Run simplex from the current basis and its reduced-cost row
        ``red / rd`` (``price``), ``stall`` degenerate pivots into a run,
        under Bland's rule if ``bland``: a fresh start, or where a replayed
        path stopped.  Records each step while ``path`` is a list.

        Returns ``(-1, 1)`` at an optimum, else the entering column of an
        improving ray as ``(col, sign)``: ``sign`` times the stored column
        ``col``.  Either way ``reduced / reduced_den`` is left as the
        reduced-cost row against the original columns.  Dantzig's rule
        enters the most negative reduced cost, Bland's the lowest column
        with a negative one; ties go to the lowest column.
        """
        basis, path = self.basis, self.path
        while True:
            t, col, sign = self._entering(red, bland)
            if t < 0:
                self.reduced, self.reduced_den = red, rd
                return -1, 1
            leave, num, quo = self._ratio(col, sign)
            if leave < 0:
                self.reduced, self.reduced_den = red, rd
                return col, sign
            leaving = basis[leave]
            prow, p = self._pivot(leave, t, col, sign)
            if path is not None:
                path.append((t, col, sign, num, quo, leaving, leave, prow, p))
            red, rd = _eliminate(red, rd, sign * red[col], p, prow)
            if num == 0:  # degenerate pivot
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

    A free variable becomes the column pair ``(a, -a)``, of which only
    ``a`` is stored (``mirror`` maps it to its minus column), a
    lower-bounded one the column ``a`` shifted by its bound, an
    upper-bounded one the column ``-a`` reflected at it.  A boxed variable
    is shifted and adds a row ``x <= hi - lo`` after the original rows.
    The cost is kept as a sparse integer row over one denominator
    (``cost``, ``cost_den``) on the stored columns, built from the nonzero
    entries of the objective only.  ``build_kernel`` walks the rows once,
    straight into the phase-1 kernel.
    """

    def __init__(self, lp: LinearProgram, flip: bool):
        # var_map[j] = (plus, minus, offset): x_j = offset + std[plus] - std[minus],
        # where -1 marks an absent column and None a zero offset
        self.var_map: list[tuple[int, int, Fraction | None]] = []
        self.mirror: dict[int, int] = {}
        self.columns: list[int] = []  # each variable's stored column
        self.reflected: list[int] = []  # the stored columns that are minus their variable
        self.constraints = lp.constraints
        self.box_rows: list[tuple[int, Fraction]] = []  # (std col, hi - lo)
        cost_cols, cost_vals = [], []  # the nonzero costs of the min-oriented objective
        shifts: list[tuple[int, Fraction]] = []  # (variable, nonzero offset)
        col = 0
        for j, ((lo, hi), cj) in enumerate(zip(lp.bounds, lp.objective)):
            if flip and cj:
                cj = -cj
            self.columns.append(col)
            if lo is None and hi is None:
                self.var_map.append((col, col + 1, None))
                self.mirror[col] = col + 1
                if cj:
                    cost_cols.append(col)
                    cost_vals.append(cj)
                col += 2
                continue
            if lo is None:
                offset = hi
                self.var_map.append((-1, col, offset or None))
                self.reflected.append(col)
                if cj:
                    cj = -cj
            else:
                if hi is not None:
                    if lo > hi:
                        raise _BoundConflict(j, lo, hi)
                    self.box_rows.append((col, hi - lo))
                offset = lo
                self.var_map.append((col, -1, offset or None))
            if cj:
                cost_cols.append(col)
                cost_vals.append(cj)
            if offset:
                shifts.append((j, offset))
            col += 1
        self.n_struct = col
        nums, self.cost_den = lcm_scale(cost_vals)
        self.cost = dict(zip(cost_cols, nums))
        # the shifts over their lcm denominator, subtracted from each rhs in integers
        shift_nums, self.shift_den = lcm_scale([offset for _, offset in shifts])
        self.shifts = [(j, o) for (j, _), o in zip(shifts, shift_nums)]

    def _lower(self, nums, f):
        """The coefficients of the row ``nums`` times ``f`` on the standard
        columns, as a sparse ``{column: int}`` dict."""
        row = {c: f * a for c, a in zip(self.columns, nums) if a}
        for c in self.reflected:
            if c in row:
                row[c] = -row[c]
        return row

    def build_kernel(self, kept=None):
        """The phase-1 kernel in one walk over the rows.

        Each row is kept as integers over one denominator ``d``, its lcm
        scale, the bound shifts subtracted from its rhs over their lcm.  A
        row with a negative rhs is negated, so its sign is -1; it keeps a
        slack (entry ``±d``) as its initial basic column, its home, only if
        that slack's entry is then ``+d``, else it gets an artificial (entry
        ``d``).  Slacks are numbered from the last structural column on,
        artificials from ``_ART`` on, both in row order: every column below
        ``_ART`` is real, and rows appended to a program shift none of its
        column numbers as long as they need no artificial.  Each row is
        lowered from its nonzero entries (``_lower``), times its sign.

        The lowering is the tuple ``(rows, den, terms, home, sign, unit_row,
        index, slack, art)``: the lowered rows, their denominators, their
        structural entries as ``(column, entry)`` pairs, their home columns
        and signs, the row of each slack and artificial, the rows of each
        structural column, and the next free slack and artificial.
        ``kept`` is the lowering of a program whose rows are this program's
        first rows: only the rows after them are lowered, onto its lists.
        """
        shifts, shift_den = self.shifts, self.shift_den
        if kept is None:
            kept = [], [], [], [], [], {}, [[] for _ in range(self.n_struct)], self.n_struct, _ART
        rows, den, terms, home, sign, unit_row, index, slack, art = kept
        for c in self.constraints[len(rows):]:
            nums, d, rel = c.nums, c.den, c.rel
            b = nums[-1]
            if shifts:
                # d * (rhs - sum_j coeffs[j] * offset_j), times shift_den
                b = b * shift_den - sum(nums[j] * o for j, o in shifts)
                d *= shift_den
            s = -1 if b < 0 else 1
            k = len(rows)
            row = self._lower(nums, s * shift_den)
            terms.append(tuple(row.items()))
            for j in row:
                index[j].append(k)
            if b:
                row[-1] = s * b
            if rel != EQ:
                row[slack] = s * d if rel == LE else -s * d
                unit_row[slack] = k
                slack += 1
            # the slack starts basic iff it is positive once the row is
            # signed to a nonnegative rhs
            if rel == (LE if s > 0 else GE):
                home.append(slack - 1)
            else:
                row[art] = d
                unit_row[art] = k
                home.append(art)
                art += 1
            sign.append(s)
            rows.append(row)
            den.append(d)
        for col, width in self.box_rows:
            # x <= hi - lo: a nonnegative rhs, so its slack starts basic
            wn, wd = width.as_integer_ratio()
            row = {col: wd, -1: wn, slack: wd} if wn else {col: wd, slack: wd}
            terms.append(((col, wd),))
            index[col].append(len(rows))
            unit_row[slack] = len(rows)
            home.append(slack)
            slack += 1
            sign.append(1)
            rows.append(row)
            den.append(wd)
        lowering = rows, den, terms, home, sign, unit_row, index, slack, art
        return _Kernel(lowering, self.n_struct, self.mirror)


def solve(lp: LinearProgram, sense: str = "min") -> LpOutcome:
    """Solve exactly; every outcome's certificate is re-verified before return."""
    if sense not in ("min", "max"):
        raise LpFormatError(f"sense must be 'min' or 'max', got {sense!r}")
    out = _solve(lp, sense)
    bad = certificate_violations(lp, sense, out)
    if bad:
        raise AssertionError("lp solver produced a bad certificate: " + "; ".join(bad))
    return out


def _solve(lp, sense):
    """The two-phase simplex; ``solve`` re-checks the outcome it returns."""
    flip = sense == "max"
    try:
        low = _Lowering(lp, flip)
    except _BoundConflict:
        return LpOutcome(status="infeasible")

    kern, path, first = _start(lp, low)
    sign, home = kern.sign, kern.home
    n_total = kern.n_cols
    phase2_cost, cost_den = low.cost, low.cost_den

    # Phase 1: minimize the artificial sum.
    if _ART < n_total:
        phase1_cost = dict.fromkeys(range(_ART, n_total), 1)
        state = *kern.price(phase1_cost, 1), 0, False
        if path is not None:
            state = _replay(path, kern, first, state)
        col, _ = kern.run(*state)
        if col >= 0:
            raise AssertionError("phase 1 cannot be unbounded")
        if kern.path is not None:
            # what the cut loop's next round resumes from
            lp.resume.last = (lp.constraints, lp.bounds, kern.path, kern.lowering)
            kern.path = None
        # the reduced-cost row's rhs is minus the artificial sum phase 1 reached
        if kern.reduced.get(-1, 0):
            y = _recover_duals(kern, phase1_cost, 1, sign, home)
            farkas = y[: len(lp.constraints)]
            return LpOutcome(status="infeasible", farkas=farkas, pivots=kern.pivots)
        _drive_out_artificials(kern, _ART)
        kern.n_enter = _ART

    col, ray_sign = kern.run(*kern.price(phase2_cost, cost_den), 0, False)

    if col >= 0:
        return LpOutcome(
            status="unbounded",
            primal=_extract_primal(low, kern),
            ray=_extract_ray(low, kern, col, ray_sign),
            pivots=kern.pivots,
        )

    primal = _extract_primal(low, kern)
    y = _recover_duals(kern, phase2_cost, cost_den, sign, home)
    dual = y[: len(lp.constraints)]
    if flip:
        dual = [-v for v in dual]
    # zero costs add nothing; the start keeps a zero value a Fraction
    value = sum((c * x for c, x in zip(lp.objective, primal) if c), _ZERO)
    return LpOutcome(status="optimal", value=value, primal=primal, dual=dual, pivots=kern.pivots)


def _start(lp, low):
    """The phase-1 kernel of ``lp``, and the recorded path it resumes:
    ``(kernel, path, first)``, where ``first`` is its first appended row;
    ``path`` is None for a cold start.

    A program that carries a ``Resume`` holder records its phase-1 path,
    unless it has box rows, whose slacks appended rows would renumber.  If
    the holder keeps the last round's path, and ``lp`` appends rows to that
    round's rows under the same bounds, only the appended rows are lowered,
    onto that round's lowering, which is what a cold lowering gives.  The
    path is replayed (``_replay``) unless an appended row needs an
    artificial: that changes the phase-1 cost, and so the path from its
    first step.  A recorded path serves one solve: it is taken off the
    holder.
    """
    holder = lp.resume
    kept = None if holder is None else holder.last
    if kept is not None:
        holder.last = None
        shared, bounds, path, lowering = kept
        if bounds == lp.bounds and lp.constraints[: len(shared)] == shared:
            n_cols = lowering[-1]  # the last round's next free artificial
            kern = low.build_kernel(lowering)
            kern.path = []
            return kern, path if kern.n_cols == n_cols else None, len(shared)
    kern = low.build_kernel()
    if holder is not None and not low.box_rows:
        kern.path = []
    return kern, None, 0


def _replay(path, kern, first, state):
    """Replay a recorded phase-1 path on ``kern``, whose rows from ``first``
    on are appended: the ``run`` state where it stops.

    An appended row sits on its slack, which costs nothing, so every step
    prices as it did, and the extended program takes the step's pivot
    unless an appended row wins its ratio test: a smaller ratio, or the
    same one and a lower basic column.  Until then each step's recorded
    pivot row is the tableau row it was, so it is applied as it stands
    (``_Kernel._apply``) to the explicit rows and the reduced costs, and
    recorded again.  The replay stops at the first step where an appended
    row wins, or after the last, the phase-1 optimum.
    """
    red, rd, stall, bland = state
    appended = range(first, len(kern.lowered))
    for step in path:
        t, col, sign, num, quo, leaving, leave, prow, p = step
        column = kern._column(col, sign)
        if kern._derived_ratio(appended, col, sign, column, (leave, num, quo, leaving))[0] != leave:
            break
        kern._apply(leave, t, col, sign, prow, p)
        kern.path.append(step)
        red, rd = _eliminate(red, rd, sign * red[col], p, prow)
        if num == 0:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
    return red, rd, stall, bland


def feasible(constraints, n_vars, bounds=None, resume=None) -> LpOutcome:
    """Feasibility of the rows over ``n_vars`` variables: a witness vector
    or a Farkas infeasibility certificate.  A cut loop hands each round's
    rows with the ``Resume`` it holds, so a round that appends rows to the
    last one resumes that round's phase-1 path."""
    return solve(make_program([_ZERO] * n_vars, constraints, bounds, resume), "min")


def _gauss_jordan(matrix, rhs):
    """Gauss-Jordan elimination of ``[A | B]`` on the simplex's integer
    pivot: ``(rows, den, basis)``.

    Each row is scaled to integers over its lcm and stored sparse, the
    columns of ``B`` after those of ``A``, and each column of ``A`` is
    pivoted on the first not-yet-pivoted row that is nonzero there.
    ``basis`` maps each pivot row to its column (-1 for the other rows,
    which are zero on every column of ``A``).  Which columns get pivots
    does not depend on the row order.
    """
    rows, den = [], []
    for a, b in zip(matrix, rhs, strict=True):
        nums, d = lcm_scale([*a, *b])
        rows.append({j: v for j, v in enumerate(nums) if v})
        den.append(d)
    basis = [-1] * len(rows)
    for c in range(len(matrix[0]) if matrix else 0):
        r = next((i for i, row in enumerate(rows) if c in row and basis[i] < 0), -1)
        if r < 0:
            continue
        prow = rows[r]
        p = prow[c]
        if p < 0:
            rows[r] = prow = {j: -x for j, x in prow.items()}
            p = -p
        den[r] = p
        for i, row in enumerate(rows):
            f = row.get(c)
            if f and i != r:
                rows[i], den[i] = _eliminate(row, den[i], f, p, prow)
        basis[r] = c
    return rows, den, basis


def rank(matrix) -> int:
    """Exact rank of a matrix of rationals or ints: the number of pivots."""
    return sum(c >= 0 for c in _gauss_jordan(matrix, [()] * len(matrix))[2])


def solve_linear(matrix, rhs):
    """One exact solution ``X`` of ``A X = B`` (``A`` may be rectangular), or
    None when any column of ``B`` is inconsistent.

    ``rhs`` holds the rows of ``B``; every column is solved by the same
    elimination, with the free variables set to zero.
    """
    n = len(matrix[0]) if matrix else 0
    width = range(n, n + (len(rhs[0]) if rhs else 0))
    x = [[_ZERO] * len(width) for _ in range(n)]
    for row, d, c in zip(*_gauss_jordan(matrix, rhs)):
        if c >= 0:
            x[c] = [Fraction(row[j], d) if j in row else _ZERO for j in width]
        elif row:
            return None
    return x


def _drive_out_artificials(kern, n_real):
    """Pivot zero-valued basic artificials onto real columns (below
    ``n_real``), in position order, each onto the lowest real column of its
    row.

    Rows whose tableau row is zero on every real column are redundant; their
    artificial stays basic at zero and is barred from re-entering, which keeps
    it harmless (no real entering column can change it).
    """
    for i, b in enumerate(kern.basis):
        if b >= n_real:
            row, _ = kern.row(i)
            real = [j for j in row if 0 <= j < n_real]
            if real:
                j = min(real)
                kern._pivot(i, j, j, 1, row)


def _recover_duals(kern, cost, cost_den, sign, home):
    """Duals of the original-orientation rows.

    Each row's initial basic column ``home[i]`` (its artificial, else its
    slack) is +e_i in the sign-normalized system; reduced[col] = cost[col] -
    yhat_i then yields yhat, and the row-flip sign maps back.  Only these
    columns become Fractions.  A zero cost has zero duals in any basis.
    """
    if not cost:
        return [_ZERO] * len(sign)
    red, rd = kern.reduced, kern.reduced_den
    y = []
    for s, col in zip(sign, home):
        # s * (cost[col] / cost_den - red[col] / rd)
        num = s * (cost.get(col, 0) * rd - red.get(col, 0) * cost_den)
        y.append(Fraction(num, cost_den * rd) if num else _ZERO)
    return y


def _pull_back(low, v_std, offsets):
    """Original-variable vector of a standard-form vector, given as its
    nonzero entries ``{column: Fraction}``: a point when ``offsets`` adds
    each variable's bound shift, a direction when not.  A zero term is not
    added."""
    get = v_std.get  # -1, an absent column, is never a key
    out = []
    for plus, minus, offset in low.var_map:
        v = get(plus)
        w = get(minus)
        if w is not None:
            v = -w if v is None else v - w
        if offsets and offset is not None:
            v = offset if v is None else offset + v
        out.append(_ZERO if v is None else v)
    return out


def _extract_primal(low, kern):
    # the structural basic columns, each on an explicit row, with a nonzero rhs
    x_std = {
        kern.basis[i]: Fraction(kern.rows[i][-1], kern.den[i])
        for i, _ in kern.where.values()
        if -1 in kern.rows[i]
    }
    return _pull_back(low, x_std, offsets=True)


def _extract_ray(low, kern, col, sign):
    # the entering column is sign times the stored column col, so it adds
    # sign to col; a slack or artificial pulls back to nothing, so only the
    # explicit rows are read
    d_std = {col: _ONE if sign > 0 else -_ONE}
    for i, _ in kern.where.values():
        a = kern.rows[i].get(col)
        if a:
            d_std[kern.basis[i]] = Fraction(-sign * a, kern.den[i])
    return _pull_back(low, d_std, offsets=False)


def _integers(values):
    """``lcm_scale`` of ``values``, but an all-zero vector (a feasibility
    program's objective and duals) is read as integers over 1 unscaled."""
    return lcm_scale(values) if any(values) else ([0] * len(values), 1)


def _dot(nums, xs):
    """Integer dot product; ``zip`` stops at the shorter, so a row's
    trailing rhs is left out against a vector of the variables."""
    return sum(map(mul, nums, xs))


def _minus(num, den, q) -> int:
    """Numerator of ``num/den - q`` over ``den * q.denominator`` (``den > 0``):
    its sign is the comparison of the two rationals."""
    return num * q.denominator - q.numerator * den


def _transpose_times(rows, mult, n_vars):
    """``A^T m`` and ``m . b`` for integer multipliers ``m``, one per row, as
    ``(t, L)``: ``(A^T m)_j = t[j] / L`` and ``m . b = t[n_vars] / L``, where
    ``L`` is the lcm of the denominators of the rows with ``m_i != 0``.
    Zero multipliers and coefficients are skipped."""
    live = [(yi, con) for con, yi in zip(rows, mult) if yi]
    common = lcm(*(con.den for _, con in live))
    out = [0] * (n_vars + 1)
    for yi, con in live:
        f = yi * (common // con.den)
        for j, a in enumerate(con.nums):
            if a:
                out[j] += f * a
    return out, common


def certificate_violations(lp: LinearProgram, sense: str, out: LpOutcome) -> list[str]:
    """Exact re-substitution check of an outcome against the original program.

    Empty list iff the outcome's certificates all hold.  For 'optimal' this
    verifies primal feasibility, dual sign feasibility, complementary
    slackness on rows and on bounds (through the reduced costs ``c - A^T y``
    derived here), the stored value and the zero duality gap, all as
    rational equalities.  Each vector is scaled to integers over its lcm
    once (an all-zero one is read over 1 as it is), each row is read as the
    constraint's integers, and every comparison is made between integers
    over positive denominators.  An 'infeasible' outcome without a Farkas
    vector holds only when some variable's lower bound exceeds its upper
    bound.
    """
    bad: list[str] = []
    rows = lp.constraints
    if out.status == "optimal":
        x = out.primal
        y = out.dual
        if x is None or y is None or out.value is None:
            return ["optimal outcome missing primal/dual/value"]
        xs, dx = _integers(x)
        ys, dy = _integers(y)
        cs, dc = _integers(lp.objective)
        value = out.value
        # orient everything as a minimization
        if sense != "min":
            ys = [-v for v in ys]
            cs = [-v for v in cs]
            value = -value
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and _minus(xs[j], dx, lo) < 0:
                bad.append(f"x[{j}] = {x[j]} below lower bound {lo}")
            if hi is not None and _minus(xs[j], dx, hi) > 0:
                bad.append(f"x[{j}] = {x[j]} above upper bound {hi}")
        for i, con in enumerate(rows):
            nums, d = con.nums, con.den
            ax = _dot(nums, xs)
            # d * dx * (lhs - rhs)
            slack = ax - nums[-1] * dx
            if con.rel == LE and slack > 0:
                bad.append(f"row {i}: {Fraction(ax, d * dx)} > {Fraction(nums[-1], d)}")
            if con.rel == GE and slack < 0:
                bad.append(f"row {i}: {Fraction(ax, d * dx)} < {Fraction(nums[-1], d)}")
            if con.rel == EQ and slack:
                bad.append(f"row {i}: {Fraction(ax, d * dx)} != {Fraction(nums[-1], d)}")
            yi = ys[i]
            if con.rel == LE and yi > 0:
                bad.append(f"dual[{i}] = {Fraction(yi, dy)} > 0 on a <= row")
            if con.rel == GE and yi < 0:
                bad.append(f"dual[{i}] = {Fraction(yi, dy)} < 0 on a >= row")
            if yi and slack:
                bad.append(f"complementary slackness fails on row {i}")
        # A^T y = aty[j] / (dy * da); y . b = aty[-1] / (dy * da)
        aty, da = _transpose_times(rows, ys, lp.n_vars)
        # reduced costs r_j = red / (dc * dy * da); where r_j != 0 the checks
        # below pin x_j to the bound that enters the dual objective, so that
        # term is r_j * x_j, kept over dc * dy * da * dx
        bound_terms = 0
        for j, (lo, hi) in enumerate(lp.bounds):
            red = cs[j] * dy * da - aty[j] * dc
            if red > 0:
                if lo is None:
                    bad.append(f"reduced cost {j} > 0 with no lower bound")
                elif _minus(xs[j], dx, lo):
                    bad.append(f"reduced cost {j} > 0 but x[{j}] not at lower bound")
                else:
                    bound_terms += red * xs[j]
            elif red < 0:
                if hi is None:
                    bad.append(f"reduced cost {j} < 0 with no upper bound")
                elif _minus(xs[j], dx, hi):
                    bad.append(f"reduced cost {j} < 0 but x[{j}] not at upper bound")
                else:
                    bound_terms += red * xs[j]
        obj = _dot(cs, xs)  # c . x = obj / (dc * dx)
        if _minus(obj, dc * dx, value):
            bad.append(f"stored value {value} != objective {Fraction(obj, dc * dx)}")
        if not bad:
            dual_obj = aty[-1] * dc * dx + bound_terms  # over dc * dy * da * dx
            if obj * dy * da != dual_obj:
                primal, dual = Fraction(obj, dc * dx), Fraction(dual_obj, dc * dy * da * dx)
                bad.append(f"duality gap: primal {primal} != dual {dual}")
    elif out.status == "infeasible":
        if out.farkas is None:
            if any(lo is not None and hi is not None and lo > hi for lo, hi in lp.bounds):
                return []
            return ["infeasible outcome has no farkas vector and no bound conflict"]
        lam, dl = lcm_scale(out.farkas)
        # (A^T lam)_j = q[j] / den and lam . b = q[-1] / den
        q, den = _transpose_times(rows, lam, lp.n_vars)
        den *= dl
        beta = q[-1]
        for i, con in enumerate(rows):
            if con.rel == LE and lam[i] > 0:
                bad.append(f"farkas[{i}] > 0 on a <= row")
            if con.rel == GE and lam[i] < 0:
                bad.append(f"farkas[{i}] < 0 on a >= row")
        terms = []  # (q_j, the bound x_j meets the combination at)
        for j, (lo, hi) in enumerate(lp.bounds):
            if q[j] > 0:
                if hi is None:
                    bad.append(f"farkas combination needs upper bound on x[{j}]")
                else:
                    terms.append((q[j], hi))
            elif q[j] < 0:
                if lo is None:
                    bad.append(f"farkas combination needs lower bound on x[{j}]")
                else:
                    terms.append((q[j], lo))
        if not bad:
            # best = sum_j q_j * bound_j, over the bounds' lcm denominator
            db = lcm(*(b.denominator for _, b in terms))
            best = sum(qj * b.numerator * (db // b.denominator) for qj, b in terms)
            if best >= beta * db:
                bad.append(
                    f"farkas bound {Fraction(best, db * den)} >= rhs combination "
                    f"{Fraction(beta, den)}"
                )
    elif out.status == "unbounded":
        x = out.primal
        d = out.ray
        if x is None or d is None:
            return ["unbounded outcome missing feasible point or ray"]
        xs, dx = lcm_scale(x)
        ds, dd = lcm_scale(d)
        for i, con in enumerate(rows):
            nums = con.nums
            slack = _dot(nums, xs) - nums[-1] * dx  # sign of lhs - rhs
            step = _dot(nums, ds)  # sign of the row along the ray
            if con.rel == LE and (slack > 0 or step > 0):
                bad.append(f"row {i} not maintained along ray")
            if con.rel == GE and (slack < 0 or step < 0):
                bad.append(f"row {i} not maintained along ray")
            if con.rel == EQ and (slack or step):
                bad.append(f"row {i} not maintained along ray")
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and (_minus(xs[j], dx, lo) < 0 or ds[j] < 0):
                bad.append(f"lower bound on x[{j}] not maintained along ray")
            if hi is not None and (_minus(xs[j], dx, hi) > 0 or ds[j] > 0):
                bad.append(f"upper bound on x[{j}] not maintained along ray")
        cs, dc = lcm_scale(lp.objective)
        drift = _dot(cs, ds)  # c . d = drift / (dc * dd)
        if sense == "min" and drift >= 0:
            bad.append(f"ray is not improving: c.d = {Fraction(drift, dc * dd)} >= 0 for min")
        if sense == "max" and drift <= 0:
            bad.append(f"ray is not improving: c.d = {Fraction(drift, dc * dd)} <= 0 for max")
    else:
        bad.append(f"unknown status {out.status!r}")
    return bad
