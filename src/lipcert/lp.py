"""Exact rational linear programming with primal and dual certificates.

Two-phase simplex on a sparse integer tableau: each row is a
``{column: int}`` dict of its nonzero numerators, the rhs under the key -1,
over one positive denominator, reduced by their gcd after every update (the
integer pivoting of Bareiss and of Avis's ``lrs``, with a denominator per
row), so a pivot does arithmetic on stored nonzeros only.  The reduced-cost
row is such a row too: pricing reads only its nonzero entries.  The simplex
path is fixed by the pivot rule, not by the storage, so it is the path exact
rational arithmetic takes.  Pricing is Dantzig's rule until a run
of degenerate pivots is detected, after which the solve switches to Bland's
rule permanently, which guarantees termination on every input.

The tableau stores only what it cannot derive.  A free variable's minus
column is minus its plus column in every row and in the reduced-cost row,
so only the plus column is stored (a mirror column), and column numbers
stay as they are.  Two adjacent rows that are negations of each other off
their slacks, both starting slack-basic (the ``+-`` rows of a symmetric
1-Lipschitz ball), keep that relation, up to their slacks and a constant,
through every pivot in a third row, so the second is not stored (an
implicit twin row): the ratio test reads it from the first, and it is
stored only just before a pivot on either.  After a feasible phase 1 every
basic artificial sits at zero, so the pivots that drive them out are
degenerate; with an objective they are made on the whole tableau, but a
feasibility program (zero objective: zero duals in any basis, and no
phase-2 pivot) only counts them, on a kernel that takes the artificial rows
themselves, since nothing reads them afterwards.

A cut loop's rounds append rows to the last round's program, and each
round resumes the last round's phase-1 path instead of repeating it.  The
loop holds that state itself: a ``Resume`` that it hands with every
round's rows to ``feasible``, and that each round's program carries.  Only
a program that carries a holder records its phase-1 path: its steps (the
entering column, the winning ratio and its basic column, the pivot row)
and checkpoints of its tableau, every step's near the end and sparser
further back; a checkpoint is a shallow copy, since a stored row is never
changed in place.  An appended row sits on its slack, which costs nothing,
so each recorded step prices as it did; the next round replays the steps
against its appended rows alone, up to the first step where one of them
would win the ratio test, restores the last checkpoint at or before it
with the appended rows added, and continues the same pivot loop.
Artificial columns are numbered past every real column, so the appended
slacks renumber no column and ties break as in a cold solve.  A cold
solve is that loop with nothing to replay, and the outcome is the cold
solve's, pivot count included.  A program whose first rows are not the
holder's last rows, or whose bounds differ, solves cold; so does one
whose appended row needs an artificial (it changes the phase-1 cost), and
one with a bounded variable's box row (it comes after the constraints).

A ``Constraint`` stores its row (coefficients, then rhs) once, as
integers over one positive denominator in lowest terms; ``make_program``
scales a rational row to that form once, and every program that shares
the row reads those integers.  The rows reach the phase-1 tableau in one
walk, which lowers each row from its nonzero entries and adds its sign,
rhs, slack and artificial; no lowering is kept between solves.  The cost
is lowered from the objective's nonzero entries only.  Rationals
(``Fraction``) appear only at the boundary: the program, and the primal,
ray, dual and objective values read back from the final tableau, where a
zero cost, bound offset or tableau entry adds no ``Fraction`` term (a
zero value is still ``Fraction(0)``).  Every optimal outcome carries the
pair (primal, dual) as an exact complementary-slackness certificate;
infeasible outcomes carry a Farkas certificate.  Both are re-checked
against the original program's rows before being returned.  The re-check
scales each certificate vector to integers over its lcm once (an
all-zero one, such as a feasibility program's objective and duals, is
read over 1 unscaled) and decides every condition in integers, deriving
the reduced costs ``c - A^T y`` itself; a ``Fraction`` is built only to
word a violation.  The same integer pivot also gives exact rank and
linear solves (``rank``, ``solve_linear``): one Gauss-Jordan elimination
of ``[A | B]`` with the simplex's row operation, so the library has one
exact elimination.
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

# How densely a recorded phase-1 path keeps checkpoints: every step of the
# last 2 * _KEPT, and about _KEPT per doubling of the distance further
# back, since each keeps alive the rows its pivots replaced.  Criterion
# 02's rounds leave the last round's path at most 5 steps before its end;
# the k=3 pipeline's on the equilateral 8-point space, 15 to 32 steps.
_KEPT = 4


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
    path, its row signs, home columns, column count and first free slack.
    A solve takes ``last`` (one reader) and leaves its own."""

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

    ``pivots`` counts the pivots of the simplex path; for a zero objective
    the phase-1 drive-out pivots are counted on the artificial rows alone.
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
    stored row never changes and a checkpoint of the tableau need only copy
    its lists.
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
    """Standard-form simplex state: min cost.x, A x = b, x >= 0, b >= 0.

    Row ``i`` of the tableau is ``rows[i] / den[i]``: a sparse row, a dict
    ``{column: int}`` that never stores a zero, with the rhs under the key
    -1, over one positive denominator, in lowest terms.  The basic column of
    a row holds ``den[i]``.  A pivot and its eliminations touch only the
    stored entries.  The reduced-cost row ``reduced / reduced_den`` is a
    sparse row as well, updated by the same ``_eliminate``.  Every
    comparison the pivot rule makes reads numerators over a positive
    denominator, so the path is the one exact rational arithmetic takes.
    Only columns below ``n_enter`` may enter the basis.

    Two kinds of entries are derived, not stored:

    - **Mirror columns.**  ``mirror[j] = m`` says column ``m`` is minus
      column ``j`` (a free variable's pair), in every row and in the
      reduced-cost row, so only ``j`` is stored, and ``m`` is read through
      it.  ``m > j``, so the lowest nonzero column of a row is stored.
    - **Implicit twin rows.**  ``twins[i] = (p, q)`` says row ``i + 1`` is
      not stored (``rows[i + 1]`` is None): the rows started as negations
      of each other off their slacks ``s``, ``s'``, both basic, so
      ``R_{i+1} = e_s + e_s' + p/q - R_i``.  That holds while both slacks
      stay basic: a basic slack has reduced cost 0 and never enters, and a
      pivot in a third row adds the same multiple of the pivot row to
      ``R_i`` and ``R_{i+1}``.  The ratio test reads row ``i + 1`` from
      row ``i``, and a pivot on either row first stores it
      (``_materialize``).

    While ``path`` is a list, ``run`` records its pivot path there, one
    step per pivot and a last step at the optimum: the checkpoint of the
    state the step starts from, and the choice it makes there (the
    entering column, the winning ratio ``num / quo``, the winner's basic
    column, its row, and the pivot row it became over its denominator),
    None at the optimum.  A checkpoint copies the lists of rows,
    denominators and basic columns, and the twins, and keeps the
    reduced-cost row and the pricing state (stall count, Bland flag); it
    shares the row dicts, since no stored row is ever changed in place.
    Steps far from the newest keep checkpoints more sparsely
    (``_checkpoint``); the others hold None.
    """

    def __init__(self, rows, den, basis, n_cols, mirror=None, twins=None):
        self.rows = rows          # list of sparse rows, None for an implicit twin
        self.den = den
        self.basis = basis
        self.n_cols = n_cols
        self.n_enter = n_cols
        self.n_real = n_cols  # one past the last real column, as build_kernel counts it
        self.pivots = 0
        self.reduced: dict[int, int] = {}
        self.reduced_den = 1
        self.mirror: dict[int, int] = mirror or {}
        self.plus_of = {m: j for j, m in self.mirror.items()}
        self.twins: dict[int, tuple[int, int]] = twins or {}
        self.path: list | None = None

    def stored(self, t):
        """``(column, sign)``: column ``t`` is ``sign`` times the stored
        column."""
        j = self.plus_of.get(t)
        return (t, 1) if j is None else (j, -1)

    def _materialize(self, i):
        """Store the implicit row ``i + 1``, ``e_s + e_s' + p/q - R_i``, in
        lowest terms: over ``q * den[i]``, row ``i``'s slack ``s`` (holding
        ``den[i]``) cancels and the slack ``s'`` gets ``q * den[i]``."""
        p, q = self.twins.pop(i)
        row, d = self.rows[i], self.den[i]
        s = self.basis[i]
        twin = {j: -q * a for j, a in row.items() if j != s and j != -1}
        twin[self.basis[i + 1]] = q * d
        rhs = p * d - q * row.get(-1, 0)
        if rhs:
            twin[-1] = rhs
        d *= q
        g = gcd(d, *twin.values())
        if g > 1:
            for j in twin:
                twin[j] //= g
            d //= g
        self.rows[i + 1], self.den[i + 1] = twin, d

    def _pivot(self, r, t):
        """Pivot on row ``r``, column ``t``; returns the pivot row."""
        twins = self.twins
        if r in twins:
            self._materialize(r)
        elif r - 1 in twins:
            self._materialize(r - 1)
        col, sign = self.stored(t)
        rows, den = self.rows, self.den
        prow = rows[r]
        p = sign * prow[col]
        if p < 0:
            rows[r] = prow = {j: -x for j, x in prow.items()}
            p = -p
        # the row keeps its numerators; the pivot entry becomes its denominator
        den[r] = p
        for i, row in enumerate(rows):
            if row is not None and i != r:
                f = row.get(col)
                if f:
                    rows[i], den[i] = _eliminate(row, den[i], sign * f, p, prow)
        self.basis[r] = t
        self.pivots += 1
        return prow

    def _entering(self, red, bland):
        """The column that enters for the reduced-cost row ``red`` under
        Dantzig's rule, or Bland's when ``bland``, -1 at an optimum.  A
        column may enter where its reduced cost is negative: each negative
        stored entry, and the mirror of each positive one."""
        mirror, n_enter = self.mirror, self.n_enter
        best, t = 0, -1
        for j, d in red.items():
            if d < 0:
                if j < 0 or j >= n_enter:
                    continue
            elif j in mirror:
                d, j = -d, mirror[j]
            else:
                continue
            if t < 0 or (j < t if bland or d == best else d < best):
                best, t = d, j
        return t

    def optimize(self, cost, cost_den):
        """Run simplex for ``cost / cost_den`` from the current basis; ``cost``
        is a sparse row with no rhs, on structural or artificial columns,
        mirror columns included.

        Returns -1 at an optimum, else the entering column of an improving
        ray.  Either way ``reduced / reduced_den`` is left as the
        reduced-cost row against the original columns.  Dantzig's rule
        enters the most negative reduced cost, Bland's the lowest column
        with a negative one; ties go to the lowest column.
        """
        plus_of, den, basis = self.plus_of, self.den, self.basis
        red, rd = {j: c for j, c in cost.items() if j not in plus_of}, cost_den
        for i, row in enumerate(self.rows):
            # an implicit row's basic slack costs nothing
            cb = cost.get(basis[i])
            if cb:
                # red/rd - (cb/cost_den) * row/den[i]
                red, rd = _eliminate(red, rd, cb * rd, cost_den * den[i], row)
        return self.run(red, rd, 0, False)

    def run(self, red, rd, stall, bland):
        """The pivot loop of ``optimize`` from the reduced-cost row
        ``red / rd`` of the current basis, ``stall`` degenerate pivots into
        a run, under Bland's rule if ``bland``: a fresh start, or a restored
        checkpoint.  Records each step while ``path`` is a list."""
        rows, den, basis, twins, path = self.rows, self.den, self.basis, self.twins, self.path
        while True:
            t = self._entering(red, bland)
            if t < 0:
                self.reduced, self.reduced_den = red, rd
                if path is not None:
                    path.append((self._checkpoint(red, rd, stall, bland), None))
                return -1
            col, sign = self.stored(t)
            # ratio rhs_i / a_it: the row denominator cancels; ties go to the
            # lowest basic column, so the row order does not matter
            leave = -1
            num = quo = 0
            for i, row in enumerate(rows):
                if row is None:
                    continue
                a = row.get(col)
                if not a:
                    continue
                a *= sign
                if a > 0:
                    b, k = row.get(-1, 0), i
                elif i in twins:
                    # the implicit row i + 1 holds -a, and rhs p/q - rhs_i,
                    # both over q * den[i]
                    p, q = twins[i]
                    b, a, k = p * den[i] - q * row.get(-1, 0), -q * a, i + 1
                else:
                    continue
                if leave < 0 or b * quo < num * a or (
                    b * quo == num * a and basis[k] < basis[leave]
                ):
                    num, quo = b, a
                    leave = k
            if leave < 0:
                self.reduced, self.reduced_den = red, rd
                return t
            if path is not None:
                state, leaving = self._checkpoint(red, rd, stall, bland), basis[leave]
            prow = self._pivot(leave, t)
            if path is not None:
                path.append((state, (t, num, quo, leaving, leave, prow, den[leave])))
            red, rd = _eliminate(red, rd, sign * red[col], den[leave], prow)
            if num == 0:  # degenerate pivot
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0

    def _checkpoint(self, red, rd, stall, bland):
        """The state the next step starts from, after thinning the path: a
        step ``d >= 2 * _KEPT`` steps back keeps its checkpoint only if its
        index is a multiple of ``2^j``, ``_KEPT * 2^j <= d``, so about
        ``_KEPT`` steps keep one per doubling of the distance."""
        path = self.path
        i, j = len(path) - 2 * _KEPT, 2
        while i >= 0:
            if i % j and path[i][0] is not None:
                path[i] = None, path[i][1]
            i -= _KEPT * j
            j *= 2
        return (self.rows[:], self.den[:], self.basis[:], self.twins.copy(),
                red, rd, stall, bland)


class _BoundConflict(Exception):
    def __init__(self, var, lo, hi):
        self.var = var
        super().__init__(f"variable {var} has lower bound {lo} > upper bound {hi}")


def _negates(con, prev):
    """Is the coefficient row of ``con`` minus that of ``prev``, as
    rationals?"""
    a, da, b, db = con.nums, con.den, prev.nums, prev.den
    return all(a[k] * db == -b[k] * da for k in range(len(a) - 1))


class _Lowering:
    """Original program -> standard form, with maps for pulling answers back.

    A free variable becomes the column pair ``(a, -a)``, of which only
    ``a`` is stored (the kernel's mirror columns), a lower-bounded one the
    column ``a`` shifted by its bound, an upper-bounded one the column
    ``-a`` reflected at it.  A boxed variable is shifted and adds a row
    ``x <= hi - lo`` after the original rows.  The cost is kept as a sparse
    integer row over one denominator (``cost``, ``cost_den``), built from
    the nonzero entries of the objective only.  ``build_kernel`` walks the
    rows once, straight into the phase-1 tableau.
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
                    cost_cols += (col, col + 1)
                    cost_vals += (cj, -cj)
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

    def build_kernel(self, first=0, slack=None):
        """The phase-1 tableau in one walk over the rows: (kernel, row
        signs, first artificial column).

        Each row is kept as integers over one denominator ``d``, its lcm
        scale, the bound shifts subtracted from its rhs over their lcm.  A
        row with a negative rhs is negated, so its sign is -1; it keeps a
        slack (entry ``±d``) as its initial basic column only if that
        slack's entry is then ``+d``, else it gets an artificial (entry
        ``d``).  Slacks are numbered from the last structural column on,
        artificials from ``_ART`` on, both in row order: every column below
        ``_ART`` is real, and rows appended to a program shift none of its
        column numbers as long as they need no artificial.  ``first`` and
        ``slack`` start the walk at that row, with that slack: the rows a
        cut loop's round appends to the last round's.

        Each row is lowered from its nonzero entries (``_lower``), times
        its sign.  A row whose coefficients are minus those of the stored
        row before it, when both start with a basic slack (the ``+-`` rows
        of the 1-Lipschitz ball), is neither lowered nor stored: it is that
        row's implicit twin, and the two signed rhs add up to the twins'
        ``p/q``.
        """
        shifts, shift_den = self.shifts, self.shift_den
        if slack is None:
            slack = self.n_struct
        art = _ART
        rows, den, basis, sign, twins = [], [], [], [], {}
        prev = None  # the constraint before, if its row is stored with a basic slack
        for c in self.constraints[first:]:
            nums, d, rel = c.nums, c.den, c.rel
            b = nums[-1]
            if shifts:
                # d * (rhs - sum_j coeffs[j] * offset_j), times shift_den
                b = b * shift_den - sum(nums[j] * o for j, o in shifts)
                d *= shift_den
            s = -1 if b < 0 else 1
            sign.append(s)
            # the slack starts basic iff it is positive once the row is
            # signed to a nonnegative rhs
            basic = rel == (LE if s > 0 else GE)
            if basic and prev is not None and prev.rel == rel and _negates(c, prev):
                i = len(rows) - 1
                p, q = rows[i].get(-1, 0) * d + s * b * den[i], den[i] * d
                g = gcd(p, q)
                twins[i] = p // g, q // g
                rows.append(None)
                den.append(d)
                basis.append(slack)
                slack += 1
                prev = None
                continue
            prev = c if basic else None
            row = self._lower(nums, s * shift_den)
            if b:
                row[-1] = s * b
            if rel != EQ:
                row[slack] = s * d if rel == LE else -s * d
                slack += 1
            if basic:
                basis.append(slack - 1)
            else:
                row[art] = d
                basis.append(art)
                art += 1
            rows.append(row)
            den.append(d)
        for col, width in self.box_rows:
            # x <= hi - lo: a nonnegative rhs, so its slack starts basic
            wn, wd = width.as_integer_ratio()
            row = {col: wd, -1: wn, slack: wd} if wn else {col: wd, slack: wd}
            sign.append(1)
            basis.append(slack)
            slack += 1
            rows.append(row)
            den.append(wd)
        kern = _Kernel(rows, den, basis, art, self.mirror, twins)
        kern.n_real = slack
        return kern, sign, _ART


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

    kern, sign, home, state = _start(lp, low)
    n_total = kern.n_cols
    phase2_cost, cost_den = low.cost, low.cost_den

    # Phase 1: minimize the artificial sum.
    if _ART < n_total:
        phase1_cost = dict.fromkeys(range(_ART, n_total), 1)
        t = kern.optimize(phase1_cost, 1) if state is None else kern.run(*state)
        if t >= 0:
            raise AssertionError("phase 1 cannot be unbounded")
        if kern.path is not None:
            # what the cut loop's next round resumes from
            lp.resume.last = (lp.constraints, lp.bounds, kern.path, sign, home,
                              n_total, kern.n_real)
            kern.path = None
        # the reduced-cost row's rhs is minus the artificial sum phase 1 reached
        if kern.reduced.get(-1, 0):
            y = _recover_duals(kern, phase1_cost, 1, sign, home)
            farkas = y[: len(lp.constraints)]
            return LpOutcome(status="infeasible", farkas=farkas, pivots=kern.pivots)
        if phase2_cost:
            _drive_out_artificials(kern, _ART)
            kern.n_enter = _ART
        else:
            # a zero objective: every drive-out pivot is degenerate and reads
            # artificial rows only, and phase 2 makes none, so the pivots are
            # counted on a kernel of the artificial rows alone; it takes the
            # rows themselves, since nothing reads them afterwards (a zero
            # cost's phase 2 reads no row, the primal only rows with a
            # structural basic column), and the tableau keeps the primal
            # phase 1 found
            arts = [i for i, b in enumerate(kern.basis) if b >= _ART]
            art_kern = _Kernel(
                [kern.rows[i] for i in arts],
                [kern.den[i] for i in arts],
                [kern.basis[i] for i in arts],
                n_total,
            )
            _drive_out_artificials(art_kern, _ART)
            kern.pivots += art_kern.pivots

    t = kern.optimize(phase2_cost, cost_den)

    if t >= 0:
        return LpOutcome(
            status="unbounded",
            primal=_extract_primal(low, kern),
            ray=_extract_ray(low, kern, t),
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
    """Where phase 1 starts: ``(kernel, row signs, home columns, state)``,
    where a row's home column is its initial basic column, its
    dual-recovery column, and ``state`` is the ``run`` state a resumed
    kernel continues from, None for a cold one.

    A program that carries a ``Resume`` holder resumes the path recorded
    there when it can (``_resume``); else the tableau is built cold.  Only
    a program that carries a holder records its phase-1 path, and not one
    with box rows, whose slacks appended rows would renumber.
    """
    resumed = _resume(lp, low)
    if resumed is not None:
        return resumed
    kern, sign, _ = low.build_kernel()
    if lp.resume is not None and kern.n_cols > _ART and not low.box_rows:
        kern.path = []
    return kern, sign, kern.basis[:], None


def _resume(lp, low):
    """The phase-1 kernel of ``lp`` restored where the path recorded in
    its ``Resume`` holder first changes, or None.

    The rows ``lp`` appends to the holder's last rows are lowered alone,
    each stored, and the recorded path is replayed against them
    (``_replay``).  At the first step an appended row would win, or at the
    phase-1 optimum, or at the last step before it that kept its
    checkpoint, the kernel is the checkpoint there plus the appended rows
    as that step found them; it has made that many pivots and continues
    the same ``run`` from the checkpoint's pricing state.  Its path starts
    with the recorded steps before that one, each checkpoint joined with
    the appended rows.  A recorded path serves one solve: it is taken off
    the holder.  None when there is none, when the last rows are not
    ``lp``'s first rows or its bounds differ, or when an appended row needs
    an artificial: that changes the phase-1 cost, and so the path from its
    first step.
    """
    holder = lp.resume
    kept = None if holder is None else holder.last
    if kept is None:
        return None
    holder.last = None
    shared, bounds, path, sign, home, n_cols, n_real = kept
    if bounds != lp.bounds or lp.constraints[: len(shared)] != shared:
        return None
    added, signs, _ = low.build_kernel(len(shared), n_real)
    if added.n_cols > _ART:
        return None
    for i in list(added.twins):
        added._materialize(i)
    slacks = added.basis
    k, seen = _replay(path, added.rows, added.den, slacks, low.mirror)
    # the loop repeats the steps from the last kept checkpoint to k; step 0
    # always keeps its checkpoint
    while path[k][0] is None:
        k -= 1
    prefix = [
        (None if state is None else
         (state[0] + at_rows, state[1] + at_den, state[2] + slacks, *state[3:]), step)
        for (state, step), (at_rows, at_den) in zip(path[:k], seen)
    ]
    # no other solve reads the recorded path, so the kernel takes the
    # checkpoint's lists and twins as they are
    rows, den, basis, twins, *state = path[k][0]
    at_rows, at_den = seen[k]
    rows += at_rows
    den += at_den
    basis += slacks
    kern = _Kernel(rows, den, basis, n_cols, low.mirror, twins)
    kern.n_real = added.n_real
    kern.pivots = k
    kern.path = prefix
    return kern, sign + signs, home + slacks, state


def _replay(path, rows, den, slacks, mirror):
    """Replay a recorded phase-1 path against appended rows alone: (k,
    the appended rows and denominators at each step up to ``k``).

    An appended row sits on its slack, which costs nothing, so every step
    prices as it did, and the extended program takes the step's pivot
    unless an appended row wins its ratio test: a smaller ratio, or the
    same one and a lower basic column.  ``k`` is the first step where one
    does, or the last step, the phase-1 optimum, which every recorded path
    ends with.  Before each further step the appended rows are eliminated
    by the step's pivot row.
    """
    plus_of = {m: j for j, m in mirror.items()}
    seen = []
    for k, (_, step) in enumerate(path):
        seen.append((rows, den))
        if step is None:
            return k, seen
        t, num, quo, leaving, _, prow, p = step
        col, sign = (t, 1) if t not in plus_of else (plus_of[t], -1)
        for row, s in zip(rows, slacks):
            a = sign * row.get(col, 0)
            if a > 0:
                b = row.get(-1, 0) * quo
                if b < num * a or (b == num * a and s < leaving):
                    return k, seen
        pivoted, pivoted_den = [], []
        for row, d in zip(rows, den):
            f = row.get(col)
            if f:
                row, d = _eliminate(row, d, sign * f, p, prow)
            pivoted.append(row)
            pivoted_den.append(d)
        rows, den = pivoted, pivoted_den


def feasible(constraints, n_vars, bounds=None, resume=None) -> LpOutcome:
    """Feasibility of the rows over ``n_vars`` variables: a witness vector
    or a Farkas infeasibility certificate.  A cut loop hands each round's
    rows with the ``Resume`` it holds, so a round that appends rows to the
    last one resumes that round's phase-1 path."""
    return solve(make_program([_ZERO] * n_vars, constraints, bounds, resume), "min")


def _gauss_jordan(matrix, rhs):
    """Gauss-Jordan elimination of ``[A | B]`` on the simplex's integer pivot.

    Each row is scaled to integers over its lcm and stored sparse, the
    columns of ``B`` after those of ``A`` (no key -1: no simplex runs here),
    and each column of ``A`` is pivoted on the first not-yet-pivoted row
    that is nonzero there.  The kernel's ``basis`` then maps each pivot row
    to its column (-1 for the other rows, which are zero on every column of
    ``A``), and ``pivots`` is the rank.  Which columns get pivots does not
    depend on the row order.
    """
    rows, den = [], []
    for a, b in zip(matrix, rhs, strict=True):
        nums, d = lcm_scale([*a, *b])
        rows.append({j: v for j, v in enumerate(nums) if v})
        den.append(d)
    n = len(matrix[0]) if matrix else 0
    kern = _Kernel(rows, den, [-1] * len(rows), n)
    for c in range(n):
        r = next((i for i, row in enumerate(rows) if c in row and kern.basis[i] < 0), -1)
        if r >= 0:
            kern._pivot(r, c)
    return kern


def rank(matrix) -> int:
    """Exact rank of a matrix of rationals or ints: the number of pivots."""
    return _gauss_jordan(matrix, [()] * len(matrix)).pivots


def solve_linear(matrix, rhs):
    """One exact solution ``X`` of ``A X = B`` (``A`` may be rectangular), or
    None when any column of ``B`` is inconsistent.

    ``rhs`` holds the rows of ``B``; every column is solved by the same
    elimination, with the free variables set to zero.
    """
    kern = _gauss_jordan(matrix, rhs)
    n = kern.n_cols
    width = range(n, n + (len(rhs[0]) if rhs else 0))
    x = [[_ZERO] * len(width) for _ in range(n)]
    for row, d, c in zip(kern.rows, kern.den, kern.basis):
        if c >= 0:
            x[c] = [Fraction(row[j], d) if j in row else _ZERO for j in width]
        elif row:
            return None
    return x


def _drive_out_artificials(kern, n_real):
    """Pivot zero-valued basic artificials onto real columns (below ``n_real``).

    Rows whose tableau row is zero on every real column are redundant; their
    artificial stays basic at zero and is barred from re-entering, which keeps
    it harmless (no real entering column can change it).  Each choice reads
    only rows whose basic column is artificial, so a kernel that holds just
    those rows, in their order, makes the same pivots: for a zero objective
    ``solve`` counts them there.
    """
    for i, b in enumerate(kern.basis):
        if b >= n_real:
            real = [j for j in kern.rows[i] if 0 <= j < n_real]
            if real:
                kern._pivot(i, min(real))


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
    # only structural basic columns with a nonzero rhs are pulled back; an
    # implicit row's basic column is a slack
    n = low.n_struct
    x_std = {
        b: Fraction(row[-1], d)
        for row, d, b in zip(kern.rows, kern.den, kern.basis)
        if b < n and -1 in row
    }
    return _pull_back(low, x_std, offsets=True)


def _extract_ray(low, kern, t):
    # an implicit row's basic column is a slack, which pulls back to nothing
    col, sign = kern.stored(t)
    d_std = {t: _ONE}
    for row, d, b in zip(kern.rows, kern.den, kern.basis):
        a = row.get(col) if row is not None else None
        if a:
            d_std[b] = Fraction(-sign * a, d)
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
