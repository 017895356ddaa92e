"""Finite pointed metric spaces with exact rational distances.

The distinguished point is index 0 for every space produced by parsing,
generation, or restriction.  ``rebase`` (in :mod:`lipcert.lipschitz`) is the
one operation that marks a different base index without reordering points.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from .rationals import RationalFormatError, format_rational, lcm_scale_rows, parse_rational

# Grid used by the `range` generator: multiples of 1/64 inside [1, 2], so the
# triangle inequality is automatic (2 <= 1 + 1) and LP coefficients stay small.
RANGE_GRID_DENOMINATOR = 64


class SpaceFormatError(ValueError):
    """Malformed metric-space document: bad JSON, bad rational, wrong shape."""


@dataclass(frozen=True)
class Violation:
    """One failed metric axiom, with the indices that witness it."""

    kind: str  # 'shape' | 'diagonal' | 'symmetry' | 'positivity' | 'triangle'
    indices: tuple[int, ...]
    detail: str

    def describe(self) -> str:
        return f"{self.kind} at {self.indices}: {self.detail}"


class MetricViolationError(ValueError):
    """Candidate matrix fails the metric axioms; carries the violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        msg = "; ".join(v.describe() for v in self.violations) or "metric violation"
        super().__init__(msg)


def validate(matrix) -> list[Violation]:
    """Check a square rational matrix against the metric axioms.

    Returns an empty list iff the matrix is a metric: zero diagonal, symmetric,
    positive off-diagonal, and d(i,k) <= d(i,j) + d(j,k) for all triples.
    Violations are data, not errors.
    """
    return _violations(matrix)[0]


def _violations(matrix):
    """``validate``'s violations, plus the matrix lcm-scaled to ints (None
    when it is not square).  The axioms are decided on those ints; the
    violation texts quote the entries of ``matrix``."""
    n = len(matrix)
    out: list[Violation] = []
    if n < 2:
        out.append(Violation("shape", (n,), "a pointed metric space needs at least 2 points"))
        return out, None
    for i, row in enumerate(matrix):
        if len(row) != n:
            out.append(Violation("shape", (i,), f"row {i} has length {len(row)}, expected {n}"))
            return out, None
    scaled = lcm_scale_rows(matrix)
    ints = scaled[0]
    for i in range(n):
        if ints[i][i] != 0:
            out.append(Violation("diagonal", (i,), f"d({i},{i}) = {matrix[i][i]} != 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if ints[i][j] != ints[j][i]:
                out.append(
                    Violation(
                        "symmetry",
                        (i, j),
                        f"d({i},{j}) = {matrix[i][j]} != d({j},{i}) = {matrix[j][i]}",
                    )
                )
            elif ints[i][j] <= 0:
                out.append(Violation("positivity", (i, j), f"d({i},{j}) = {matrix[i][j]} <= 0"))
    if out:
        return out, scaled
    for i in range(n):
        row_i = ints[i]
        for k in range(i + 1, n):
            row_k = ints[k]
            # with a zero diagonal and symmetry, j = i and j = k give exactly
            # d(i,k), so a smaller sum names a violated triple
            if min(map(add, row_i, row_k)) >= row_i[k]:
                continue
            for j in range(n):
                if j != i and j != k and row_i[k] > row_i[j] + row_k[j]:
                    out.append(
                        Violation(
                            "triangle",
                            (i, j, k),
                            f"d({i},{k}) = {matrix[i][k]} > "
                            f"d({i},{j}) + d({j},{k}) = {matrix[i][j] + matrix[j][k]}",
                        )
                    )
    return out, scaled


@dataclass(frozen=True)
class PointedMetricSpace:
    """Immutable finite metric space with a distinguished base point.

    ``parent_map`` is set by :func:`restrict` and maps local indices back into
    the immediate parent space.
    """

    dist: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...]
    base: int = 0
    parent_map: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.dist)

    def rho(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    @cached_property
    def _integer_scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return lcm_scale_rows(self.dist)

    @property
    def integer_dist(self) -> tuple[tuple[int, ...], ...]:
        """The distance matrix scaled by the lcm of its denominators, as
        ints; computed once per space."""
        return self._integer_scaled[0]

    @property
    def dist_scale(self) -> int:
        """That lcm ``s``: rho(x, y) = integer_dist[x][y] / s."""
        return self._integer_scaled[1]

    @cached_property
    def _canonical_text(self) -> str:
        doc = {
            "points": list(self.labels),
            "dist": [[format_rational(x) for x in row] for row in self.dist],
        }
        if self.base != 0:
            doc["base"] = self.base
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def pairs(self):
        """Unordered pairs (i, j), i < j."""
        n = len(self.dist)
        for i in range(n):
            for j in range(i + 1, n):
                yield i, j

    def ordered_pairs(self):
        """Ordered pairs (x, y), x != y, in lexicographic order."""
        n = len(self.dist)
        for x in range(n):
            for y in range(n):
                if x != y:
                    yield x, y

    @staticmethod
    def from_matrix(rows, labels=None, base: int = 0, parent_map=None) -> "PointedMetricSpace":
        """Build and validate a space from ints, ``Fraction``s or 'p/q'
        strings (``parse_rational``, so no float enters); raises
        MetricViolationError when invalid."""
        dist = tuple(
            tuple(x if type(x) is Fraction else parse_rational(x) for x in row) for row in rows
        )
        violations, scaled = _violations(dist)
        if violations:
            raise MetricViolationError(violations)
        labels = point_labels(len(dist), labels, base)
        if parent_map is not None:
            parent_map = tuple(parent_map)
        space = PointedMetricSpace(dist, labels, base, parent_map)
        # the integers the axioms were checked on are integer_dist's cache
        space.__dict__["_integer_scaled"] = scaled
        return space


def point_labels(n: int, labels, base: int) -> tuple[str, ...]:
    """Labels of an ``n``-point space (``p0``, ``p1``, ... when ``labels`` is
    None), after checking that there is one per point and that ``base``
    indexes a point; raises SpaceFormatError."""
    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise SpaceFormatError(f"{len(labels)} labels for {n} points")
    if not 0 <= base < n:
        raise SpaceFormatError(f"base index {base} out of range")
    return labels


def load_space_document(text: str):
    """Syntax-only parse of the metric-space format: (rows, labels, base).

    Metric axioms, the label count and the base index are not checked here;
    ``validate`` and ``point_labels``, or ``from_matrix``, do that
    separately, so callers can report violations as data.
    """
    return _space_fields(json_document(text))


def json_document(text: str):
    """``json.loads(text)``, or SpaceFormatError naming why it is not JSON."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer with too many digits
        raise SpaceFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpaceFormatError("invalid JSON: nested too deeply") from exc


def _space_fields(doc):
    """The syntax checks of ``load_space_document`` on an already parsed
    JSON value: (rows, labels, base), or SpaceFormatError."""
    if not isinstance(doc, dict) or "dist" not in doc:
        raise SpaceFormatError('document must be an object with a "dist" matrix')
    raw = doc["dist"]
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise SpaceFormatError('"dist" must be a list of rows')
    try:
        rows = [[parse_rational(x) for x in row] for row in raw]
    except RationalFormatError as exc:
        raise SpaceFormatError(str(exc)) from exc
    labels = doc.get("points")
    if labels is not None and not isinstance(labels, list):
        raise SpaceFormatError('"points" must be a list of labels')
    base = doc.get("base", 0)
    if type(base) is not int:
        raise SpaceFormatError('"base" must be an integer index')
    return rows, labels, base


def parse_space(text: str) -> PointedMetricSpace:
    """Parse the metric-space file format.

    Format: ``{"points": [labels...], "dist": [[...]]}`` with rationals encoded
    as 'p/q' or integer strings, row-major, index 0 the base point.  "points"
    may be omitted (default labels).  An optional "base" field (default 0)
    round-trips spaces produced by rebasing.
    """
    return space_from_doc(json_document(text))


def space_from_doc(doc) -> PointedMetricSpace:
    """``parse_space`` of an already parsed JSON value."""
    rows, labels, base = _space_fields(doc)
    return PointedMetricSpace.from_matrix(rows, labels=labels, base=base)


def serialize_space(space: PointedMetricSpace) -> str:
    """Canonical JSON form; parse(serialize(s)) == s bit-exactly.  Built
    once per space."""
    return space._canonical_text


def random_space(n: int, seed: int, method: str = "range") -> PointedMetricSpace:
    """Deterministic random space; reproducible in (n, seed, method).

    range:     off-diagonal entries uniform on the 1/64 grid inside [1, 2]
               (triangle inequality automatic).
    euclidean: n distinct points on a rational grid in Q^3 with l1 distance
               (exactly computable, metric by construction).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if method not in ("range", "euclidean"):
        raise ValueError(f"unknown method {method!r}")
    rng = random.Random(f"{method}:{n}:{seed}")
    q = RANGE_GRID_DENOMINATOR
    if method == "range":
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d = Fraction(rng.randint(q, 2 * q), q)
                rows[i][j] = d
                rows[j][i] = d
        return PointedMetricSpace.from_matrix(rows)
    pts: list[tuple[Fraction, Fraction, Fraction]] = []
    while len(pts) < n:
        cand = tuple(Fraction(rng.randint(0, 2 * q), q) for _ in range(3))
        if cand not in pts:
            pts.append(cand)
    rows = [
        [sum(abs(a - b) for a, b in zip(p, r)) for r in pts]
        for p in pts
    ]
    return PointedMetricSpace.from_matrix(rows)


def restrict(space: PointedMetricSpace, indices) -> PointedMetricSpace:
    """Induced subspace on ``indices`` with indices[0] as the new base.

    The returned space records ``parent_map`` back into ``space``.
    """
    indices = list(indices)
    if len(indices) < 2:
        raise ValueError("restriction needs at least 2 indices")
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate indices in {indices}")
    for i in indices:
        if not 0 <= i < space.n:
            raise ValueError(f"index {i} out of range for {space.n}-point space")
    # every restriction of a metric is a metric: nothing to validate again
    rows = tuple(tuple(space.dist[a][b] for b in indices) for a in indices)
    labels = tuple(space.labels[i] for i in indices)
    return PointedMetricSpace(rows, labels, 0, tuple(indices))
