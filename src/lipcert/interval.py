"""The [0,1] model: piecewise-linear Lipschitz functionals, the derivative
identification with step functions, truncated c0-style block bases, McShane
extension from samples, and hybrid spaces (interval plus finitely many extra
points with piecewise-linear distance profiles) with the 1-Lipschitz
retraction transfer.

The interval is never discretized: every supremum reduces to finitely many
breakpoint evaluations, by piecewise linearity or by monotonicity of ratios
of linear functions, so all checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rationals import parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_grid(breakpoints, values):
    if len(breakpoints) != len(values):
        raise ValueError(f"{len(breakpoints)} breakpoints for {len(values)} values")
    if len(breakpoints) < 2:
        raise ValueError("need at least the endpoints 0 and 1")
    if breakpoints[0] != 0 or breakpoints[-1] != 1:
        raise ValueError("breakpoints must start at 0 and end at 1")
    for a, b in zip(breakpoints, breakpoints[1:]):
        if a >= b:
            raise ValueError("breakpoints must be strictly increasing")


def _evaluate(breakpoints, values, t):
    t = parse_rational(t)
    if not 0 <= t <= 1:
        raise ValueError(f"{t} outside [0,1]")
    for i in range(len(breakpoints) - 1):
        if breakpoints[i] <= t <= breakpoints[i + 1]:
            a, b = breakpoints[i], breakpoints[i + 1]
            va, vb = values[i], values[i + 1]
            return va + (vb - va) * (t - a) / (b - a)
    raise AssertionError("unreachable: t inside [0,1]")


def _slopes(breakpoints, values):
    return tuple(
        (values[i + 1] - values[i]) / (breakpoints[i + 1] - breakpoints[i])
        for i in range(len(breakpoints) - 1)
    )


def _refine(bps_a, bps_b):
    return tuple(sorted(set(bps_a) | set(bps_b)))


@dataclass(frozen=True)
class PwlFunctional:
    """Piecewise-linear element of Lip_0([0,1]): f(0) = 0, rational breakpoints."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        _check_grid(self.breakpoints, self.values)
        if self.values[0] != 0:
            raise ValueError(f"f(0) = {self.values[0]}, must be 0")

    def evaluate(self, t) -> Fraction:
        return _evaluate(self.breakpoints, self.values, t)

    def slopes(self):
        return _slopes(self.breakpoints, self.values)

    def __add__(self, other: "PwlFunctional") -> "PwlFunctional":
        grid = _refine(self.breakpoints, other.breakpoints)
        return PwlFunctional(grid, tuple(self.evaluate(t) + other.evaluate(t) for t in grid))

    def __sub__(self, other: "PwlFunctional") -> "PwlFunctional":
        grid = _refine(self.breakpoints, other.breakpoints)
        return PwlFunctional(grid, tuple(self.evaluate(t) - other.evaluate(t) for t in grid))

    def scale(self, c) -> "PwlFunctional":
        c = Fraction(c)
        return PwlFunctional(self.breakpoints, tuple(c * v for v in self.values))


def pwl(breakpoints, values) -> PwlFunctional:
    return PwlFunctional(
        tuple(parse_rational(b) for b in breakpoints), tuple(parse_rational(v) for v in values)
    )


def zero_pwl() -> PwlFunctional:
    return PwlFunctional((_ZERO, _ONE), (_ZERO, _ZERO))


def pwl_combination(basis, coeffs) -> PwlFunctional:
    out = zero_pwl()
    for f, a in zip(basis, coeffs):
        a = Fraction(a)
        if a:
            out = out + f.scale(a)
    return out


def pwl_norm(f: PwlFunctional):
    """Lipschitz norm = max |slope|, with every attaining piece.

    The endpoints of an attaining piece witness strong attainment; every
    interior pair of the piece attains as well, the quotient being constant
    on the piece.
    """
    slopes = f.slopes()
    norm = max((abs(s) for s in slopes), default=_ZERO)
    pieces = tuple(
        (f.breakpoints[i], f.breakpoints[i + 1])
        for i, s in enumerate(slopes)
        if abs(s) == norm
    )
    return norm, pieces


@dataclass(frozen=True)
class StepDerivative:
    """Step function on [0,1]: the derivative of a PwlFunctional."""

    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.slopes) != len(self.breakpoints) - 1:
            raise ValueError("need one slope per piece")
        _check_grid(self.breakpoints, (_ZERO,) * len(self.breakpoints))


def derivative_view(f: PwlFunctional) -> StepDerivative:
    """The isometry onto step functions inside L-infinity: f maps to f'."""
    return StepDerivative(f.breakpoints, f.slopes())


def integrate(sd: StepDerivative) -> PwlFunctional:
    """Inverse of derivative_view: integrate from 0 with value 0."""
    values = [_ZERO]
    for i, s in enumerate(sd.slopes):
        values.append(values[-1] + s * (sd.breakpoints[i + 1] - sd.breakpoints[i]))
    return PwlFunctional(sd.breakpoints, tuple(values))


def c0_block(coeffs) -> PwlFunctional:
    """Functional with derivative coeffs[k-1] on [1 - 1/k, 1 - 1/(k+1)) and 0
    on the tail; its norm is max |coeffs| and is attained on the whole first
    maximizing block.  The N-block basis realizes l-infinity^N isometrically
    inside SNA([0,1]) (the c0 example truncated at N blocks)."""
    coeffs = [Fraction(c) for c in coeffs]
    if not coeffs:
        raise ValueError("need at least one block coefficient")
    n = len(coeffs)
    breakpoints = [_ZERO]
    values = [_ZERO]
    for k in range(1, n + 1):
        left = 1 - Fraction(1, k)
        right = 1 - Fraction(1, k + 1)
        breakpoints.append(right)
        values.append(values[-1] + coeffs[k - 1] * (right - left))
    if breakpoints[-1] != 1:
        breakpoints.append(_ONE)
        values.append(values[-1])
    return PwlFunctional(tuple(breakpoints), tuple(values))


def mcshane_pwl(samples, lip_bound) -> PwlFunctional:
    """McShane envelope g(t) = min_i (y_i + L |t - t_i|) as a PwlFunctional.

    Requires a sample at t = 0 with value 0 and L at least the sample
    Lipschitz constant; then g interpolates the samples, g(0) = 0, and the
    norm of g is at most L (equal when L is the sample constant and > 0).
    """
    L = Fraction(lip_bound)
    if L < 0:
        raise ValueError(f"negative Lipschitz bound {L}")
    pts = sorted((Fraction(t), Fraction(y)) for t, y in samples)
    if not pts or pts[0][0] != 0 or pts[0][1] != 0:
        raise ValueError("samples must include (0, 0)")
    if any(not 0 <= t <= 1 for t, _ in pts):
        raise ValueError("sample points must lie in [0,1]")
    if len(set(t for t, _ in pts)) != len(pts):
        raise ValueError("duplicate sample points")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            (ta, ya), (tb, yb) = pts[i], pts[j]
            if abs(yb - ya) > L * (tb - ta):
                raise ValueError(
                    f"bound {L} below the sample quotient at t = {ta}, {tb}"
                )

    def envelope(t):
        return min(y + L * abs(t - ti) for ti, y in pts)

    if L == 0:
        return PwlFunctional((_ZERO, _ONE), (_ZERO, _ZERO))
    candidates = {_ZERO, _ONE}
    candidates.update(t for t, _ in pts)
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            ti, yi = pts[i]
            tj, yj = pts[j]
            # rising arm of cone i meets falling arm of cone j
            t = (yj - yi + L * (ti + tj)) / (2 * L)
            if 0 < t < 1:
                candidates.add(t)
    grid = sorted(candidates)
    values = [envelope(t) for t in grid]
    # drop interior grid points where the envelope continues straight
    keep = [0]
    for i in range(1, len(grid) - 1):
        a, b, c = keep[-1], i, i + 1
        left = (values[b] - values[a]) * (grid[c] - grid[b])
        right = (values[c] - values[b]) * (grid[b] - grid[a])
        if left != right:
            keep.append(i)
    keep.append(len(grid) - 1)
    return PwlFunctional(
        tuple(grid[i] for i in keep), tuple(values[i] for i in keep)
    )


@dataclass(frozen=True)
class DistanceProfile:
    """Distance from one extra point to each interval point, PWL in t."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        _check_grid(self.breakpoints, self.values)

    def evaluate(self, t) -> Fraction:
        return _evaluate(self.breakpoints, self.values, t)

    def slopes(self):
        return _slopes(self.breakpoints, self.values)


def profile(breakpoints, values) -> DistanceProfile:
    return DistanceProfile(
        tuple(parse_rational(b) for b in breakpoints), tuple(parse_rational(v) for v in values)
    )


@dataclass(frozen=True)
class HybridSpace:
    """The interval [0,1] with base point 0 plus finitely many extra points.

    Extra point z carries a profile d_z(t); extra-extra distances are an
    explicit rational matrix.
    """

    profiles: tuple[DistanceProfile, ...]
    extra_dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        e = len(self.profiles)
        if len(self.extra_dist) != e or any(len(r) != e for r in self.extra_dist):
            raise ValueError(f"extra distance matrix must be {e}x{e}")

    @property
    def extras(self) -> int:
        return len(self.profiles)

    @cached_property
    def violations(self) -> tuple[HybridViolation, ...]:
        """``hybrid_validate`` of this space, computed once."""
        return tuple(hybrid_validate(self))


def hybrid_space(profiles, extra_dist=None) -> HybridSpace:
    profiles = tuple(profiles)
    if extra_dist is None:
        extra_dist = [[_ZERO] * len(profiles) for _ in profiles]
    matrix = tuple(tuple(parse_rational(x) for x in row) for row in extra_dist)
    return HybridSpace(profiles, matrix)


def hybrid_from_doc(doc) -> HybridSpace:
    """The hybrid space of a ``{"extras": [{"breakpoints", "values"}, ...],
    "extra_dist": [[...]]}`` document (``extra_dist`` defaults to zeros).
    Raises ``KeyError``, ``TypeError`` or ``ValueError`` on a bad shape or on
    an entry that ``parse_rational`` rejects."""
    profiles = [profile(p["breakpoints"], p["values"]) for p in doc["extras"]]
    return hybrid_space(profiles, doc.get("extra_dist"))


@dataclass(frozen=True)
class HybridViolation:
    kind: str
    where: tuple
    detail: str


def hybrid_validate(h: HybridSpace) -> list[HybridViolation]:
    """All metric axioms of the hybrid description, checked finitely.

    Profile positivity and the interval pair inequality reduce to the
    breakpoint values; slopes in [-1,1] are exactly 1-Lipschitzness in t; mixed
    and pure extra triangle inequalities are checked on common refinements
    and on the explicit matrix.
    """
    out: list[HybridViolation] = []
    for z, prof in enumerate(h.profiles):
        for t, v in zip(prof.breakpoints, prof.values):
            if v <= 0:
                out.append(HybridViolation("profile-positivity", (z, t), f"d_z({t}) = {v} <= 0"))
        for i, s in enumerate(prof.slopes()):
            if abs(s) > 1:
                piece = (prof.breakpoints[i], prof.breakpoints[i + 1])
                out.append(
                    HybridViolation("profile-slope", (z,) + piece, f"slope {s} outside [-1,1]")
                )
        points = tuple(zip(prof.breakpoints, prof.values))
        for i, (s, ds) in enumerate(points):
            for t, dt in points[i + 1:]:
                if ds + dt < t - s:
                    out.append(
                        HybridViolation(
                            "interval-pair",
                            (z, s, t),
                            f"d_z({s}) + d_z({t}) < |{s} - {t}|",
                        )
                    )
    e = h.extras
    for z in range(e):
        if h.extra_dist[z][z] != 0:
            out.append(HybridViolation("extra-diagonal", (z,), "nonzero diagonal"))
        for w in range(z + 1, e):
            if h.extra_dist[z][w] != h.extra_dist[w][z]:
                out.append(HybridViolation("extra-symmetry", (z, w), "asymmetric entry"))
            elif h.extra_dist[z][w] <= 0:
                out.append(HybridViolation("extra-positivity", (z, w), "nonpositive distance"))
    for z in range(e):
        for w in range(e):
            for v in range(e):
                if len({z, w, v}) == 3:
                    if h.extra_dist[z][w] > h.extra_dist[z][v] + h.extra_dist[v][w]:
                        out.append(
                            HybridViolation(
                                "extra-triangle",
                                (z, v, w),
                                f"d(z{z},z{w}) > d(z{z},z{v}) + d(z{v},z{w})",
                            )
                        )
    for z in range(e):
        for w in range(z + 1, e):
            dzw = h.extra_dist[z][w]
            grid = _refine(h.profiles[z].breakpoints, h.profiles[w].breakpoints)
            for t in grid:
                dz = h.profiles[z].evaluate(t)
                dw = h.profiles[w].evaluate(t)
                if dzw > dz + dw:
                    out.append(
                        HybridViolation(
                            "extra-pair-upper", (z, w, t), f"d(z{z},z{w}) > d_z({t}) + d_w({t})"
                        )
                    )
                if abs(dz - dw) > dzw:
                    out.append(
                        HybridViolation(
                            "extra-pair-lower", (z, w, t), f"|d_z({t}) - d_w({t})| > d(z{z},z{w})"
                        )
                    )
    return out


class HybridInvalidError(ValueError):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


def _require_valid(h: HybridSpace):
    if h.violations:
        raise HybridInvalidError(h.violations)


def retraction(h: HybridSpace) -> tuple[Fraction, ...]:
    """Retraction values F(z) for the extras (F is the identity on [0,1]).

    F(z) clamps min_t (t + d_z(t)) to [0,1]: the McShane extension of the
    identity composed with the 1-Lipschitz clamp.  The minimum is attained at
    a profile breakpoint since the expression is PWL in t.  The retraction
    inequalities are re-verified exactly before returning.  Raises
    ``HybridInvalidError`` when ``h`` is not a metric space.
    """
    _require_valid(h)
    out = []
    for prof in h.profiles:
        raw = min(t + v for t, v in zip(prof.breakpoints, prof.values))
        out.append(min(_ONE, max(_ZERO, raw)))
    for z, prof in enumerate(h.profiles):
        checkpoints = set(prof.breakpoints)
        checkpoints.add(out[z])
        for t in checkpoints:
            if abs(out[z] - t) > prof.evaluate(t):
                raise AssertionError(f"|F(z{z}) - {t}| > d_z({t})")
    for z in range(h.extras):
        for w in range(z + 1, h.extras):
            if abs(out[z] - out[w]) > h.extra_dist[z][w]:
                raise AssertionError(f"|F(z{z}) - F(z{w})| > d(z{z},z{w})")
    return tuple(out)


@dataclass(frozen=True)
class HybridFunctional:
    """Element of Lip_0 of a hybrid space: a PwlFunctional plus extra values."""

    pwl: PwlFunctional
    extra_values: tuple[Fraction, ...]


def compose_embed(f: PwlFunctional, h: HybridSpace) -> HybridFunctional:
    """T(f) = f after the retraction: f on the interval, f(F(z)) at extras.

    A linear isometry of Lip_0([0,1]) into Lip_0 of the hybrid space; the
    interval part alone realizes the norm, so strong-attainment witnesses
    stay on the interval.
    """
    F = retraction(h)
    return HybridFunctional(f, tuple(f.evaluate(t) for t in F))


@dataclass(frozen=True)
class HybridWitness:
    kind: str  # 'interval' | 'extra-extra' | 'extra-interval'
    data: tuple


def hybrid_norm(u: HybridFunctional, h: HybridSpace):
    """Exact Lipschitz norm of a hybrid functional, with a witness.

    Three finite families cover the supremum: interval piece slopes;
    extra-extra quotients; and, per extra z, |u(z) - f(t)| / d_z(t) over the
    common refinement of breakpoints (on each piece the ratio of two linear
    functions is monotone, so its sup sits at an endpoint).  Raises
    ``HybridInvalidError`` when ``h`` is not a metric space.
    """
    _require_valid(h)
    if len(u.extra_values) != h.extras:
        raise ValueError(f"{len(u.extra_values)} extra values for {h.extras} extras")
    best = _ZERO
    witness = None
    norm, pieces = pwl_norm(u.pwl)
    if norm > 0:
        best = norm
        witness = HybridWitness("interval", pieces[0])
    for z in range(h.extras):
        for w in range(z + 1, h.extras):
            q = abs(u.extra_values[z] - u.extra_values[w]) / h.extra_dist[z][w]
            if q > best:
                best = q
                witness = HybridWitness("extra-extra", (z, w))
    for z in range(h.extras):
        prof = h.profiles[z]
        grid = _refine(u.pwl.breakpoints, prof.breakpoints)
        for t in grid:
            q = abs(u.extra_values[z] - u.pwl.evaluate(t)) / prof.evaluate(t)
            if q > best:
                best = q
                witness = HybridWitness("extra-interval", (z, t))
    return best, witness
