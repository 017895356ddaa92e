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

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from .rationals import lcm_scale_rows, parse_rational

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


def _refine(bps_a, bps_b):
    return tuple(sorted(set(bps_a) | set(bps_b)))


@dataclass(frozen=True)
class _PiecewiseLinear:
    """Rational values at breakpoints 0 = t_0 < ... < t_m = 1, linear between."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        _check_grid(self.breakpoints, self.values)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The breakpoints and values over the lcm ``d`` of all their
        denominators, as ints ``(T, V, d)``; computed once."""
        (bps, vals), d = lcm_scale_rows((self.breakpoints, self.values))
        return bps, vals, d

    def evaluate(self, t) -> Fraction:
        """The stored value at a breakpoint; elsewhere the interpolation on
        the piece that bisection finds."""
        t = parse_rational(t)
        p, q = t.as_integer_ratio()
        if not 0 <= p <= q:
            raise ValueError(f"{t} outside [0,1]")
        bps, vals, d = self.scaled
        x = p * d  # t, like each breakpoint below, scaled by d * q
        i = bisect_left(bps, x, key=q.__mul__)
        if bps[i] * q == x:
            return self.values[i]
        a, b = bps[i - 1] * q, bps[i] * q
        return Fraction(vals[i - 1] * (b - x) + vals[i] * (x - a), (b - a) * d)

    def slopes(self):
        bps, vals, _ = self.scaled
        return tuple(
            Fraction(vals[i + 1] - vals[i], bps[i + 1] - bps[i]) for i in range(len(bps) - 1)
        )


@dataclass(frozen=True)
class PwlFunctional(_PiecewiseLinear):
    """Piecewise-linear element of Lip_0([0,1]): f(0) = 0, rational breakpoints."""

    def __post_init__(self):
        super().__post_init__()
        if self.values[0] != 0:
            raise ValueError(f"f(0) = {self.values[0]}, must be 0")

    def __add__(self, other: "PwlFunctional") -> "PwlFunctional":
        grid = _refine(self.breakpoints, other.breakpoints)
        return PwlFunctional(grid, tuple(self.evaluate(t) + other.evaluate(t) for t in grid))

    def __sub__(self, other: "PwlFunctional") -> "PwlFunctional":
        grid = _refine(self.breakpoints, other.breakpoints)
        return PwlFunctional(grid, tuple(self.evaluate(t) - other.evaluate(t) for t in grid))

    def scale(self, c) -> "PwlFunctional":
        c = parse_rational(c)
        return PwlFunctional(self.breakpoints, tuple(c * v for v in self.values))


def pwl(breakpoints, values) -> PwlFunctional:
    return PwlFunctional(
        tuple(parse_rational(b) for b in breakpoints), tuple(parse_rational(v) for v in values)
    )


def zero_pwl() -> PwlFunctional:
    return PwlFunctional((_ZERO, _ONE), (_ZERO, _ZERO))


def pwl_combination(basis, coeffs) -> PwlFunctional:
    """sum_k coeffs[k] * basis[k], one coefficient per basis element."""
    coeffs = [parse_rational(a) for a in coeffs]
    if len(coeffs) != len(basis):
        raise ValueError(f"{len(coeffs)} coefficients for {len(basis)} basis elements")
    out = zero_pwl()
    for f, a in zip(basis, coeffs):
        if a:
            out = out + f.scale(a)
    return out


def pwl_norm(f: PwlFunctional):
    """Lipschitz norm = max |slope|, with every attaining piece.

    The endpoints of an attaining piece witness strong attainment; every
    interior pair of the piece attains as well, the quotient being constant
    on the piece.
    """
    # |slope| of piece i is |rise| / run on f.scaled's ints, compared as
    # best_rise / best_run without dividing
    bps, vals, _ = f.scaled
    steps = [(abs(vals[i + 1] - vals[i]), bps[i + 1] - bps[i]) for i in range(len(bps) - 1)]
    best_rise, best_run = 0, 1
    for rise, run in steps:
        if rise * best_run > best_rise * run:
            best_rise, best_run = rise, run
    pieces = tuple(
        (f.breakpoints[i], f.breakpoints[i + 1])
        for i, (rise, run) in enumerate(steps)
        if rise * best_run == best_rise * run
    )
    return Fraction(best_rise, best_run), pieces


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
    coeffs = [parse_rational(c) for c in coeffs]
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
    L = parse_rational(lip_bound)
    if L < 0:
        raise ValueError(f"negative Lipschitz bound {L}")
    pts = sorted((parse_rational(t), parse_rational(y)) for t, y in samples)
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
class DistanceProfile(_PiecewiseLinear):
    """Distance from one extra point to each interval point, PWL in t."""


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
        # the profile's own checks compare its scaled ints; a text quotes
        # the Fractions
        bps, vals, _ = prof.scaled
        m = len(bps)
        for t, v, scaled_v in zip(prof.breakpoints, prof.values, vals):
            if scaled_v <= 0:
                out.append(HybridViolation("profile-positivity", (z, t), f"d_z({t}) = {v} <= 0"))
        for i in range(m - 1):
            rise, run = vals[i + 1] - vals[i], bps[i + 1] - bps[i]
            if abs(rise) > run:
                piece = (prof.breakpoints[i], prof.breakpoints[i + 1])
                out.append(
                    HybridViolation(
                        "profile-slope", (z,) + piece, f"slope {Fraction(rise, run)} outside [-1,1]"
                    )
                )
        for i in range(m):
            for j in range(i + 1, m):
                if vals[i] + vals[j] < bps[j] - bps[i]:
                    s, t = prof.breakpoints[i], prof.breakpoints[j]
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
            # d(z,w) = a / b against d_z(t) +- d_w(t) = (pz qw +- pw qz) / (qz qw)
            a, b = h.extra_dist[z][w].as_integer_ratio()
            grid = _refine(h.profiles[z].breakpoints, h.profiles[w].breakpoints)
            for t in grid:
                pz, qz = h.profiles[z].evaluate(t).as_integer_ratio()
                pw, qw = h.profiles[w].evaluate(t).as_integer_ratio()
                if a * qz * qw > (pz * qw + pw * qz) * b:
                    out.append(
                        HybridViolation(
                            "extra-pair-upper", (z, w, t), f"d(z{z},z{w}) > d_z({t}) + d_w({t})"
                        )
                    )
                if abs(pz * qw - pw * qz) * b > a * qz * qw:
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
    for z, prof in enumerate(h.profiles):
        # F(z) = c / d on the profile's scaled ints (T, V, d), with c the
        # minimum of T + V clamped to [0, d]
        bps, vals, d = prof.scaled
        c = min(d, max(0, min(map(add, bps, vals))))
        out.append(Fraction(c, d))
        for t, scaled_t, v in zip(prof.breakpoints, bps, vals):
            if abs(c - scaled_t) > v:
                raise AssertionError(f"|F(z{z}) - {t}| > d_z({t})")
        if prof.evaluate(out[z]) < 0:
            raise AssertionError(f"|F(z{z}) - {out[z]}| > d_z({out[z]})")
    for z in range(h.extras):
        cz, dz = out[z].as_integer_ratio()
        for w in range(z + 1, h.extras):
            cw, dw = out[w].as_integer_ratio()
            p, q = h.extra_dist[z][w].as_integer_ratio()
            if abs(cz * dw - cw * dz) * q > p * dz * dw:
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
    # every quotient is a pair of ints (a, b), b > 0, and a / b beats the
    # best one when a * best_b > best_a * b
    norm, pieces = pwl_norm(u.pwl)
    best_a, best_b = norm.as_integer_ratio()
    witness = HybridWitness("interval", pieces[0]) if best_a > 0 else None
    extra = [v.as_integer_ratio() for v in u.extra_values]
    for z in range(h.extras):
        pz, qz = extra[z]
        for w in range(z + 1, h.extras):
            pw, qw = extra[w]
            dp, dq = h.extra_dist[z][w].as_integer_ratio()
            a, b = abs(pz * qw - pw * qz) * dq, qz * qw * dp
            if a * best_b > best_a * b:
                best_a, best_b = a, b
                witness = HybridWitness("extra-extra", (z, w))
    for z in range(h.extras):
        prof = h.profiles[z]
        pz, qz = extra[z]
        for t in _refine(u.pwl.breakpoints, prof.breakpoints):
            fp, fq = u.pwl.evaluate(t).as_integer_ratio()
            dp, dq = prof.evaluate(t).as_integer_ratio()
            a, b = abs(pz * fq - fp * qz) * dq, qz * fq * dp
            if a * best_b > best_a * b:
                best_a, best_b = a, b
                witness = HybridWitness("extra-interval", (z, t))
    return Fraction(best_a, best_b), witness
