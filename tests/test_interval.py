"""The [0,1] model: PWL functionals, derivative view, c0 blocks, McShane,
hybrid spaces, retraction, norm transfer."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lipcert import certdoc
from lipcert import interval as iv
from lipcert.rationals import format_rational

from helpers import (
    fraction_evaluate,
    fraction_hybrid_norm,
    fraction_hybrid_validate,
    fraction_retraction,
    random_coeffs,
    random_hybrid,
    random_pwl,
)

F = Fraction


def identity():
    return iv.pwl([0, 1], [0, 1])


def test_pwl_validation():
    with pytest.raises(ValueError):
        iv.pwl([0, F(1, 2)], [0, 1])  # must end at 1
    with pytest.raises(ValueError):
        iv.pwl([0, F(1, 2), F(1, 2), 1], [0, 1, 1, 0])  # strictly increasing
    with pytest.raises(ValueError):
        iv.pwl([0, 1], [1, 0])  # f(0) = 0


def test_pwl_norm_identity_and_zero():
    norm, pieces = iv.pwl_norm(identity())
    assert norm == 1
    assert pieces == ((F(0), F(1)),)
    norm, pieces = iv.pwl_norm(iv.zero_pwl())
    assert norm == 0
    assert pieces == ((F(0), F(1)),)


def test_pwl_norm_two_piece():
    f = iv.pwl([0, F(1, 2), 1], [0, F(1, 2), F(1, 4)])
    norm, pieces = iv.pwl_norm(f)
    assert norm == 1
    assert pieces == ((F(0), F(1, 2)),)


def test_derivative_integrate_inverse():
    f = iv.pwl([0, F(1, 3), 1], [0, F(1, 6), F(-1, 2)])
    sd = iv.derivative_view(f)
    assert sd.slopes == (F(1, 2), F(-1),)
    assert iv.integrate(sd) == f
    for seed in range(100):
        g = random_pwl(seed)
        assert iv.integrate(iv.derivative_view(g)) == g
        norm, _ = iv.pwl_norm(g)
        assert norm == max((abs(s) for s in iv.derivative_view(g).slopes), default=0)


def test_derivative_view_of_integrate_is_identity():
    sd = iv.StepDerivative((F(0), F(1, 4), F(1)), (F(2), F(-1)))
    assert iv.derivative_view(iv.integrate(sd)) == sd


def test_c0_block_examples():
    one = iv.c0_block([1])
    assert one.breakpoints == (F(0), F(1, 2), F(1))
    assert one.values == (F(0), F(1, 2), F(1, 2))
    two = iv.c0_block([1, F(-1, 2)])
    assert two.breakpoints == (F(0), F(1, 2), F(2, 3), F(1))
    assert two.values == (F(0), F(1, 2), F(5, 12), F(5, 12))
    norm, pieces = iv.pwl_norm(two)
    assert norm == 1
    assert pieces[0] == (F(0), F(1, 2))


def test_c0_basis_linf_identity():
    for n in (1, 3, 6, 10):
        basis = [iv.c0_block([F(i == k) for i in range(n)]) for k in range(n)]
        for seed in range(25):
            coeffs = random_coeffs(f"c0:{n}:{seed}", n)
            combo = iv.pwl_combination(basis, coeffs)
            norm, _ = iv.pwl_norm(combo)
            assert norm == max(abs(c) for c in coeffs)


def test_pwl_combination_rejects_a_coefficient_count_mismatch():
    basis = [iv.c0_block([1, 0]), iv.c0_block([0, 1])]
    with pytest.raises(ValueError, match=r"^1 coefficients for 2 basis elements$"):
        iv.pwl_combination(basis, [1])
    with pytest.raises(ValueError, match=r"^2 coefficients for 1 basis elements$"):
        iv.pwl_combination(basis[:1], [1, 5])


def test_mcshane_pwl_examples():
    assert iv.mcshane_pwl([(0, 0), (1, 1)], 1) == identity()
    tent = iv.mcshane_pwl([(0, 0), (F(1, 2), F(1, 2)), (1, 0)], 1)
    assert tent.breakpoints == (F(0), F(1, 2), F(1))
    assert tent.values == (F(0), F(1, 2), F(0))
    peak = iv.mcshane_pwl([(0, 0), (1, 0)], 1)
    assert peak.breakpoints == (F(0), F(1, 2), F(1))
    assert peak.values == (F(0), F(1, 2), F(0))


def test_mcshane_pwl_errors():
    with pytest.raises(ValueError):
        iv.mcshane_pwl([(0, 0), (1, 1)], F(1, 2))  # bound below sample quotient
    with pytest.raises(ValueError):
        iv.mcshane_pwl([(F(1, 2), 0), (1, 1)], 2)  # missing the base sample
    with pytest.raises(ValueError):
        iv.mcshane_pwl([(0, 0)], -1)  # negative bound: f(t) = -t has norm 1
    with pytest.raises(ValueError):
        iv.mcshane_pwl([(0, 0), (1, 0)], F(-1, 2))


def test_evaluate_takes_exact_rationals_only():
    # floats and decimal strings are rejected, as everywhere in the library
    f = iv.pwl([0, F(1, 2), 1], [0, 1, 0])
    for t in (0.1, 0.5, "0.5"):
        with pytest.raises(ValueError):
            f.evaluate(t)
    assert f.evaluate(0) == 0 and f.evaluate(1) == 0
    assert f.evaluate(F(1, 4)) == F(1, 2)
    assert f.evaluate("1/2") == 1
    prof = iv.profile([0, 1], [1, 2])
    with pytest.raises(ValueError):
        prof.evaluate(0.25)
    assert prof.evaluate("1/4") == F(5, 4)


def test_mcshane_pwl_interpolates_and_attains():
    import random

    for seed in range(100):
        rng = random.Random(f"samples:{seed}")
        ts = sorted({F(rng.randint(1, 31), 32) for _ in range(rng.randint(1, 4))})
        samples = [(F(0), F(0))]
        for t in ts:
            samples.append((t, F(rng.randint(-16, 16), 32)))
        bound = max(
            abs(yb - ya) / (tb - ta)
            for i, (ta, ya) in enumerate(samples)
            for tb, yb in samples[i + 1 :]
        )
        if bound == 0:
            continue
        g = iv.mcshane_pwl(samples, bound)
        for t, y in samples:
            assert g.evaluate(t) == y
        norm, _ = iv.pwl_norm(g)
        assert norm == bound


def test_hybrid_validate_no_extras():
    h = iv.hybrid_space([])
    assert iv.hybrid_validate(h) == []


def test_hybrid_validate_v_profile():
    prof = iv.profile([0, F(1, 4), 1], [F(3, 4), F(1, 2), F(5, 4)])
    h = iv.hybrid_space([prof])
    assert iv.hybrid_validate(h) == []


def test_hybrid_validate_rejects_steep_profile():
    prof = iv.profile([0, F(1, 2), 1], [F(1), F(2), F(2)])
    h = iv.hybrid_space([prof])
    kinds = {v.kind for v in iv.hybrid_validate(h)}
    assert "profile-slope" in kinds


def test_hybrid_validate_rejects_extra_triangle():
    flat = lambda c: iv.profile([0, 1], [c, c])
    h = iv.hybrid_space(
        [flat(F(10)), flat(F(10)), flat(F(10))],
        [
            [0, F(1, 10), F(19)],
            [F(1, 10), 0, F(1, 10)],
            [F(19), F(1, 10), 0],
        ],
    )
    kinds = {v.kind for v in iv.hybrid_validate(h)}
    assert "extra-triangle" in kinds


def test_random_hybrids_valid():
    for seed in range(60):
        h = random_hybrid(seed)
        assert iv.hybrid_validate(h) == []


def test_retraction_examples():
    assert iv.retraction(iv.hybrid_space([])) == ()
    h = iv.hybrid_space([iv.profile([0, F(1, 4), 1], [F(3, 4), F(1, 2), F(5, 4)])])
    assert iv.retraction(h) == (F(3, 4),)
    h2 = iv.hybrid_space([iv.profile([0, 1], [2, 1])])  # d_z(t) = 2 - t
    assert iv.retraction(h2) == (F(1),)


def test_retraction_is_one_lipschitz():
    for seed in range(40):
        h = random_hybrid(seed)
        F_values = iv.retraction(h)
        for z in range(h.extras):
            assert 0 <= F_values[z] <= 1
            for w in range(z + 1, h.extras):
                assert abs(F_values[z] - F_values[w]) <= h.extra_dist[z][w]


def test_compose_embed_examples():
    h = iv.hybrid_space([iv.profile([0, F(1, 4), 1], [F(3, 4), F(1, 2), F(5, 4)])])
    u = iv.compose_embed(identity(), h)
    assert u.extra_values == (F(3, 4),)
    f = iv.c0_block([1, F(-1, 2)])
    u2 = iv.compose_embed(f, h)
    assert u2.extra_values == (F(5, 12),)
    norm, witness = iv.hybrid_norm(u2, h)
    assert norm == 1
    assert witness.kind == "interval"
    assert witness.data == (F(0), F(1, 2))


def test_compose_embed_linear():
    h = random_hybrid(7)
    f = random_pwl(1)
    g = random_pwl(2)
    left = iv.compose_embed(f + g, h)
    fu = iv.compose_embed(f, h)
    gu = iv.compose_embed(g, h)
    assert left.pwl == f + g
    assert left.extra_values == tuple(a + b for a, b in zip(fu.extra_values, gu.extra_values))


def test_hybrid_norm_zero_and_overshoot():
    h = iv.hybrid_space([iv.profile([0, 1], [F(3, 2), F(3, 2)])])
    zero = iv.HybridFunctional(iv.zero_pwl(), (F(0),))
    assert iv.hybrid_norm(zero, h)[0] == 0
    big = iv.HybridFunctional(iv.zero_pwl(), (F(2),))
    norm, witness = iv.hybrid_norm(big, h)
    assert norm == F(4, 3)
    assert witness.kind == "extra-interval"


def test_compose_embed_is_isometry_random():
    for seed in range(30):
        h = random_hybrid(seed)
        for fs in range(4):
            f = random_pwl(f"{seed}:{fs}")
            u = iv.compose_embed(f, h)
            expected, _ = iv.pwl_norm(f)
            got, witness = iv.hybrid_norm(u, h)
            assert got == expected
            if expected > 0:
                assert witness.kind == "interval"


def test_compose_embed_rejects_invalid_hybrid():
    # every entry point that takes a hybrid space validates it
    bad = iv.hybrid_space([iv.profile([0, F(1, 2), 1], [F(1), F(3), F(3)])])
    assert iv.hybrid_validate(bad)
    u = iv.HybridFunctional(identity(), (F(1),))
    with pytest.raises(iv.HybridInvalidError):
        iv.compose_embed(identity(), bad)
    with pytest.raises(iv.HybridInvalidError):
        iv.retraction(bad)
    with pytest.raises(iv.HybridInvalidError):
        iv.hybrid_norm(u, bad)
    with pytest.raises(iv.HybridInvalidError):
        certdoc.hybrid_document(bad, identity(), u)


def test_hybrid_space_validates_once(monkeypatch):
    calls = []
    real = iv.hybrid_validate
    monkeypatch.setattr(iv, "hybrid_validate", lambda h: calls.append(h) or real(h))
    h = iv.hybrid_space([iv.profile(["0", "1/4", "1"], ["3/4", "1/2", "5/4"])])
    f = random_pwl("once")
    u = iv.compose_embed(f, h)
    doc = certdoc.hybrid_document(h, f, u)
    assert iv.hybrid_norm(u, h)[0] == iv.pwl_norm(f)[0]
    assert doc["verdict"] == "valid"
    assert calls == [h]
    assert h.violations == ()


def _interval_pair_oracle(h):
    return [
        (z, s, t)
        for z, prof in enumerate(h.profiles)
        for s in prof.breakpoints
        for t in prof.breakpoints
        if s < t and prof.evaluate(s) + prof.evaluate(t) < t - s
    ]


def test_interval_pair_check_matches_evaluate_oracle():
    broken = 0
    for seed in range(60):
        h = random_hybrid(seed)
        shrunk = iv.HybridSpace(
            tuple(
                iv.DistanceProfile(p.breakpoints, tuple(v * F(1, 2 + (seed + z) % 4) for v in p.values))
                for z, p in enumerate(h.profiles)
            ),
            h.extra_dist,
        )
        for space in (h, shrunk):
            found = [v.where for v in iv.hybrid_validate(space) if v.kind == "interval-pair"]
            assert found == _interval_pair_oracle(space), seed
            broken += bool(found)
    assert _interval_pair_oracle(random_hybrid(0)) == []
    assert broken > 20


HYBRID_KINDS = (
    "profile-positivity",
    "profile-slope",
    "interval-pair",
    "extra-diagonal",
    "extra-symmetry",
    "extra-positivity",
    "extra-triangle",
    "extra-pair-upper",
    "extra-pair-lower",
)


def _broken_hybrid(seed):
    """``random_hybrid(seed)`` with one to three seeded faults in its
    profiles or its extra distance matrix."""
    rng = random.Random(f"broken:{seed}")
    h = random_hybrid(seed)
    profiles = list(h.profiles)
    dist = [list(row) for row in h.extra_dist]
    e = h.extras
    for _ in range(rng.randint(1, 3)):
        z = rng.randrange(e)
        w = rng.choice([x for x in range(e) if x != z] or [z])
        p = profiles[z]
        kind = rng.randrange(7)
        if kind == 0:  # shifted down to or below zero somewhere
            shift = min(p.values) + F(rng.randint(0, 4), 8)
            profiles[z] = iv.DistanceProfile(p.breakpoints, tuple(v - shift for v in p.values))
        elif kind in (1, 2):  # steepened, or shrunk below the interval pairs
            factor = F(rng.randint(3, 8), 2) if kind == 1 else F(1, rng.randint(2, 5))
            profiles[z] = iv.DistanceProfile(p.breakpoints, tuple(v * factor for v in p.values))
        elif kind == 3:
            dist[z][z] = F(rng.randint(1, 4), 4)
        elif kind == 4 and w != z:
            dist[z][w] += F(1, rng.randint(1, 8))
        elif kind == 5 and w != z:
            dist[z][w] = dist[w][z] = -F(rng.randint(0, 2), 2)
        elif kind == 6 and w != z:
            dist[z][w] = dist[w][z] = dist[z][w] * rng.choice((F(1, 8), F(3)))
    return iv.HybridSpace(tuple(profiles), tuple(tuple(row) for row in dist))


def test_hybrid_read_path_agrees_with_fraction_oracles():
    # hybrid_validate, retraction and hybrid_norm decide on lcm-scaled ints
    # and integer cross-products; each must return what the Fraction code
    # returns, violation texts and witnesses included
    rng = random.Random(43)
    kinds = Counter()
    witnesses = Counter()
    for seed in range(300):
        # two extras at one profile may lie closer than any route through
        # the interval, so an extra-extra quotient can be the norm
        twin = random_hybrid(seed).profiles[0]
        close = iv.HybridSpace((twin, twin), ((0, F(1, 4 + seed % 60)), (F(1, 4 + seed % 60), 0)))
        for h in (random_hybrid(seed), _broken_hybrid(seed), close):
            expected = fraction_hybrid_validate(h)
            assert iv.hybrid_validate(h) == expected
            kinds.update(v.kind for v in expected)
            if expected:
                with pytest.raises(iv.HybridInvalidError):
                    fraction_retraction(h)
                with pytest.raises(iv.HybridInvalidError):
                    iv.retraction(h)
                continue
            assert iv.retraction(h) == fraction_retraction(h)
            f = random_pwl(f"oracle:{seed}")
            scattered = tuple(F(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(h.extras))
            for u in (iv.compose_embed(f, h), iv.HybridFunctional(f, scattered)):
                norm = iv.hybrid_norm(u, h)
                assert norm == fraction_hybrid_norm(u, h)
                witnesses[norm[1] and norm[1].kind] += 1
    assert min(kinds[kind] for kind in HYBRID_KINDS) > 20, kinds
    assert min(witnesses[kind] for kind in ("interval", "extra-extra", "extra-interval")) > 20, witnesses


def test_evaluate_agrees_with_fraction_oracle():
    rng = random.Random(47)
    for seed in range(200):
        for g in (random_pwl(f"eval:{seed}"), random_hybrid(seed).profiles[0]):
            points = list(g.breakpoints)
            points += [F(rng.randint(0, q), q) for q in (2, 3, 7, 64, 96, 1000)]
            for t in points:
                got = g.evaluate(t)
                assert got == fraction_evaluate(g.breakpoints, g.values, t)
                assert type(got) is Fraction
            assert g.evaluate(format_rational(points[-1])) == g.evaluate(points[-1])
            for t in (F(-1, 3), F(4, 3)):
                with pytest.raises(ValueError):
                    g.evaluate(t)
