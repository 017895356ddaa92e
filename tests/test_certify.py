"""Isometry certificates: cube+sign, corner cross-oracle, free-space l1, linf."""

import random
from fractions import Fraction
from math import lcm

import pytest

from lipcert import certify, freespace
from lipcert.lipschitz import combine, functional
from lipcert.metric import PointedMetricSpace, random_space, restrict

from helpers import equilateral, random_coeffs

F = Fraction


def eq4_basis():
    space = equilateral(4)
    return functional(space, [0, 1, 0, 1]), functional(space, [0, 1, 1, 0])


def test_combo_norm_examples():
    f1, f2 = eq4_basis()
    assert certify.combo_norm([f1, f2], [0, 0]) == 0
    assert certify.combo_norm([f1, f2], [1, 1]) == 2
    assert certify.combo_norm([f1, f2], [2, -3]) == 5


def test_combo_norm_rejects_mismatched_spaces():
    f1, _ = eq4_basis()
    g = functional(equilateral(5), [0, 1, 0, 1, 0])
    with pytest.raises(ValueError):
        certify.combo_norm([f1, g], [1, 1])


def test_l1_certificate_single_functional():
    space = equilateral(3)
    f = functional(space, [0, 1, 0])
    cert = certify.l1_isometry_lip([f])
    assert cert.valid
    assert cert.sign_witnesses[0].epsilon == (1,)


def test_l1_certificate_four_point_witnesses():
    f1, f2 = eq4_basis()
    cert = certify.l1_isometry_lip([f1, f2])
    assert cert.valid
    assert [(w.epsilon, w.x, w.y) for w in cert.sign_witnesses] == [
        ((1, 1), 1, 0),
        ((1, -1), 3, 2),
    ]


def test_l1_certificate_degenerate_basis():
    f1, _ = eq4_basis()
    cert = certify.l1_isometry_lip([f1, f1])
    assert not cert.valid
    assert cert.missing_epsilon == (1, -1)


def test_l1_certificate_cube_violation():
    f1, f2 = eq4_basis()
    cert = certify.l1_isometry_lip([f1.scale(2), f2])
    assert not cert.valid
    assert cert.cube_violation is not None
    assert cert.cube_violation.coordinate == 0


def test_corner_agreement_on_examples():
    f1, f2 = eq4_basis()
    report = certify.l1_isometry_corner([f1, f2])
    assert report.valid
    assert report.unit_norms == (F(1), F(1))
    assert [v for _, v in report.corner_values] == [F(2), F(2)]
    bad = certify.l1_isometry_corner([f1, f2.scale(F(1, 2))])
    assert not bad.valid
    # homogeneity shows up both in the unit norm and in the corner value
    assert bad.unit_norms[1] == F(1, 2)
    assert dict(bad.corner_values)[(1, 1)] == F(3, 2)


def test_pinned_pairs_checked_exactly():
    f1, f2 = eq4_basis()
    pinned = certify.l1_isometry_lip([f1, f2], pinned_pairs={(1, 1): (1, 0), (1, -1): (3, 2)})
    assert pinned.valid
    wrong = certify.l1_isometry_lip([f1, f2], pinned_pairs={(1, 1): (1, 0), (1, -1): (2, 3)})
    assert not wrong.valid


def test_sign_class_by_index_matches_class_order():
    for n in range(1, 7):
        classes = list(certify.sign_class_representatives(n))
        assert len(classes) == 2 ** (n - 1) == len(set(classes))
        assert classes == sorted(classes, reverse=True)
        for i, eps in enumerate(classes):
            assert certify.sign_class(n, i) == eps
            assert certify.is_sign_class(eps, n)
            assert not certify.is_sign_class(tuple(-e for e in eps), n)
            assert not certify.is_sign_class(eps, n + 1)
    assert certify.sign_class(40, 2 ** 39 - 1) == (1,) + (-1,) * 39
    f1, f2 = eq4_basis()
    with pytest.raises(ValueError, match="not a sign class"):
        certify.l1_isometry_lip([f1, f2], pinned_pairs={(-1, 1): (1, 0)})


def test_cross_oracle_agreement_random_bases():
    # valid bases from the 4-point construction, invalid ones by mutation
    from lipcert.construct import four_point_basis

    for seed in range(300):
        space = random_space(4, seed, "range")
        f1, f2, _ = four_point_basis(space)
        basis = [f1, f2]
        rng = random.Random(f"mutate:{seed}")
        roll = rng.random()
        if roll < 0.3:
            basis[rng.randrange(2)] = basis[rng.randrange(2)].scale(F(1, 2))
        elif roll < 0.6:
            values = list(basis[0].values)
            values[rng.randint(1, 3)] += F(rng.randint(1, 3), 4)
            basis[0] = functional(space, values)
        lip = certify.l1_isometry_lip(basis)
        corner = certify.l1_isometry_corner(basis)
        assert lip.valid == corner.valid
        if lip.valid:
            for t in range(10):
                coeffs = random_coeffs(f"{seed}:{t}", 2)
                assert certify.combo_norm(basis, coeffs) == sum(abs(c) for c in coeffs)


def test_validity_stable_under_permutation_and_sign_flip():
    f1, f2 = eq4_basis()
    assert certify.l1_isometry_lip([f2, f1]).valid
    assert certify.l1_isometry_lip([f1.scale(-1), f2]).valid
    assert certify.l1_isometry_corner([f2.scale(-1), f1.scale(-1)]).valid


def test_free_l1_molecule_and_pair():
    space = equilateral(4)
    u1 = freespace.free_vector(space, [1, -1, 0])  # delta_1 - delta_2
    u2 = freespace.free_vector(space, [0, 0, 1])  # delta_3
    single = certify.l1_isometry_free([u1])
    assert single.valid
    both = certify.l1_isometry_free([u1, u2])
    assert both.valid
    assert [v for _, v in both.combo_norms] == [F(2), F(2)]
    dup = certify.l1_isometry_free([u1, u1])
    assert not dup.valid
    assert "(1, -1)" in dup.failure


def test_linf_certificate_single_matches_l1():
    space = equilateral(3)
    f = functional(space, [0, 1, 0])
    assert certify.linf_isometry_lip([f]).valid == certify.l1_isometry_lip([f]).valid


def test_linf_certificate_rejects_duplicate():
    space = equilateral(5)
    g1 = functional(space, [0, F(1, 2), -F(1, 2), 0, 0])
    cert = certify.linf_isometry_lip([g1, g1])
    assert not cert.valid


def test_sign_witnesses_are_strong_attainment_pairs():
    from lipcert.lipschitz import lip_norm

    f1, f2 = eq4_basis()
    cert = certify.l1_isometry_lip([f1, f2])
    for w in cert.sign_witnesses:
        combo = combine([f1, f2], w.epsilon)
        norm, attaining = lip_norm(combo)
        assert norm == 2
        assert (w.x, w.y) in {(a.x, a.y) for a in attaining}


def test_pinned_diagonal_pair_raises():
    from lipcert import certdoc
    from lipcert.construct import four_point_basis

    f1, f2 = eq4_basis()
    with pytest.raises(ValueError, match="not two distinct point indices"):
        certify.l1_isometry_lip([f1, f2], pinned_pairs={(1, 1): (1, 1), (1, -1): (3, 2)})
    # the verifier names the witness before it reaches the certificate
    _, _, cert = four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    doc["checks"]["signs"]["witnesses"][0]["pair"] = [2, 2]
    report = certdoc.verify_document(doc)
    assert not report.ok and report.recomputed == "invalid"
    assert "witness pair [2, 2] is not two distinct point indices" in report.failures


# Fraction oracles: the certificate checks read straight from their
# definitions, one quotient Fraction per ordered pair and no integer scaling.


def _oracle_quotients(basis, x, y):
    return tuple((f.values[x] - f.values[y]) / basis[0].space.rho(x, y) for f in basis)


def _oracle_l1(basis, pinned_pairs=None):
    space = basis[0].space
    n = len(basis)
    cube_violation = None
    sign_pairs = {}
    for x, y in space.ordered_pairs():
        w = _oracle_quotients(basis, x, y)
        for k, q in enumerate(w):
            if abs(q) > 1:
                if cube_violation is None:
                    cube_violation = certify.CubeViolation(x, y, k, q)
                break
        else:
            if pinned_pairs is None and all(abs(q) == 1 for q in w):
                key = tuple(int(q) for q in w)
                if key not in sign_pairs:
                    sign_pairs[key] = (x, y)
    reps = certify.sign_class_representatives(n)
    witnesses = []
    missing = None
    for i, eps in enumerate(reps):
        if pinned_pairs is not None:
            pair = pinned_pairs[i]
            if pair is not None and _oracle_quotients(basis, *pair) != tuple(map(F, eps)):
                pair = None
        else:
            pair = sign_pairs.get(eps)
        if pair is None:
            if missing is None:
                missing = eps
        else:
            witnesses.append(certify.SignWitness(eps, *pair))
    return certify.L1IsometryCertificate(
        basis=tuple(basis),
        cube_violation=cube_violation,
        sign_witnesses=tuple(witnesses),
        missing_epsilon=missing,
    )


def _oracle_linf(basis):
    space = basis[0].space
    ball_violation = None
    vertex_pair = {}
    for x, y in space.ordered_pairs():
        w = _oracle_quotients(basis, x, y)
        total = sum(abs(q) for q in w)
        if total > 1:
            if ball_violation is None:
                ball_violation = certify.BallViolation(x, y, total)
            continue
        for j, q in enumerate(w):
            if q == 1 and j not in vertex_pair:
                vertex_pair[j] = (x, y)
    witnesses = tuple(certify.VertexWitness(j, *vertex_pair[j]) for j in sorted(vertex_pair))
    missing = next((j for j in range(len(basis)) if j not in vertex_pair), None)
    return certify.LinfIsometryCertificate(
        basis=tuple(basis),
        ball_violation=ball_violation,
        vertex_witnesses=witnesses,
        missing_coordinate=missing,
    )


def _oracle_lip_norm(f):
    from lipcert.lipschitz import WitnessPair

    quotients = [(i, j, (f.values[i] - f.values[j]) / f.space.rho(i, j)) for i, j in f.space.pairs()]
    norm = max((abs(q) for _, _, q in quotients), default=F(0))
    if norm == 0:
        return F(0), ()
    witnesses = [WitnessPair(i, j, q) if q > 0 else WitnessPair(j, i, -q)
                 for i, j, q in quotients if abs(q) == norm]
    return norm, tuple(sorted(witnesses, key=lambda w: (w.x, w.y)))


def _oracle_mcshane(f, parent, lip_bound):
    idx = f.space.parent_map
    raw = [
        min(f.values[k] + lip_bound * parent.rho(x, idx[k]) for k in range(f.space.n))
        for x in range(parent.n)
    ]
    return tuple(v - raw[parent.base] for v in raw)


def _oracle_operator_norm(op):
    best = witness = None
    for mol in freespace.canonical_molecules(op.space):
        u = mol.as_free_vector().coeffs
        image = [sum(a * b for a, b in zip(row, u)) for row in op.matrix]
        value = freespace.free_norm(freespace.free_vector(op.space, image))
        if best is None or value > best:
            best, witness = value, mol
    return best, witness


def _oracle_spaces(rng):
    """Random range/euclidean spaces and scaled equilateral ones, where
    quotients of +-1 and tied norms are common."""
    spaces = []
    for i in range(48):
        n = 3 + i % 3
        if i % 2:
            spaces.append(random_space(n, rng.randrange(10**6), rng.choice(["range", "euclidean"])))
        else:
            c = F(rng.randint(1, 9), rng.randint(1, 4))
            spaces.append(PointedMetricSpace.from_matrix([[c * (i != j) for j in range(n)] for i in range(n)]))
    return spaces


def _oracle_basis(rng, space):
    """k functionals, each on its own denominator; on a scaled equilateral
    space half of them take values in {0, +-c} so sign classes have several
    realizing pairs in both orientations."""
    k = rng.randint(1, 3)
    c = space.rho(0, 1)
    basis = []
    for _ in range(k):
        if rng.random() < 0.5 and len(set(x for row in space.dist for x in row)) == 2:
            values = [F(0)] + [c * rng.choice([0, 1, -1]) for _ in range(space.n - 1)]
        else:
            d = rng.choice([1, 2, 3, 5, 7, 8])
            span = rng.choice([1, 2, 8])
            values = [F(0)] + [F(rng.randint(-span * d, span * d), d) * c for _ in range(space.n - 1)]
        basis.append(functional(space, values))
    return basis


def test_integer_checks_agree_with_fraction_oracles():
    from lipcert.construct import four_point_basis
    from lipcert.lipschitz import lip_norm, mcshane_extend

    rng = random.Random("integer-oracle")
    spaces = _oracle_spaces(rng)
    seen = {"cube": 0, "ball": 0, "valid_l1": 0, "valid_linf": 0, "forward": 0, "reverse": 0,
            "unequal_den": 0, "pinned_missing": 0}
    for case in range(2000):
        if case % 4 == 0:
            # a certified l1^2 basis, and the linf^2 basis (f1 + f2)/2, (f1 - f2)/2
            space = random_space(4, case, rng.choice(["range", "euclidean"]))
            f1, f2, _ = four_point_basis(space)
            basis = [f1.scale(rng.choice([1, -1])), f2.scale(rng.choice([1, -1]))]
            linf = [(f1 + f2).scale(F(1, 2)), (f1 - f2).scale(F(1, 2))]
        else:
            space = rng.choice(spaces)
            basis = _oracle_basis(rng, space)
            linf = basis
        if len({lcm(*(v.denominator for v in f.values)) for f in basis}) > 1:
            seen["unequal_den"] += 1
        if case % 4 < 2:
            # quotient_vector's one Fraction of integers per coordinate
            # against (f(x) - f(y)) / rho(x, y)
            for x, y in space.ordered_pairs():
                w = certify.quotient_vector(basis, x, y)
                assert w == _oracle_quotients(basis, x, y)
                assert all(type(q) is Fraction for q in w)
        cert = certify.l1_isometry_lip(basis)
        assert cert == _oracle_l1(basis)
        seen["cube"] += cert.cube_violation is not None
        seen["valid_l1"] += cert.valid
        for w in cert.sign_witnesses:
            seen["forward" if w.x < w.y else "reverse"] += 1
        pinned = [(w.x, w.y) for w in cert.sign_witnesses]
        pinned += [None] * (2 ** (len(basis) - 1) - len(pinned))
        pinned = [p if rng.random() < 0.8 else tuple(rng.sample(range(space.n), 2)) for p in pinned]
        classes = certify.sign_class_representatives(len(basis))
        pinned_cert = certify.l1_isometry_lip(
            basis, pinned_pairs={eps: p for eps, p in zip(classes, pinned) if p is not None}
        )
        assert pinned_cert == _oracle_l1(basis, pinned)
        seen["pinned_missing"] += pinned_cert.missing_epsilon is not None
        linf_cert = certify.linf_isometry_lip(linf)
        assert linf_cert == _oracle_linf(linf)
        seen["ball"] += linf_cert.ball_violation is not None
        seen["valid_linf"] += linf_cert.valid
        for f in basis:
            assert lip_norm(f) == _oracle_lip_norm(f)
        if case % 10 == 0 and space.n > 3:
            sub = restrict(space, [0] + sorted(rng.sample(range(1, space.n), 2)))
            g = functional(sub, [0] + [rng.choice(basis).values[p] for p in sub.parent_map[1:]])
            bound = lip_norm(g)[0] + F(rng.randint(0, 3), rng.randint(1, 3))
            assert mcshane_extend(g, space, bound).values == _oracle_mcshane(g, space, bound)
    assert min(seen.values()) > 20, seen

    for case in range(300):
        space = rng.choice(spaces)
        nb = space.n - 1
        d = rng.choice([1, 2, 3, 4, 6])
        rows = [[F(rng.choice([0, 0, 1, -1, rng.randint(-4, 4)]), d) for _ in range(nb)]
                for _ in range(nb)]
        op = freespace.FreeOperator.from_matrix(space, rows)
        assert freespace.operator_norm(op) == _oracle_operator_norm(op)
