"""Lipschitz norm, witnesses, rebasing, McShane extension, basis extension."""

import random
from fractions import Fraction

import pytest

from lipcert import certify
from lipcert.construct import four_point_basis
from lipcert.lipschitz import (
    combine,
    functional,
    lip_norm,
    mcshane_extend,
    extend_basis,
    rebase,
    zero_functional,
)
from lipcert.metric import random_space, restrict

from helpers import equilateral, random_functional

F = Fraction


def test_zero_functional_norm():
    norm, witnesses = lip_norm(zero_functional(equilateral(4)))
    assert norm == 0
    assert witnesses == ()


def test_norm_with_full_witness_set():
    f = functional(equilateral(4), [0, 1, 0, 1])
    norm, witnesses = lip_norm(f)
    assert norm == 1
    assert [(w.x, w.y) for w in witnesses] == [(1, 0), (1, 2), (3, 0), (3, 2)]
    assert all(w.quotient == 1 for w in witnesses)


def test_norm_two_point_half_distance():
    space = restrict(equilateral(4), [0, 1])  # distance 1; rescale below
    from lipcert.metric import PointedMetricSpace

    space = PointedMetricSpace.from_matrix([[0, F(1, 2)], [F(1, 2), 0]])
    f = functional(space, [0, 1])
    norm, witnesses = lip_norm(f)
    assert norm == 2
    assert [(w.x, w.y) for w in witnesses] == [(1, 0)]


def test_combine_rejects_a_coefficient_count_mismatch():
    space = equilateral(4)
    f, g = random_functional(space, "combine:f"), random_functional(space, "combine:g")
    with pytest.raises(ValueError, match=r"^1 coefficients for 2 basis elements$"):
        combine([f, g], [1])
    with pytest.raises(ValueError, match=r"^2 coefficients for 1 basis elements$"):
        combine([f], [1, 5])


def test_functional_requires_zero_at_base():
    with pytest.raises(ValueError):
        functional(equilateral(3), [1, 0, 0])


def test_norm_axioms_random():
    space = random_space(5, 17, "range")
    for seed in range(50):
        f = random_functional(space, seed)
        g = random_functional(space, seed + 1000)
        nf, _ = lip_norm(f)
        ng, _ = lip_norm(g)
        nsum, _ = lip_norm(f + g)
        assert nsum <= nf + ng
        c = F(seed - 25, 7)
        nscaled, _ = lip_norm(f.scale(c))
        assert nscaled == abs(c) * nf
        assert (nf == 0) == (f.values == zero_functional(space).values)


def test_rebase_identity_and_shift():
    f = functional(equilateral(4), [0, 1, 0, 1])
    assert rebase(f, 0) is f
    g = rebase(f, 1)
    assert g.values == (F(-1), F(0), F(-1), F(0))
    assert g.space.base == 1


def test_rebase_preserves_norm_and_witnesses_500_seeds():
    for seed in range(500):
        space = random_space(5, seed, "range")
        f = random_functional(space, seed)
        new_base = seed % 5
        g = rebase(f, new_base)
        nf, wf = lip_norm(f)
        ng, wg = lip_norm(g)
        assert nf == ng
        assert [(w.x, w.y) for w in wf] == [(w.x, w.y) for w in wg]


def test_mcshane_identity_on_full_space():
    space = equilateral(4)
    sub = restrict(space, [0, 1, 2, 3])
    f = functional(sub, [0, 1, 0, 1])
    g = mcshane_extend(f, space, 1)
    assert g.values == f.values


def test_mcshane_two_point_example():
    space = equilateral(4)
    sub = restrict(space, [0, 2])
    f = functional(sub, [0, 1])
    g = mcshane_extend(f, space, 1)
    assert g.values == (F(0), F(1), F(1), F(1))


def test_mcshane_rejects_small_bound():
    space = equilateral(4)
    sub = restrict(space, [0, 2])
    f = functional(sub, [0, 1])
    with pytest.raises(ValueError):
        mcshane_extend(f, space, F(1, 2))


def test_mcshane_properties_500_seeds():
    for seed in range(500):
        rng = random.Random(f"mcshane:{seed}")
        parent = random_space(6, seed, "range")
        size = rng.randint(2, 5)
        indices = [0] + sorted(rng.sample(range(1, 6), size - 1))
        sub = restrict(parent, indices)
        f = random_functional(sub, seed)
        bound, _ = lip_norm(f)
        if bound == 0:
            continue
        g = mcshane_extend(f, parent, bound)
        norm_g, _ = lip_norm(g)
        assert norm_g == bound
        shift = g.values[indices[0]] - f.values[0]
        for local, parent_idx in enumerate(indices):
            assert g.values[parent_idx] == f.values[local] + shift


def test_extend_basis_into_equilateral_six():
    parent = equilateral(6)
    sub = restrict(parent, [0, 1, 2, 3])
    f1 = functional(sub, [0, 1, 0, 1])
    f2 = functional(sub, [0, 1, 1, 0])
    cert = certify.l1_isometry_lip([f1, f2])
    parent_cert = extend_basis(cert, parent)
    assert parent_cert.valid
    assert [tuple(f.values) for f in parent_cert.basis] == [
        (F(0), F(1), F(0), F(1), F(1), F(1)),
        (F(0), F(1), F(1), F(0), F(1), F(1)),
    ]
    members = set(range(4))
    assert all(w.x in members and w.y in members for w in parent_cert.sign_witnesses)


def test_extend_basis_rejects_invalid_certificate():
    parent = equilateral(6)
    sub = restrict(parent, [0, 1, 2, 3])
    f1 = functional(sub, [0, 1, 0, 1])
    bad = certify.l1_isometry_lip([f1, f1])
    with pytest.raises(ValueError):
        extend_basis(bad, parent)


def test_extend_basis_four_point_in_random_parent_200_seeds():
    for seed in range(200):
        parent = random_space(8, seed, "range")
        rng = random.Random(f"extend:{seed}")
        indices = [0] + sorted(rng.sample(range(1, 8), 3))
        sub = restrict(parent, indices)
        f1, f2, cert = four_point_basis(sub)
        parent_cert = extend_basis(cert, parent)
        assert parent_cert.valid
        members = set(indices)
        assert all(w.x in members and w.y in members for w in parent_cert.sign_witnesses)
        # witnesses are strong-attainment pairs of their sign combinations
        for witness in parent_cert.sign_witnesses:
            combo = combine(parent_cert.basis, witness.epsilon)
            _, attaining = lip_norm(combo)
            assert (witness.x, witness.y) in {(w.x, w.y) for w in attaining}
