"""Constructions: four-point basis, Rademacher, duality lift, pipeline,
direct search, evaluation embeddings."""

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from lipcert import certify, construct, freespace, lipschitz, lp
from lipcert.lipschitz import closure_add, lip_norm
from lipcert.metric import PointedMetricSpace, random_space

from helpers import equilateral, random_coeffs, random_functional

F = Fraction


def test_four_point_equilateral():
    f1, f2, cert = construct.four_point_basis(equilateral(4))
    assert f1.values == (F(0), F(1), F(0), F(1))
    assert f2.values == (F(0), F(1), F(1), F(0))
    assert cert.valid
    assert [(w.epsilon, w.x, w.y) for w in cert.sign_witnesses] == [
        ((1, 1), 1, 0),
        ((1, -1), 3, 2),
    ]


def test_four_point_long_edge_tie_break():
    rows = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 3], [2, 2, 3, 0]]
    space = PointedMetricSpace.from_matrix(rows)
    f1, f2, cert = construct.four_point_basis(space)
    assert f1.values == (F(0), F(1), F(-1), F(2))
    assert f2.values == (F(0), F(1), F(2), F(-1))
    assert cert.valid


def test_four_point_1000_random_spaces():
    # and tie-heavy graph metrics: the equilateral space, the 4-cycle and the
    # 3-leaf star, based at its centre and at a leaf
    cycle = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    star = [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
    leaf_star = [[0, 1, 2, 2], [1, 0, 1, 1], [2, 1, 0, 2], [2, 1, 2, 0]]
    spaces = [random_space(4, seed, "range") for seed in range(1000)]
    spaces += [equilateral(4)] + [
        PointedMetricSpace.from_matrix(rows) for rows in (cycle, star, leaf_star)
    ]
    for space in spaces:
        f1, f2, cert = construct.four_point_basis(space)
        assert cert.valid
        for f in (f1, f2):
            norm, witnesses = lip_norm(f)
            assert norm == 1 and witnesses


def test_four_point_scaling_homogeneity():
    for seed in range(50):
        space = random_space(4, seed, "range")
        c = F(seed % 5 + 1, 3)
        scaled = PointedMetricSpace.from_matrix(
            [[c * x for x in row] for row in space.dist], labels=space.labels
        )
        f1, f2, cert1 = construct.four_point_basis(space)
        g1, g2, cert2 = construct.four_point_basis(scaled)
        assert g1.values == tuple(c * v for v in f1.values)
        assert g2.values == tuple(c * v for v in f2.values)
        assert cert2.valid


def test_four_point_rejects_wrong_size():
    with pytest.raises(ValueError):
        construct.four_point_basis(equilateral(5))


def test_rademacher_small_cases():
    assert construct.rademacher_embedding(1) == ((1,),)
    assert construct.rademacher_embedding(2) == ((1, 1), (1, -1))
    rows = construct.rademacher_embedding(3)
    assert len(rows) == 4 and all(len(r) == 3 for r in rows)
    assert all(r[0] == 1 for r in rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rademacher_corner_identity_exhaustive(n):
    rows = construct.rademacher_embedding(n)
    assert len(rows) == 2 ** (n - 1)
    for eps in product((1, -1), repeat=n):
        best = max(abs(sum(e * r for e, r in zip(eps, row))) for row in rows)
        assert best == n
    for coeffs_seed in range(20):
        coeffs = random_coeffs(f"rademacher:{n}:{coeffs_seed}", n)
        best = max(abs(sum(c * r for c, r in zip(coeffs, row))) for row in rows)
        assert best == sum(abs(c) for c in coeffs)


def test_duality_lift_single_molecule():
    space = random_space(4, 11, "range")
    u = freespace.canonical_molecules(space)[0].as_free_vector()
    g_values = [space.rho(x, 0) for x in range(space.n)]
    matrix = [
        [u.coeffs[p] * g_values[q + 1] for q in range(space.n - 1)]
        for p in range(space.n - 1)
    ]
    proj = freespace.FreeOperator.from_matrix(space, matrix)
    cert = freespace.verify_one_complemented(space, [u], proj)
    assert cert.valid
    linf_cert = construct.duality_lift(cert)
    assert linf_cert.valid
    assert linf_cert.basis[0].values == tuple(g_values)  # the lift recovers the dual functional


def test_duality_lift_equilateral_m2():
    space = equilateral(4)
    search = freespace.search_one_complemented(space, 2)
    assert search.found
    linf_cert = construct.duality_lift(search.certificate)
    assert linf_cert.valid
    for j, gj in enumerate(linf_cert.basis):
        norm, _ = lip_norm(gj)
        assert norm == 1
        for i, u in enumerate(search.certificate.basis):
            assert freespace.pairing(gj, u) == (1 if i == j else 0)


def test_duality_lift_rechecks_biorthogonality(monkeypatch):
    search = freespace.search_one_complemented(equilateral(4), 2)
    assert search.found
    real = lp.solve_linear

    def broken(coeffs):
        # adding row 1 to row 0 keeps <g_0, u_0> = 1 and makes <g_0, u_1> = 1
        return [[a + b for a, b in zip(coeffs[0], coeffs[1])], coeffs[1]]

    monkeypatch.setattr(lp, "solve_linear", lambda u, p: broken(real(u, p)))
    with pytest.raises(AssertionError, match=r"^biorthogonality <g_0, u_1> != 0$"):
        construct.duality_lift(search.certificate)
    monkeypatch.setattr(lp, "solve_linear", lambda u, p: [[2 * x for x in row] for row in real(u, p)])
    with pytest.raises(AssertionError, match=r"^biorthogonality <g_0, u_0> != 1$"):
        construct.duality_lift(search.certificate)


def test_duality_lift_rejects_invalid():
    space = equilateral(4)
    u = freespace.canonical_molecules(space)[0].as_free_vector()
    bad = freespace.FreeOperator.from_matrix(space, [[2, 0, 0], [0, 0, 0], [0, 0, 0]])
    cert = freespace.verify_one_complemented(space, [u], bad)
    with pytest.raises(ValueError):
        construct.duality_lift(cert)


def test_compose_l1_in_linf_cases():
    space = equilateral(4)
    search = freespace.search_one_complemented(space, 2)
    linf_cert = construct.duality_lift(search.certificate)
    g = linf_cert.basis
    cert = construct.compose_l1_in_linf(linf_cert, construct.rademacher_embedding(2))
    assert cert.valid
    assert cert.basis[0].values == (g[0] + g[1]).values
    assert cert.basis[1].values == (g[0] - g[1]).values
    # m = 1: composition with [[1]] is the identity
    single = construct.compose_l1_in_linf(
        certify.linf_isometry_lip([g[0]]), construct.rademacher_embedding(1)
    )
    assert single.basis[0].values == g[0].values
    with pytest.raises(ValueError):
        construct.compose_l1_in_linf(linf_cert, construct.rademacher_embedding(3))


def test_pipeline_k1_trivial_case():
    for seed in range(5):
        space = random_space(3, seed, "range")
        result = construct.theorem_pipeline(space, 1)
        assert result.certificate.valid
        assert len(result.certificate.basis) == 1
        norm, witnesses = lip_norm(result.certificate.basis[0])
        assert norm == 1 and witnesses


def test_pipeline_k2_equilateral_six():
    result = construct.theorem_pipeline(equilateral(6), 2)
    assert result.certificate.valid
    members = set(result.subset_indices)
    assert len(members) == 4
    for w in result.certificate.sign_witnesses:
        assert w.x in members and w.y in members


def test_pipeline_refuses_small_space():
    with pytest.raises(ValueError):
        construct.theorem_pipeline(equilateral(3), 2)


def test_pipeline_exhaustion_is_reported():
    for budget, tried in ((0, 0), (1, 1)):
        result = construct.theorem_pipeline(equilateral(4), 2, tuple_budget=budget)
        assert not result.found
        assert result.certificate is result.subset_certificate is result.linf_certificate is None
        search = result.complementation
        assert (search.tuples_tried, search.budget_exhausted, search.certificate) == (tried, True, None)


def test_direct_search_k1():
    space = random_space(3, 1, "range")
    result = construct.direct_search_l1(space, 1)
    assert result.found and result.certificate.valid


def test_direct_search_k2_on_four_points():
    for seed in range(50):
        space = random_space(4, seed, "range")
        result = construct.direct_search_l1(space, 2)
        assert result.found
        assert result.certificate.valid
        both = certify.l1_isometry_corner(result.certificate.basis)
        assert both.valid


def test_direct_search_raises_on_an_infeasible_leaf_lp(monkeypatch):
    # the closures admit only feasible assignments, so an infeasible
    # coordinate LP is a fault, not a leaf to backtrack from
    monkeypatch.setattr(lp, "feasible", lambda rows, n_vars: SimpleNamespace(status="infeasible"))
    with pytest.raises(AssertionError, match="infeasible LP"):
        construct.direct_search_l1(random_space(4, 0, "range"), 2)


def test_direct_search_budget():
    space = random_space(4, 0, "range")
    result = construct.direct_search_l1(space, 2, node_budget=1)
    assert not result.found
    assert result.budget_exhausted


def test_direct_search_agrees_with_four_point_verdict():
    for seed in range(25):
        space = random_space(4, seed, "euclidean")
        _, _, cert = construct.four_point_basis(space)
        result = construct.direct_search_l1(space, 2)
        assert cert.valid and result.found


def test_pipeline_and_direct_search_cross_valid():
    space = random_space(5, 3, "range")
    pipe = construct.theorem_pipeline(space, 2)
    direct = construct.direct_search_l1(space, 2)
    for basis in (pipe.certificate.basis, direct.certificate.basis):
        assert certify.l1_isometry_lip(basis).valid
        assert certify.l1_isometry_corner(basis).valid


def _per_candidate_search(space, k, node_budget=None, parents=None):
    """The direct search as one loop over every candidate of every node: each
    unused pair is counted, then tested on every coordinate of a built
    closure, the budget checked before each.  An oracle for the nodes, the
    count and the budget cut-off of ``direct_search_l1``; returns its witness
    pairs, ``assignments_tried`` and ``budget_exhausted``, and appends to the
    list ``parents``, if given, the depth of each node that admits a child."""
    n_classes = 1 << (k - 1)
    dist_int = space.integer_dist
    candidates = sorted(space.ordered_pairs(), key=lambda p: (-dist_int[p[0]][p[1]], p))
    first_candidates = [p for p in candidates if p[0] < p[1]]
    tried = 0
    assignment = []
    used = [[False] * space.n for _ in range(space.n)]
    ball = freespace.lipschitz_ball_rows(space, 1)

    def dfs(closures):
        nonlocal tried
        depth = len(assignment)
        if depth == n_classes:
            return construct._direct_search_solve(space, k, assignment, ball)
        eps = certify.sign_class(k, depth)
        admitted = False
        for x, y in first_candidates if depth == 0 else candidates:
            if used[x][y]:
                continue
            if node_budget is not None and tried >= node_budget:
                return "budget"
            tried += 1
            rho = dist_int[x][y]
            for e, closure in zip(eps, closures):
                if (closure[y][x] if e > 0 else closure[x][y]) != rho:
                    break
            else:
                if parents is not None and not admitted:
                    parents.append(depth)
                admitted = True
                assignment.append((x, y))
                used[x][y] = used[y][x] = True
                outcome = dfs([
                    closure_add(closure, *((x, y) if e > 0 else (y, x)), -rho)
                    for e, closure in zip(eps, closures)
                ])
                if outcome is not None:
                    return outcome
                assignment.pop()
                used[x][y] = used[y][x] = False
        return None

    outcome = dfs([dist_int] * k)
    if outcome in (None, "budget"):
        return None, tried, outcome == "budget"
    return _witness_pairs(outcome), tried, False


def _witness_pairs(cert):
    return [(w.epsilon, w.x, w.y) for w in cert.sign_witnesses]


def test_direct_search_matches_per_candidate_search(monkeypatch):
    # Same found witnesses, count and budget verdict as trying every unused
    # pair in rank order, and the same full assignments sent to the LPs in
    # the same order: k = 1, 2 on small spaces (equilateral(3) at k = 2
    # exhausts after 15), k = 3 on the benchmark's seed-0 8-point spaces,
    # each unbudgeted and at budgets 1, count - 1, count and count + 1; k = 4
    # on 16-point spaces, whose budgets run out before any leaf.  Past the
    # pigeonhole bound k' = P.bit_length() + 1 of P unordered pairs the
    # search runs on k' coordinates: k = k'..k'+3 on equilateral 3-5 point
    # spaces and on random 2-6 point ones, against the oracle at k.
    leaves = []
    solve = construct._direct_search_solve

    def recording_solve(space, k, assignment, ball):
        leaves.append(tuple(assignment))
        return solve(space, k, assignment, ball)

    monkeypatch.setattr(construct, "_direct_search_solve", recording_solve)
    cases = [(random_space(n, seed), k) for n in range(2, 8) for seed in range(4) for k in (1, 2)]
    cases += [(equilateral(3), 2)]
    cases += [(random_space(8, i, method), 3) for i in range(4) for method in ("range", "euclidean")]
    beyond = [equilateral(n) for n in range(3, 6)]
    beyond += [random_space(n, seed) for n in range(2, 7) for seed in range(2)]
    for space in beyond:
        bound = (space.n * (space.n - 1) // 2).bit_length() + 1
        cases += [(space, k) for k in range(bound, bound + 4)]
    runs = []
    for space, k in cases:
        count = _per_candidate_search(space, k)[1]
        runs += [(space, k, budget) for budget in (None, 1, count - 1, count, count + 1)]
    runs += [
        (random_space(16, seed, method), 4, budget)
        for seed in range(2) for method in ("range", "euclidean") for budget in (5000, 20000)
    ]
    kinds = set()
    for space, k, budget in runs:
        leaves.clear()
        expected = _per_candidate_search(space, k, budget), list(leaves)
        leaves.clear()
        result = construct.direct_search_l1(space, k, node_budget=budget)
        pairs = _witness_pairs(result.certificate) if result.found else None
        assert ((pairs, result.assignments_tried, result.budget_exhausted), leaves) == expected, (
            space.dist, k, budget,
        )
        kinds.add("found" if result.found else "budget" if result.budget_exhausted else "exhausted")
    assert kinds == {"found", "exhausted", "budget"}


def test_direct_search_survivors_are_tight_on_the_closure_they_read(monkeypatch):
    # Every rank a node's filter is handed is tight, C[y][x] == rho, on the
    # coordinate-0 closure the node reads through its arc (at the root, the
    # metric), so the filter compares only the sum through the arc:
    # criterion 03's spaces at k = 3, and the k = 2 spaces of the
    # per-candidate oracle test.
    handed = nodes = 0
    real = construct._still_tight

    def checking(survivors, view, xs, ys, rhos):
        nonlocal handed, nodes
        closure = view[0]
        assert all(closure[ys[r]][xs[r]] == rhos[r] for r in survivors)
        handed += len(survivors)
        nodes += 1
        return real(survivors, view, xs, ys, rhos)

    monkeypatch.setattr(construct, "_still_tight", checking)
    cases = [(random_space(8, seed, "range"), 3) for seed in range(20)]
    cases += [(random_space(n, seed), 2) for n in range(2, 8) for seed in range(4)]
    cases += [(equilateral(3), 2)]
    for space, k in cases:
        construct.direct_search_l1(space, k)
    assert nodes > 1000 and handed > 10 * nodes, (nodes, handed)


def test_direct_search_builds_closures_only_for_nodes_that_admit_a_child(monkeypatch):
    # criterion 03's spaces: a node below the last class that admits a child
    # builds one closure per sign prefix, one that coordinate 0 shares with
    # every coordinate j >= 1 still all +1 (class 2^(k-1-j) is coordinate
    # j's first -1) and one for each other coordinate, 1 + #{j >= 1 :
    # 2^(k-1-j) < depth} in all; any other node builds none.  That is 2,172
    # builds over the 20 spaces and 40 on seed 0, where one closure per
    # coordinate built 3,702 and 69.
    calls = []
    add = lipschitz.closure_add
    monkeypatch.setattr(lipschitz, "closure_add", lambda *arc: calls.append(arc) or add(*arc))
    k = 3
    last = (1 << (k - 1)) - 1
    builds = []
    for seed in range(20):
        space = random_space(8, seed, "range")
        parents = []
        _per_candidate_search(space, k, parents=parents)
        calls.clear()
        construct.direct_search_l1(space, k)
        expected = sum(
            1 + sum(1 << (k - 1 - j) < depth for j in range(1, k))
            for depth in parents if depth < last
        )
        assert len(calls) == expected, seed
        builds.append(len(calls))
    assert (builds[0], sum(builds)) == (40, 2172)


def test_direct_search_matches_per_candidate_search_where_coordinates_join_late(monkeypatch):
    # Coordinate j >= 1 shares coordinate 0's closure and skips its check
    # until its first -1, at class 2^(k-1-j).  Searches deep enough to pass
    # those classes: the 4-cycle at k = 3 and K_{2,4} (hubs 0 and 1) at
    # k = 4 find a basis, the equilateral 5- and 6-point spaces at k = 3
    # exhaust.  Each unbudgeted and at budgets count - 1 and count, the
    # same count, witnesses and full assignments sent to the LPs as the
    # per-candidate oracle's.
    leaves = []
    solve = construct._direct_search_solve

    def recording_solve(space, k, assignment, ball):
        leaves.append(tuple(assignment))
        return solve(space, k, assignment, ball)

    monkeypatch.setattr(construct, "_direct_search_solve", recording_solve)
    cycle = PointedMetricSpace.from_matrix(
        [[min(abs(a - b), 4 - abs(a - b)) for b in range(4)] for a in range(4)]
    )
    # K_{2,4}: a hub and a leaf at distance 1, two hubs or two leaves at 2
    k24 = PointedMetricSpace.from_matrix(
        [[0 if a == b else 1 if (a < 2) != (b < 2) else 2 for b in range(6)] for a in range(6)]
    )
    cases = [
        (cycle, 3, True, 39),
        (k24, 4, True, 7257),
        (equilateral(5), 3, False, 1150),
        (equilateral(6), 3, False, 13755),
    ]
    for space, k, found, count in cases:
        for budget in (None, count - 1, count):
            leaves.clear()
            expected = _per_candidate_search(space, k, budget), list(leaves)
            leaves.clear()
            result = construct.direct_search_l1(space, k, node_budget=budget)
            pairs = _witness_pairs(result.certificate) if result.found else None
            got = (pairs, result.assignments_tried, result.budget_exhausted), leaves
            assert got == expected, (space.dist, k, budget)
            assert result.found == (found and budget != count - 1)
            assert result.assignments_tried == (count - 1 if budget == count - 1 else count)


def test_evaluation_embedding_l1_line():
    emb = construct.evaluation_embedding("l1", 1)
    assert emb.certificate.basis[0].space.n == 3
    assert emb.certificate.valid
    assert emb.certificate.basis[0].values == (F(0), F(1), F(-1))


def test_evaluation_embedding_l1_square():
    emb = construct.evaluation_embedding("l1", 2)
    assert emb.certificate.basis[0].space.n == 5
    assert emb.certificate.valid
    # all witnesses involve the origin
    for w in emb.certificate.sign_witnesses:
        assert 0 in (w.x, w.y)


def test_evaluation_embedding_linf_cross():
    emb = construct.evaluation_embedding("linf", 2)
    assert emb.certificate.basis[0].space.n == 5
    assert emb.certificate.valid
    for w in emb.certificate.vertex_witnesses:
        assert 0 in (w.x, w.y)


def test_evaluation_embedding_rejects_bad_input():
    with pytest.raises(ValueError):
        construct.evaluation_embedding("l2", 2)
    with pytest.raises(ValueError):
        construct.evaluation_embedding("l1", 7)
    with pytest.raises(ValueError):
        construct.evaluation_embedding("l1", 0)


def test_direct_search_probe_below_theorem_bound():
    # n = k+1 points: k-dimensional subspaces exist, but the isometric-l1 form
    # is not asserted by the theory; success must still certify, failure is
    # reported as exhaustion
    for seed in range(10):
        space = random_space(3, seed, "range")
        result = construct.direct_search_l1(space, 2)
        if result.found:
            assert result.certificate.valid
        else:
            assert result.assignments_tried > 0


def _glue_spaces():
    # seeded 4-8-point spaces of both generators, and equilateral(4..8)
    spaces = [random_space(n, seed, method)
              for n in range(4, 9) for seed in range(2) for method in ("range", "euclidean")]
    return spaces + [equilateral(n) for n in range(4, 9)]


def test_pipeline_glue_matches_its_fraction_formulas():
    # Each integer routine of the pipeline's glue against the Fraction formula
    # it replaced, written out here as the oracle.
    for t, space in enumerate(_glue_spaces()):
        n = space.n
        # combine: sum_k a_k f_k, for +-1 and rational coefficients
        for m in (1, 2, 3):
            basis = [random_functional(space, f"glue:{t}:{m}:{k}") for k in range(m)]
            for coeffs in [*product((1, -1), repeat=m), random_coeffs(f"glue:{t}:{m}", m)]:
                values = [F(0)] * n
                for f, a in zip(basis, coeffs):
                    values = [v + a * w for v, w in zip(values, f.values)]
                assert lipschitz.combine(basis, coeffs).values == tuple(values)
        # as_free_vector: (delta_x - delta_y) / rho(x, y)
        for x, y in space.ordered_pairs():
            mol = freespace.Molecule(space, x, y)
            diff = freespace.delta(space, x) - freespace.delta(space, y)
            assert mol.as_free_vector() == diff.scale(1 / space.rho(x, y))
        # select_subset: the farthest-point sweep keyed on rho
        for size in range(1, n + 1):
            chosen = [0]
            rest = list(range(1, n))
            while len(chosen) < size:
                best = max(rest, key=lambda p: (min(space.rho(p, q) for q in chosen), -p))
                chosen.append(best)
                rest.remove(best)
            assert construct.select_subset(space, size) == sorted(chosen)
        # operator_norm: the first molecule of largest ||P mol|| under free_norm;
        # a random operator and the orthogonal projection onto delta_1's span
        entries = random_coeffs(f"glue-op:{t}", (n - 1) ** 2, denominator=4, span=3)
        coordinate = [[int(p == q == 0) for q in range(n - 1)] for p in range(n - 1)]
        for matrix in ([entries[p * (n - 1):(p + 1) * (n - 1)] for p in range(n - 1)], coordinate):
            op = freespace.FreeOperator.from_matrix(space, matrix)
            best = witness = None
            for mol in freespace.canonical_molecules(space):
                value = freespace.free_norm(op.apply(mol.as_free_vector()))
                if best is None or value > best:
                    best, witness = value, mol
            assert freespace.operator_norm(op) == (best, witness)
