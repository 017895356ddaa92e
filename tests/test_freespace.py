"""Free-space norms, molecules, operators, and 1-complementation."""

import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from lipcert import certify, construct, freespace, lipschitz, lp
from lipcert.lipschitz import closure_add, differences_feasible, lip_norm
from lipcert.metric import PointedMetricSpace, random_space, restrict
from lipcert.rationals import lcm_scale

from helpers import equilateral, free_norm_vertex_oracle, random_coeffs, random_functional

F = Fraction


def test_zero_vector_norm():
    space = equilateral(4)
    v = freespace.free_vector(space, [0, 0, 0])
    assert freespace.free_norm_primal(v) == (F(0), ())
    value, functional = freespace.free_norm_dual(v)
    assert value == 0


def test_primal_equilateral_example():
    space = equilateral(4)
    v = freespace.free_vector(space, [1, 1, -2])
    value, decomposition = freespace.free_norm_primal(v)
    assert value == 2
    # the decomposition must reassemble v with matching cost
    total = {p: F(0) for p in range(4)}
    cost = F(0)
    for arc in decomposition:
        total[arc.x] += arc.weight
        total[arc.y] -= arc.weight
        cost += abs(arc.weight) * space.rho(arc.x, arc.y)
    assert cost == value
    assert [total[p] for p in (1, 2, 3)] == [F(1), F(1), F(-2)]


def test_dual_equilateral_example():
    space = equilateral(4)
    v = freespace.free_vector(space, [1, 1, -2])
    value, witness = freespace.free_norm_dual(v)
    assert value == 2
    norm, _ = lip_norm(witness)
    assert norm <= 1
    assert freespace.pairing(witness, v) == 2
    # the hand witness (0, 1/2, 1/2, -1/2) certifies the same value
    from lipcert.lipschitz import functional

    hand = functional(space, [0, F(1, 2), F(1, 2), F(-1, 2)])
    hand_norm, _ = lip_norm(hand)
    assert hand_norm == 1
    assert freespace.pairing(hand, v) == 2


def test_molecules_have_norm_one():
    space = random_space(5, 4, "euclidean")
    for mol in freespace.canonical_molecules(space):
        value, _ = freespace.free_norm_primal(mol.as_free_vector())
        assert value == 1


def test_delta_norm_is_distance_to_base():
    space = random_space(5, 21, "range")
    for x in range(1, 5):
        value, _ = freespace.free_norm_primal(freespace.delta(space, x))
        assert value == space.rho(x, 0)


def test_duality_exact_on_random_instances():
    for seed in range(60):
        space = random_space(5, seed, "range")
        coeffs = random_coeffs(seed, 4)
        v = freespace.FreeVector(space, tuple(coeffs))
        primal, _ = freespace.free_norm_primal(v)
        dual, witness = freespace.free_norm_dual(v)
        assert primal == dual
        norm, _ = lip_norm(witness)
        assert norm <= 1


def test_vertex_oracle_agreement_small_spaces():
    for seed in range(40):
        space = random_space(4, seed, "euclidean" if seed % 2 else "range")
        coeffs = random_coeffs(seed, 3)
        v = freespace.FreeVector(space, tuple(coeffs))
        primal, _ = freespace.free_norm_primal(v)
        assert primal == free_norm_vertex_oracle(space, coeffs)


def test_pairing_bound():
    space = random_space(5, 33, "range")
    for seed in range(40):
        f = random_functional(space, seed)
        coeffs = random_coeffs(seed, 4)
        v = freespace.FreeVector(space, tuple(coeffs))
        lip, _ = lip_norm(f)
        free, _ = freespace.free_norm_primal(v)
        assert abs(freespace.pairing(f, v)) <= lip * free


def test_operator_norm_identity_and_zero():
    space = equilateral(4)
    ident = freespace.FreeOperator.identity(space)
    value, witness = freespace.operator_norm(ident)
    assert value == 1
    zero = freespace.FreeOperator.from_matrix(space, [[0] * 3] * 3)
    value, witness = freespace.operator_norm(zero)
    assert value == 0
    # an operator is kept in lowest terms over a positive denominator
    doubled = tuple(tuple(2 * a for a in r) for r in ident.rows)
    assert freespace.FreeOperator(space, doubled, 2) == ident
    assert (zero.rows, zero.den) == ((((0,) * 3),) * 3, 1)
    for den in (0, -1):
        with pytest.raises(ValueError):
            freespace.FreeOperator(space, ident.rows, den)


def test_operator_norm_coordinate_projection_vs_oracle():
    space = equilateral(4)
    proj = freespace.FreeOperator.from_matrix(
        space, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    )
    value, witness = freespace.operator_norm(proj)
    # oracle: all 12 signed molecules by brute force
    best = F(0)
    for mol in freespace.canonical_molecules(space):
        for sign in (1, -1):
            image = proj.apply(mol.as_free_vector().scale(sign))
            norm, _ = freespace.free_norm_primal(image)
            best = max(best, norm)
    assert value == best == 1
    assert (witness.x, witness.y) == (1, 0)


def test_operator_norm_submultiplicative():
    space = random_space(4, 2, "range")
    import random as _r

    rng = _r.Random(5)
    mk = lambda: freespace.FreeOperator.from_matrix(
        space, [[F(rng.randint(-2, 2), 2) for _ in range(3)] for _ in range(3)]
    )
    for _ in range(10):
        p, q = mk(), mk()
        np_, _ = freespace.operator_norm(p)
        nq, _ = freespace.operator_norm(q)
        npq, _ = freespace.operator_norm(p.compose(q))
        assert npq <= np_ * nq


def test_verify_single_molecule_projection():
    space = random_space(4, 11, "range")
    mol = freespace.canonical_molecules(space)[0]  # (delta_1 - delta_0)/rho
    u = mol.as_free_vector()
    # dual functional attaining at the molecule: g(x) = rho(x, 0); <g, u> = 1
    g = [space.rho(x, 0) for x in range(space.n)]
    matrix = [
        [u.coeffs[p] * g[q + 1] for q in range(space.n - 1)]
        for p in range(space.n - 1)
    ]
    proj = freespace.FreeOperator.from_matrix(space, matrix)
    cert = freespace.verify_one_complemented(space, [u], proj)
    assert cert.valid
    assert cert.operator_norm_value == 1


def test_verify_rejects_non_idempotent():
    space = equilateral(4)
    u = freespace.canonical_molecules(space)[0].as_free_vector()
    bad = freespace.FreeOperator.from_matrix(space, [[2, 0, 0], [0, 0, 0], [0, 0, 0]])
    cert = freespace.verify_one_complemented(space, [u], bad)
    assert not cert.valid
    assert not cert.idempotent_ok


def test_search_equilateral_four_m2():
    space = equilateral(4)
    search = freespace.search_one_complemented(space, 2)
    assert search.found
    assert search.certificate.valid
    assert search.certificate.operator_norm_value == 1


def test_search_m1_any_space():
    for seed in range(10):
        space = random_space(3, seed, "range")
        search = freespace.search_one_complemented(space, 1)
        assert search.found
        assert search.certificate.valid


def test_search_budget_exhaustion_reported():
    space = equilateral(4)
    search = freespace.search_one_complemented(space, 2, tuple_budget=2)
    assert not search.found
    assert search.budget_exhausted
    assert search.tuples_tried == 2


def test_search_rejects_too_few_points():
    with pytest.raises(ValueError):
        freespace.search_one_complemented(equilateral(3), 2)


def test_free_norm_axioms_random():
    space = random_space(5, 8, "range")
    for seed in range(25):
        v = freespace.FreeVector(space, tuple(random_coeffs(f"ax:{seed}", 4)))
        w = freespace.FreeVector(space, tuple(random_coeffs(f"ax2:{seed}", 4)))
        nv, _ = freespace.free_norm_primal(v)
        nw, _ = freespace.free_norm_primal(w)
        nsum, _ = freespace.free_norm_primal(v + w)
        assert nsum <= nv + nw
        c = F(seed - 12, 5)
        nscaled, _ = freespace.free_norm_primal(v.scale(c))
        assert nscaled == abs(c) * nv


def test_search_m4_eight_points_budget_or_exhaustion():
    # molecule-restricted search is a heuristic: either outcome is legitimate,
    # but exhaustion must be reported with statistics, never silent
    space = random_space(8, 5, "range")
    search = freespace.search_one_complemented(space, 4, tuple_budget=300)
    if search.found:
        assert search.certificate.valid
    else:
        assert search.tuples_tried == 300
        assert search.budget_exhausted


def _filter_cases():
    """Every molecule pair of 40 seeded 4-point spaces, every triple of
    equilateral(6)."""
    cases = [
        (random_space(4, seed, method), 2)
        for method in ("range", "euclidean")
        for seed in range(20)
    ]
    cases.append((equilateral(6), 3))
    return cases


def _sign_combination(vectors, eps):
    w = vectors[0].scale(eps[0])
    for e, u in zip(eps[1:], vectors[1:]):
        w = w + u.scale(e)
    return w


def test_molecule_l1_filter_matches_lp_oracle():
    # difference-constraint filter against the corner criterion by transport
    # LP: molecules have norm 1, so the span is l1^m iff every sign
    # combination has norm m
    verdicts = set()
    for space, m in _filter_cases():
        for molecules in combinations(freespace.canonical_molecules(space), m):
            fast = freespace.molecules_span_l1(molecules)
            vectors = [mol.as_free_vector() for mol in molecules]
            oracle = all(
                freespace.free_norm_primal(_sign_combination(vectors, eps))[0] == m
                for eps in certify.sign_class_representatives(m)
            )
            assert fast == oracle, (space.dist, [(mol.x, mol.y) for mol in molecules])
            verdicts.add(fast)
    assert verdicts == {True, False}


def test_differences_feasible_witnesses():
    # the filter's systems: a feasible answer carries a solution, an
    # infeasible one a negative cycle of the system's own constraint graph
    verdicts = set()
    for space, m in _filter_cases():
        dist_int = space.integer_dist
        for molecules in combinations(freespace.canonical_molecules(space), m):
            for eps in certify.sign_class_representatives(m):
                equalities = [
                    (mol.x, mol.y, e * dist_int[mol.x][mol.y]) for e, mol in zip(eps, molecules)
                ]
                nodes = {p for x, y, _ in equalities for p in (x, y)}
                feasible, witness = differences_feasible(dist_int, equalities)
                verdicts.add(feasible)
                if feasible:
                    assert all(witness[x] - witness[y] == c for x, y, c in equalities)
                    assert all(
                        witness[a] - witness[b] <= dist_int[a][b]
                        for a in nodes
                        for b in nodes
                        if a != b
                    )
                    continue
                edges = {(b, a, dist_int[a][b]) for a in nodes for b in nodes if a != b}
                edges |= {(y, x, c) for x, y, c in equalities}
                edges |= {(x, y, -c) for x, y, c in equalities}
                assert witness and all(edge in edges for edge in witness), witness
                assert all(
                    witness[i][1] == witness[(i + 1) % len(witness)][0]
                    for i in range(len(witness))
                ), witness
                assert sum(w for _, _, w in witness) < 0, witness
    assert verdicts == {True, False}


def test_differences_feasible_runs_one_bellman_ford_pass(monkeypatch):
    # one pass of relaxations decides the system and, on an infeasible
    # one, records the predecessor edges its negative cycle is read from
    calls = 0
    real = lipschitz._relax

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(lipschitz, "_relax", counting)
    verdicts = {True: 0, False: 0}
    for i, method in enumerate(("range", "euclidean") * 10):
        space = random_space(6, i, method)
        dist_int = space.integer_dist
        rng = random.Random(f"one-pass:{i}")
        for _ in range(10):
            equalities = []
            for _ in range(rng.randint(1, 4)):
                x, y = rng.sample(range(space.n), 2)
                rho = dist_int[x][y]
                equalities.append((x, y, rng.choice([rho, -rho, rng.randint(-rho, rho)])))
            calls = 0
            feasible, _ = differences_feasible(dist_int, equalities)
            assert calls == 1, (calls, equalities)
            verdicts[feasible] += 1
    assert min(verdicts.values()) > 20, verdicts


def _shortest_paths(dist_int, arcs):
    """Floyd-Warshall over every point: metric arcs a -> b of weight
    rho(a, b), and each arc (u, v, w), the constraint f(v) - f(u) <= w."""
    n = len(dist_int)
    d = [list(row) for row in dist_int]
    for u, v, w in arcs:
        d[u][v] = min(d[u][v], w)
    for via in range(n):
        for a in range(n):
            for b in range(n):
                d[a][b] = min(d[a][b], d[a][via] + d[via][b])
    return d


def _equality_arcs(x, y, c):
    """The two arcs of f(x) - f(y) = c: y -> x of weight c and x -> y of
    weight -c."""
    return [(y, x, c), (x, y, -c)]


def _closure_spaces():
    return [space for space, _ in _filter_cases()] + [
        random_space(n, seed, method)
        for method in ("range", "euclidean")
        for n in range(5, 9)
        for seed in range(5)
    ]


def _closure_walk(tag):
    """Per closure space, 12 random equalities f(x) - f(y) = c with c one of
    rho, -rho or an integer between: yields ``(space, x, y, c)``."""
    for i, space in enumerate(_closure_spaces()):
        rng = random.Random(f"{tag}:{i}")
        for _ in range(12):
            x, y = rng.sample(range(space.n), 2)
            rho = space.integer_dist[x][y]
            yield space, x, y, rng.choice([rho, -rho, rng.randint(-rho, rho)])


def test_incremental_closure_matches_bellman_ford_and_floyd_warshall():
    # random equality sequences, the rejected ones skipped as a search skips
    # them: over the solutions of a closure's system f(x) - f(y) takes the
    # values in [-C[x][y], C[y][x]], and that verdict must be Bellman-Ford's
    # on the accumulated system; an accepted equality is added as its two
    # arcs, and the closure after each arc must be a from-scratch one
    verdicts = set()
    space = None
    for walk_space, x, y, c in _closure_walk("closure"):
        if walk_space is not space:
            space = walk_space
            dist_int = space.integer_dist
            closure = dist_int
            equalities, arcs = [], []
        verdict = -closure[x][y] <= c <= closure[y][x]
        assert verdict == differences_feasible(dist_int, equalities + [(x, y, c)])[0]
        verdicts.add(verdict)
        if verdict:
            equalities.append((x, y, c))
            for arc in _equality_arcs(x, y, c):
                arcs.append(arc)
                closure = closure_add(closure, *arc)
                assert closure == _shortest_paths(dist_int, arcs), (space.dist, arcs)
    assert verdicts == {True, False}


def test_closure_add_shares_unchanged_rows_and_extreme_differences_need_one_comparison():
    # The walk of the closure test.  A row that closure_add does not lower
    # is the parent's row object (the tuple rows of integer_dist are copied
    # to lists once), and the parent is left as it was.  An extreme
    # equality f(u) - f(v) = rho(u, v) is admitted by the one comparison
    # C[v][u] == rho, as the interval check admits it, and its one arc
    # u -> v of weight -rho gives the closure of both its arcs.
    admits = set()
    shared = lowered = 0

    def add(closure, arc):
        nonlocal shared, lowered
        before = [list(row) for row in closure]
        new = closure_add(closure, *arc)
        assert [list(row) for row in closure] == before
        for old_row, new_row in zip(closure, new):
            assert type(new_row) is list
            if new_row != list(old_row):
                lowered += 1
            elif type(closure) is tuple:
                assert new_row is not old_row
            else:
                assert new_row is old_row
                shared += 1
        return new

    space = None
    for walk_space, x, y, c in _closure_walk("closure-rows"):
        if walk_space is not space:
            space = walk_space
            closure = space.integer_dist
        rho = space.integer_dist[x][y]
        for u, v in ((x, y), (y, x)):
            single = closure[v][u] == rho
            assert single == (-closure[u][v] <= rho <= closure[v][u])
            admits.add(single)
            if single:
                two = closure
                for arc in _equality_arcs(u, v, rho):
                    two = closure_add(two, *arc)
                assert add(closure, (u, v, -rho)) == two
        if -closure[x][y] <= c <= closure[y][x]:
            for arc in _equality_arcs(x, y, c):
                closure = add(closure, arc)
    assert admits == {True, False}
    assert shared and lowered


def test_closure_add_entry_is_the_parent_entry_or_the_path_through_the_arc():
    # the walk of the incremental closure test: at each arc of an accepted
    # equality, and at the root's trivial arc 0 -> 0 of weight 0, every
    # entry of closure_add(C, u, v, w) is min(C[a][b], C[a][u] + w +
    # C[v][b]), the entry a search reads from C in place
    read = 0

    def add(closure, u, v, w):
        nonlocal read
        new = closure_add(closure, u, v, w)
        for a in range(len(closure)):
            for b in range(len(closure)):
                assert new[a][b] == min(closure[a][b], closure[a][u] + w + closure[v][b])
                read += 1
        return new

    space = None
    for walk_space, x, y, c in _closure_walk("closure"):
        if walk_space is not space:
            space = walk_space
            closure = space.integer_dist
            assert add(closure, 0, 0, 0) == [list(row) for row in closure]
        if -closure[x][y] <= c <= closure[y][x]:
            for arc in _equality_arcs(x, y, c):
                closure = add(closure, *arc)
    assert read > 10_000


def _per_class_filter(molecules):
    """The l1 filter as one Bellman-Ford per sign class: some 1-Lipschitz f
    has f(x_i) - f(y_i) = eps_i rho_i for every molecule, for every eps."""
    dist_int = molecules[0].space.integer_dist
    return all(
        differences_feasible(
            dist_int,
            [(mol.x, mol.y, e * dist_int[mol.x][mol.y]) for e, mol in zip(eps, molecules)],
        )[0]
        for eps in certify.sign_class_representatives(len(molecules))
    )


def test_molecule_filter_closure_tree_matches_per_class_bellman_ford(monkeypatch):
    # every 3- and 4-tuple of canonical molecules of seeded 8-point spaces
    # and equilateral(8): the closure tree's verdict is the per-class
    # Bellman-Ford one, and it runs no Bellman-Ford itself
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return differences_feasible(*args)

    monkeypatch.setattr(freespace, "differences_feasible", counting)
    monkeypatch.setattr(lipschitz, "differences_feasible", counting)
    spaces = [random_space(8, seed, method) for seed, method in ((0, "range"), (1, "euclidean"))]
    spaces.append(equilateral(8))
    verdicts = Counter()
    for space in spaces:
        molecules = freespace.canonical_molecules(space)
        for m in (3, 4):
            for tup in combinations(molecules, m):
                fast = freespace.molecules_span_l1(tup)
                assert fast == _per_class_filter(tup), (space.dist, [(mol.x, mol.y) for mol in tup])
                verdicts[fast] += 1
    assert calls == 0
    assert verdicts[True] and verdicts[False], verdicts


def _transport_cases():
    vectors = []
    for i in range(60):
        n = 4 + i % 5
        space = random_space(n, i, "range" if i % 2 else "euclidean")
        vectors.append(freespace.FreeVector(space, tuple(random_coeffs(f"transport:{i}", n - 1))))
        vectors.append(freespace.delta(space, 1 + i % (n - 1)))
    for n in range(2, 8):
        space = equilateral(n)
        vectors.append(freespace.free_vector(space, [0] * (n - 1)))
        vectors.extend(freespace.delta(space, x) for x in range(1, n))
        vectors.append(freespace.FreeVector(space, tuple(random_coeffs(f"eq:{n}", n - 1))))
    return vectors


def test_free_norm_matches_both_lp_routes():
    for v in _transport_cases():
        value = freespace.free_norm(v)
        primal, _ = freespace.free_norm_primal(v)
        dual, _ = freespace.free_norm_dual(v)
        assert value == primal == dual, (v.space.dist, v.coeffs)


def test_transport_recheck_rejects_tampering():
    tampered = 0
    for v in _transport_cases()[:40]:
        dist_int = v.space.integer_dist
        coeffs, _ = lcm_scale(v.coeffs)
        mass = [-sum(coeffs)] + coeffs
        flow, potential = freespace.integer_transport(mass, dist_int)
        freespace.check_transport(mass, dist_int, flow, potential)
        nodes = {p for arc in flow for p in arc}
        for step in (1, -1):
            for arc in flow:
                bad = dict(flow)
                bad[arc] += step
                with pytest.raises(AssertionError):
                    freespace.check_transport(mass, dist_int, bad, potential)
                tampered += 1
            for p in nodes:
                bad = list(potential)
                bad[p] += step
                with pytest.raises(AssertionError):
                    freespace.check_transport(mass, dist_int, flow, bad)
                tampered += 1
    assert tampered > 100


def test_lipschitz_ball_rows_layout():
    rows = freespace.lipschitz_ball_rows(equilateral(3), 2)
    # block, then pairs (0,1), (0,2), (1,2), the + row before the - row
    assert [list(con.nums[:-1]) for con in rows] == [
        [-1, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0], [0, 1, 0, 0], [1, -1, 0, 0], [-1, 1, 0, 0],
        [0, 0, -1, 0], [0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 1], [0, 0, 1, -1], [0, 0, -1, 1],
    ]
    assert all(con.rel == "<=" and con.nums[-1] == con.den == 1 for con in rows)

    # rho(0,1) = 1/2, rho(0,2) = 3/4, rho(1,2) = 1/2: dist_scale 4, D = 2, 3, 2
    space = PointedMetricSpace.from_matrix(
        [[0, F(1, 2), F(3, 4)], [F(1, 2), 0, F(1, 2)], [F(3, 4), F(1, 2), 0]]
    )
    assert space.dist_scale == 4 and space.integer_dist[0][2] == 3
    # the base as y, then as x (no column), and two terms on one column
    terms = [(0, 1, 0, 1), (0, 0, 2, -1), (1, 1, 2, 1), (1, 1, 0, 1)]
    row = freespace.difference_row(space, 2, terms, 5, 3, "<=")
    assert (row.nums, row.den, row.rel) == ((4, 4, 8, -4, 5), 3, "<=")
    # block b starts at column b * (n - 1)
    row = freespace.difference_row(space, 3, [(2, 2, 1, 1)], 0, 1, "=")
    assert row.nums == (0, 0, 0, 0, -4, 4, 0)
    # g_1 on the molecule (delta_2 - delta_1) / rho(2, 1) equal to 1, over
    # D[2][1] = 2: (s, -s | D) over D in lowest terms, the lcm-scaled row
    row = freespace.difference_row(space, 2, [(1, 2, 1, 1)], 2, 2, "=")
    u = freespace.Molecule(space, 2, 1).as_free_vector().coeffs
    assert (row.nums, row.den) == ((0, 0, -2, 2, 1), 1)
    assert list(row.nums) == lcm_scale([0, 0, *u, 1])[0]
    # each block's values, point-indexed with zero at the base
    values = freespace.block_values(space, [F(1), F(2), F(3, 5), F(4)], 2)
    assert values == [(0, 1, 2), (0, F(3, 5), 4)]


def test_filtered_molecules_norm_is_l1_of_coefficients():
    # the identity the complementation cuts rely on, against the transport LP
    accepted = 0
    for space, m in _filter_cases():
        for molecules in combinations(freespace.canonical_molecules(space), m):
            if not freespace.molecules_span_l1(molecules):
                continue
            accepted += 1
            basis = [mol.as_free_vector() for mol in molecules]
            for trial in range(3):
                c = random_coeffs(f"l1:{accepted}:{trial}", m)
                v = basis[0].scale(c[0])
                for cj, u in zip(c[1:], basis[1:]):
                    v = v + u.scale(cj)
                value, _ = freespace.free_norm_primal(v)
                pairs = [(mol.x, mol.y) for mol in molecules]
                assert value == sum(abs(cj) for cj in c), (space.dist, pairs, c)
    assert accepted == 63


def test_l1_valid_pairs_are_one_complemented_by_the_closed_form():
    # m = 2: the filter's sign functionals f++ and f+- of a pair of
    # molecules give g1 = (f++ + f+-)/2 and g2 = (f++ - f+-)/2, biorthogonal
    # to the pair with |dg1| + |dg2| = max(|df++|, |df+-|) <= rho, so
    # P = g1 u1 + g2 u2 is a norm-one projection.  Every l1-valid pair of
    # the 4-point subsets of criterion 02's 100 spaces; each sign functional
    # is read off its closure as f(b) = C[0][b] over the scale, a potential
    # that meets every arc.  The pipeline's master LP is feasible on each.
    valid = 0
    for i in range(100):
        space = random_space(4 + i % 5, i, "euclidean" if i % 3 == 0 else "range")
        subset = restrict(space, construct.select_subset(space, 4))
        s, dist = subset.dist_scale, subset.integer_dist
        for pair in combinations(freespace.canonical_molecules(subset), 2):
            if not freespace.molecules_span_l1(pair):
                continue
            valid += 1
            (x1, y1), (x2, y2) = ((mol.x, mol.y) for mol in pair)
            first = closure_add(dist, x1, y1, -dist[x1][y1])
            signs = [closure_add(first, *arc, -dist[x2][y2]) for arc in ((x2, y2), (y2, x2))]
            f_pp, f_pm = ([F(v, s) for v in closure[0]] for closure in signs)
            g = [tuple((a + b) / 2 for a, b in zip(f_pp, f_pm)),
                 tuple((a - b) / 2 for a, b in zip(f_pp, f_pm))]
            vectors = tuple(mol.as_free_vector() for mol in pair)
            projection = freespace._projection_from(subset, vectors, g)
            cert = freespace.verify_one_complemented(subset, vectors, projection)
            assert cert.valid, (space.dist, [(x1, y1), (x2, y2)])
            ball = freespace.lipschitz_ball_rows(subset, 2)
            assert freespace._biorthogonal_functionals(subset, pair, ball) is not None
    assert valid == 110


def _record_lps(spaces, extra=None):
    """Run the k=2 pipeline on each space (then ``extra(i, space)``), and
    record every ``lp.solve`` call as ``(program, outcome)`` and every
    projection ``_projection_from`` builds as ``(operator, basis, g)``."""
    solved, operators = [], []
    real_solve, real_projection = lp.solve, freespace._projection_from

    def recording_solve(program, sense="min"):
        out = real_solve(program, sense)
        solved.append((program, out))
        return out

    def recording_projection(space, basis, g):
        op = real_projection(space, basis, g)
        operators.append((op, basis, g))
        return op

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording_solve)
        mp.setattr(freespace, "_projection_from", recording_projection)
        for i, space in enumerate(spaces):
            construct.theorem_pipeline(space, 2)
            if extra:
                extra(i, space)
    return solved, operators


@pytest.fixture(scope="module")
def criterion_02_lps():
    # criterion 02's 100 k=2 pipelines, recorded once for the tests below
    spaces = [
        random_space(4 + i % 5, i, "euclidean" if i % 3 == 0 else "range") for i in range(100)
    ]
    return _record_lps(spaces)


def test_cut_loop_outcomes_pinned(criterion_02_lps):
    # Every LP of criterion 02's 100 k=2 pipelines, the complementation cut
    # loop's rounds above all, field for field: how a row is built, scaled
    # or lowered must not move a pivot or a certificate.
    solved, _ = criterion_02_lps
    digest = hashlib.sha256()
    for _, out in solved:
        digest.update(repr(out).encode())
    assert Counter(out.status for _, out in solved) == {"optimal": 282}
    assert digest.hexdigest() == (
        "bfec043420abf1d9b11d1a94081a6c3fc933c244ff3fa5085857c7ca173527e8"
    )


def test_cut_loop_outcomes_pinned_beyond_m2():
    # The cut loop at m >= 3, where no closed form proves the master
    # feasible and the rounds are more: every LP of the complementation
    # search on 40 random 6-point spaces at m = 3 and on the equilateral
    # 8-point space at m = 4, field for field.
    solved = []
    real_solve = lp.solve

    def recording_solve(program, sense="min"):
        out = real_solve(program, sense)
        solved.append(out)
        return out

    found = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording_solve)
        for seed in range(20):
            for method in ("range", "euclidean"):
                space = random_space(6, seed, method)
                found += freespace.search_one_complemented(space, 3, tuple_budget=200).found
        assert len(solved) == 86 and found == 26
        assert freespace.search_one_complemented(equilateral(8), 4).found
    digest = hashlib.sha256()
    for out in solved:
        digest.update(repr(out).encode())
    assert len(solved) == 90 and sum(out.pivots for out in solved) == 1656
    assert digest.hexdigest() == (
        "b721d0cfbe6e219ea7def7da827941a866ad064467d803b88b4e5dc47705dda9"
    )


def test_only_cut_loop_rounds_record_a_phase1_path():
    # A phase-1 path is recorded, one step per pivot, only for a program
    # that carries a cut loop's ``lp.Resume`` holder, since nothing else
    # resumes one.  The recorded steps are counted inside and outside the
    # cut loop (``_biorthogonal_functionals``): none outside it, over
    # criterion 03's direct searches on 20 range and 20 euclidean 8-point
    # spaces and over primal free norms, and inside it over criterion 02's
    # 100 k=2 pipelines: every phase-1 pivot of their master LPs, replayed
    # or made (the kernel that kept a tableau counted 1,361 checkpoints, one
    # per step it made and one per phase-1 optimum).
    paths = []
    inside = False
    real_start, real_loop = lp._start, freespace._biorthogonal_functionals

    def watching_start(program, low):
        kern, path, first = real_start(program, low)
        if kern.path is not None:
            paths.append((inside, kern.path))
        return kern, path, first

    def marked_loop(*args):
        nonlocal inside
        inside = True
        try:
            return real_loop(*args)
        finally:
            inside = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_start", watching_start)
        mp.setattr(freespace, "_biorthogonal_functionals", marked_loop)
        for seed in range(20):
            for method in ("range", "euclidean"):
                assert construct.direct_search_l1(random_space(8, seed, method), 3).found
        for n in range(4, 9):
            space = random_space(n, 0, "range")
            freespace.free_norm_primal(
                freespace.free_vector(space, random_coeffs(f"primal:{n}", n - 1))
            )
        assert paths == []
        for i in range(100):
            construct.theorem_pipeline(
                random_space(4 + i % 5, i, "euclidean" if i % 3 == 0 else "range"), 2
            )
    counts = Counter()
    for where, path in paths:
        counts[where] += len(path)
    assert counts == {True: 1706}


def test_resumed_master_rounds_keep_no_tableau():
    # The k=4 master LP: the complementation search's cut loop on
    # random_space(16, 2, "range") with eight of its molecules, stopped
    # after its second round.  The second round resumes the first round's
    # phase-1 path, which holds one pivot row per step and no tableau; the
    # pivot counts are those of cold solves, and the traced peak stays small
    # (22.2 MiB while each recorded step kept a checkpoint of the tableau).
    space = random_space(16, 2, "range")
    canonical = freespace.canonical_molecules(space)
    molecules = [canonical[i] for i in (1, 20, 43, 58, 83, 96, 105, 115)]
    ball = freespace.lipschitz_ball_rows(space, len(molecules))
    pivots = []
    real_feasible = lp.feasible

    class Stop(Exception):
        pass

    def two_rounds(*args, **kwargs):
        if len(pivots) == 2:
            raise Stop
        out = real_feasible(*args, **kwargs)
        pivots.append(out.pivots)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "feasible", two_rounds)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                freespace._biorthogonal_functionals(space, molecules, ball)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert pivots == [77, 131]
    assert peak <= 8 << 20, peak


def _reference_lowering(low, con):
    # the column-by-column lowering: walk every standard column of the row,
    # but a free variable's minus column, the mirror of its plus column
    columns = [None] * low.n_struct
    for j, (plus, minus, _) in enumerate(low.var_map):
        if plus >= 0:
            columns[plus] = (j, 1)
        if minus >= 0:
            columns[minus] = (j, -1)
    mirrors = {minus for plus, minus, _ in low.var_map if plus >= 0 and minus >= 0}
    nums = con.nums
    return {
        col: sign * nums[j]
        for col, (j, sign) in enumerate(columns)
        if nums[j] and col not in mirrors
    }


def test_rows_and_projections_are_in_lowest_terms(criterion_02_lps):
    # Every row and every projection is stored once, as integers over a
    # positive denominator in lowest terms.  Each must be what the general
    # code computes: the lcm scaling of the row's rationals, the
    # column-by-column lowering, and the projection as the Fraction product
    # P[p][q] = sum_j u_j[p] g_j(q+1).  Criterion 02's programs, plus
    # random spaces n = 4..10 with a free norm by each route.
    def free_norms(i, space):
        v = freespace.free_vector(space, random_coeffs(f"preset:{i}", space.n - 1))
        freespace.free_norm_dual(v)
        freespace.free_norm_primal(v)

    spaces = [random_space(n, seed, method) for n in range(4, 11) for seed in range(3)
              for method in ("range", "euclidean")]
    solved, operators = _record_lps(spaces, free_norms)
    solved += criterion_02_lps[0]
    operators += criterion_02_lps[1]
    lowered = _check_rows(solved)
    assert lowered[True] > 10_000 and lowered[False] > 100
    assert len(operators) == len(spaces) + 100
    for op, basis, g in operators:
        nb = op.space.n - 1
        assert op.den > 0 and gcd(op.den, *(a for row in op.rows for a in row)) == 1
        assert op.matrix == tuple(
            tuple(sum(u.coeffs[p] * gj[q + 1] for u, gj in zip(basis, g)) for q in range(nb))
            for p in range(nb)
        )


def test_direct_search_rows_match_their_oracles():
    # The coordinate LPs of the direct search: the ball rows and each
    # coordinate's equalities f(x) - f(y) = e * rho(x, y), built from
    # integers, against the lcm scaling and the column-by-column lowering.
    solved = []
    real_solve = lp.solve

    def recording_solve(program, sense="min"):
        out = real_solve(program, sense)
        solved.append((program, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording_solve)
        for seed in range(4):
            for method in ("range", "euclidean"):
                assert construct.direct_search_l1(random_space(5 + seed, seed, method), 2).found
                assert construct.direct_search_l1(random_space(8, seed, method), 3).found
    equalities = [con for program, _ in solved for con in program.constraints if con.rel == lp.EQ]
    assert _check_rows(solved) == {True: sum(len(p.constraints) for p, _ in solved), False: 0}
    assert len(equalities) == 8 * (2 * 2 + 3 * 4)
    assert all(sum(1 for a in con.nums[:-1] if a) in (1, 2) for con in equalities)


def _check_rows(solved):
    """Check every row of the recorded programs against ``lcm_scale`` of its
    rationals (lowest terms) and the column-by-column lowering, as the
    phase-1 kernel holds it (times the row's sign); count them by whether
    every variable of their program is free.  The recorded programs shift
    no variable, so each row's rhs is its own."""
    lowered = {True: 0, False: 0}
    for program, _ in solved:
        low = lp._Lowering(program, False)
        assert not low.shifts
        free = all(b == (None, None) for b in program.bounds)
        kern = low.build_kernel()
        for i, con in enumerate(program.constraints):
            nums, den = lcm_scale([F(a, con.den) for a in con.nums])
            assert (con.nums, con.den) == (tuple(nums), den)
            d, row, b = kern.lowered_den[i], kern.lowered[i], con.nums[-1]
            assert d == den
            assert kern.sign[i] == (-1 if b < 0 else 1)
            struct = {j: kern.sign[i] * a for j, a in row.items() if 0 <= j < low.n_struct}
            assert list(struct.items()) == list(_reference_lowering(low, con).items())
            assert kern.sign[i] * row.get(-1, 0) == b
            lowered[free] += 1
    return lowered
