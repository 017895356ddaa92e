"""Acceptance suite: one test per criterion, exact zero-tolerance checks.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Certificates produced along the way are collected and re-verified in
criterion 13.  Budgets are the stated wall-clock targets.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from lipcert import certdoc, certify, construct, freespace, interval, lp, metric
from lipcert.lipschitz import lip_norm
from lipcert.metric import random_space

from helpers import (
    equilateral,
    free_norm_vertex_oracle,
    random_coeffs,
    random_functional,
    random_hybrid,
    random_pwl,
)

F = Fraction

# documents emitted by criteria 1-12, re-verified in criterion 13
DOCUMENTS: list[tuple[str, dict]] = []


def report(num, ok, desc, elapsed=None):
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    if elapsed is not None:
        line += f" [{elapsed:.1f}s]"
    print(line, flush=True)


@pytest.fixture(scope="module")
def pipeline_k2_results():
    results = []
    start = time.monotonic()
    for i in range(100):
        n = 4 + i % 5
        space = random_space(n, i, "euclidean" if i % 3 == 0 else "range")
        results.append(construct.theorem_pipeline(space, 2))
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def pipeline_k3_equilateral():
    start = time.monotonic()
    result = construct.theorem_pipeline(equilateral(8), 3)
    return result, time.monotonic() - start


def test_criterion_01_four_point_2000_spaces():
    start = time.monotonic()
    failures = []
    for method in ("range", "euclidean"):
        for seed in range(1000):
            space = random_space(4, seed, method)
            _, _, cert = construct.four_point_basis(space)
            if not cert.valid:
                failures.append((method, seed))
            if seed < 100:
                DOCUMENTS.append(("four-point", certdoc.l1_document(cert)))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10
    report(1, ok, f"four-point construction valid on 2000/2000 spaces", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 10, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_02_pipeline_k2_100_spaces(pipeline_k2_results):
    results, elapsed = pipeline_k2_results
    failures = []
    for i, result in enumerate(results):
        members = set(result.subset_indices)
        if not result.certificate.valid:
            failures.append((i, "invalid"))
        elif not all(
            w.x in members and w.y in members for w in result.certificate.sign_witnesses
        ):
            failures.append((i, "witness outside K"))
        DOCUMENTS.append(("pipeline", certdoc.pipeline_document(result)))
        DOCUMENTS.append(
            (
                "complementation",
                certdoc.complementation_document(result.complementation.certificate),
            )
        )
    tried = sum(r.complementation.tuples_tried for r in results)
    l1_valid = sum(r.complementation.tuples_l1_valid for r in results)
    ok = not failures and elapsed < 60 and (tried, l1_valid) == (744, 100)
    report(2, ok, "theorem pipeline k=2 on 100 spaces, witnesses in K", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    assert (tried, l1_valid) == (744, 100)


def test_criterion_03_k3_direct_search_and_pipeline(pipeline_k3_equilateral, monkeypatch):
    pivots = []
    solve = lp.solve

    def counting_solve(program, sense="min"):
        outcome = solve(program, sense)
        pivots.append(outcome.pivots)
        return outcome

    monkeypatch.setattr(lp, "solve", counting_solve)
    start = time.monotonic()
    failures = []
    tried = 0
    for seed in range(20):
        space = random_space(8, seed, "range")
        result = construct.direct_search_l1(space, 3)
        tried += result.assignments_tried
        if not (result.found and result.certificate.valid):
            failures.append(seed)
        else:
            DOCUMENTS.append(
                (
                    "direct-search",
                    certdoc.l1_document(
                        result.certificate, config={"construction": "direct-search", "k": 3}
                    ),
                )
            )
    direct_elapsed = time.monotonic() - start
    monkeypatch.undo()
    k3, k3_elapsed = pipeline_k3_equilateral
    search = k3.complementation
    pipeline_ok = (
        k3.certificate.valid
        and k3_elapsed < 600
        and (search.tuples_tried, search.tuples_l1_valid) == (2551, 1)
    )
    DOCUMENTS.append(("pipeline", certdoc.pipeline_document(k3)))
    DOCUMENTS.append(
        ("complementation", certdoc.complementation_document(k3.complementation.certificate))
    )
    DOCUMENTS.append(("linf", certdoc.linf_document(k3.linf_certificate)))
    # the search's counters: the same nodes in the same order, and the same
    # simplex path through the per-coordinate LPs
    counters_ok = (tried, sum(pivots)) == (250124, 778)
    ok = not failures and direct_elapsed < 300 and pipeline_ok and counters_ok
    report(
        3,
        ok,
        "direct search k=3 on 20/20 spaces; pipeline k=3 on equilateral 8-point",
        direct_elapsed + k3_elapsed,
    )
    assert not failures, failures
    assert direct_elapsed < 300, f"direct-search budget exceeded: {direct_elapsed:.1f}s"
    assert (tried, sum(pivots)) == (250124, 778)
    assert k3.certificate.valid
    assert (search.tuples_tried, search.tuples_l1_valid) == (2551, 1)
    assert k3_elapsed < 600, f"pipeline budget exceeded: {k3_elapsed:.1f}s"


# SHA-256 over the criterion 02 pipeline documents, then the criterion 03
# direct-search documents, each rendered by certdoc.dumps plus a newline.
# Certificates are the product, so their bytes must not move between commits.
PINNED_DOCUMENT_DIGEST = "42038b0d2c765289cd87cd78a9c1d06833ba5c5c5c8e0464bf7182f7b2deb411"


def test_documents_byte_identical_to_pinned_digest():
    pipelines = [doc for tag, doc in DOCUMENTS if tag == "pipeline" and doc["k"] == 2]
    direct = [doc for tag, doc in DOCUMENTS if tag == "direct-search"]
    if (len(pipelines), len(direct)) != (100, 20):
        pytest.skip("criteria 02 and 03 did not run; run the full acceptance module")
    digest = hashlib.sha256()
    for doc in pipelines + direct:
        digest.update(certdoc.dumps(doc).encode() + b"\n")
    assert digest.hexdigest() == PINNED_DOCUMENT_DIGEST


def test_criterion_04_dimension_boundary():
    failures = []
    for n in range(2, 7):
        space = random_space(n, n, "range")
        # value vectors of Lip_0 span exactly {v : v[0] = 0}: dimension n-1
        coordinate_basis = [
            [F(1) if p == q else F(0) for p in range(1, n)] for q in range(1, n)
        ]
        if lp.rank(coordinate_basis) != n - 1:
            failures.append((n, "coordinate rank"))
        # any n functionals are dependent: no n-dimensional subspace exists
        for trial in range(20):
            rows = [
                list(random_functional(space, f"{n}:{trial}:{j}").values)
                for j in range(n)
            ]
            if lp.rank(rows) > n - 1:
                failures.append((n, trial))
    ok = not failures
    report(4, ok, "Lip_0 dimension is n-1: no n-dim subspace on n points (n=2..6)")
    assert not failures, failures


def test_criterion_05_free_space_duality_500():
    start = time.monotonic()
    failures = []
    molecule_checked = set()
    for i in range(500):
        n = 2 + i % 5
        space = random_space(n, i, "range" if i % 2 else "euclidean")
        coeffs = random_coeffs(f"dual:{i}", n - 1)
        v = freespace.FreeVector(space, tuple(coeffs))
        primal, _ = freespace.free_norm_primal(v)
        dual, _ = freespace.free_norm_dual(v)
        if primal != dual:
            failures.append((i, "gap"))
        if freespace.free_norm(v) != primal:
            failures.append((i, "transport"))
        key = (n, i % 25)
        if key not in molecule_checked:
            molecule_checked.add(key)
            for mol in freespace.canonical_molecules(space):
                value, _ = freespace.free_norm_primal(mol.as_free_vector())
                if value != 1:
                    failures.append((i, "molecule", mol.x, mol.y))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60
    report(5, ok, "primal = dual = transport free norm on 500 instances; molecules norm 1", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_06_vertex_enumeration_oracle_100():
    failures = []
    for i in range(100):
        n = 2 + i % 3
        space = random_space(n, i, "range" if i % 2 else "euclidean")
        coeffs = random_coeffs(f"oracle:{i}", n - 1)
        v = freespace.FreeVector(space, tuple(coeffs))
        primal, _ = freespace.free_norm_primal(v)
        oracle = free_norm_vertex_oracle(space, coeffs)
        if primal != oracle:
            failures.append((i, primal, oracle))
    ok = not failures
    report(6, ok, "LP free norm equals vertex-enumeration oracle on 100 instances")
    assert not failures, failures[:5]


def test_criterion_07_certificate_cross_oracle_1000():
    failures = []
    rng = random.Random("criterion7")
    for i in range(1000):
        space = random_space(4, i, "range")
        f1, f2, _ = construct.four_point_basis(space)
        basis = [f1, f2]
        roll = rng.random()
        if roll < 0.25:
            basis[rng.randrange(2)] = basis[rng.randrange(2)].scale(F(1, 2))
        elif roll < 0.5:
            values = list(basis[rng.randrange(2)].values)
            values[rng.randint(1, 3)] += F(rng.randint(1, 4), 8)
            try:
                basis[0] = type(basis[0])(space, tuple(values))
            except ValueError:
                pass
        lip = certify.l1_isometry_lip(basis)
        corner = certify.l1_isometry_corner(basis)
        if lip.valid != corner.valid:
            failures.append((i, "verdict mismatch"))
        elif lip.valid:
            for t in range(100):
                coeffs = random_coeffs(f"sound:{i}:{t}", 2)
                if certify.combo_norm(basis, coeffs) != sum(abs(c) for c in coeffs):
                    failures.append((i, t, "soundness"))
                    break
    ok = not failures
    report(7, ok, "cube+sign and corner criteria agree on 1000 bases; soundness holds")
    assert not failures, failures[:5]


def test_criterion_08_duality_lift_on_all_complementations(
    pipeline_k2_results, pipeline_k3_equilateral
):
    results, _ = pipeline_k2_results
    k3, _ = pipeline_k3_equilateral
    failures = []
    for i, result in enumerate([*results, k3]):
        cert = result.complementation.certificate
        linf_cert = construct.duality_lift(cert)
        if not linf_cert.valid:
            failures.append((i, "invalid lift"))
            continue
        g = linf_cert.basis
        for a, u in enumerate(cert.basis):
            for b, gj in enumerate(g):
                expected = F(1) if a == b else F(0)
                if freespace.pairing(gj, u) != expected:
                    failures.append((i, a, b, "biorthogonality"))
        for gj in g:
            norm, _ = lip_norm(gj)
            if norm != 1:
                failures.append((i, "lift norm"))
    ok = not failures
    report(8, ok, "duality lift valid with exact biorthogonality on 101 complementations")
    assert not failures, failures[:5]


def test_criterion_09_rademacher_exhaustive():
    from itertools import product

    failures = []
    for n in range(1, 6):
        rows = construct.rademacher_embedding(n)
        if len(rows) != 2 ** (n - 1):
            failures.append((n, "shape"))
        for eps in product((1, -1), repeat=n):
            best = max(abs(sum(e * r for e, r in zip(eps, row))) for row in rows)
            if best != n:
                failures.append((n, eps))
    ok = not failures
    report(9, ok, "Rademacher embedding corner identity exhaustive for n <= 5")
    assert not failures, failures[:5]


def test_criterion_10_evaluation_embeddings():
    failures = []
    for kind in ("l1", "linf"):
        for d in range(1, 5):
            emb = construct.evaluation_embedding(kind, d)
            if not emb.certificate.valid:
                failures.append((kind, d, "invalid"))
                continue
            witnesses = (
                emb.certificate.sign_witnesses
                if kind == "l1"
                else emb.certificate.vertex_witnesses
            )
            for w in witnesses:
                if 0 not in (w.x, w.y):
                    failures.append((kind, d, "witness without origin"))
            doc = (
                certdoc.l1_document(emb.certificate, config={"target": kind, "d": d})
                if kind == "l1"
                else certdoc.linf_document(emb.certificate, config={"target": kind, "d": d})
            )
            DOCUMENTS.append(("eval-embed", doc))
    ok = not failures
    report(10, ok, "evaluation embeddings valid for d <= 4 with origin witnesses")
    assert not failures, failures[:5]


def test_criterion_11_c0_block_identity():
    failures = []
    for n in range(1, 11):
        basis = [interval.c0_block([F(i == k) for i in range(n)]) for k in range(n)]
        for t in range(100 // n + 1):
            coeffs = random_coeffs(f"c0:{n}:{t}", n)
            combo = interval.pwl_combination(basis, coeffs)
            norm, pieces = interval.pwl_norm(combo)
            if norm != max(abs(c) for c in coeffs):
                failures.append((n, t, "identity"))
            if not pieces:
                failures.append((n, t, "no attaining piece"))
    ok = not failures
    report(11, ok, "c0 block basis satisfies the exact linf identity for N <= 10")
    assert not failures, failures[:5]


def test_criterion_12_hybrid_norm_transfer():
    start = time.monotonic()
    failures = []
    for s in range(50):
        h = random_hybrid(s, max_extras=3, max_breaks=8)
        if interval.hybrid_validate(h):
            failures.append((s, "generator produced invalid hybrid"))
            continue
        for t in range(20):
            f = random_pwl(f"{s}:{t}")
            u = interval.compose_embed(f, h)
            expected, pieces = interval.pwl_norm(f)
            got, witness = interval.hybrid_norm(u, h)
            if got != expected:
                failures.append((s, t, "norm changed"))
            elif expected > 0 and witness.kind != "interval":
                failures.append((s, t, "witness left the interval"))
            if t < 2:
                DOCUMENTS.append(("hybrid-embed", certdoc.hybrid_document(h, f, u)))
    elapsed = time.monotonic() - start
    ok = not failures
    report(12, ok, "norm transfer exact on 50 hybrids x 20 functionals", elapsed)
    assert not failures, failures[:5]


def test_criterion_13_reverification_and_determinism(tmp_path):
    start = time.monotonic()
    failures = []
    if not DOCUMENTS:
        pytest.skip("no documents collected; run the full acceptance module")
    for i, (tag, doc) in enumerate(DOCUMENTS):
        rendered = certdoc.dumps(doc)
        reparsed = json.loads(rendered)
        verdict = certdoc.verify_document(reparsed)
        if verdict.recomputed != doc.get("verdict"):
            failures.append((i, tag, "verdict not reproduced"))
        if verdict.failures:
            failures.append((i, tag, verdict.failures[:2]))
        if certdoc.dumps(reparsed) != rendered:
            failures.append((i, tag, "serialization not canonical"))
    # CLI byte-determinism under fixed seeds
    space_path = tmp_path / "eq4.json"
    space_path.write_text(metric.serialize_space(equilateral(4)))
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "lipcert.cli", "four-point", str(space_path)],
            capture_output=True,
            text=True,
        )
        outs.append((proc.returncode, proc.stdout))
    if outs[0] != outs[1] or outs[0][0] != 0:
        failures.append(("cli", "four-point rerun differs"))
    trials = []
    for _ in range(2):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "lipcert.cli",
                "trials",
                "--op",
                "free-duality",
                "--count",
                "6",
                "--seed",
                "11",
                "-n",
                "4",
            ],
            capture_output=True,
            text=True,
        )
        trials.append(proc.stdout)
    if trials[0] != trials[1]:
        failures.append(("cli", "trials rerun differs"))
    elapsed = time.monotonic() - start
    ok = not failures
    report(13, ok, f"re-verified {len(DOCUMENTS)} certificates; reruns byte-identical", elapsed)
    assert not failures, failures[:5]
