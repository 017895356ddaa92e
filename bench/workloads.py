"""The workloads: seeded inputs, the timed call into lipcert, and its checks.

Every input comes from ``--seed``.  Seed 0 reproduces the acceptance-suite
inputs (criteria 02, 03, 12 and 13); seed s reads the same generators at
index s * STRIDE + i, which gives fresh inputs of the same make-up.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from lipcert import certdoc, construct, interval
from lipcert.metric import PointedMetricSpace, random_space

from oracles import check_l1_basis, quotients

STRIDE = 1_000_000


@dataclass
class Case:
    label: str
    payload: object
    known_fault: bool = False  # fails today because of a verifier fault


# --- seeded generators; seed 0 gives the acceptance-suite inputs -------------


def equilateral(n: int, d=1) -> PointedMetricSpace:
    return PointedMetricSpace.from_matrix(
        [[d if i != j else 0 for j in range(n)] for i in range(n)]
    )


def k2_space(seed: int, i: int) -> PointedMetricSpace:
    """Criterion 02's i-th space for seed 0."""
    method = "euclidean" if i % 3 == 0 else "range"
    return random_space(4 + i % 5, seed * STRIDE + i, method)


def k3_search_spaces(seed: int, i: int) -> list[PointedMetricSpace]:
    """The i-th range and euclidean 8-point spaces; for seed 0 and i < 20 the
    range one is criterion 03's."""
    return [random_space(8, seed * STRIDE + i, method) for method in ("range", "euclidean")]


def k3_pipeline_space(seed: int) -> PointedMetricSpace:
    """Criterion 03's equilateral 8-point space, at a seeded rational scale for
    seeds other than 0 (a random 8-point space takes minutes at k = 3)."""
    if seed == 0:
        return equilateral(8)
    rng = random.Random(f"pipeline-k3:{seed}")
    q = rng.randint(1, 16)
    return equilateral(8, Fraction(rng.randint(q, 4 * q), q))


def random_pwl(key, max_breaks=6, denominator=8, span=8) -> interval.PwlFunctional:
    rng = random.Random(f"pwl:{key}")
    cuts = sorted({Fraction(rng.randint(1, 31), 32) for _ in range(rng.randint(0, max_breaks))})
    breakpoints = [Fraction(0)] + cuts + [Fraction(1)]
    values = [Fraction(0)]
    for _ in range(len(breakpoints) - 1):
        values.append(Fraction(rng.randint(-span, span), rng.randint(1, denominator)))
    return interval.PwlFunctional(tuple(breakpoints), tuple(values))


def random_hybrid(key, max_extras=3, max_breaks=8) -> interval.HybridSpace:
    """Positive 1-Lipschitz profiles; extra-extra distances route through the
    interval, so every triangle inequality holds by construction."""
    rng = random.Random(f"hybrid:{key}")
    extras = rng.randint(1, max_extras)
    profiles = []
    for _ in range(extras):
        cuts = sorted(
            {Fraction(rng.randint(1, 63), 64) for _ in range(rng.randint(0, max_breaks - 2))}
        )
        breakpoints = [Fraction(0)] + cuts + [Fraction(1)]
        values = [Fraction(rng.randint(8, 64), 32)]
        for i in range(len(breakpoints) - 1):
            slope = Fraction(rng.randint(-8, 8), 8)
            values.append(values[-1] + slope * (breakpoints[i + 1] - breakpoints[i]))
        lowest = min(values)
        if lowest <= 0:
            values = [v - lowest + Fraction(1, 4) for v in values]
        if values[0] + values[-1] < 1:
            shift = (1 - values[0] - values[-1]) / 2
            values = [v + shift for v in values]
        profiles.append(interval.DistanceProfile(tuple(breakpoints), tuple(values)))
    dist = [[Fraction(0)] * extras for _ in range(extras)]
    for z in range(extras):
        for w in range(z + 1, extras):
            grid = sorted(set(profiles[z].breakpoints) | set(profiles[w].breakpoints))
            through = min(profiles[z].evaluate(t) + profiles[w].evaluate(t) for t in grid)
            dist[z][w] = dist[w][z] = through
    return interval.HybridSpace(tuple(profiles), tuple(tuple(r) for r in dist))


# --- output checks -----------------------------------------------------------


def reverify(doc) -> list[str]:
    """The verifier must reproduce ``valid`` on the rendered document."""
    report = certdoc.verify_document(json.loads(certdoc.dumps(doc)))
    if report.ok:
        return []
    return [f"verifier recomputed {report.recomputed!r}: {report.failures[:2]}"]


def check_l1_certificate(space, certificate, label, subset=None) -> list[str]:
    if not certificate.valid:
        return ["certificate is not valid"]
    return check_l1_basis(
        [f.values for f in certificate.basis],
        space.dist,
        [(w.epsilon, w.x, w.y) for w in certificate.sign_witnesses],
        label,
        subset,
    )


def check_pipeline(label: str, result) -> list[str]:
    problems = check_l1_certificate(
        result.space, result.certificate, label, set(result.subset_indices)
    )
    return problems or reverify(certdoc.pipeline_document(result))


def direct_search_document(certificate):
    return certdoc.l1_document(certificate, config={"construction": "direct-search", "k": 3})


def check_direct_search(label: str, space, result) -> list[str]:
    if not result.found:
        return [f"no basis found after {result.assignments_tried} assignments"]
    problems = check_l1_certificate(space, result.certificate, label)
    return problems or reverify(direct_search_document(result.certificate))


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    whole_rounds = False  # every run attempts whole rounds of ``cases``
    setup_repeats = 3  # set-ups per run; setup_s reports their median
    trace_size = 0  # cases in the traced set (0: one whole round)
    layers: tuple[str, ...] = ()  # spans the traced set must reach

    def prepare(self, seed: int, lap=lambda: None) -> list[Case]:
        """The run's cases; a long set-up calls ``lap`` between its steps."""
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, output) -> list[str]:
        raise NotImplementedError


_PIPELINE_LAYERS = (
    "construct.theorem_pipeline",
    "freespace.search",
    "certify.l1_isometry_free",
    "freespace.free_norm_primal",
    "freespace.complement_lp",
    "lp.feasible",
    "lp.solve",
    "lp.recheck",
    "freespace.verify_one_complemented",
    "freespace.operator_norm",
    "construct.duality_lift",
    "certify.linf_isometry_lip",
    "construct.compose_l1_in_linf",
    "certify.l1_isometry_lip",
    "lipschitz.extend_basis",
)


class PipelineK2(Workload):
    name = "pipeline-k2"
    trace_size = 100  # criterion 02's 100 pipelines for seed 0
    layers = _PIPELINE_LAYERS
    pool = 600

    def prepare(self, seed, lap=lambda: None):
        return [Case(f"k2:{seed}:{i}", k2_space(seed, i)) for i in range(self.pool)]

    def run(self, case):
        return construct.theorem_pipeline(case.payload, 2)

    def check(self, case, result):
        return check_pipeline(case.label, result)


class PipelineK3(Workload):
    name = "pipeline-k3"
    trace_size = 1
    layers = _PIPELINE_LAYERS

    def prepare(self, seed, lap=lambda: None):
        return [Case(f"k3:{seed}", k3_pipeline_space(seed))]

    def run(self, case):
        return construct.theorem_pipeline(case.payload, 3)

    def check(self, case, result):
        return check_pipeline(case.label, result)


class DirectSearchK3(Workload):
    """One operation searches one space; operations alternate between the
    range and euclidean generators, so every run holds the same mix."""

    name = "direct-search-k3"
    trace_size = 40  # criterion 03's 20 range spaces and 20 euclidean ones
    layers = ("construct.direct_search_l1", "lp.feasible", "lp.solve", "lp.recheck",
              "certify.l1_isometry_lip")
    pool = 200

    def prepare(self, seed, lap=lambda: None):
        return [
            Case(f"ds:{seed}:{i}:{method}", space)
            for i in range(self.pool)
            for method, space in zip(("range", "euclidean"), k3_search_spaces(seed, i))
        ]

    def run(self, case):
        return construct.direct_search_l1(case.payload, 3)

    def check(self, case, result):
        return check_direct_search(case.label, case.payload, result)


# --- verify-corpus -----------------------------------------------------------

TAMPERED_PER_KIND = 10


def build_corpus(seed: int, lap=lambda: None) -> list[list[tuple[str, dict]]]:
    """The criterion 13 documents without the k=3 pipeline's three, grouped
    by the input index that produced them: bundle j holds the two four-point
    documents of index j, the k=2 pipeline and complementation documents of
    index j, and for small j the direct-search (j < 20), evaluation-embedding
    (j < 8) and two hybrid-embed (j < 50) documents."""
    embeddings = [(kind, d) for kind in ("l1", "linf") for d in range(1, 5)]
    bundles = []
    for j in range(100):
        docs = []
        for method in ("range", "euclidean"):
            _, _, cert = construct.four_point_basis(random_space(4, seed * STRIDE + j, method))
            docs.append(("four-point", certdoc.l1_document(cert)))
        result = construct.theorem_pipeline(k2_space(seed, j), 2)
        docs.append(("pipeline", certdoc.pipeline_document(result)))
        cert = result.complementation.certificate
        docs.append(("complementation", certdoc.complementation_document(cert)))
        if j < 20:
            found = construct.direct_search_l1(random_space(8, seed * STRIDE + j, "range"), 3)
            docs.append(("direct-search", direct_search_document(found.certificate)))
        if j < len(embeddings):
            kind, d = embeddings[j]
            emb = construct.evaluation_embedding(kind, d)
            render = certdoc.l1_document if kind == "l1" else certdoc.linf_document
            docs.append(("eval-embed", render(emb.certificate, config={"target": kind, "d": d})))
        if j < 50:
            key = seed * STRIDE + j
            h = random_hybrid(key)
            for t in range(2):
                f = random_pwl(f"{key}:{t}")
                u = interval.compose_embed(f, h)
                docs.append(("hybrid-embed", certdoc.hybrid_document(h, f, u)))
        bundles.append(docs)
        lap()
    return bundles


def _doc_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def tamper_basis(doc, rng):
    """Shift one basis value at a non-base endpoint of a sign witness, which
    moves that witness's quotient off its sign class."""
    w = rng.choice(doc["checks"]["signs"]["witnesses"])
    base = doc["space"].get("base", 0)
    p = rng.choice([q for q in w["pair"] if q != base])
    k = rng.randrange(len(doc["basis"]))
    shift = Fraction(rng.choice((1, -1)) * rng.randint(1, 8), rng.randint(1, 8))
    doc["basis"][k][p] = str(Fraction(doc["basis"][k][p]) + shift)


def tamper_pair(doc, rng):
    """Move one sign witness to a pair whose quotient vector is not its class."""
    w = rng.choice(doc["checks"]["signs"]["witnesses"])
    dist = _doc_matrix(doc["space"]["dist"])
    basis = _doc_matrix(doc["basis"])
    eps = tuple(Fraction(e) for e in w["epsilon"])
    n = len(dist)
    moves = [
        [x, y]
        for x in range(n)
        for y in range(n)
        if x != y and quotients(basis, dist, x, y) != eps
    ]
    w["pair"] = rng.choice(moves)


def tamper_verdict(doc, rng):
    doc["verdict"] = "invalid"


def tamper_digest(doc, rng):
    digest = doc["space_digest"]
    i = rng.randrange(len("sha256:"), len(digest))
    doc["space_digest"] = digest[:i] + ("0" if digest[i] != "0" else "1") + digest[i + 1:]


# (name, mutation, eligible document test, text the verifier must name)
TAMPERINGS = (
    ("basis", tamper_basis, lambda d: "signs" in d.get("checks", {}), "does not reproduce"),
    ("pair", tamper_pair, lambda d: "signs" in d.get("checks", {}), "does not reproduce"),
    ("verdict", tamper_verdict, lambda d: True, "verdict mismatch"),
    ("digest", tamper_digest, lambda d: "space_digest" in d, "space digest mismatch"),
)


def known_faulty_cases() -> list[Case]:
    """Tamperings the verifier misses today, on one seedless document."""
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    fractional = copy.deepcopy(doc)
    for w in fractional["checks"]["signs"]["witnesses"]:
        if w["epsilon"] == [1, 1]:
            w["epsilon"] = [1.9, 1]
    self_pair = copy.deepcopy(doc)
    self_pair["checks"]["signs"]["witnesses"][0]["pair"] = [1, 1]
    return [
        Case(f"fault:{name}", [(name, payload, "")], known_fault=True)
        for name, payload in (
            ("fractional-epsilon", fractional),
            ("non-object", [1, 2]),
            ("self-pair", self_pair),
        )
    ]


class VerifyCorpus(Workload):
    """One operation renders, re-parses and verifies each document of one
    bundle in turn.  Grouping by input keeps every operation a mix of cheap
    four-point and costly pipeline documents, so the median sits inside one
    cluster of times instead of on the edge between two."""

    name = "verify-corpus"
    whole_rounds = True
    setup_repeats = 1  # one corpus build is ~15 s of pipelines and searches (2-core VM)
    layers = (
        "certdoc.dumps",
        "certdoc.verify_document",
        "freespace.verify_one_complemented",
        "freespace.operator_norm",
        "freespace.free_norm_primal",
        "certify.l1_isometry_free",
        "lp.solve",
        "lp.recheck",
        "interval.hybrid_norm",
        "interval.retraction",
        "interval.pwl_norm",
    )

    def prepare(self, seed, lap=lambda: None):
        # bundle entries: (tag, document, text a rejection must name or None)
        bundles = [[(tag, doc, None) for tag, doc in docs] for docs in build_corpus(seed, lap)]
        where = [(j, k) for j, docs in enumerate(bundles) for k in range(len(docs))]
        rng = random.Random(f"tamper:{seed}")
        for name, mutate, eligible, text in TAMPERINGS:
            pool = [(j, k) for j, k in where if eligible(bundles[j][k][1])]
            for j, k in rng.sample(pool, TAMPERED_PER_KIND):
                doc = copy.deepcopy(bundles[j][k][1])
                mutate(doc, rng)
                bundles[j].append((f"tamper-{name}", doc, text))
        cases = [Case(f"bundle:{seed}:{j}", docs) for j, docs in enumerate(bundles)]
        return cases + known_faulty_cases()

    def run(self, case):
        outputs = []
        for _, doc, _ in case.payload:
            rendered = certdoc.dumps(doc)
            reparsed = json.loads(rendered)
            outputs.append((rendered, reparsed, certdoc.verify_document(reparsed)))
        return outputs

    def check(self, case, outputs):
        problems = []
        for (tag, _, reject_with), (rendered, reparsed, report) in zip(case.payload, outputs):
            if reject_with is None:
                if not report.ok:
                    problems.append(f"{tag}: genuine document rejected: {report.failures[:2]}")
                if certdoc.dumps(reparsed) != rendered:
                    problems.append(f"{tag}: rendering is not canonical")
            elif report.ok or not report.failures:
                problems.append(f"{tag}: tampered document accepted as {report.recomputed!r}")
            elif not any(reject_with in f for f in report.failures):
                problems.append(f"{tag}: no failure names {reject_with!r}: {report.failures[:2]}")
        return problems


WORKLOADS = {w.name: w for w in (PipelineK3(), PipelineK2(), DirectSearchK3(), VerifyCorpus())}
