"""Seeded mutation fuzzing of the certificate verifier, and the canonical
encoder against ``json.dumps`` on the same documents.

One genuine document of each sort is mutated one node at a time: a value is
replaced by null, true, 0, -1, "x", "1/0", "0.0", [] or {}, an integer by
its string or a digit string by its integer, or a key is deleted.  A fixed
sample of these must each give a report with a failure (a malformed report
included), never an exception.  ``tool`` and ``config`` are provenance, so
their mutations must leave the document valid.  No one-node edit of these
documents is another genuine certificate, so no other mutation may verify.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

from lipcert import certdoc, construct, interval
from lipcert.metric import random_space

from helpers import equilateral, nested_list, random_hybrid, random_pwl

SAMPLE = 1500
_VALUES = (None, True, 0, -1, "x", "1/0", "0.0", [], {})
_DELETE = object()


def _documents():
    _, _, four_point = construct.four_point_basis(equilateral(4))
    search = construct.direct_search_l1(random_space(5, 2, "range"), 2)
    pipeline = construct.theorem_pipeline(random_space(6, 1, "range"), 2)
    h, f = random_hybrid(3), random_pwl(5)
    docs = {
        "four-point": certdoc.l1_document(four_point, config={"construction": "four-point"}),
        "direct-search": certdoc.l1_document(
            search.certificate, config={"construction": "direct-search", "k": 2}
        ),
        "pipeline": certdoc.pipeline_document(pipeline, config={"k": 2}),
        "complementation": certdoc.complementation_document(pipeline.complementation.certificate),
        "linf-eval-embed": certdoc.linf_document(
            construct.evaluation_embedding("linf", 2).certificate,
            config={"construction": "evaluation-embedding", "target": "linf", "d": 2},
        ),
        "hybrid": certdoc.hybrid_document(h, f, interval.compose_embed(f, h)),
    }
    return {name: json.loads(certdoc.dumps(doc)) for name, doc in docs.items()}


def _mutations(node, path=()):
    """(path, replacement or _DELETE) for every node below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        sub = path + (key,)
        new_values = list(_VALUES)
        if type(value) is int:
            new_values.append(str(value))
        elif isinstance(value, str) and value.lstrip("-").isdigit():
            new_values.append(int(value))
        for new in new_values:
            if json.dumps(new) != json.dumps(value):
                yield sub, new
        if isinstance(node, dict):
            yield sub, _DELETE
        yield from _mutations(value, sub)


def _mutated(doc, path, new):
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if new is _DELETE:
        del node[last]
    else:
        node[last] = new
    return doc


def test_verifier_rejects_every_sampled_mutation():
    docs = _documents()
    for name, doc in docs.items():
        assert certdoc.verify_document(doc).ok, name
    pool = [(name, path, new) for name, doc in docs.items() for path, new in _mutations(doc)]
    problems = []
    for name, path, new in random.Random(13).sample(pool, SAMPLE):
        try:
            report = certdoc.verify_document(_mutated(docs[name], path, new))
        except Exception as exc:  # any escape is a verifier fault
            problems.append((name, path, new, f"raised {exc!r}"))
            continue
        if "tool" in path or "config" in path:
            if not report.ok:
                problems.append((name, path, new, f"provenance edit rejected: {report.failures}"))
        elif report.ok or not report.failures:
            problems.append((name, path, new, "accepted"))
    assert not problems, problems[:10]


def _json_dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


def _criterion_13_documents():
    """The documents criteria 01-12 hand to criterion 13, without the k=3
    pipeline's three."""
    docs = []
    for method in ("range", "euclidean"):
        for seed in range(100):
            _, _, cert = construct.four_point_basis(random_space(4, seed, method))
            docs.append(certdoc.l1_document(cert))
    for i in range(100):
        space = random_space(4 + i % 5, i, "euclidean" if i % 3 == 0 else "range")
        result = construct.theorem_pipeline(space, 2)
        docs.append(certdoc.pipeline_document(result))
        docs.append(certdoc.complementation_document(result.complementation.certificate))
    for seed in range(20):
        cert = construct.direct_search_l1(random_space(8, seed, "range"), 3).certificate
        docs.append(certdoc.l1_document(cert, config={"construction": "direct-search", "k": 3}))
    for d in range(1, 5):
        for kind, render in (("l1", certdoc.l1_document), ("linf", certdoc.linf_document)):
            cert = construct.evaluation_embedding(kind, d).certificate
            docs.append(render(cert, config={"target": kind, "d": d}))
    for s in range(50):
        h = random_hybrid(s, max_extras=3, max_breaks=8)
        for t in range(2):
            f = random_pwl(f"{s}:{t}")
            docs.append(certdoc.hybrid_document(h, f, interval.compose_embed(f, h)))
    return docs


def test_dumps_writes_the_bytes_of_json_dumps_on_every_document():
    docs = _criterion_13_documents()
    assert len(docs) == 528
    for doc in docs:
        assert certdoc.dumps(doc) == _json_dumps(doc)
    mutated = 0
    for doc in _documents().values():
        assert certdoc.dumps(doc) == _json_dumps(doc)
        for path, new in _mutations(doc):
            value = _mutated(doc, path, new)
            assert certdoc.dumps(value) == _json_dumps(value), path
            mutated += 1
    assert mutated > SAMPLE


@pytest.mark.parametrize(
    "value",
    [
        "\u00e9t\u00e9 \u4e16\U0001f600", '"', "\\", "\x00\x1f\n\t\x7f", "\u2028", "\ud800",
        [], {}, [[]], {"a": {}}, [{}, [[]], {"b": []}], {"": None}, nested_list(900),
        10 ** 400, -(10 ** 400), -1, 0, True, False, None,
        1.5, -0.0, 1e300, float("nan"), float("inf"), float("-inf"),
        {"b": [1, "x", None], "a": 2, "\u00e9": 3, "B": [True, 0.5]},
    ],
)
def test_dumps_writes_the_bytes_of_json_dumps_on_hand_picked_values(value):
    assert certdoc.dumps(value) == _json_dumps(value)


@pytest.mark.parametrize(
    "value",
    [(1, 2), {1, 2}, Fraction(1, 2), b"x", {1: "a"}, {"a": [1, (2,)]}],
    ids=["tuple", "set", "fraction", "bytes", "int-key", "nested-tuple"],
)
def test_dumps_rejects_other_types(value):
    with pytest.raises(TypeError):
        certdoc.dumps(value)
