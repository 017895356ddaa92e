"""Soundness checks must survive ``python -O``, which strips ``assert``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lipcert


def test_library_has_no_assert_statements():
    package = Path(lipcert.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


_OPTIMIZED_RUN = """
import copy, json, sys
from lipcert import certdoc, construct, interval
from lipcert.metric import random_space
from lipcert.rationals import format_rational, parse_rational

if sys.flags.optimize < 1:
    raise SystemExit("not running under -O")
pipeline = construct.theorem_pipeline(random_space(6, 1, "range"), 2)
_, _, four_point = construct.four_point_basis(random_space(4, 1, "range"))
h = interval.hybrid_space([interval.profile(["0", "1/4", "1"], ["3/4", "1/2", "5/4"])])
f = interval.pwl(["0", "1/2", "1"], ["0", "1/2", "1/4"])
docs = {
    "pipeline": certdoc.pipeline_document(pipeline),
    "complementation": certdoc.complementation_document(pipeline.complementation.certificate),
    "l1-isometry": certdoc.l1_document(four_point),
    "linf-isometry": certdoc.linf_document(construct.evaluation_embedding("linf", 2).certificate),
    "hybrid-embed": certdoc.hybrid_document(h, f, interval.compose_embed(f, h)),
}
for kind in docs:
    docs[kind] = json.loads(certdoc.dumps(docs[kind]))
    report = certdoc.verify_document(docs[kind])
    if not report.ok or report.recomputed != "valid" or report.kind != kind:
        raise SystemExit(f"valid {kind} document rejected: {report.failures}")
for kind, path, value, name in [
    ("complementation", "checks.operator_norm.value", "2", "operator norm value does not reproduce"),
    ("complementation", "checks.l1_isometry.unit_norms", ["1", "2"], "l1 unit norms do not reproduce"),
    ("pipeline", "complementation.kind", "x", "complementation.kind does not reproduce"),
    ("l1-isometry", "checks.signs.ok", 1, "sign check does not reproduce"),
    ("linf-isometry", "checks.vertices.ok", False, "checks.vertices.ok does not reproduce"),
    ("hybrid-embed", "witness.kind", "extra-extra", "witness.kind does not reproduce"),
]:
    bad = copy.deepcopy(docs[kind])
    *parents, last = path.split(".")
    node = bad
    for key in parents:
        node = node[key]
    node[last] = value
    report = certdoc.verify_document(bad)
    if report.ok or name not in report.failures:
        raise SystemExit(f"tampered {kind} {path} went unnamed: {report.failures}")
search = construct.direct_search_l1(random_space(5, 2, "range"), 2)
if not search.found:
    raise SystemExit("direct search found no l1^2 basis")
config = {"construction": "direct-search", "k": 2}
doc = json.loads(certdoc.dumps(certdoc.l1_document(search.certificate, config=config)))
report = certdoc.verify_document(doc)
if not report.ok or report.recomputed != "valid" or report.kind != "l1-isometry":
    raise SystemExit(f"valid direct-search document rejected: {report.failures}")
x, y = doc["checks"]["signs"]["witnesses"][0]["pair"]
doc["basis"][1][x or y] = format_rational(parse_rational(doc["basis"][1][x or y]) + 1)
report = certdoc.verify_document(doc)
name = f"checks.signs.witnesses[0] pair [{x}, {y}] does not realize its epsilon"
if report.ok or not report.failures[0].startswith(name):
    raise SystemExit(f"tampered direct-search basis value went unnamed: {report.failures}")
doc = docs["pipeline"]
x, y = doc["checks"]["signs"]["witnesses"][0]["pair"]
point = x or y
doc["basis"][0][point] = format_rational(parse_rational(doc["basis"][0][point]) + 1)
report = certdoc.verify_document(doc)
if report.ok or not report.failures:
    raise SystemExit("tampered basis value went unnamed")
print("ok", report.failures[0])
"""


def _source_first_env():
    """The inherited environment with the lipcert source directory prepended
    to ``PYTHONPATH``, so that whatever the interpreter reaches through the
    inherited path (pytest among it) stays importable."""
    src = str(Path(lipcert.__file__).parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, inherited]) if inherited else src}


def test_pipeline_verifies_and_rejects_tampering_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_RUN],
        capture_output=True,
        text=True,
        env=_source_first_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")


def test_test_modules_pass_under_optimize():
    # pytest still rewrites the test modules' own asserts under -O; the
    # library code they exercise runs optimized
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [
            sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_lp.py", "tests/test_verify_fuzz.py", "tests/test_interval.py",
            "tests/test_certify.py", "tests/test_lipschitz.py", "tests/test_metric.py",
            "tests/test_rationals.py", "tests/test_construct.py", "tests/test_freespace.py",
        ],
        capture_output=True,
        text=True,
        cwd=root,
        env=_source_first_env(),
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
