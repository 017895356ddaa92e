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
from lipcert import certdoc, construct
from lipcert.metric import random_space
from lipcert.rationals import format_rational, parse_rational

if sys.flags.optimize < 1:
    raise SystemExit("not running under -O")
doc = certdoc.pipeline_document(construct.theorem_pipeline(random_space(6, 1, "range"), 2))
doc = json.loads(certdoc.dumps(doc))
report = certdoc.verify_document(doc)
if not report.ok or report.recomputed != "valid":
    raise SystemExit(f"valid document rejected: {report.failures}")
nested = copy.deepcopy(doc["complementation"])
report = certdoc.verify_document(nested)
if not report.ok or report.recomputed != "valid":
    raise SystemExit(f"valid complementation document rejected: {report.failures}")
for section, field, value, name in [
    ("operator_norm", "value", "2", "operator norm value does not reproduce"),
    ("l1_isometry", "unit_norms", ["1", "2"], "l1 unit norms do not reproduce"),
]:
    bad = copy.deepcopy(nested)
    bad["checks"][section][field] = value
    report = certdoc.verify_document(bad)
    if report.ok or name not in report.failures:
        raise SystemExit(f"tampered {field} went unnamed: {report.failures}")
x, y = doc["checks"]["signs"]["witnesses"][0]["pair"]
point = x or y
doc["basis"][0][point] = format_rational(parse_rational(doc["basis"][0][point]) + 1)
report = certdoc.verify_document(doc)
if report.ok or not report.failures:
    raise SystemExit("tampered basis value went unnamed")
print("ok", report.failures[0])
"""


def test_pipeline_verifies_and_rejects_tampering_under_optimize():
    src = Path(lipcert.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_RUN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")
