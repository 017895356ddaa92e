"""Certificate documents, independent verification, CLI surface."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from lipcert import certdoc, certify, cli, construct, freespace, interval, metric
from lipcert.lipschitz import functional

from helpers import equilateral, nested_list, random_hybrid, random_pwl

F = Fraction


def run_cli(*argv, files=None):
    cmd = [sys.executable, "-m", "lipcert.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def eq4_file(tmp_path):
    path = tmp_path / "eq4.json"
    path.write_text(metric.serialize_space(equilateral(4)))
    return str(path)


def test_l1_document_round_trip_and_verify():
    f1, f2, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    report = certdoc.verify_document(doc)
    assert report.ok
    assert report.recomputed == "valid"


def test_verify_detects_tampered_witness():
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    doc["checks"]["signs"]["witnesses"][0]["pair"] = [2, 0]
    report = certdoc.verify_document(doc)
    assert not report.ok
    # the failing witness is named first, then the paths that differ
    assert report.failures[0] == (
        "checks.signs.witnesses[0] pair [2, 0] does not realize its epsilon [1, 1]"
    )
    assert "sign check does not reproduce" in report.failures[1:]


def test_verify_detects_tampered_basis_and_digest():
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    doc["basis"][0][1] = "2"
    report = certdoc.verify_document(doc)
    assert not report.ok
    doc2 = certdoc.l1_document(cert)
    doc2["space"]["dist"][0][1] = "1/2"
    doc2["space"]["dist"][1][0] = "1/2"
    report2 = certdoc.verify_document(doc2)
    assert any("digest" in msg for msg in report2.failures)


def test_verify_reproduces_invalid_verdict():
    space = equilateral(4)
    f1 = functional(space, [0, 1, 0, 1])
    cert = certify.l1_isometry_lip([f1, f1])
    doc = certdoc.l1_document(cert)
    report = certdoc.verify_document(doc)
    assert report.claimed == report.recomputed == "invalid"
    assert not report.failures  # verdict reproduced, certificate just invalid
    assert not report.ok


def test_linf_document_verify():
    emb = construct.evaluation_embedding("linf", 2)
    doc = certdoc.linf_document(emb.certificate)
    assert certdoc.verify_document(doc).ok
    # (e_1, e_2) has quotient vector (1/2, -1/2), not a vertex
    doc["checks"]["vertices"]["witnesses"][0]["pair"] = [1, 3]
    assert not certdoc.verify_document(doc).ok


def test_complementation_document_verify():
    search = freespace.search_one_complemented(equilateral(4), 2)
    doc = certdoc.complementation_document(search.certificate)
    assert certdoc.verify_document(doc).ok
    doc["projection"][0][0] = "2"
    report = certdoc.verify_document(doc)
    assert not report.ok


def _format_calls(monkeypatch, doc):
    """How often verifying ``doc`` formats a distance of a space."""
    calls = []
    real = metric.format_rational
    monkeypatch.setattr(metric, "format_rational", lambda q: calls.append(1) or real(q))
    assert certdoc.verify_document(doc).ok
    return len(calls)


def test_verify_serializes_each_space_once(monkeypatch):
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = json.loads(certdoc.dumps(certdoc.l1_document(cert)))
    assert _format_calls(monkeypatch, doc) == 4 * 4
    result = construct.theorem_pipeline(metric.random_space(6, 1, "range"), 2)
    doc = json.loads(certdoc.dumps(certdoc.pipeline_document(result)))
    assert _format_calls(monkeypatch, doc) == 6 * 6 + 4 * 4


def test_mutating_a_rendered_space_leaves_the_next_document_unchanged():
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    rendered = certdoc.dumps(doc)
    doc["space"]["dist"][0][1] = "7"
    doc["space"]["points"].append("extra")
    doc["space"]["base"] = 2
    assert certdoc.dumps(certdoc.l1_document(cert)) == rendered


@pytest.mark.parametrize("field", ["checks", "verdict", "kind", "config"])
def test_verify_names_values_nested_too_deeply(field):
    # config is provenance, copied from the document, and is walked all the same
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = json.loads(certdoc.dumps(certdoc.l1_document(cert, config={"construction": 1})))
    if field in ("checks", "config"):
        doc[field]["cube" if field == "checks" else "construction"] = nested_list(5000)
    else:
        doc[field] = nested_list(5000)
    report = certdoc.verify_document(doc)
    assert report.recomputed == "malformed"
    assert any("nested too deeply" in msg for msg in report.failures)
    assert not report.ok


def test_pipeline_document_verify_and_subset():
    result = construct.theorem_pipeline(equilateral(6), 2)
    doc = certdoc.pipeline_document(result)
    assert certdoc.verify_document(doc).ok
    doc["subset"] = [0, 1]
    report = certdoc.verify_document(doc)
    assert any("subset" in msg for msg in report.failures)


@pytest.fixture(scope="module")
def pipeline_k2_doc():
    return certdoc.pipeline_document(construct.theorem_pipeline(equilateral(6), 2))


_DELETED = object()


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", "x"),
        ("k", 7),
        ("k", True),
        ("k", None),
        ("k", _DELETED),
        ("subset", _DELETED),
        ("subset", []),
        ("complementation", _DELETED),
    ],
    ids=["k-str", "k-int", "k-bool", "k-null", "k-deleted", "subset-deleted", "subset-empty",
         "complementation-deleted"],
)
def test_verify_names_pipeline_field_faults(pipeline_k2_doc, field, value):
    doc = json.loads(certdoc.dumps(pipeline_k2_doc))
    assert certdoc.verify_document(doc).ok
    if value is _DELETED:
        del doc[field]
    else:
        doc[field] = value
    report = certdoc.verify_document(doc)
    assert not report.ok
    assert any(msg.startswith(f"pipeline {field} ") for msg in report.failures), report.failures


@pytest.mark.parametrize("value", [False, 1, _DELETED], ids=["false", "one", "deleted"])
def test_verify_names_sign_check_fault(value):
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = json.loads(certdoc.dumps(certdoc.l1_document(cert)))
    assert certdoc.verify_document(doc).ok
    if value is _DELETED:
        del doc["checks"]["signs"]["ok"]
    else:
        doc["checks"]["signs"]["ok"] = value
    report = certdoc.verify_document(doc)
    assert not report.ok
    if value is _DELETED:
        assert report.recomputed == "malformed"
        assert any(msg.startswith("malformed document") for msg in report.failures)
    else:
        assert "sign check does not reproduce" in report.failures


@pytest.fixture(scope="module")
def complementation_doc():
    result = construct.theorem_pipeline(metric.random_space(6, 1, "range"), 2)
    return certdoc.complementation_document(result.complementation.certificate)


@pytest.mark.parametrize(
    "section, field, value, name",
    [
        ("range", "rank", 7, "projection rank does not reproduce"),
        ("range", "rank", True, "projection rank does not reproduce"),
        ("operator_norm", "witness_molecule", [2, 1], "operator norm witness molecule does not reproduce"),
        ("operator_norm", "witness_molecule", None, "operator norm witness molecule does not reproduce"),
        ("operator_norm", "value", "2", "operator norm value does not reproduce"),
        ("l1_isometry", "unit_norms", ["5", "5"], "l1 unit norms do not reproduce"),
        ("l1_isometry", "combo_norms", [], "l1 combination norms do not reproduce"),
        ("idempotent", "ok", 1, "checks.idempotent.ok does not reproduce"),
    ],
    ids=["rank", "rank-bool", "witness", "witness-null", "norm-value", "unit-norms", "combo-norms",
         "idempotent-one"],
)
def test_verify_names_complementation_figure_faults(complementation_doc, section, field, value, name):
    doc = json.loads(certdoc.dumps(complementation_doc))
    assert certdoc.verify_document(doc).ok
    doc["checks"][section][field] = value
    report = certdoc.verify_document(doc)
    assert not report.ok
    assert name in report.failures, report.failures


@pytest.fixture(scope="module")
def tamper_targets(pipeline_k2_doc, complementation_doc):
    h = random_hybrid(3)
    f = random_pwl(5)
    return {
        "linf": certdoc.linf_document(construct.evaluation_embedding("linf", 2).certificate),
        "hybrid": certdoc.hybrid_document(h, f, interval.compose_embed(f, h)),
        "pipeline": pipeline_k2_doc,
        "complementation": complementation_doc,
    }


@pytest.mark.parametrize(
    "target, path, value, name",
    [
        ("linf", "checks.vertices.ok", False, "checks.vertices.ok does not reproduce"),
        ("linf", "checks.vertices.ok", _DELETED, "malformed document: checks.vertices.ok is missing"),
        ("linf", "checks.ball.ok", 1, "checks.ball.ok does not reproduce"),
        ("hybrid", "attaining_pieces", [], "malformed document: attaining_pieces[0] is missing"),
        ("hybrid", "witness.kind", "extra-extra", "witness.kind does not reproduce"),
        ("pipeline", "complementation.kind", "l1-isometry", "complementation.kind does not reproduce"),
        ("complementation", "checks.range.rank", 2.0, "projection rank does not reproduce"),
        ("complementation", "checks.l1_isometry.combo_norms.0.value", _DELETED,
         "l1 combination norms do not reproduce"),
        ("complementation", "checks.operator_norm.value", float("nan"),
         "operator norm value does not reproduce"),
        ("pipeline", "verdict", 1.0, "verdict does not reproduce"),
    ],
    ids=["vertices-false", "vertices-deleted", "ball-one", "pieces-empty", "witness-kind",
         "nested-kind", "rank-float", "combo-value-deleted", "norm-nan", "verdict-float"],
)
def test_verify_names_tampered_field(tamper_targets, target, path, value, name):
    doc = json.loads(certdoc.dumps(tamper_targets[target]))
    assert certdoc.verify_document(doc).ok
    # a key of digits is a list index
    *parents, last = (int(key) if key.isdigit() else key for key in path.split("."))
    node = doc
    for key in parents:
        node = node[key]
    if value is _DELETED:
        del node[last]
    else:
        node[last] = value
    report = certdoc.verify_document(doc)
    assert not report.ok
    assert name in report.failures, report.failures
    assert (report.recomputed == "malformed") == name.startswith("malformed document")
    if path == "verdict":
        assert f"verdict mismatch: document says {value!r}, recomputed 'valid'" in report.failures


def test_verify_rejects_boolean_basis_entry(tmp_path):
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    row = doc["basis"][0]
    row[row.index("1")] = True
    report = certdoc.verify_document(doc)
    assert not report.ok and report.recomputed == "malformed"
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(path))
    assert code == 2
    assert out == "" and "error" in err and "Traceback" not in err


def test_cli_rejects_non_ascii_digits(tmp_path):
    # a rational in Arabic-Indic digits is malformed: a space file that
    # holds one does not validate, and a document that holds one is not
    # verified
    space = tmp_path / "arabic.json"
    space.write_text(json.dumps({"dist": [["0", "\u0663"], ["\u0663", "0"]]}))
    code, out, err = run_cli("validate", str(space))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    row = doc["basis"][0]
    row[row.index("1")] = "\u0661"
    report = certdoc.verify_document(doc)
    assert not report.ok and report.recomputed == "malformed"
    path = tmp_path / "arabic-basis.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert "malformed" in err


def test_hybrid_document_verify():
    h = random_hybrid(3)
    f = random_pwl(5)
    u = interval.compose_embed(f, h)
    doc = certdoc.hybrid_document(h, f, u)
    assert doc["verdict"] == "valid"
    assert certdoc.verify_document(doc).ok
    doc["extra_values"][0] = "100"
    assert not certdoc.verify_document(doc).ok


@pytest.mark.parametrize("bad", ["1/0", True], ids=["zero-denominator", "bool"])
def test_hybrid_rationals_go_through_parse_rational(tmp_path, tamper_targets, bad):
    hybrid = {"extras": [{"breakpoints": ["0", "1/4", "1"], "values": ["3/4", "1/2", "5/4"]}]}
    hybrid["extras"][0]["breakpoints"][1] = bad
    hybrid_path = tmp_path / "h.json"
    hybrid_path.write_text(json.dumps(hybrid))
    code, out, err = run_cli("hybrid", str(hybrid_path))
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err
    doc = json.loads(certdoc.dumps(tamper_targets["hybrid"]))
    doc["hybrid"]["extras"][0]["breakpoints"][-1] = bad
    report = certdoc.verify_document(doc)
    assert report.recomputed == "malformed"
    assert any(msg.startswith("malformed document") for msg in report.failures)


def test_verify_accepts_nan_in_provenance(tmp_path, capsys):
    # provenance is copied from the document, and a NaN is not equal to
    # itself, but it is the same value; outside provenance it is rejected
    _, _, cert = construct.four_point_basis(equilateral(4))
    text = certdoc.dumps(certdoc.l1_document(cert, config={"construction": "four-point"}))
    doc = json.loads(text)
    doc["config"]["construction"] = [float("nan"), {"seed": float("nan")}]
    path = tmp_path / "nan-config.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    assert cli.main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    doc = json.loads(text)
    doc["checks"]["signs"]["witnesses"][0]["epsilon"][0] = float("nan")
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert "checks.signs.witnesses[0].epsilon[0] does not reproduce" in report["failures"]


def test_unknown_kind_rejected():
    report = certdoc.verify_document({"kind": "mystery", "verdict": "valid"})
    assert not report.ok


def test_verify_names_non_object_document(tmp_path):
    report = certdoc.verify_document([1, 2])
    assert not report.ok and report.recomputed == "malformed"
    assert any("expected an object" in msg for msg in report.failures)
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli("verify", str(path))
    assert code == 2
    assert out == "" and "error" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", [1.9, True])
def test_verify_names_non_integer_epsilon(bad):
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    witness = next(w for w in doc["checks"]["signs"]["witnesses"] if w["epsilon"] == [1, 1])
    witness["epsilon"] = [bad, 1]
    report = certdoc.verify_document(doc)
    assert not report.ok and report.recomputed == "invalid"
    assert any("epsilon" in msg for msg in report.failures)


@pytest.mark.parametrize("bad", [[1, 1], [-1, 2]])
def test_verify_names_bad_witness_pair(bad):
    _, _, cert = construct.four_point_basis(equilateral(4))
    doc = certdoc.l1_document(cert)
    doc["checks"]["signs"]["witnesses"][0]["pair"] = bad
    report = certdoc.verify_document(doc)
    assert not report.ok and report.recomputed == "invalid"
    assert any("not two distinct point indices" in msg for msg in report.failures)


def test_cli_validate_exit_codes(tmp_path, eq4_file):
    code, out, _ = run_cli("validate", eq4_file)
    assert code == 0
    assert json.loads(out)["valid"]
    bad = tmp_path / "bad.json"
    bad.write_text('{"dist": [["0","1","5"],["1","0","1"],["5","1","0"]]}')
    code, out, _ = run_cli("validate", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["violations"][0]["kind"] == "triangle"
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli("validate", str(garbled))
    assert code == 2
    assert "error" in err
    boolean_base = tmp_path / "boolean_base.json"
    boolean_base.write_text('{"dist": [["0","1"],["1","0"]], "base": true}')
    code, out, err = run_cli("validate", str(boolean_base))
    assert code == 2 and out == ""
    assert '"base" must be an integer index' in err


def test_cli_norm_and_free_norm(tmp_path, eq4_file):
    func = tmp_path / "f.json"
    func.write_text('{"values": ["0", "1", "0", "1"]}')
    code, out, _ = run_cli("norm", eq4_file, str(func))
    assert code == 0
    doc = json.loads(out)
    assert doc["norm"] == "1"
    assert [w["pair"] for w in doc["witnesses"]] == [[1, 0], [1, 2], [3, 0], [3, 2]]
    vec = tmp_path / "v.json"
    vec.write_text('{"coeffs": ["1", "1", "-2"]}')
    code, out, _ = run_cli("free-norm", eq4_file, str(vec))
    assert code == 0
    doc = json.loads(out)
    assert doc["norm"] == "2" and doc["primal_dual_equal"]


def test_cli_four_point_verify_loop(tmp_path, eq4_file):
    code, out, _ = run_cli("four-point", eq4_file)
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out2, _ = run_cli("verify", str(cert_path))
    assert code == 0
    assert json.loads(out2)["ok"]
    tampered = json.loads(out)
    tampered["checks"]["signs"]["witnesses"][0]["pair"] = [2, 1]
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(tampered))
    code, out3, _ = run_cli("verify", str(bad_path))
    assert code == 1
    report = json.loads(out3)
    assert not report["ok"] and report["failures"]


def test_cli_pipeline_exhaustion_exit_code(eq4_file):
    code, out, _ = run_cli("pipeline", eq4_file, "-k", "2", "--budget", "1")
    assert code == 3
    assert json.loads(out)["kind"] == "exhaustion"


def test_cli_direct_search_and_eval_embed(eq4_file, tmp_path):
    code, out, _ = run_cli("direct-search", eq4_file, "-k", "2")
    assert code == 0
    path = tmp_path / "ds.json"
    path.write_text(out)
    code, out2, _ = run_cli("verify", str(path))
    assert code == 0
    code, out, _ = run_cli("eval-embed", "--kind", "l1", "-d", "2")
    assert code == 0
    path2 = tmp_path / "ee.json"
    path2.write_text(out)
    assert json.loads(out)["verdict"] == "valid"
    code, _, _ = run_cli("verify", str(path2))
    assert code == 0


def test_cli_c0_demo_and_hybrid(tmp_path):
    code, out, _ = run_cli("c0-demo", "-N", "5", "--count", "10", "--seed", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "valid"
    hybrid_path = tmp_path / "h.json"
    hybrid_path.write_text(
        json.dumps(
            {
                "extras": [
                    {"breakpoints": ["0", "1/4", "1"], "values": ["3/4", "1/2", "5/4"]}
                ],
                "extra_dist": [["0"]],
            }
        )
    )
    pwl_path = tmp_path / "f.json"
    pwl_path.write_text(json.dumps({"breakpoints": ["0", "1"], "values": ["0", "1"]}))
    code, out, _ = run_cli("hybrid", str(hybrid_path), "--embed", str(pwl_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "valid"
    assert doc["retraction"] == ["3/4"]
    cert_path = tmp_path / "hd.json"
    cert_path.write_text(out)
    code, _, _ = run_cli("verify", str(cert_path))
    assert code == 0


def test_cli_trials_deterministic_and_parallel():
    code1, out1, _ = run_cli("trials", "--op", "four-point", "--count", "12", "--seed", "5")
    code2, out2, _ = run_cli("trials", "--op", "four-point", "--count", "12", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    codej, outj, _ = run_cli(
        "trials", "--op", "four-point", "--count", "12", "--seed", "5", "--jobs", "2"
    )
    assert codej == 0
    assert outj == out1  # jobs only parallelize; results merge in seed order
    doc = json.loads(out1)
    assert doc["ok"] == 12


def test_cli_trials_jobs_bounded_by_count_and_processors(monkeypatch, capsys):
    # the pool is asked for at most one worker per trial and per processor,
    # whatever --jobs says; no pool is started for one worker
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    argv = ["trials", "--op", "four-point", "--seed", "5"]
    for count, jobs in (("1", "100000"), ("2", "100000"), ("12", "100000"), ("12", "2")):
        assert cli.main([*argv, "--count", count, "--jobs", jobs]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] == int(count)
    assert asked == [2, 3, 2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.main([*argv, "--count", "4", "--jobs", "8"]) == 0
    capsys.readouterr()
    assert asked == [2, 3, 2]


def test_cli_trials_free_duality_default_points():
    code, out, _ = run_cli("trials", "--op", "free-duality", "--count", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] == 3
    assert doc["params"] == {"method": "range"}


def test_cli_trials_records_only_the_params_the_op_reads():
    code, out, _ = run_cli("trials", "--op", "four-point", "--count", "1", "-n", "7")
    assert code == 0
    assert json.loads(out)["params"] == {"method": "range"}
    assert '"params": {\n    "method": "range"\n  }' in out
    code, out, _ = run_cli("trials", "--op", "free-duality", "--count", "1", "-n", "6", "-k", "3")
    assert code == 0
    assert json.loads(out)["params"] == {"method": "range", "n": 6}


_MALFORMED_INPUTS = {
    "functional.json": json.dumps({"values": 5}),
    "vector.json": json.dumps({"coeffs": None}),
    "pwl.json": json.dumps({"breakpoints": 3, "values": ["0", "1"]}),
    "hybrid.json": json.dumps({"extras": [{"breakpoints": ["0", "1"], "values": ["1", "1"]}]}),
    "points.json": json.dumps({"points": 5, "dist": [[int(i != j) for j in range(4)] for i in range(4)]}),
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "base.json": json.dumps({"dist": [[0, 1], [1, 0]], "points": ["a", "b"], "base": 5}),
    "labels.json": json.dumps({"dist": [[0, 1], [1, 0]], "points": ["a"]}),
    "base1.json": json.dumps({"dist": [[int(i != j) for j in range(4)] for i in range(4)], "base": 1}),
    # 5000 digits: more than Python converts between int and str
    "long-rational.json": json.dumps(
        {"dist": [["0", "7" * 5000], ["7" * 5000, "0"]], "values": ["0", "1/" + "7" * 5000]}
    ),
    "long-integer.json": '{"dist": [[0, %s], [%s, 0]]}' % ("7" * 5000, "7" * 5000),
    # each input is under the limit; the free norm's denominator is not
    "long-result.json": json.dumps({"coeffs": ["1/" + "7" * 3000, "1/" + "3" * 2999 + "1", "1"]}),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "eq4", "functional.json"),
        ("free-norm", "eq4", "vector.json"),
        ("hybrid", "hybrid.json", "--embed", "pwl.json"),
        ("four-point", "points.json"),
        pytest.param(("four-point", "base1.json"), id="four-point-base"),
        ("pipeline", "points.json"),
        ("verify", "deep.json"),
        pytest.param(("verify", "long-integer.json"), id="verify-long-integer"),
        pytest.param(("validate", "long-integer.json"), id="validate-long-integer"),
        pytest.param(("validate", "long-rational.json"), id="validate-long-rational"),
        pytest.param(("norm", "eq4", "long-rational.json"), id="norm-long-rational"),
        pytest.param(("free-norm", "eq4", "long-result.json"), id="free-norm-long-result"),
        pytest.param(("validate", "base.json"), id="validate-base"),
        pytest.param(("validate", "labels.json"), id="validate-labels"),
        pytest.param(("pipeline", "eq4", "--budget", "-1"), id="pipeline-budget"),
        pytest.param(("direct-search", "eq4", "--budget", "-1"), id="direct-search-budget"),
        pytest.param(("trials", "--op", "four-point", "--count", "-2"), id="trials-count"),
        pytest.param(("trials", "--op", "pipeline", "--count", "1", "-n", "0"), id="trials-n"),
        pytest.param(("trials", "--op", "direct-search", "--count", "1", "-n", "1"), id="trials-n-1"),
        pytest.param(("trials", "--op", "pipeline", "--count", "2", "-n", "3", "-k", "2"), id="trials-n-below-2^k"),
        pytest.param(("c0-demo", "-N", "2", "--count", "0"), id="c0-demo-count"),
        pytest.param(("c0-demo", "-N", "0"), id="c0-demo-blocks"),
        pytest.param(("pipeline", "eq4", "-k", "0"), id="pipeline-k"),
        pytest.param(("pipeline", "eq4", "-k", "20000"), id="pipeline-k-large"),
        pytest.param(("direct-search", "eq4", "-k", "0"), id="direct-search-k"),
        pytest.param(("trials", "--op", "pipeline", "--count", "2", "-k", "0"), id="trials-k"),
        pytest.param(("trials", "--op", "four-point", "--count", "2", "--jobs", "0"), id="trials-jobs-0"),
        pytest.param(("trials", "--op", "four-point", "--count", "2", "--jobs", "-3"), id="trials-jobs-negative"),
    ],
    ids=lambda argv: argv[0],
)
def test_cli_malformed_input_exits_2_without_traceback(tmp_path, eq4_file, argv):
    for name, text in _MALFORMED_INPUTS.items():
        (tmp_path / name).write_text(text)
    args = [
        eq4_file if a == "eq4" else str(tmp_path / a) if a.endswith(".json") else a for a in argv
    ]
    code, out, err = run_cli(*args)
    assert code == 2, err
    assert err.startswith("error: "), err
    assert "Traceback" not in err
    assert out == ""
    if "20000" in argv:
        assert "2^20000" in err, err


def _limited_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


def test_cli_builds_sign_classes_only_as_far_as_a_check_reaches(tmp_path, eq4_file):
    # 2^40 sign classes do not fit in memory; each command needs a handful
    _, _, cert = construct.four_point_basis(equilateral(4))
    four_point = json.loads(certdoc.dumps(certdoc.l1_document(cert, config={"construction": "four-point"})))
    four_point["basis"] = [four_point["basis"][0]] * 41
    (tmp_path / "four_point.json").write_text(json.dumps(four_point))
    pipeline = construct.theorem_pipeline(equilateral(4), 2)
    complementation = json.loads(certdoc.dumps(certdoc.pipeline_document(pipeline)))["complementation"]
    complementation["basis"] = [complementation["basis"][0]] * 41
    (tmp_path / "complementation.json").write_text(json.dumps(complementation))
    for argv, expected in [
        (("direct-search", eq4_file, "-k", "40"), 3),
        (("verify", str(tmp_path / "four_point.json")), 1),
        (("verify", str(tmp_path / "complementation.json")), 1),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "lipcert.cli", *argv],
            capture_output=True, text=True, timeout=60, preexec_fn=_limited_memory,
        )
        assert proc.returncode == expected, (argv, proc.stderr[-2000:])
        assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["verdict_recomputed"] == "invalid"


def test_cli_direct_search_stops_at_the_pigeonhole_bound(tmp_path):
    # a 2-point space has one pair, so no class past index 1 is reached:
    # -k 100000000 searches the nodes -k 2 does, and fits in memory
    path = tmp_path / "eq2.json"
    path.write_text(metric.serialize_space(equilateral(2)))
    docs = []
    for k in ("2", "100000000"):
        proc = subprocess.run(
            [sys.executable, "-m", "lipcert.cli", "direct-search", str(path), "-k", k],
            capture_output=True, text=True, timeout=60, preexec_fn=_limited_memory,
        )
        assert proc.returncode == 3, (k, proc.stderr[-2000:])
        assert "Traceback" not in proc.stderr
        docs.append(json.loads(proc.stdout))
    assert docs[1]["k"] == 100000000
    assert docs[1]["assignments_tried"] == docs[0]["assignments_tried"]


def test_cli_trials_pipeline_caps_its_default_space():
    # without -n a pipeline trial runs on 2^k points: a -k past the cap of
    # 64 points is an input error that names -n, decided without building
    # 2^k, and -n lifts it; --budget 0 keeps the runs that do start short
    runs = {}
    for argv in (("-k", "6"), ("-k", "7"), ("-k", "100000000"), ("-k", "7", "-n", "128")):
        proc = subprocess.run(
            [sys.executable, "-m", "lipcert.cli", "trials", "--op", "pipeline", "--count", "1",
             "--budget", "0", *argv],
            capture_output=True, text=True, timeout=60, preexec_fn=_limited_memory,
        )
        assert "Traceback" not in proc.stderr
        runs[argv] = proc
    for argv in (("-k", "7"), ("-k", "100000000")):
        assert runs[argv].returncode == 2, runs[argv].stderr[-2000:]
        assert "pass -n" in runs[argv].stderr and runs[argv].stdout == ""
    for argv in (("-k", "6"), ("-k", "7", "-n", "128")):
        assert runs[argv].returncode == 0, runs[argv].stderr[-2000:]
        assert json.loads(runs[argv].stdout)["exhausted"] == 1


@pytest.mark.parametrize("name", ["base.json", "labels.json"])
def test_cli_validate_names_the_fault_four_point_names(tmp_path, name):
    path = tmp_path / name
    path.write_text(_MALFORMED_INPUTS[name])
    validate = run_cli("validate", str(path))
    four_point = run_cli("four-point", str(path))
    assert validate == four_point
    assert validate[0] == 2


def test_cli_closed_stdout_keeps_exit_code_without_traceback(eq4_file):
    # a pipe whose read end is closed before the command starts: every write
    # to it fails, as it does once ``| head`` has stopped reading
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv, expected in [
            (("four-point", eq4_file), 0),
            (("direct-search", eq4_file, "-k", "4"), 3),
        ]:
            proc = subprocess.run(
                [sys.executable, "-m", "lipcert.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
            assert proc.returncode == expected, proc.stderr
            assert proc.stderr == ""
    finally:
        os.close(write_end)


def test_cli_determinism_byte_identical(eq4_file):
    _, out1, _ = run_cli("four-point", eq4_file)
    _, out2, _ = run_cli("four-point", eq4_file)
    assert out1 == out2


def _stdout_inputs(tmp_path):
    """The input files of ``test_cli_stdout_pinned``, by name."""
    _, _, cert = construct.four_point_basis(equilateral(4))
    ok = certdoc.l1_document(cert, config={"construction": "four-point"})
    invalid = json.loads(certdoc.dumps(ok))
    invalid["checks"]["signs"]["witnesses"][0]["pair"] = [2, 1]
    float_verdict = json.loads(certdoc.dumps(ok))
    float_verdict["verdict"] = 1.5
    texts = {
        "eq3": metric.serialize_space(equilateral(3)),
        "eq4": metric.serialize_space(equilateral(4)),
        "r5": metric.serialize_space(metric.random_space(5, 2, "range")),
        "r6": metric.serialize_space(metric.random_space(6, 1, "range")),
        "triangle": '{"dist": [["0","1","5"],["1","0","1"],["5","1","0"]]}',
        "functional": '{"values": ["0", "1", "0", "1"]}',
        "vector": '{"coeffs": ["1", "1", "-2"]}',
        "hybrid": json.dumps(
            {"extras": [{"breakpoints": ["0", "1/4", "1"], "values": ["3/4", "1/2", "5/4"]}],
             "extra_dist": [["0"]]}
        ),
        "hybrid-bad": json.dumps(
            {"extras": [{"breakpoints": ["0", "1"], "values": ["1", "3"]}], "extra_dist": [["0"]]}
        ),
        "pwl": json.dumps({"breakpoints": ["0", "1/2", "1"], "values": ["0", "1/3", "-1/6"]}),
        "verify-ok": certdoc.dumps(ok),
        "verify-invalid": certdoc.dumps(invalid),
        "verify-float": certdoc.dumps(float_verdict),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)


# sha256 of the stdout of ``lipcert <argv>``, run in-process, for every
# document the CLI emits; "@name" stands for an input file of _stdout_inputs.
_PINNED_STDOUT = {
    "validate-valid": (
        ("validate", "@eq4"), 0,
        "9d220075590250b2fa4aa6c02e03270302c7404889bb4c172ced1856449e55cf",
    ),
    "validate-invalid": (
        ("validate", "@triangle"), 1,
        "861dd7831bb8994e093590424cd47b2daa8b3ffe7930a247ce161f619a79aff9",
    ),
    "norm": (
        ("norm", "@eq4", "@functional"), 0,
        "a0ae44631651c07d74bd0b1c5da2d9738282b4d55da17f568d2e546fb06c633a",
    ),
    "free-norm": (
        ("free-norm", "@eq4", "@vector"), 0,
        "187cd55f1b32e65c630dffc956937b74a1466d89bb5b6f24be460ffc2ce5c16c",
    ),
    "four-point": (
        ("four-point", "@eq4"), 0,
        "cb4b87e368e11e7cf7ea47f1f8ddd676504c6de4ee5c8553d947005a5c4a9a47",
    ),
    "pipeline-found": (
        ("pipeline", "@r6"), 0,
        "16b8487e8497404e7860398b1f72fc1dc3d8a60903c8814659daa1ca4b4c2fbc",
    ),
    "pipeline-exhausted": (
        ("pipeline", "@eq4", "--budget", "0"), 3,
        "b0e5492f9f7488014f9411051fd9a619f121c35b3faa35112fdeebae33531a6a",
    ),
    "direct-search-found": (
        ("direct-search", "@r5"), 0,
        "a19b2a92337eb82c719ce5d21c337ce5b6174f59cc99973b629a5c1b279fd41e",
    ),
    "direct-search-exhausted": (
        ("direct-search", "@eq3", "-k", "2"), 3,
        "bbabb504243f4edacdb69a39933f2482337818cb25b4b4f55908c4901c3fafce",
    ),
    "eval-embed-l1": (
        ("eval-embed", "--kind", "l1", "-d", "2"), 0,
        "de4aa44e20d472d55d57304f22a328b7e0dc057f671c95ca073d04e40a9975af",
    ),
    "eval-embed-linf": (
        ("eval-embed", "--kind", "linf", "-d", "2"), 0,
        "c76c58e29607113fa065890b514e58f41f836b03f396f01c935a9bb62aac8dde",
    ),
    "c0-demo": (
        ("c0-demo", "-N", "3", "--count", "5"), 0,
        "34ee9f12df6d4a32db0c2c9911952d6830f67ff23ba4b5f61006b04e3d20cb54",
    ),
    "hybrid-validation": (
        ("hybrid", "@hybrid"), 0,
        "9d220075590250b2fa4aa6c02e03270302c7404889bb4c172ced1856449e55cf",
    ),
    "hybrid-violations": (
        ("hybrid", "@hybrid-bad"), 1,
        "ace409da18e6005688f95ff39b0fb7907df542a1d14e5ff32dce34600c1e6276",
    ),
    "hybrid-embed": (
        ("hybrid", "@hybrid", "--embed", "@pwl"), 0,
        "cee96050d187e44cfc2e7d784ecb1f25b18c705b97e29406116290eeda6c664d",
    ),
    "trials": (
        ("trials", "--op", "direct-search", "--count", "6", "--seed", "2", "--jobs", "1"), 0,
        "5043955c2369ac9fa2d6b30569fa101eec821c5e4bd801798bc916c522ad2809",
    ),
    "trials-pipeline": (
        ("trials", "--op", "pipeline", "--count", "4", "--seed", "3"), 0,
        "1e4cb43a92d1a799fac44558b9ae0494e9fb8fefd2f64b672a73168609119ef4",
    ),
    "trials-pipeline-exhausted": (
        ("trials", "--op", "pipeline", "--count", "4", "--seed", "3", "--budget", "0"), 0,
        "ef486f7f82184b53458b8af966820de1ec116720dce412a9b5b347250cc9a39d",
    ),
    "verify-ok": (
        ("verify", "@verify-ok"), 0,
        "19d5e758a7c8176189ca772a11547f6ae3adc98c2537fad7b8a006004983e6e8",
    ),
    "verify-invalid": (
        ("verify", "@verify-invalid"), 1,
        "381c8816770f4709e7ceadb13f1593bcfe11b6557ce0242debd21c0822cad434",
    ),
    "verify-float-verdict": (
        ("verify", "@verify-float"), 1,
        "b063eab55650f0fbc94f2be5e56c8b81007dc9457551a0461213afa2606a306c",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_STDOUT))
def test_cli_stdout_pinned(tmp_path, capsys, name):
    argv, code, digest = _PINNED_STDOUT[name]
    _stdout_inputs(tmp_path)
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:2000]
