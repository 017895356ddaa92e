"""Self-contained certificate documents and their independent verification.

A document embeds the space, the basis, every witness, and the verdict, so a
third party can re-verify without the original run.  ``verify_document``
re-derives every check from the document data alone; it never trusts the
recorded verdict and never calls the construction code paths.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, certify, freespace, interval
from .lipschitz import LipFunctional
from .metric import PointedMetricSpace, serialize_space, parse_space
from .rationals import format_rational, parse_rational

CERTIFICATE_KINDS = ("l1-isometry", "linf-isometry", "complementation", "pipeline", "hybrid-embed")


def tool_info() -> dict:
    return {"name": "lipcert", "version": __version__}


def space_digest(space: PointedMetricSpace) -> str:
    return "sha256:" + hashlib.sha256(serialize_space(space).encode()).hexdigest()


def space_doc(space: PointedMetricSpace) -> dict:
    return json.loads(serialize_space(space))


def space_from_doc(doc) -> PointedMetricSpace:
    return parse_space(json.dumps(doc))


def _values(seq) -> list[str]:
    return [format_rational(v) for v in seq]


def _matrix(rows) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in rows]


def l1_document(cert: certify.L1IsometryCertificate, config=None, kind="l1-isometry", extra=None) -> dict:
    space = cert.basis[0].space
    checks = {
        "cube": {"ok": cert.cube_ok},
        "signs": {
            "ok": cert.missing_epsilon is None,
            "witnesses": [
                {
                    "epsilon": list(w.epsilon),
                    "pair": [w.x, w.y],
                    "quotients": _values(certify.quotient_vector(cert.basis, w.x, w.y)),
                }
                for w in cert.sign_witnesses
            ],
        },
    }
    if cert.cube_violation is not None:
        v = cert.cube_violation
        checks["cube"]["pair"] = [v.x, v.y]
        checks["cube"]["coordinate"] = v.coordinate
        checks["cube"]["quotient"] = format_rational(v.quotient)
    if cert.missing_epsilon is not None:
        checks["signs"]["missing"] = list(cert.missing_epsilon)
    doc = {
        "kind": kind,
        "tool": tool_info(),
        "space": space_doc(space),
        "space_digest": space_digest(space),
        "basis": [_values(f.values) for f in cert.basis],
        "checks": checks,
        "verdict": cert.status,
    }
    if config:
        doc["config"] = config
    if extra:
        doc.update(extra)
    return doc


def linf_document(cert: certify.LinfIsometryCertificate, config=None) -> dict:
    space = cert.basis[0].space
    checks = {
        "ball": {"ok": cert.ball_ok},
        "vertices": {
            "ok": cert.missing_coordinate is None,
            "witnesses": [
                {
                    "coordinate": w.coordinate,
                    "pair": [w.x, w.y],
                    "quotients": _values(certify.quotient_vector(cert.basis, w.x, w.y)),
                }
                for w in cert.vertex_witnesses
            ],
        },
    }
    if cert.ball_violation is not None:
        v = cert.ball_violation
        checks["ball"]["pair"] = [v.x, v.y]
        checks["ball"]["l1_norm"] = format_rational(v.l1_norm)
    if cert.missing_coordinate is not None:
        checks["vertices"]["missing"] = cert.missing_coordinate
    doc = {
        "kind": "linf-isometry",
        "tool": tool_info(),
        "space": space_doc(space),
        "space_digest": space_digest(space),
        "basis": [_values(f.values) for f in cert.basis],
        "checks": checks,
        "verdict": cert.status,
    }
    if config:
        doc["config"] = config
    return doc


def complementation_document(cert: freespace.ComplementationCertificate, config=None) -> dict:
    doc = {
        "kind": "complementation",
        "tool": tool_info(),
        "space": space_doc(cert.space),
        "space_digest": space_digest(cert.space),
        "basis": [_values(u.coeffs) for u in cert.basis],
        "projection": _matrix(cert.projection.matrix),
        "checks": {
            "idempotent": {"ok": cert.idempotent_ok},
            "range": {"ok": cert.fixes_basis and cert.rank_ok, "rank": cert.rank},
            "operator_norm": {
                "ok": cert.norm_ok,
                "value": format_rational(cert.operator_norm_value),
                "witness_molecule": [cert.norm_witness.x, cert.norm_witness.y]
                if cert.norm_witness
                else None,
            },
            "l1_isometry": {
                "ok": cert.l1_report.valid,
                "unit_norms": _values(cert.l1_report.unit_norms),
                "combo_norms": _combo_norms(cert.l1_report),
            },
        },
        "verdict": cert.status,
    }
    if config:
        doc["config"] = config
    return doc


def _combo_norms(report: certify.FreeL1Report) -> list[dict]:
    return [{"epsilon": list(eps), "value": format_rational(v)} for eps, v in report.combo_norms]


def pipeline_document(result, config=None) -> dict:
    """Pipeline certificate: the extended basis with witnesses pinned in the
    subset, plus the nested complementation certificate of the subset stage."""
    doc = l1_document(
        result.certificate,
        config=config,
        kind="pipeline",
        extra={
            "k": result.k,
            "subset": list(result.subset_indices),
            "complementation": complementation_document(
                result.complementation.certificate
            ),
        },
    )
    return doc


def hybrid_document(h, f, u, config=None) -> dict:
    """Certificate that T(f) = f o F preserves the norm on a hybrid space."""
    retraction_values = interval.retraction(h)
    interval_norm, pieces = interval.pwl_norm(f)
    hybrid_value, witness = interval.hybrid_norm(u, h)
    verdict = "valid" if (hybrid_value == interval_norm and (witness is None or witness.kind == "interval")) else "invalid"
    doc = {
        "kind": "hybrid-embed",
        "tool": tool_info(),
        "hybrid": {
            "extras": [
                {"breakpoints": _values(p.breakpoints), "values": _values(p.values)}
                for p in h.profiles
            ],
            "extra_dist": _matrix(h.extra_dist),
        },
        "pwl": {"breakpoints": _values(f.breakpoints), "values": _values(f.values)},
        "extra_values": _values(u.extra_values),
        "retraction": _values(retraction_values),
        "interval_norm": format_rational(interval_norm),
        "hybrid_norm": format_rational(hybrid_value),
        "attaining_pieces": [[format_rational(a), format_rational(b)] for a, b in pieces],
        "witness": None
        if witness is None
        else {"kind": witness.kind, "data": [format_rational(Fraction(x)) for x in witness.data]},
        "verdict": verdict,
    }
    if config:
        doc["config"] = config
    return doc


def dumps(doc) -> str:
    """Canonical rendering: deterministic bytes for identical documents."""
    return json.dumps(doc, indent=2, sort_keys=True)


@dataclass
class VerifyReport:
    kind: str
    claimed: str
    recomputed: str
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures and self.claimed == self.recomputed == "valid"


def verify_document(doc) -> VerifyReport:
    """Re-derive every check of a certificate document from its own data.

    Returns the recomputed verdict plus a list of discrepancies (tampered
    witnesses, wrong verdicts, digest mismatches).  ``ok`` means the document
    is a reproducibly valid certificate.
    """
    if not isinstance(doc, dict):
        failure = f"malformed document: expected an object, got {type(doc).__name__}"
        return VerifyReport("unknown", "missing", "malformed", [failure])
    kind = doc.get("kind")
    claimed = doc.get("verdict", "missing")
    failures: list[str] = []
    if kind not in CERTIFICATE_KINDS:
        return VerifyReport(str(kind), claimed, "unknown", [f"unknown certificate kind {kind!r}"])
    try:
        if kind in ("l1-isometry", "pipeline"):
            recomputed = _verify_l1(doc, failures)
        elif kind == "linf-isometry":
            recomputed = _verify_linf(doc, failures)
        elif kind == "complementation":
            recomputed = _verify_complementation(doc, failures)
        else:
            recomputed = _verify_hybrid(doc, failures)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        failures.append(f"malformed document: {exc}")
        return VerifyReport(kind, claimed, "malformed", failures)
    if claimed != recomputed:
        failures.append(f"verdict mismatch: document says {claimed!r}, recomputed {recomputed!r}")
    return VerifyReport(kind, claimed, recomputed, failures)


def _parse_space_checked(doc, failures):
    space = space_from_doc(doc["space"])
    digest = space_digest(space)
    if doc.get("space_digest") != digest:
        failures.append("space digest mismatch")
    return space


def _parse_basis(space, rows):
    return tuple(
        LipFunctional(space, tuple(parse_rational(v) for v in row)) for row in rows
    )


def _witness_pair(space, w, failures):
    """The witness's pair as two distinct point indices, or None (named)."""
    pair = w["pair"]
    if (
        isinstance(pair, list)
        and len(pair) == 2
        and all(type(p) is int and 0 <= p < space.n for p in pair)
        and pair[0] != pair[1]
    ):
        return tuple(pair)
    failures.append(f"witness pair {pair!r} is not two distinct point indices")
    return None


def _check_pipeline_fields(doc, space, n, failures):
    """Name the faults of a pipeline document's own fields: ``k`` must be the
    basis length, ``subset`` 2^k distinct point indices, and the nested
    complementation present.  Returns the subset, or None when it is bad."""
    k = doc.get("k")
    if type(k) is not int or k != n:
        failures.append(f"pipeline k {k!r} is not the basis length {n}")
    subset = doc.get("subset")
    if not (
        isinstance(subset, list)
        and len(subset) == 2 ** n
        and all(type(p) is int and 0 <= p < space.n for p in subset)
        and len(set(subset)) == len(subset)
    ):
        failures.append(f"pipeline subset {subset!r} is not {2 ** n} distinct point indices")
        subset = None
    if doc.get("complementation") is None:
        failures.append("pipeline complementation is missing")
    return subset


def _verify_l1(doc, failures):
    space = _parse_space_checked(doc, failures)
    basis = _parse_basis(space, doc["basis"])
    n = len(basis)
    cube_ok = True
    for x in range(space.n):
        for y in range(space.n):
            if x != y and any(abs(q) > 1 for q in certify.quotient_vector(basis, x, y)):
                cube_ok = False
                break
        if not cube_ok:
            break
    if cube_ok != doc["checks"]["cube"]["ok"]:
        failures.append("cube check does not reproduce")
    witnesses = doc["checks"]["signs"]["witnesses"]
    seen = set()
    pairs = []
    signs_ok = True
    for w in witnesses:
        eps = w["epsilon"]
        if not (isinstance(eps, list) and all(type(e) is int and e in (1, -1) for e in eps)):
            failures.append(f"sign witness epsilon {eps!r} is not a vector of integers +-1")
            signs_ok = False
            continue
        eps = tuple(eps)
        pair = _witness_pair(space, w, failures)
        if pair is None:
            signs_ok = False
            continue
        pairs.append(pair)
        x, y = pair
        vec = certify.quotient_vector(basis, x, y)
        if tuple(vec) != tuple(Fraction(e) for e in eps):
            failures.append(f"sign witness {eps} at pair ({x},{y}) does not reproduce")
            signs_ok = False
        if "quotients" in w and [format_rational(q) for q in vec] != w["quotients"]:
            failures.append(f"recorded quotients at pair ({x},{y}) do not reproduce")
        seen.add(eps)
    for eps in certify.sign_class_representatives(n):
        if eps not in seen:
            signs_ok = False
    if not _same_json(doc["checks"]["signs"]["ok"], signs_ok):
        failures.append("sign check does not reproduce")
    pipeline = doc["kind"] == "pipeline"
    subset = _check_pipeline_fields(doc, space, n, failures) if pipeline else doc.get("subset")
    if subset:
        members = set(subset)
        for x, y in pairs:
            if x not in members or y not in members:
                failures.append(f"witness pair ({x},{y}) leaves the recorded subset")
    nested = doc.get("complementation")
    nested_ok = nested is not None or not pipeline
    if nested is not None:
        if subset:
            from .metric import restrict

            expected = restrict(space, subset)
            recorded = space_from_doc(nested["space"])
            if recorded.dist != expected.dist:
                failures.append("nested complementation space is not the recorded subset")
        nested_verdict = _verify_complementation(nested, failures)
        nested_ok = nested_verdict == "valid"
        if nested_verdict != nested.get("verdict"):
            failures.append("nested complementation verdict does not reproduce")
    return "valid" if cube_ok and signs_ok and nested_ok else "invalid"


def _verify_linf(doc, failures):
    space = _parse_space_checked(doc, failures)
    basis = _parse_basis(space, doc["basis"])
    m = len(basis)
    ball_ok = True
    for x in range(space.n):
        for y in range(space.n):
            if x != y and sum(abs(q) for q in certify.quotient_vector(basis, x, y)) > 1:
                ball_ok = False
                break
        if not ball_ok:
            break
    if ball_ok != doc["checks"]["ball"]["ok"]:
        failures.append("ball check does not reproduce")
    vertices_ok = True
    seen = set()
    for w in doc["checks"]["vertices"]["witnesses"]:
        j = w["coordinate"]
        pair = _witness_pair(space, w, failures)
        if pair is None:
            vertices_ok = False
            continue
        x, y = pair
        vec = certify.quotient_vector(basis, x, y)
        expected = tuple(Fraction(1) if i == j else Fraction(0) for i in range(m))
        if tuple(vec) != expected:
            failures.append(f"vertex witness e_{j} at pair ({x},{y}) does not reproduce")
            vertices_ok = False
        if "quotients" in w and [format_rational(q) for q in vec] != w["quotients"]:
            failures.append(f"recorded quotients at pair ({x},{y}) do not reproduce")
        seen.add(j)
    if seen != set(range(m)):
        vertices_ok = False
    return "valid" if ball_ok and vertices_ok else "invalid"


def _verify_complementation(doc, failures):
    space = _parse_space_checked(doc, failures)
    basis = tuple(
        freespace.FreeVector(space, tuple(parse_rational(v) for v in row))
        for row in doc["basis"]
    )
    projection = freespace.FreeOperator(
        space, tuple(tuple(parse_rational(v) for v in row) for row in doc["projection"])
    )
    cert = freespace.verify_one_complemented(space, basis, projection)
    checks = doc["checks"]
    if cert.idempotent_ok != checks["idempotent"]["ok"]:
        failures.append("idempotency check does not reproduce")
    if (cert.fixes_basis and cert.rank_ok) != checks["range"]["ok"]:
        failures.append("range check does not reproduce")
    if cert.norm_ok != checks["operator_norm"]["ok"]:
        failures.append("operator norm check does not reproduce")
    elif format_rational(cert.operator_norm_value) != checks["operator_norm"]["value"]:
        failures.append("operator norm value does not reproduce")
    if not _same_json(checks["range"]["rank"], cert.rank):
        failures.append("projection rank does not reproduce")
    witness = cert.norm_witness
    if not _same_json(
        checks["operator_norm"]["witness_molecule"],
        None if witness is None else [witness.x, witness.y],
    ):
        failures.append("operator norm witness molecule does not reproduce")
    if cert.l1_report.valid != checks["l1_isometry"]["ok"]:
        failures.append("l1 isometry check does not reproduce")
    if not _same_json(checks["l1_isometry"]["unit_norms"], _values(cert.l1_report.unit_norms)):
        failures.append("l1 unit norms do not reproduce")
    if not _same_json(checks["l1_isometry"]["combo_norms"], _combo_norms(cert.l1_report)):
        failures.append("l1 combination norms do not reproduce")
    return cert.status


def _same_json(recorded, expected) -> bool:
    """Equal as JSON values: unlike ==, true is not 1 and 1.0 is not 1."""
    return json.dumps(recorded, sort_keys=True) == json.dumps(expected, sort_keys=True)


def _verify_hybrid(doc, failures):
    profiles = [
        interval.profile(p["breakpoints"], p["values"]) for p in doc["hybrid"]["extras"]
    ]
    extra_dist = [[parse_rational(v) for v in row] for row in doc["hybrid"]["extra_dist"]]
    h = interval.hybrid_space(profiles, extra_dist)
    f = interval.pwl(doc["pwl"]["breakpoints"], doc["pwl"]["values"])
    u = interval.HybridFunctional(f, tuple(parse_rational(v) for v in doc["extra_values"]))
    retraction_values = interval.retraction(h)
    if _values(retraction_values) != doc["retraction"]:
        failures.append("retraction values do not reproduce")
    expected_extras = _values([f.evaluate(t) for t in retraction_values])
    if expected_extras != doc["extra_values"]:
        failures.append("extra values are not f(F(z))")
    interval_norm, _ = interval.pwl_norm(f)
    hybrid_value, witness = interval.hybrid_norm(u, h)
    if format_rational(interval_norm) != doc["interval_norm"]:
        failures.append("interval norm does not reproduce")
    if format_rational(hybrid_value) != doc["hybrid_norm"]:
        failures.append("hybrid norm does not reproduce")
    ok = hybrid_value == interval_norm and (witness is None or witness.kind == "interval")
    return "valid" if ok else "invalid"
