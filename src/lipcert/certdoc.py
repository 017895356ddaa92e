"""Self-contained certificate documents and their independent verification.

A document embeds the space, the basis, every witness, and the verdict, so a
third party can re-verify without the original run.  ``verify_document``
reads only a document's inputs, recomputes its certificate with the exact
checks that produced it (never the searches), renders the expected document
with the same writer, and diffs the two as JSON values: every field is
checked, and each difference is named by its path.  ``tool`` and ``config``
are provenance, copied from the document rather than re-derived.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__, certify, freespace, interval
from .lipschitz import LipFunctional
from .metric import PointedMetricSpace, restrict, serialize_space, space_from_doc
from .rationals import format_rational, parse_rational

CERTIFICATE_KINDS = ("l1-isometry", "linf-isometry", "complementation", "pipeline", "hybrid-embed")


def document(kind: str, config=None, **fields) -> dict:
    """A document of ``kind`` with ``fields``: the one place that writes the
    envelope, ``kind`` and ``tool`` always and ``config`` when the run has
    one."""
    doc = {"kind": kind, "tool": {"name": "lipcert", "version": __version__}, **fields}
    if config:
        doc["config"] = config
    return doc


def space_digest(space: PointedMetricSpace) -> str:
    return "sha256:" + hashlib.sha256(serialize_space(space).encode()).hexdigest()


def space_doc(space: PointedMetricSpace) -> dict:
    """The space as a fresh JSON value, which its caller may mutate."""
    return json.loads(serialize_space(space))


def _values(seq) -> list[str]:
    return [format_rational(v) for v in seq]


def _matrix(rows) -> list[list[str]]:
    return [_values(row) for row in rows]


def _certificate(kind, space, basis, checks, verdict, config, **fields) -> dict:
    """A certificate on ``space``: the space and its digest, the ``basis``
    rows, the ``checks`` and the ``verdict``, plus the kind's own fields."""
    return document(
        kind, config, space=space_doc(space), space_digest=space_digest(space),
        basis=_matrix(basis), checks=checks, verdict=verdict, **fields,
    )


def _witness(basis, w, **label) -> dict:
    """A witness pair with the basis quotients it attains."""
    quotients = certify.quotient_vector(basis, w.x, w.y)
    return {**label, "pair": [w.x, w.y], "quotients": _values(quotients)}


def _l1_checks(cert: certify.L1IsometryCertificate) -> dict:
    cube = {"ok": cert.cube_violation is None}
    if cert.cube_violation is not None:
        v = cert.cube_violation
        cube.update(pair=[v.x, v.y], coordinate=v.coordinate, quotient=format_rational(v.quotient))
    signs = {
        "ok": cert.missing_epsilon is None,
        "witnesses": [
            _witness(cert.basis, w, epsilon=list(w.epsilon)) for w in cert.sign_witnesses
        ],
    }
    if cert.missing_epsilon is not None:
        signs["missing"] = list(cert.missing_epsilon)
    return {"cube": cube, "signs": signs}


def l1_document(cert: certify.L1IsometryCertificate, config=None) -> dict:
    space, rows = cert.basis[0].space, [f.values for f in cert.basis]
    return _certificate("l1-isometry", space, rows, _l1_checks(cert), cert.status, config)


def linf_document(cert: certify.LinfIsometryCertificate, config=None) -> dict:
    ball = {"ok": cert.ball_violation is None}
    if cert.ball_violation is not None:
        v = cert.ball_violation
        ball.update(pair=[v.x, v.y], l1_norm=format_rational(v.l1_norm))
    vertices = {
        "ok": cert.missing_coordinate is None,
        "witnesses": [
            _witness(cert.basis, w, coordinate=w.coordinate) for w in cert.vertex_witnesses
        ],
    }
    if cert.missing_coordinate is not None:
        vertices["missing"] = cert.missing_coordinate
    space, rows = cert.basis[0].space, [f.values for f in cert.basis]
    checks = {"ball": ball, "vertices": vertices}
    return _certificate("linf-isometry", space, rows, checks, cert.status, config)


def complementation_document(cert: freespace.ComplementationCertificate, config=None) -> dict:
    report = cert.l1_report
    checks = {
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
            "ok": report.valid,
            "unit_norms": _values(report.unit_norms),
            "combo_norms": [
                {"epsilon": list(eps), "value": format_rational(v)} for eps, v in report.combo_norms
            ],
        },
    }
    rows = [u.coeffs for u in cert.basis]
    return _certificate(
        "complementation", cert.space, rows, checks, cert.status, config,
        projection=_matrix(cert.projection.matrix),
    )


def pipeline_document(result, config=None) -> dict:
    """Pipeline certificate: the extended basis with witnesses pinned in the
    subset, plus the nested complementation certificate of the subset stage."""
    nested = complementation_document(result.complementation.certificate)
    return _pipeline(result.certificate, result.k, list(result.subset_indices), nested, config)


def _pipeline(cert, k, subset, complementation, config=None) -> dict:
    """The pipeline document of the l1 certificate ``cert``: valid only when
    ``cert`` is and the nested ``complementation`` document is present and
    valid.  The writer and the verifier both render through here."""
    nested_valid = complementation is not None and complementation["verdict"] == "valid"
    space, rows = cert.basis[0].space, [f.values for f in cert.basis]
    return _certificate(
        "pipeline", space, rows, _l1_checks(cert), cert.status if nested_valid else "invalid",
        config, k=k, subset=subset, complementation=complementation,
    )


def hybrid_document(h, f, u, config=None) -> dict:
    """Certificate that T(f) = f o F preserves the norm on a hybrid space.

    Raises ``interval.HybridInvalidError`` when ``h`` is not a metric space."""
    retraction_values = interval.retraction(h)
    interval_norm, pieces = interval.pwl_norm(f)
    hybrid_value, witness = interval.hybrid_norm(u, h)
    verdict = "valid" if (hybrid_value == interval_norm and (witness is None or witness.kind == "interval")) else "invalid"
    return document(
        "hybrid-embed",
        config,
        hybrid={
            "extras": [
                {"breakpoints": _values(p.breakpoints), "values": _values(p.values)}
                for p in h.profiles
            ],
            "extra_dist": _matrix(h.extra_dist),
        },
        pwl={"breakpoints": _values(f.breakpoints), "values": _values(f.values)},
        extra_values=_values(u.extra_values),
        retraction=_values(retraction_values),
        interval_norm=format_rational(interval_norm),
        hybrid_norm=format_rational(hybrid_value),
        attaining_pieces=[[format_rational(a), format_rational(b)] for a, b in pieces],
        witness=None
        if witness is None
        else {"kind": witness.kind, "data": [format_rational(Fraction(x)) for x in witness.data]},
        verdict=verdict,
    )


_INF = float("inf")


def dumps(doc) -> str:
    """Canonical rendering: deterministic bytes for identical documents.

    The bytes of ``json.dumps(doc, indent=2, sort_keys=True)``, written by a
    specialised encoder, since with ``indent`` set the stdlib runs its
    pure-Python one.  A value is a dict with str keys, a list, str, int,
    float, bool or None; any other type raises TypeError.
    """
    out = []
    _encode(doc, out, "\n")
    return "".join(out)


def _encode(value, out, newline):
    """Append the text of ``value`` to ``out``, its nested lines starting
    with ``newline``.  One frame per level, so it nests as deeply as the
    stdlib encoder."""
    t = type(value)
    if t is str:
        out.append(encode_basestring_ascii(value))
    elif t is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(encode_basestring_ascii(key))  # TypeError unless a str
            out.append(": ")
            _encode(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif t is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif t is int:
        out.append(int.__repr__(value))
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif t is float:
        # as json writes it: a claimed verdict is echoed whatever its type
        if value != value:
            out.append("NaN")
        elif value == _INF:
            out.append("Infinity")
        elif value == -_INF:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


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
    """Re-derive a certificate document from its own inputs.

    The inputs (space, basis, pinned witness pairs, projection, hybrid space
    and functional) are parsed, the certificate is recomputed, and the
    expected document is rendered by the writer of that kind.  Returns the
    recomputed verdict plus one failure per semantic fault and per JSON path
    where the document differs from the re-rendering.  ``ok`` means the
    document is a reproducibly valid certificate.  A value nested too deeply
    to compare, encode or print makes the document malformed.
    """
    try:
        return _verify(doc)
    except RecursionError:
        kind, claimed = (doc.get(key) for key in ("kind", "verdict"))
        return VerifyReport(
            kind if type(kind) is str else "unknown",
            claimed if type(claimed) is str else "unknown",
            "malformed",
            ["malformed document: a value is nested too deeply"],
        )


def _verify(doc) -> VerifyReport:
    if not isinstance(doc, dict):
        failure = f"malformed document: expected an object, got {type(doc).__name__}"
        return VerifyReport("unknown", "missing", "malformed", [failure])
    kind = doc.get("kind")
    claimed = doc.get("verdict", "missing")
    failures: list[str] = []
    if kind not in CERTIFICATE_KINDS:
        # walked first, so that a value nested too deeply is malformed on
        # every interpreter, not only where its repr overflows the C stack
        _walk(doc)
        return VerifyReport(str(kind), claimed, "unknown", [f"unknown certificate kind {kind!r}"])
    try:
        if kind in ("l1-isometry", "pipeline"):
            expected = _expect_l1(doc, failures)
        elif kind == "linf-isometry":
            space = _parse_space_checked(doc, failures)
            expected = linf_document(certify.linf_isometry_lip(_parse_basis(space, doc["basis"])))
        elif kind == "complementation":
            expected = _expect_complementation(doc, failures)[0]
        else:
            expected = _expect_hybrid(doc, failures)
        differences = _diff(doc, _with_provenance(expected, doc))
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        failures.append(f"malformed document: {exc}")
        return VerifyReport(kind, claimed, "malformed", failures)
    recomputed = expected["verdict"]
    if claimed == recomputed and any(problem == "is missing" for _, problem in differences):
        recomputed = "malformed"
    for path, problem in differences:
        if problem == "is missing" and recomputed == "malformed":
            failures.append(f"malformed document: {path} is missing")
        elif problem == "does not reproduce" and path in _NAMED_PATHS:
            failures.append(_NAMED_PATHS[path])
        else:
            failures.append(f"{path} {problem}")
    if claimed != recomputed and recomputed != "malformed":
        failures.append(f"verdict mismatch: document says {claimed!r}, recomputed {recomputed!r}")
    return VerifyReport(kind, claimed, recomputed, failures)


# Fields whose differing value is named in words instead of by its path.
_NAMED_PATHS = {
    "checks.signs.ok": "sign check does not reproduce",
    "checks.range.rank": "projection rank does not reproduce",
    "checks.operator_norm.value": "operator norm value does not reproduce",
    "checks.operator_norm.witness_molecule": "operator norm witness molecule does not reproduce",
    "checks.l1_isometry.unit_norms": "l1 unit norms do not reproduce",
    "checks.l1_isometry.combo_norms": "l1 combination norms do not reproduce",
}


def _diff(recorded, expected, path=""):
    """The places where two JSON values differ, as (path, problem) pairs.

    Leaves compare by type and value, so ``true`` is not ``1``, ``1.0`` is
    not ``1`` and ``"2/4"`` is not ``"1/2"``; a leaf is equal to itself, so
    a ``NaN`` copied from the document (its provenance) matches.  A path of
    ``_NAMED_PATHS`` with any difference below it is reported whole.  Every
    recorded value is walked, so one nested too deeply raises RecursionError
    wherever it is.
    """
    kind = type(recorded)
    if kind is not type(expected) or (kind is not dict and kind is not list):
        if kind is type(expected) and (recorded is expected or recorded == expected):
            return []
        _walk(recorded)
        return [(path, "does not reproduce")]
    out = []
    if kind is dict:
        keys = recorded.keys()
        for key in sorted(expected if keys == expected.keys() else keys | expected.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in expected:
                _walk(recorded[key])
                out.append((sub, "is not part of the certificate"))
            elif key not in recorded:
                out.append((sub, "is missing"))
            else:
                out += _diff(recorded[key], expected[key], sub)
    else:
        for i, (item, want) in enumerate(zip(recorded, expected)):
            # an equal leaf, the bulk of a document, needs no path
            leaf = type(want)
            if type(item) is not leaf or leaf is dict or leaf is list or (
                item is not want and item != want
            ):
                out += _diff(item, want, f"{path}[{i}]")
        if len(recorded) != len(expected):
            for i in range(len(expected), len(recorded)):
                _walk(recorded[i])
                out.append((f"{path}[{i}]", "is not part of the certificate"))
            for i in range(len(recorded), len(expected)):
                out.append((f"{path}[{i}]", "is missing"))
    if out and path in _NAMED_PATHS:
        return [(path, "does not reproduce")]
    return out


def _walk(value):
    """Visit every value nested in a JSON value."""
    for item in value.values() if type(value) is dict else value if type(value) is list else ():
        _walk(item)


def _with_provenance(expected, doc):
    """``tool`` and ``config`` say who wrote a document and how; they are
    copied from it, not re-derived, so another version's output verifies."""
    for key in ("tool", "config"):
        expected.pop(key, None)
        if key in doc:
            expected[key] = doc[key]
    return expected


def _parse_space_checked(doc, failures):
    space = space_from_doc(doc["space"])
    digest = space_digest(space)
    if doc.get("space_digest") != digest:
        failures.append("space digest mismatch")
    return space


def _parse_basis(space, rows):
    return tuple(LipFunctional(space, _rationals(row)) for row in rows)


def _rationals(row) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) for v in row)


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


def _expect_l1(doc, failures):
    """The cube + sign certificate with the document's own witness pairs
    pinned, one per sign class; a class with no usable witness is missing."""
    space = _parse_space_checked(doc, failures)
    basis = _parse_basis(space, doc["basis"])
    pinned = {}
    where = {}  # sign class -> index of its pinned witness in the document
    for i, w in enumerate(doc["checks"]["signs"]["witnesses"]):
        eps = w["epsilon"]
        if not (isinstance(eps, list) and all(type(e) is int and e in (1, -1) for e in eps)):
            failures.append(f"sign witness epsilon {eps!r} is not a vector of integers +-1")
            continue
        pair = _witness_pair(space, w, failures)
        if pair is not None and tuple(eps) not in pinned:
            pinned[tuple(eps)] = pair
            where[tuple(eps)] = i
    n = len(basis)
    # an epsilon that is no class representative pins nothing
    classes = sorted((eps for eps in pinned if certify.is_sign_class(eps, n)), reverse=True)
    cert = certify.l1_isometry_lip(basis, pinned_pairs={eps: pinned[eps] for eps in classes})
    realized = {w.epsilon for w in cert.sign_witnesses}
    for eps in classes:
        if eps not in realized:
            failures.append(
                f"checks.signs.witnesses[{where[eps]}] pair {list(pinned[eps])} "
                f"does not realize its epsilon {list(eps)}"
            )
    if doc["kind"] != "pipeline":
        return l1_document(cert)
    subset = _check_pipeline_fields(doc, space, n, failures)
    if subset:
        for x, y in pinned.values():
            if x not in subset or y not in subset:
                failures.append(f"witness pair ({x},{y}) leaves the recorded subset")
    nested = doc.get("complementation")
    nested_expected = None
    if nested is not None:
        nested_expected, nested_space = _expect_complementation(nested, failures)
        _with_provenance(nested_expected, nested)
        if subset and nested_space.dist != restrict(space, subset).dist:
            failures.append("nested complementation space is not the recorded subset")
    return _pipeline(cert, n, doc.get("subset"), nested_expected)


def _expect_complementation(doc, failures):
    """The re-rendered complementation document and its parsed space."""
    space = _parse_space_checked(doc, failures)
    basis = tuple(freespace.FreeVector(space, _rationals(row)) for row in doc["basis"])
    projection = freespace.FreeOperator.from_matrix(space, doc["projection"])
    cert = freespace.verify_one_complemented(space, basis, projection)
    return complementation_document(cert), space


def _expect_hybrid(doc, failures):
    h = interval.hybrid_from_doc(doc["hybrid"])
    f = interval.pwl(doc["pwl"]["breakpoints"], doc["pwl"]["values"])
    u = interval.HybridFunctional(f, _rationals(doc["extra_values"]))
    expected = hybrid_document(h, f, u)
    if u.extra_values != tuple(f.evaluate(parse_rational(t)) for t in expected["retraction"]):
        failures.append("extra values are not f(F(z))")
    return expected
