"""lipcert's layer boundaries and the per-layer metrics read from their spans."""

from __future__ import annotations

from tracing import Boundary, SpanStats, Tracer, child_calls, summarize
from measure import ratio

LAYER_MODULES = ("lp", "freespace", "certify", "construct", "lipschitz", "certdoc", "interval")


def _pivots(tracer, outcome):
    tracer.count("lp.solve.pivots", outcome.pivots)


def _tuples(tracer, search):
    tracer.count("freespace.search.tuples_tried", search.tuples_tried)
    tracer.count("freespace.search.tuples_l1_valid", search.tuples_l1_valid)


def _assignments(tracer, result):
    tracer.count("construct.direct_search_l1.assignments_tried", result.assignments_tried)


def _doc_bytes(tracer, rendered):
    tracer.count("certdoc.doc_bytes", len(rendered.encode()))


BOUNDARIES = (
    Boundary("lp", "solve", "lp.solve", _pivots),
    Boundary("lp", "feasible", "lp.feasible"),
    Boundary("lp", "certificate_violations", "lp.recheck"),
    Boundary("freespace", "free_norm_primal", "freespace.free_norm_primal"),
    Boundary("freespace", "search_one_complemented", "freespace.search", _tuples),
    Boundary("freespace", "_biorthogonal_functionals", "freespace.complement_lp"),
    Boundary("freespace", "operator_norm", "freespace.operator_norm"),
    Boundary("freespace", "verify_one_complemented", "freespace.verify_one_complemented"),
    Boundary("certify", "l1_isometry_free", "certify.l1_isometry_free"),
    Boundary("certify", "l1_isometry_lip", "certify.l1_isometry_lip"),
    Boundary("certify", "linf_isometry_lip", "certify.linf_isometry_lip"),
    Boundary("construct", "theorem_pipeline", "construct.theorem_pipeline"),
    Boundary("construct", "duality_lift", "construct.duality_lift"),
    Boundary("construct", "compose_l1_in_linf", "construct.compose_l1_in_linf"),
    Boundary("construct", "direct_search_l1", "construct.direct_search_l1", _assignments),
    Boundary("lipschitz", "extend_basis", "lipschitz.extend_basis"),
    Boundary("certdoc", "verify_document", "certdoc.verify_document"),
    Boundary("certdoc", "dumps", "certdoc.dumps", _doc_bytes),
    Boundary("interval", "hybrid_norm", "interval.hybrid_norm"),
    Boundary("interval", "retraction", "interval.retraction"),
    Boundary("interval", "pwl_norm", "interval.pwl_norm"),
)

# name -> (span, field) for span-derived metrics; counters are listed apart
_SPAN_METRICS = (
    ("lp.solve.calls", "lp.solve", "calls"),
    ("lp.solve.self_s", "lp.solve", "self_s"),
    ("lp.recheck.calls", "lp.recheck", "calls"),
    ("lp.recheck.s", "lp.recheck", "total_s"),
    ("freespace.free_norm_primal.calls", "freespace.free_norm_primal", "calls"),
    ("freespace.free_norm_primal.total_s", "freespace.free_norm_primal", "total_s"),
    ("freespace.complement_lp.total_s", "freespace.complement_lp", "total_s"),
    ("freespace.operator_norm.total_s", "freespace.operator_norm", "total_s"),
    ("freespace.verify_one_complemented.total_s", "freespace.verify_one_complemented", "total_s"),
    ("certify.l1_isometry_free.calls", "certify.l1_isometry_free", "calls"),
    ("certify.l1_isometry_free.total_s", "certify.l1_isometry_free", "total_s"),
    ("certify.l1_isometry_lip.total_s", "certify.l1_isometry_lip", "total_s"),
    ("certify.linf_isometry_lip.total_s", "certify.linf_isometry_lip", "total_s"),
    ("construct.theorem_pipeline.self_s", "construct.theorem_pipeline", "self_s"),
    ("construct.duality_lift.total_s", "construct.duality_lift", "total_s"),
    ("construct.compose_l1_in_linf.total_s", "construct.compose_l1_in_linf", "total_s"),
    ("construct.direct_search_l1.self_s", "construct.direct_search_l1", "self_s"),
    ("lipschitz.extend_basis.total_s", "lipschitz.extend_basis", "total_s"),
    ("certdoc.verify_document.calls", "certdoc.verify_document", "calls"),
    ("certdoc.verify_document.self_s", "certdoc.verify_document", "self_s"),
    ("certdoc.verify_document.total_s", "certdoc.verify_document", "total_s"),
    ("certdoc.dumps.total_s", "certdoc.dumps", "total_s"),
    ("interval.hybrid_norm.total_s", "interval.hybrid_norm", "total_s"),
    ("interval.retraction.total_s", "interval.retraction", "total_s"),
    ("interval.pwl_norm.total_s", "interval.pwl_norm", "total_s"),
    ("bench.op.self_s", "bench.op", "self_s"),
)

_COUNTERS = (
    "lp.solve.pivots",
    "freespace.search.tuples_tried",
    "freespace.search.tuples_l1_valid",
    "construct.direct_search_l1.assignments_tried",
    "certdoc.doc_bytes",
)

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); a layer that did not run reads 0."""
    table = summarize(tracer)
    metrics = {}
    for name, span, field in _SPAN_METRICS:
        metrics[name] = (getattr(table.get(span, SpanStats()), field), _UNITS[field])
    for name in _COUNTERS:
        unit = "bytes" if name == "certdoc.doc_bytes" else "count"
        metrics[name] = (tracer.counters.get(name, 0), unit)
    metrics["freespace.search.l1_pass_ratio"] = (
        ratio(
            tracer.counters.get("freespace.search.tuples_l1_valid", 0),
            tracer.counters.get("freespace.search.tuples_tried", 0),
        ),
        "ratio",
    )
    metrics["freespace.complement_lp.lp_solves"] = (
        child_calls(tracer, "lp.feasible", "freespace.complement_lp"),
        "count",
    )
    return metrics


def unreached(tracer: Tracer, expected) -> list[str]:
    """Expected span names that recorded no call."""
    seen = set(tracer.names)
    return [name for name in expected if name not in seen]
