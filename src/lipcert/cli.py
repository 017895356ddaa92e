"""Command-line surface.

Every subcommand emits one JSON document to stdout (deterministic bytes for
identical inputs and seeds) and diagnostics to stderr.  Exit codes: 0 on
success or a valid certificate, 1 on an invalid certificate or verdict, 2 on
input errors, 3 on search exhaustion.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import certdoc, construct, freespace, interval, lipschitz, metric
from .rationals import RationalFormatError, format_rational, parse_rational

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_space(path: str) -> metric.PointedMetricSpace:
    try:
        return metric.parse_space(_read(path))
    except (metric.SpaceFormatError, metric.MetricViolationError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_json(path: str):
    try:
        return metric.json_document(_read(path))
    except metric.SpaceFormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_rationals(doc, key, path):
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise InputError(f'{path}: expected an object with a "{key}" array')
    try:
        return [parse_rational(x) for x in doc[key]]
    except RationalFormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_pwl(path: str) -> interval.PwlFunctional:
    doc = _load_json(path)
    breakpoints = _load_rationals(doc, "breakpoints", path)
    values = _load_rationals(doc, "values", path)
    try:
        return interval.PwlFunctional(tuple(breakpoints), tuple(values))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_hybrid(path: str) -> interval.HybridSpace:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "extras" not in doc:
        raise InputError(f'{path}: expected an object with an "extras" array')
    try:
        return interval.hybrid_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def cmd_validate(args):
    try:
        rows, labels, base = metric.load_space_document(_read(args.space))
        metric.point_labels(len(rows), labels, base)
    except metric.SpaceFormatError as exc:
        raise InputError(f"{args.space}: {exc}") from exc
    violations = metric.validate(rows)
    doc = certdoc.document(
        "validation",
        valid=not violations,
        violations=[
            {"kind": v.kind, "indices": list(v.indices), "detail": v.detail}
            for v in violations
        ],
    )
    return (EXIT_OK if not violations else EXIT_INVALID), doc


def cmd_norm(args):
    space = _load_space(args.space)
    values = _load_rationals(_load_json(args.functional), "values", args.functional)
    try:
        f = lipschitz.LipFunctional(space, tuple(values))
    except ValueError as exc:
        raise InputError(f"{args.functional}: {exc}") from exc
    norm, witnesses = lipschitz.lip_norm(f)
    doc = certdoc.document(
        "lip-norm",
        space_digest=certdoc.space_digest(space),
        norm=format_rational(norm),
        witnesses=[
            {"pair": [w.x, w.y], "quotient": format_rational(w.quotient)} for w in witnesses
        ],
    )
    return EXIT_OK, doc


def cmd_free_norm(args):
    space = _load_space(args.space)
    coeffs = _load_rationals(_load_json(args.vector), "coeffs", args.vector)
    try:
        v = freespace.FreeVector(space, tuple(coeffs))
    except ValueError as exc:
        raise InputError(f"{args.vector}: {exc}") from exc
    primal, decomposition = freespace.free_norm_primal(v)
    dual, functional = freespace.free_norm_dual(v)
    doc = certdoc.document(
        "free-norm",
        space_digest=certdoc.space_digest(space),
        norm=format_rational(primal),
        decomposition=[
            {"pair": [a.x, a.y], "weight": format_rational(a.weight)} for a in decomposition
        ],
        dual_value=format_rational(dual),
        dual_functional=[format_rational(x) for x in functional.values],
        primal_dual_equal=primal == dual,
    )
    return (EXIT_OK if primal == dual else EXIT_INVALID), doc


def cmd_four_point(args):
    space = _load_space(args.space)
    try:
        _, _, cert = construct.four_point_basis(space)
    except ValueError as exc:
        raise InputError(f"{args.space}: {exc}") from exc
    doc = certdoc.l1_document(cert, config={"construction": "four-point"})
    return (EXIT_OK if cert.valid else EXIT_INVALID), doc


def cmd_pipeline(args):
    space = _load_space(args.space)
    try:
        result = construct.theorem_pipeline(space, args.k, tuple_budget=args.budget)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not result.found:
        search = result.complementation
        doc = certdoc.document(
            "exhaustion",
            stage="complementation-search",
            k=args.k,
            tuples_tried=search.tuples_tried,
            tuples_l1_valid=search.tuples_l1_valid,
            budget_exhausted=search.budget_exhausted,
        )
        return EXIT_EXHAUSTED, doc
    doc = certdoc.pipeline_document(result, config={"k": args.k})
    return (EXIT_OK if result.certificate.valid else EXIT_INVALID), doc


def cmd_direct_search(args):
    space = _load_space(args.space)
    try:
        result = construct.direct_search_l1(space, args.k, node_budget=args.budget)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not result.found:
        doc = certdoc.document(
            "exhaustion",
            stage="direct-search",
            k=args.k,
            assignments_tried=result.assignments_tried,
            budget_exhausted=result.budget_exhausted,
        )
        return EXIT_EXHAUSTED, doc
    doc = certdoc.l1_document(
        result.certificate,
        config={"construction": "direct-search", "k": args.k},
    )
    return (EXIT_OK if result.certificate.valid else EXIT_INVALID), doc


def cmd_eval_embed(args):
    try:
        emb = construct.evaluation_embedding(args.kind, args.d)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    config = {"construction": "evaluation-embedding", "target": args.kind, "d": args.d}
    if args.kind == "l1":
        doc = certdoc.l1_document(emb.certificate, config=config)
    else:
        doc = certdoc.linf_document(emb.certificate, config=config)
    return (EXIT_OK if emb.certificate.valid else EXIT_INVALID), doc


def cmd_c0_demo(args):
    n = args.blocks
    basis = [interval.c0_block([Fraction(i == k) for i in range(n)]) for k in range(n)]
    rng = random.Random(f"c0:{n}:{args.seed}")
    trials = []
    all_ok = True
    for _ in range(args.count):
        coeffs = [Fraction(rng.randint(-64, 64), rng.randint(1, 8)) for _ in range(n)]
        combo = interval.pwl_combination(basis, coeffs)
        norm, pieces = interval.pwl_norm(combo)
        expected = max(abs(c) for c in coeffs)
        ok = norm == expected
        all_ok &= ok
        trials.append(
            {
                "coeffs": [format_rational(c) for c in coeffs],
                "norm": format_rational(norm),
                "max_abs": format_rational(expected),
                "first_piece": [format_rational(pieces[0][0]), format_rational(pieces[0][1])]
                if pieces
                else None,
                "ok": ok,
            }
        )
    doc = certdoc.document(
        "c0-demo",
        blocks=n,
        count=args.count,
        seed=args.seed,
        block_boundaries=[format_rational(b) for b in basis[0].breakpoints],
        trials=trials,
        verdict="valid" if all_ok else "invalid",
    )
    return (EXIT_OK if all_ok else EXIT_INVALID), doc


def cmd_hybrid(args):
    h = _load_hybrid(args.hybrid)
    if h.violations:
        doc = certdoc.document(
            "validation",
            valid=False,
            violations=[
                {"kind": v.kind, "where": [str(x) for x in v.where], "detail": v.detail}
                for v in h.violations
            ],
        )
        return EXIT_INVALID, doc
    if args.embed is None:
        return EXIT_OK, certdoc.document("validation", valid=True, violations=[])
    f = _load_pwl(args.embed)
    u = interval.compose_embed(f, h)
    doc = certdoc.hybrid_document(h, f, u)
    return (EXIT_OK if doc["verdict"] == "valid" else EXIT_INVALID), doc


def cmd_verify(args):
    doc = _load_json(args.certificate)
    report = certdoc.verify_document(doc)
    if report.recomputed == "malformed":
        raise InputError(f"{args.certificate}: {'; '.join(report.failures)}")
    out = certdoc.document(
        "verification",
        certificate_kind=report.kind,
        verdict_claimed=report.claimed,
        verdict_recomputed=report.recomputed,
        ok=report.ok,
        failures=report.failures,
    )
    return (EXIT_OK if report.ok else EXIT_INVALID), out


# the most points a pipeline trial's default space (2^k points, without -n) may have
PIPELINE_DEFAULT_POINTS_CAP = 64

# each trials op and the parameters it reads, the only ones its document records
TRIAL_OPS = {
    "four-point": ("method",),
    "pipeline": ("method", "k", "n", "budget"),
    "direct-search": ("method", "k", "n", "budget"),
    "free-duality": ("method", "n"),
}


def run_trial(op: str, seed: int, index: int, params: dict) -> dict:
    """One deterministic trial; a top-level function so worker processes can
    import it."""
    trial_seed = seed + index
    method = params["method"]
    record = {"index": index, "seed": trial_seed, "ok": False}
    try:
        if op == "four-point":
            space = metric.random_space(4, trial_seed, method)
            _, _, cert = construct.four_point_basis(space)
            record["ok"] = cert.valid
        elif op in ("pipeline", "direct-search"):
            k = params["k"]
            if op == "pipeline":
                search, n = construct.theorem_pipeline, params["n"] or 2 ** k
            else:
                search, n = construct.direct_search_l1, params["n"] or k + 1
            space = metric.random_space(n, trial_seed, method)
            # the third argument of either search is its budget
            result = search(space, k, params["budget"])
            if result.found:
                record["ok"] = result.certificate.valid
            else:
                record["exhausted"] = True
        elif op == "free-duality":
            n = params["n"] or 5
            space = metric.random_space(n, trial_seed, method)
            rng = random.Random(f"vector:{trial_seed}")
            coeffs = [Fraction(rng.randint(-32, 32), rng.randint(1, 8)) for _ in range(n - 1)]
            v = freespace.FreeVector(space, tuple(coeffs))
            primal = freespace.free_norm(v)
            dual, _ = freespace.free_norm_dual(v)
            record["ok"] = primal == dual
        else:
            record["error"] = f"unknown op {op!r}"
    except Exception as exc:  # a failing trial is data, not a crash
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _trial_star(packed):
    return run_trial(*packed)


def cmd_trials(args):
    if args.op not in TRIAL_OPS:
        raise InputError(f"unknown trials op {args.op!r}; choose from {', '.join(TRIAL_OPS)}")
    if args.op == "pipeline":
        # 2^k compared by bit length, so that a large -k builds no 2^k:
        # 2^k > cap iff k >= cap.bit_length(), and n < 2^k iff n.bit_length() <= k
        if args.n is None and args.k >= PIPELINE_DEFAULT_POINTS_CAP.bit_length():
            raise InputError(
                f"trials --op pipeline without -n runs on 2^k points, more than "
                f"{PIPELINE_DEFAULT_POINTS_CAP} for k = {args.k}; pass -n"
            )
        if args.n is not None and args.n.bit_length() <= args.k:
            raise InputError(
                f"trials --op pipeline needs -n >= 2^k points for k = {args.k}, got {args.n}"
            )
    params = {"method": args.method, "k": args.k, "n": args.n, "budget": args.budget}
    tasks = [(args.op, args.seed, i, params) for i in range(args.count)]
    # a fork-started pool forks all its workers on the first submit, so
    # ask for no more than there are trials and processors
    jobs = min(args.jobs, args.count, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_trial_star, tasks))
    else:
        records = [run_trial(*t) for t in tasks]
    ok = sum(1 for r in records if r.get("ok"))
    exhausted = sum(1 for r in records if r.get("exhausted"))
    failures = [r for r in records if not r.get("ok") and not r.get("exhausted")]
    doc = certdoc.document(
        "trials",
        op=args.op,
        count=args.count,
        seed=args.seed,
        params={k: params[k] for k in TRIAL_OPS[args.op] if params[k] is not None},
        ok=ok,
        exhausted=exhausted,
        failures=failures,
    )
    return (EXIT_OK if not failures else EXIT_INVALID), doc


def _int_at_least(low: int):
    """argparse type of an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


_non_negative = _int_at_least(0)  # budgets
_positive = _int_at_least(1)  # counts and sizes
_points = _int_at_least(2)  # point counts: a space has a base and one more point


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with an ``error:`` line, like every other input
    error, then the usage."""

    def error(self, message):
        sys.stderr.write(f"error: {self.prog}: {message}\n")
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lipcert",
        description="Exact certificates for isometric l1/linf subspaces of "
        "strongly norm-attaining Lipschitz functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a metric-space file")
    p.add_argument("space")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("norm", help="Lipschitz norm and attaining pairs")
    p.add_argument("space")
    p.add_argument("functional")
    p.set_defaults(handler=cmd_norm)

    p = sub.add_parser("free-norm", help="transportation-cost norm, primal and dual")
    p.add_argument("space")
    p.add_argument("vector")
    p.set_defaults(handler=cmd_free_norm)

    p = sub.add_parser("four-point", help="explicit l1^2 basis on a 4-point space")
    p.add_argument("space")
    p.set_defaults(handler=cmd_four_point)

    p = sub.add_parser("pipeline", help="certified l1^k via complementation and duality")
    p.add_argument("space")
    p.add_argument("-k", type=_positive, default=2)
    p.add_argument("--budget", type=_non_negative, default=None, help="candidate-tuple budget")
    p.set_defaults(handler=cmd_pipeline)

    p = sub.add_parser("direct-search", help="independent witness-assignment search")
    p.add_argument("space")
    p.add_argument("-k", type=_positive, default=2)
    p.add_argument("--budget", type=_non_negative, default=None, help="assignment budget")
    p.set_defaults(handler=cmd_direct_search)

    p = sub.add_parser("eval-embed", help="evaluation embedding over a dual ball")
    p.add_argument("--kind", choices=("l1", "linf"), required=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(handler=cmd_eval_embed)

    p = sub.add_parser("c0-demo", help="truncated c0 block basis on [0,1]")
    p.add_argument("-N", "--blocks", type=_positive, required=True)
    p.add_argument("--count", type=_positive, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_c0_demo)

    p = sub.add_parser("hybrid", help="validate a hybrid space, optionally embed a functional")
    p.add_argument("hybrid")
    p.add_argument("--embed", default=None, help="PwlFunctional JSON file")
    p.set_defaults(handler=cmd_hybrid)

    p = sub.add_parser("trials", help="seeded property harness")
    p.add_argument("--op", required=True, choices=TRIAL_OPS)
    p.add_argument("--count", type=_positive, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--method", choices=("range", "euclidean"), default="range")
    p.add_argument("-k", type=_positive, default=2)
    p.add_argument("-n", type=_points, default=None)
    p.add_argument("--budget", type=_non_negative, default=None)
    p.set_defaults(handler=cmd_trials)

    p = sub.add_parser("verify", help="re-verify a certificate document")
    p.add_argument("certificate")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc = args.handler(args)
    except (InputError, RationalFormatError) as exc:
        # a RationalFormatError here is a result too long to format
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except construct.ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        print(certdoc.dumps(doc))
        # flush inside the try, so that a closed pipe is met here
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``lipcert ... | head``); the interpreter
        # flushes stdout again at exit, so point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
