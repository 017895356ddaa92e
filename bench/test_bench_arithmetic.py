"""Tests of the benchmark's own arithmetic: percentiles, span self times,
ratio bases, and the wrapping of module attributes."""

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from measure import (  # noqa: E402
    REFERENCE_LOOP_S,
    ReferenceClock,
    at_reference_speed,
    percentile,
    ratio,
    samples_beyond,
    time_reference_loop,
    timing_summary,
)
from oracles import check_l1_basis, lipschitz_norm, sign_classes  # noqa: E402
from tracing import Boundary, Tracer, child_calls, install, summarize  # noqa: E402


def test_percentiles_interpolate_between_ranks():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5.5
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile(values, 0) == 1 and percentile(values, 100) == 10
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2  # order of the sample does not matter
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_the_tail_percentile():
    # the tail percentile is reported where at least ten samples lie beyond it
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(40, 90) == 4
    assert samples_beyond(571, 90) == 57
    assert samples_beyond(1, 50) == 0


def test_ops_per_second_counts_program_time_only():
    summary = timing_summary([0.1, 0.3, 0.2, 0.4])
    assert summary["ops_per_s"] == pytest.approx(4 / 1.0)
    assert summary["op_p50_ms"] == pytest.approx(250.0)
    assert summary["op_p90_ms"] == pytest.approx(370.0)


def test_reference_speed_divides_by_the_mean_loop_time_beside_the_call():
    # the loop ran at half reference speed around the call: the call's CPU
    # time halves when converted
    slow = 2 * REFERENCE_LOOP_S
    assert at_reference_speed(1.0, slow, slow) == pytest.approx(0.5)
    assert at_reference_speed(1.0, REFERENCE_LOOP_S, 3 * REFERENCE_LOOP_S) == pytest.approx(0.5)
    assert at_reference_speed(0.3, REFERENCE_LOOP_S) == pytest.approx(0.3)


def test_reference_loop_is_timed_with_the_collector_restored():
    import gc

    assert time_reference_loop(clock=FakeClock([2.0, 2.5])) == 0.5
    assert gc.isenabled()


def test_ratio_base():
    assert ratio(100, 744) == pytest.approx(100 / 744)
    assert ratio(0, 0) == 0.0


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.start("root")
    a = tracer.start("a")
    b = tracer.start("b")
    tracer.stop(b)
    tracer.stop(a)
    c = tracer.start("c")
    tracer.stop(c)
    tracer.stop(root)
    table = summarize(tracer)
    assert table["root"].self_s == 10 - 3 - 4
    assert table["a"].self_s == 3 - 1
    assert table["b"].self_s == 1
    assert table["c"].self_s == 4
    assert sum(s.self_s for s in table.values()) == table["root"].total_s == 10
    assert child_calls(tracer, "b", "a") == 1
    assert child_calls(tracer, "b", "root") == 0


def test_total_time_counts_outermost_span_of_a_name_once():
    # f [0, 10] calls f [2, 6]: total 10, self 6 + 4, two calls
    tracer = Tracer(clock=FakeClock([0, 2, 6, 10]))
    outer = tracer.start("f")
    inner = tracer.start("f")
    tracer.stop(inner)
    tracer.stop(outer)
    table = summarize(tracer)
    assert table["f"].calls == 2
    assert table["f"].total_s == 10
    assert table["f"].self_s == 10


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.start("outer")
    tracer.start("inner")
    with pytest.raises(RuntimeError):
        tracer.stop(outer)


def test_install_wraps_every_binding_and_restores():
    def work(x):
        return x + 1

    home = types.ModuleType("home")
    home.work = work
    caller = types.ModuleType("caller")
    caller.work = work  # bound at import, as ``from home import work`` does
    tracer = Tracer()
    inst = install(
        tracer,
        {"home": home, "caller": caller},
        [
            Boundary("home", "work", "home.work", lambda t, r: t.count("results", r)),
            Boundary("home", "gone", "home.gone"),
        ],
    )
    assert inst.unreachable == ["home.gone"]
    inst.apply()
    assert caller.work(1) == 2 and not tracer.names  # no root span: forwarded only
    root = tracer.start("root")
    caller.work(1)
    home.work(2)
    tracer.stop(root)
    inst.restore()
    assert home.work is work and caller.work is work
    assert summarize(tracer)["home.work"].calls == 2
    assert tracer.counters["results"] == 2 + 3


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    names = set(layers.layer_metrics(Tracer()))
    names |= {"trace.untraced_s", "trace.traced_s", "trace.self_sum_s", "trace.overhead_s",
              "trace.unreached"}
    assert {m["name"] for m in declared} == names


def test_l1_pass_ratio_base_is_tuples_tried():
    tracer = Tracer()
    tracer.count("freespace.search.tuples_tried", 744)
    tracer.count("freespace.search.tuples_l1_valid", 100)
    value, unit = layers.layer_metrics(tracer)["freespace.search.l1_pass_ratio"]
    assert value == pytest.approx(100 / 744) and unit == "ratio"


def test_brute_force_l1_check():
    # the equilateral 4-point space with its l1^2 basis ...
    dist = [[Fraction(int(i != j)) for j in range(4)] for i in range(4)]
    basis = [[Fraction(v) for v in (0, 1, 0, 1)], [Fraction(v) for v in (0, 1, 1, 0)]]
    witnesses = [((1, 1), 1, 0), ((1, -1), 3, 2)]
    assert lipschitz_norm(basis[0], dist) == 1
    assert sign_classes(2) == [(1, 1), (1, -1)]
    assert check_l1_basis(basis, dist, witnesses, "t") == []
    # ... and the checks that catch a wrong witness, a pair outside the
    # subset, and a basis that is not isometric l1^2
    problems = check_l1_basis(basis, dist, [((1, 1), 2, 3), witnesses[1]], "t")
    assert any("does not realize" in p for p in problems)
    problems = check_l1_basis(basis, dist, witnesses, "t", {0, 1})
    assert any("outside the subset" in p for p in problems)
    problems = check_l1_basis([basis[0], basis[0]], dist, witnesses, "t")
    assert any("norm of combination (1, -1)" in p for p in problems)


def test_default_seed_reproduces_the_acceptance_inputs():
    helpers_dir = HERE.parent / "tests"
    if not (helpers_dir / "helpers.py").is_file():
        pytest.skip("acceptance helpers not present")
    sys.path.insert(0, str(helpers_dir))
    import helpers
    import workloads

    for s in range(50):  # criterion 12's hybrids and their first two functionals
        assert workloads.random_hybrid(s) == helpers.random_hybrid(s, max_extras=3, max_breaks=8)
        for t in range(2):
            assert workloads.random_pwl(f"{s}:{t}") == helpers.random_pwl(f"{s}:{t}")
    assert workloads.equilateral(8) == helpers.equilateral(8)
    assert workloads.k3_pipeline_space(0) == helpers.equilateral(8)


def test_reference_clock_converts_each_lap_by_its_own_loops():
    # laps of 1 s and 2 s of CPU time; the loop ran at reference speed, then
    # at half speed, then at reference speed again
    loops = iter([REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S, REFERENCE_LOOP_S])
    clock = ReferenceClock(clock=FakeClock([0.0, 1.0, 1.0, 3.0, 3.0]), loop_timer=lambda: next(loops))
    clock.lap()
    assert clock.total == pytest.approx(1.0 / 1.5)
    clock.lap()
    assert clock.total == pytest.approx(1.0 / 1.5 + 2.0 / 1.5)
