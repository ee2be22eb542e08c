"""Self-tests of the benchmark harness: python -m pytest bench/test_harness.py"""
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import CheckFailed, Op, require  # noqa: E402


def _span(sid, name, parent, start, end):
    return tracing.Span(sid, name, parent, op=0, start=start, end=end)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span(0, "bench.op", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),  # overlaps a: the union counts once
        _span(3, "a.child", 1, 2.0, 3.0),
        _span(4, "c", 0, 8.0, 12.0),  # runs past its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0})
    table = tracing.span_table(spans)
    assert table["a"] == {"calls": 1, "incl_s": 3.0, "self_s": pytest.approx(2.0)}


def test_layer_self_times_account_for_the_wall_time():
    tr = tracing.Tracer()
    tr.spans = [
        _span(0, "bench.op", None, 0.0, 10.0),
        _span(1, "experiments.run_sweep", 0, 0.5, 9.5),
        _span(2, "ising.gibbs_sample", 1, 1.0, 7.0),
        _span(3, "learners.rlr_graph", 1, 7.0, 9.0),
    ]
    m = tracing.layer_metrics(tr, traced_wall_s=11.0, untraced_wall_s=10.0)
    assert m["ising.gibbs_s"] == pytest.approx(6.0)
    assert m["learners.rlr_s"] == pytest.approx(2.0)
    assert m["experiments.sweep_self_s"] == pytest.approx(1.0)
    assert m["bench.harness_s"] == pytest.approx(1.0)
    # wall 11 = layers 9 + harness 1 + 1 outside any span
    assert m["trace_remainder_frac"] == pytest.approx(2.0 / 11.0)
    assert m["trace_overhead_frac"] == pytest.approx(0.1)
    assert set(m) == set(tracing.LAYER_UNITS)


def _op(label, run_fn, check_fn, weight=1):
    return Op(label, run_fn, check_fn, fingerprint=repr, weight=weight)


def test_a_failing_check_counts_as_failed():
    def boom():
        raise ValueError("raised inside the operation")

    ops = [
        _op("good", lambda: 1, lambda out: require(out == 1, "bad")),
        _op("bad-output", lambda: 2, lambda out: require(out == 1, "injected"), weight=3),
        _op("raises", boom, lambda out: None),
    ]
    result = run.run_pass(ops)
    s = run.summarize(result, latency_per_op=True)
    assert (s["attempted"], s["failed"]) == (5, 4)
    assert s["failed_frac"] == pytest.approx(0.8)
    errors = [r.get("error", "") for r in result["ops"]]
    assert errors[0] == ""
    assert errors[1].startswith(CheckFailed.__name__)
    assert errors[2].startswith("ValueError")


def test_changed_traced_output_fails_the_op():
    untraced = run.run_pass([_op("x", lambda: 1, lambda out: None)])
    traced = run.run_pass([_op("x", lambda: 2, lambda out: None)])
    run.compare_fingerprints(untraced, traced)
    assert not traced["ops"][0]["ok"]


@pytest.fixture
def fake_module():
    mod = types.ModuleType("bench_fake_layer")
    payload = {"value": [1, 2, 3]}

    def compute(x, scale=2):
        if x < 0:
            raise ValueError("negative")
        return payload

    mod.compute = compute
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_wrapper_returns_the_wrapped_result_unchanged(fake_module):
    original = fake_module.compute
    seen = []
    tr = tracing.Tracer()
    tr.wrap(fake_module.__name__, "compute", "fake.compute",
            lambda t, args, out: seen.append(dict(args)))
    assert fake_module.compute is not original
    out = fake_module.compute(3)
    assert out is original(3)
    assert seen == [{"x": 3, "scale": 2}]
    with pytest.raises(ValueError):
        fake_module.compute(-1)
    names = [s.name for s in tr.spans]
    assert names == ["fake.compute", "bench.tracing", "fake.compute"]
    assert all(s.end >= s.start for s in tr.spans)
    tr.restore()
    assert fake_module.compute is original


def test_traced_and_untraced_package_calls_agree():
    from isinglearn import analysis, graphs

    g = graphs.make_random_regular(10, 4, seed=3)
    plain = analysis.graph_incoherence(g, 0.5, 1)
    tr = tracing.Tracer()
    tr.install(tracing.WRAP_SPECS)
    try:
        traced = analysis.graph_incoherence(g, 0.5, 1)
    finally:
        tr.restore()
    assert traced.norm == plain.norm
    assert (traced.q_ss == plain.q_ss).all()
    names = {s.name for s in tr.spans}
    assert {"analysis.report", "ising.exact_moments",
            "analysis.population_hessian", "analysis.incoherence"} <= names
    assert tr.counts["ising.exact_states"] == 2**10
    assert tr.counts["analysis.hessian_states"] == 2**10
    assert analysis.graph_incoherence.__module__ == "isinglearn.analysis"
    assert not hasattr(analysis.graph_incoherence, "__wrapped__")


def test_p90_only_with_enough_samples():
    recs = [{"label": "x", "weight": 1, "ok": True, "seconds": float(k)}
            for k in range(1, 101)]
    s = run.summarize({"wall_s": 1.0, "ops": recs}, latency_per_op=True)
    assert (s["op_s_samples"], s["op_s_p50"]) == (100, 50.5)
    assert s["op_s_p90"] == pytest.approx(90.1)
    s = run.summarize({"wall_s": 1.0, "ops": recs[:99]}, latency_per_op=True)
    assert "op_s_p90" not in s


def test_p50_per_label_shows_what_the_pooled_median_hides():
    cost = {"cheap": 0.03, "dear": 1.0, "mid": 0.3}
    recs = [{"label": lab, "weight": 1, "ok": True, "seconds": cost[lab] * (1 + k / 100)}
            for k in range(3) for lab in ("cheap", "dear", "cheap", "mid")]
    s = run.summarize({"wall_s": 1.0, "ops": recs}, latency_per_op=True)
    slower = [dict(r, seconds=2 * r["seconds"]) if r["label"] == "dear" else r
              for r in recs]
    t = run.summarize({"wall_s": 1.0, "ops": slower}, latency_per_op=True)
    assert t["op_s_p50"] == s["op_s_p50"]
    assert t["op_s_p50_by_label"]["dear"] == pytest.approx(2 * s["op_s_p50_by_label"]["dear"])
    assert s["op_s_p50_by_label"]["cheap"] == pytest.approx(0.0303)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(run.E2E_GATED) == {m["name"] for m in spec["end_to_end"]}
    assert set(tracing.LAYER_UNITS) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert tracing.LAYER_UNITS[m["name"]] == m["unit"]
    assert not set(tracing.layer_info(tracing.Tracer())) & set(tracing.LAYER_UNITS)
