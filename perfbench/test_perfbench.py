"""Unit tests of the benchmark's own logic: ``python3 -m pytest perfbench``."""

import json
import os
import sys
import types

import gate
import run
import tracing


def test_self_time_subtracts_children_and_leaf_calls():
    spans = [
        ["a", 0.0, 10.0, -1, "r", 1.0],
        ["b", 1.0, 4.0, 0, "r", 0.5],
        ["a", 5.0, 7.0, 0, "r", 0.0],
    ]
    stats = tracing.span_stats(spans)
    assert stats["a"][0] == 2
    # the nested "a" is inside the outer one, so total_s counts it once
    assert stats["a"][1] == 10.0
    assert stats["a"][2] == (10.0 - 3.0 - 2.0 - 1.0) + 2.0
    assert stats["b"] == [1, 3.0, 2.5]


def test_tracer_records_parents_and_counters():
    tracer = tracing.Tracer("run-1")
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2,
                        after=lambda result, args, pre: tracer.counters.update(out=result))
    assert outer(1) == 4
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, "run-1"), ("inner", 0, "run-1")]
    assert tracer.counters["out"] == 4


def test_replace_function_reaches_modules_that_imported_the_name(monkeypatch):
    def target():
        return 1

    owner = types.ModuleType("superlie.fake_owner")
    owner.target = target
    user = types.ModuleType("superlie.fake_user")
    user.target_alias = target
    monkeypatch.setitem(sys.modules, owner.__name__, owner)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    wrapper = lambda: 2  # noqa: E731
    assert tracing.replace_function(owner, "target", wrapper) == 2
    assert owner.target is wrapper and user.target_alias is wrapper


def test_layer_metrics_report_zero_for_untouched_layers():
    metrics = tracing.layer_metrics({"spans": [], "counters": {}})
    assert metrics["linalg.commutant.calls"] == 0
    assert metrics["verma.template.hit_ratio"] == 0.0
    assert all(tracing.unit(name) in ("s", "count", "ratio") for name in metrics)


def _kw_files(skipped=None, passed=True):
    ref = gate.load_reference()["kw_heads"]
    report = json.loads(json.dumps(ref["kw"]))
    report["passed"] = passed
    report["report"]["reports"][0]["skipped"] = skipped
    return ref, {"kw.json": json.dumps(report).encode()}


def test_gate_passes_the_reference_itself():
    ref, files = _kw_files()
    assert gate.check_process(ref, 0, files) == {"kw": []}


def test_gate_fails_a_skipped_kw_report_even_when_the_check_passed():
    ref, files = _kw_files(skipped="head/oracle disagreement")
    assert gate.check_process(ref, 0, files)["kw"]


def test_gate_fails_on_exit_code_missing_report_and_changed_bytes():
    ref, files = _kw_files()
    assert gate.check_process(ref, 1, files)["kw"]
    assert gate.check_process(ref, 0, {})["kw"]
    other = {"kw.json": files["kw.json"] + b" "}
    assert gate.check_process(ref, 0, files, first_files=other)["kw"]


def test_mismatches_compares_reference_keys_lists_and_types():
    assert gate.mismatches({"a": 1}, {"a": 1, "b": 2}) == []
    assert gate.mismatches({"a": [1, 2]}, {"a": [1]})
    assert gate.mismatches({"a": True}, {"a": 1})


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == {"pct": 0.0, "value": 0}
    assert run.tail(list(range(21)))["value"] == 10


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(gate.load_reference()) == set(run.WORKLOADS)
    layer = tracing.layer_metrics({"spans": [], "counters": {}})
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == (
        [(name, tracing.unit(name)) for name in layer] + [("trace.overhead_s", "s")])
    procs = [{"wall_s": 1.0, "cpu_s": 0.9, "setup_s": 0.1, "check_s": 0.5, "peak_rss_mb": 30.0,
              "probe_s": [run.PROBE_NOMINAL_S]}]
    timed = run.timed_metrics(procs, [], {})
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == (
        [(name, v["unit"]) for name, v in timed.items()])


def test_timed_metrics_divide_times_by_the_probe_slowdown():
    # the 1-second probe time was interrupted and is left out
    probe = [2 * run.PROBE_NOMINAL_S] * 5
    procs = [{"wall_s": w + 1.0, "cpu_s": w, "setup_s": 0.2, "check_s": w - 1.0,
              "peak_rss_mb": 30.0, "probe_s": probe + [1.0]} for w in (3.0, 5.0)]
    timed = run.timed_metrics(procs, [], {})
    assert timed["run_cpu_norm_s"]["value"] == 2.0
    assert timed["check_cpu_norm_s"]["value"] == 1.5
    assert timed["setup_s"]["value"] == 0.1
    assert timed["peak_rss_mb"]["value"] == 30.0


def test_gate_compares_reports_only_between_processes_on_one_config():
    ref, files = _kw_files()
    other = {"kw.json": files["kw.json"] + b" "}
    procs = [{"config": "a", "exit_code": 0, "files": files, "wall_s": 1.0},
             {"config": "b", "exit_code": 0, "files": other, "wall_s": 1.0},
             {"config": "a", "exit_code": 0, "files": files, "wall_s": 1.0},
             {"config": "b", "exit_code": 0, "files": files, "wall_s": 1.0}]
    attempted, failed, problems = run.gate_processes({"kw": ref["kw"]}, procs, [])
    assert (attempted, failed) == (4, 1)
    assert problems[0]["process"] == 3
