"""Tests of the benchmark's own parts.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import generator  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import self_time_by_name, self_times  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    assert generator.documents(5) == generator.documents(5)
    assert generator.documents(5) != generator.documents(6)


def test_all_flat_documents_do_not_depend_on_the_seed():
    systems = generator.systems()
    fixed = [i for i, s in enumerate(systems) if s.all_flat is not None]
    assert fixed and all(not systems[i].triples for i in fixed)
    for seed in (1, 2, 3):
        docs = [json.loads(doc) for doc in generator.documents(seed)]
        assert all(generator.all_flat(docs[i]) == systems[i].all_flat for i in fixed)


def test_generator_documents_parse_and_keep_their_systems():
    from einpoly.homspace import parse

    docs = generator.documents(3)
    systems = generator.systems()
    assert len(docs) == len(systems) == 150
    for doc, system in zip(docs, systems):
        data = parse(doc)
        assert data.d == system.d and list(data.dims) == system.dims
        assert sorted(data.triples) == sorted(key for key, _value in system.triples)
        assert data.central == set(system.central)
        assert data.complement != "killing_orthogonal"


def _su3_report():
    from einpoly.homspace import load_catalog
    from einpoly.report import analyze, render_report

    report, _code = analyze(load_catalog("su3_t2"))
    return json.loads(render_report(report))


def test_oracle_passes_a_correct_report_and_flags_a_perturbed_nu():
    report = _su3_report()
    assert oracle.check_report(report) == []
    report["nu"] += 1
    report["bounds"]["nu"] += 1
    assert any("expected" in m for m in oracle.check_report(report))


def test_oracle_flags_counts_out_of_order():
    report = _su3_report()
    report["solver"]["positive_count"] = report["solver"]["real_count"] + 1
    assert oracle.check_report(report)


def test_oracle_kaehler_table_and_delannoy():
    assert oracle.check_kaehler(5, 16, 82, 13) == []
    assert oracle.check_kaehler(5, 16, 83, 13)
    assert [oracle.delannoy(n) for n in range(5)] == [1, 3, 13, 63, 321]
    assert all(oracle.delannoy(n) == oracle.legendre_at_3(n) for n in range(10))


def test_report_digests_flag_changed_bytes():
    digests = oracle.ReportDigests()
    assert digests.check("x", "abc") == []
    assert digests.check("x", "abc") == []
    assert digests.check("x", "abd")


ALL_FLAT = json.dumps({
    "schema": "homspace/v1", "name": "all_flat", "d": 3, "dims": [1, 1, 1],
    "b": ["1", "1", "1"], "triples": [],
})


def test_all_flat_value_error_is_a_failure():
    from einpoly.homspace import parse

    api = workloads.load_api()
    inp = workloads.Input("all_flat", "data", parse(ALL_FLAT))
    ctx = workloads.Context(HERE)
    _seconds, result = workloads.SolverD3().run(api, inp, ctx)
    assert result.status == oracle.FAILED and result.failed
    assert "ValueError: no generating points left" in result.describe()


def test_tally_counts_each_input_once():
    from run import Tally

    tally = Tally()
    ok = workloads.Result(oracle.OK)
    crash = workloads.Result(oracle.FAILED, reason="ValueError: x")
    a, b = workloads.Input("a", "data"), workloads.Input("b", "data")
    for inp, result in ((a, ok), (b, crash), (a, ok), (b, crash), (b, ok)):
        tally.add(inp, result)
    assert tally.attempted == 2
    assert tally.failures == {"b": "ValueError: x"}
    assert not tally.missed


def test_documented_outcomes_are_not_failures():
    from einpoly.homspace import DegenerateSpectrumError, SchemaError
    from einpoly.solver import UnsupportedDimensionError

    assert oracle.classify(DegenerateSpectrumError("x")) == oracle.REJECTED
    assert oracle.classify(SchemaError("/d", "x")) == oracle.REJECTED
    assert oracle.classify(UnsupportedDimensionError("x")) == oracle.UNSUPPORTED
    assert oracle.classify(ValueError("x")) == oracle.FAILED
    assert [oracle.exit_outcome(c) for c in (0, 1, 2, 3)] == [
        oracle.OK, oracle.FAILED, oracle.REJECTED, oracle.UNSUPPORTED]


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "input": "x", "parent": parent, "start": start, "end": end}


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),  # overlaps a, as threads would
        _span(3, "leaf", 2.0, 3.0, parent=1),
        _span(4, "a", 7.0, 8.0, parent=0),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]
    assert self_time_by_name(spans) == {"root": 4.0, "a": 3.0, "b": 3.0, "leaf": 1.0}


def test_tracer_nests_spans_and_closes_them_on_error():
    from spans import Tracer

    t = Tracer()
    with t.span("outer", "x"):
        try:
            t.call("inner", "x", lambda: 1 / 0)
        except ZeroDivisionError:
            pass
    outer, inner = t.spans
    assert inner["parent"] == outer["id"] and inner["end"] is not None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
