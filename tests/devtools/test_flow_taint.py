"""Golden fixtures for the interprocedural taint rules."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.flow.symbols import build_program
from repro.devtools.flow.taint import ORDER_RULE_ID, TAINT_RULE_ID, analyze_taint

FIXTURES = Path(__file__).parent / "fixtures"


def _analyze(name):
    program = build_program(FIXTURES / name)
    findings, summaries = analyze_taint(program)
    return findings, summaries


def test_clock_taint_through_three_call_frames():
    findings, _ = _analyze("flow_taint_bad")
    hits = [f for f in findings if f.path.endswith("export.py")]
    assert [(f.rule, f.line) for f in hits] == [(TAINT_RULE_ID, 10)]
    assert "wall-clock taint reaches jsonsafe export" in hits[0].message
    assert "flow_taint_bad.export.publish" in hits[0].message


def test_cyclic_scc_converges_and_reports_exactly_once():
    findings, _ = _analyze("flow_taint_bad")
    hits = [f for f in findings if f.path.endswith("cycle.py")]
    assert [(f.rule, f.line) for f in hits] == [(TAINT_RULE_ID, 19)]
    assert "digest input" in hits[0].message


def test_param_sink_summary_crosses_the_frame_boundary():
    _, summaries = _analyze("flow_taint_bad")
    digest = summaries["flow_taint_bad.cycle.digest"]
    assert any(index == 0 and "digest input" in label
               for index, label, _, _ in digest.param_sinks)


def test_good_package_has_no_findings():
    # Covers the derived-from-inputs chain, the partial edge, the
    # annotated method dispatch, and CLOCK into the exempt
    # ``solve_seconds`` field of an OptimizationResult.
    findings, _ = _analyze("flow_taint_good")
    assert findings == []


def test_order_leak_through_digest_loop():
    findings, _ = _analyze("flow_order_bad")
    hits = [f for f in findings if f.path.endswith("report.py")]
    assert [(f.rule, f.line) for f in hits] == [(ORDER_RULE_ID, 13)]
    assert "set-iteration order reaches digest input" in hits[0].message


def test_order_leak_into_record_field():
    findings, _ = _analyze("flow_order_bad")
    hits = [f for f in findings if f.path.endswith("records.py")]
    assert [(f.rule, f.line) for f in hits] == [(ORDER_RULE_ID, 14)]
    assert "field 'chosen' of OptimizationResult" in hits[0].message


def test_sorted_sanitizer_cuts_order_taint():
    findings, _ = _analyze("flow_order_good")
    assert findings == []


def test_order_leak_into_result_cache_key():
    findings, _ = _analyze("flow_cache_bad")
    assert [(f.rule, f.line) for f in findings] == [(ORDER_RULE_ID, 14)]
    assert "set-iteration order reaches result-cache key" in findings[0].message


def test_sorted_result_cache_key_is_clean():
    findings, _ = _analyze("flow_cache_good")
    assert findings == []
