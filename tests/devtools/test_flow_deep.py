"""The deep driver end to end: baselines, budget, CLI, self-analysis.

The self-analysis tests are the contract the ISSUE pins: the committed
``deep-baseline.json`` matches the tree exactly (no new findings, no
stale entries), two runs render byte-identical JSON, and seeded
mutations of the real sources surface the expected finding at the
expected location.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import pytest

from repro.devtools import lint
from repro.devtools.flow import contract as fc
from repro.devtools.flow.deep import (
    UNRESOLVED_RULE_ID,
    analyze_deep,
    render_deep_json,
)
from repro.devtools.flow.races import FORK_RULE_ID
from repro.devtools.flow.taint import ORDER_RULE_ID, TAINT_RULE_ID
from repro.errors import ReproError

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).parents[2]
SRC_REPRO = ROOT / "src" / "repro"


# ---------------------------------------------------------------------
# baseline workflow over the golden fixtures
# ---------------------------------------------------------------------

def test_findings_fail_without_a_baseline():
    report = analyze_deep([FIXTURES / "flow_fork_bad"], baseline="none")
    assert report.failed
    assert [f.rule for f in report.findings] == [FORK_RULE_ID] * 3
    assert report.baseline_path is None


def test_write_baseline_then_rerun_accepts_everything(tmp_path):
    baseline = tmp_path / "baseline.json"
    written = analyze_deep(
        [FIXTURES / "flow_order_bad"], baseline="none", write_baseline=baseline
    )
    assert not written.failed
    assert len(written.accepted) == 2
    entries = json.loads(baseline.read_text())["entries"]
    assert all("TODO" in e["justification"] for e in entries)

    rerun = analyze_deep([FIXTURES / "flow_order_bad"], baseline=baseline)
    assert not rerun.failed
    assert len(rerun.accepted) == 2
    assert rerun.stale == []


def test_rewriting_a_baseline_preserves_justifications(tmp_path):
    baseline = tmp_path / "baseline.json"
    analyze_deep(
        [FIXTURES / "flow_order_bad"], baseline="none", write_baseline=baseline
    )
    payload = json.loads(baseline.read_text())
    payload["entries"][0]["justification"] = "reviewed: order-free digest"
    baseline.write_text(json.dumps(payload))
    analyze_deep(
        [FIXTURES / "flow_order_bad"], baseline=baseline, write_baseline=baseline
    )
    rewritten = json.loads(baseline.read_text())["entries"]
    assert any(
        e["justification"] == "reviewed: order-free digest" for e in rewritten
    )


def test_stale_baseline_entries_are_reported_but_non_fatal(tmp_path):
    baseline = tmp_path / "baseline.json"
    analyze_deep(
        [FIXTURES / "flow_fork_bad"], baseline="none", write_baseline=baseline
    )
    report = analyze_deep([FIXTURES / "flow_fork_good"], baseline=baseline)
    assert not report.failed
    assert len(report.stale) == 3
    assert {entry["rule"] for entry in report.stale} == {FORK_RULE_ID}


def test_missing_explicit_baseline_raises():
    with pytest.raises(ReproError, match="no such baseline"):
        analyze_deep([FIXTURES / "flow_order_good"], baseline="/no/such/file.json")


def _order_package(root, comment):
    package = root / "orderpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Suppression fixture."""\n')
    (package / "mod.py").write_text(
        "import hashlib\n"
        "\n"
        "\n"
        "def digest(monitors: set) -> bytes:\n"
        "    h = hashlib.blake2b()\n"
        "    for monitor in monitors:\n"
        f"        h.update(monitor){comment}\n"
        "    return h.digest()\n"
    )
    return package


def test_deep_findings_respect_noqa(tmp_path):
    unsuppressed = analyze_deep(
        [_order_package(tmp_path / "plain", "")], baseline="none"
    )
    assert [(f.rule, f.line) for f in unsuppressed.findings] == [(ORDER_RULE_ID, 7)]
    package = _order_package(
        tmp_path / "noqa", "  # repro: noqa[ORDER-LEAK] order-free digest"
    )
    report = analyze_deep([package], baseline="none")
    assert report.findings == []


# ---------------------------------------------------------------------
# the UNRESOLVED budget gate
# ---------------------------------------------------------------------

def test_unresolved_edges_are_counted_in_stats():
    report = analyze_deep([FIXTURES / "flow_unresolved"], baseline="none")
    assert report.stats["unresolved"] == 2
    assert report.stats["unresolved_budget"] == fc.UNRESOLVED_CALL_BUDGET
    assert not report.failed


def test_budget_overrun_anchors_at_the_first_site_past_it(monkeypatch):
    monkeypatch.setattr(fc, "UNRESOLVED_CALL_BUDGET", 1)
    report = analyze_deep([FIXTURES / "flow_unresolved"], baseline="none")
    assert report.failed
    (finding,) = report.findings
    assert finding.rule == UNRESOLVED_RULE_ID
    assert finding.path.endswith("dynamic.py")
    assert finding.line == 12
    assert "2 unresolved call edges exceed the budget of 1" in finding.message
    assert "flow_unresolved.dynamic" in finding.message


# ---------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------

def test_cli_deep_clean_fixture_exits_zero(capsys):
    code = lint.main(
        ["--deep", str(FIXTURES / "flow_taint_good"), "--baseline", "none"]
    )
    assert code == 0
    assert "deep: no new findings" in capsys.readouterr().out


def test_cli_deep_bad_fixture_exits_one(capsys):
    code = lint.main(
        ["--deep", str(FIXTURES / "flow_fork_bad"), "--baseline", "none"]
    )
    assert code == 1
    assert "3 new finding(s)" in capsys.readouterr().out


def test_cli_baseline_without_deep_is_usage_error(capsys):
    assert lint.main(["--baseline", "none", str(SRC_REPRO)]) == 2


def test_cli_json_output_artifact(tmp_path, capsys):
    artifact = tmp_path / "deep-findings.json"
    code = lint.main(
        [
            "--deep",
            str(FIXTURES / "flow_order_bad"),
            "--baseline",
            "none",
            "--format",
            "json",
            "--output",
            str(artifact),
        ]
    )
    assert code == 1
    payload = json.loads(artifact.read_text())
    assert payload["mode"] == "deep"
    assert payload["count"] == 2
    assert set(payload["rules"]) == {
        TAINT_RULE_ID, ORDER_RULE_ID, FORK_RULE_ID, UNRESOLVED_RULE_ID
    }
    assert payload == json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------
# self-analysis over src/repro (the meta-test) + determinism + perf
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def self_analysis():
    start = time.monotonic()
    report = analyze_deep([SRC_REPRO])
    duration = time.monotonic() - start
    return report, duration


def test_self_analysis_matches_committed_baseline(self_analysis):
    report, _ = self_analysis
    assert not report.failed, [f.render() for f in report.findings]
    assert report.stale == [], report.stale
    assert report.baseline_path is not None
    assert report.baseline_path.endswith("deep-baseline.json")
    entries = json.loads((ROOT / "deep-baseline.json").read_text())["entries"]
    assert len(report.accepted) == len(entries)
    assert all(e["justification"].strip() for e in entries)
    assert all("TODO" not in e["justification"] for e in entries)


def test_self_analysis_stats_are_sane(self_analysis):
    report, _ = self_analysis
    stats = report.stats
    assert stats["functions"] > 500
    assert stats["resolved"] > stats["unresolved"]
    assert stats["unresolved"] <= stats["unresolved_budget"]
    assert stats["parse_errors"] == 0


def test_deep_json_is_byte_identical_across_runs(self_analysis):
    report, _ = self_analysis
    again = analyze_deep([SRC_REPRO])
    assert render_deep_json(report) == render_deep_json(again)


def test_deep_analysis_stays_under_the_ci_wall_clock_guard(self_analysis):
    _, duration = self_analysis
    assert duration < 30.0, f"deep analysis took {duration:.1f}s"


# ---------------------------------------------------------------------
# seeded mutations of the real tree
# ---------------------------------------------------------------------

def _mutated_tree(tmp_path, relative, snippet, needle):
    """Copy src/repro, append ``snippet`` to one file, return the
    mutated root and the 1-based line of ``needle`` in that file."""
    mutated = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, mutated)
    target = mutated / relative
    text = target.read_text() + snippet
    target.write_text(text)
    line = text[: text.index(needle)].count("\n") + 1
    return mutated, target, line


def test_seeded_order_mutation_in_the_frontier_hot_path(tmp_path):
    snippet = (
        "\n"
        "\n"
        "def _mutated_frontier_order(frontier: set) -> bytes:\n"
        "    digest = hashlib.blake2b()\n"
        "    for node in frontier:\n"
        "        digest.update(node)\n"
        "    return digest.digest()\n"
    )
    mutated, target, line = _mutated_tree(
        tmp_path, "solver/parallel_bb.py", snippet, "digest.update(node)"
    )
    report = analyze_deep([mutated], baseline="none")
    hits = [f for f in report.findings if f.rule == ORDER_RULE_ID]
    assert [(Path(f.path).name, f.line) for f in hits] == [("parallel_bb.py", line)]
    assert "digest input" in hits[0].message

