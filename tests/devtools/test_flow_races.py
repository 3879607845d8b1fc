"""Golden fixtures for the FORK-CAPTURE rule."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.flow.races import FORK_RULE_ID, fork_capture_findings
from repro.devtools.flow.symbols import build_program

FIXTURES = Path(__file__).parent / "fixtures"


def _fork(name):
    program = build_program(FIXTURES / name)
    return fork_capture_findings(program)


def test_worker_task_capturing_module_lock():
    findings = _fork("flow_fork_bad")
    hit = next(f for f in findings if f.line == 12)
    assert hit.rule == FORK_RULE_ID
    assert "captures fork-unsafe module global '_LOCK'" in hit.message
    assert "threading.Lock" in hit.message


def test_nested_pool_inside_worker_task():
    findings = _fork("flow_fork_bad")
    hit = next(f for f in findings if f.line == 17)
    assert "constructs a nested PersistentPool" in hit.message
    assert "worker task flow_fork_bad.tasks.nested" in hit.message


def test_transitively_reachable_helper_is_attributed_to_its_entry():
    findings = _fork("flow_fork_bad")
    hit = next(f for f in findings if f.line == 26)
    assert "flow_fork_bad.tasks._spawn_helper" in hit.message
    assert "worker task flow_fork_bad.tasks.indirect" in hit.message


def test_pure_worker_task_is_clean():
    assert _fork("flow_fork_good") == []
