"""Golden-fixture tests: each rule, one bad and one good file.

The bad fixtures are crafted so *only* the rule under test fires; the
expectations pin exact rule ids and line numbers, so a rule that
drifts (fires on new syntax, or stops firing) breaks loudly here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture -> [(rule id, line)] — the complete expected finding set.
BAD = {
    "bad_rng_seed.py": [
        ("RNG-SEED", 9),
        ("RNG-SEED", 10),
        ("RNG-SEED", 11),
        ("RNG-SEED", 12),
    ],
    "bad_clock_inject.py": [
        ("CLOCK-INJECT", 8),
        ("CLOCK-INJECT", 9),
        ("CLOCK-INJECT", 10),
    ],
    "bad_json_strict.py": [
        ("JSON-STRICT", 7),
        ("JSON-STRICT", 8),
    ],
    "bad_exc_silent.py": [
        ("EXC-SILENT", 7),
        ("EXC-SILENT", 14),
    ],
    "bad_pickle_safe.py": [
        ("PICKLE-SAFE", 7),
        ("PICKLE-SAFE", 12),
    ],
    "bad_shm_safe.py": [
        ("SHM-SAFE", 7),
        ("SHM-SAFE", 9),
    ],
    "bad_mut_default.py": [
        ("MUT-DEFAULT", 6),
        ("MUT-DEFAULT", 11),
        ("MUT-DEFAULT", 17),
    ],
    "export_bad/repro/export/table.py": [
        ("TYPECHECK-IMPORT", 3),
    ],
    "hotpath_bad/repro/runtime/parallel.py": [
        ("OBS-SPAN", 4),
    ],
    "hotpath_missing/repro/runtime/parallel.py": [
        ("OBS-SPAN", 1),
    ],
}

GOOD = [
    "good_rng_seed.py",
    "good_clock_inject.py",
    "good_json_strict.py",
    "good_exc_silent.py",
    "good_pickle_safe.py",
    "good_shm_safe.py",
    "good_mut_default.py",
    "export_good/repro/export/table.py",
    "hotpath_good/repro/runtime/parallel.py",
]


@pytest.mark.parametrize("fixture", sorted(BAD))
def test_bad_fixture_fires_exactly_its_rule(fixture):
    findings = lint_file(FIXTURES / fixture)
    assert [(f.rule, f.line) for f in findings] == BAD[fixture]


@pytest.mark.parametrize("fixture", GOOD)
def test_good_fixture_is_clean(fixture):
    assert lint_file(FIXTURES / fixture) == []


def test_every_ast_rule_has_a_bad_and_a_good_fixture():
    from repro.devtools.rules import ALL_RULES

    covered = {rule for fixture in BAD.values() for rule, _ in fixture}
    assert covered == {rule.rule_id for rule in ALL_RULES}
    assert len(GOOD) >= len(ALL_RULES)


def test_findings_are_error_severity_except_obs_span():
    for fixture, expected in BAD.items():
        for finding in lint_file(FIXTURES / fixture):
            if finding.rule == "OBS-SPAN":
                assert finding.severity == "warning"
            else:
                assert finding.severity == "error"


def test_module_names_resolve_through_fixture_packages():
    from repro.devtools.base import module_name_for

    path = FIXTURES / "export_bad" / "repro" / "export" / "table.py"
    assert module_name_for(path) == "repro.export.table"
    path = FIXTURES / "hotpath_bad" / "repro" / "runtime" / "parallel.py"
    assert module_name_for(path) == "repro.runtime.parallel"
