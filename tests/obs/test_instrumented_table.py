"""docs/observability.md's instrumented table matches the hot-path registry.

Every module in :data:`repro.devtools.contract.HOT_PATHS` has a row in
the "What is instrumented" table, and every row names a registered
module, except the pool's: it has lifecycle counters but no hot-path
span to register.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.devtools.contract import HOT_PATHS

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

#: Rows for instrumented modules that register no hot-path span.
UNREGISTERED_ROWS = {"repro.runtime.pool"}


def _table_modules() -> list[str]:
    text = DOC.read_text(encoding="utf-8")
    section = text.split("## What is instrumented", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(repro\.[\w.]+)` \|", section, flags=re.MULTILINE)


def test_every_row_names_one_module():
    rows = _table_modules()
    assert rows
    assert len(rows) == len(set(rows))


def test_every_hot_path_module_has_a_row():
    missing = set(HOT_PATHS) - set(_table_modules())
    assert not missing, f"no row in {DOC.name} for {sorted(missing)}"


def test_every_row_names_a_hot_path_module():
    extra = set(_table_modules()) - set(HOT_PATHS) - UNREGISTERED_ROWS
    assert not extra, f"rows in {DOC.name} for unregistered modules {sorted(extra)}"
