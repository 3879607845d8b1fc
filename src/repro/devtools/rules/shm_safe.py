"""SHM-SAFE: no module builds a shared-memory segment.

A ``multiprocessing.shared_memory.SharedMemory`` segment is a named
OS object with manual lifetime: whoever creates one owns an unlink
obligation, and a handle that crosses a ``parallel_map`` boundary can
outlive its segment (a stale attach) or leave it behind (a leak in
``/dev/shm`` that survives the run).  The program creates none: every
payload crosses to workers pickled inside its task, and a model rides
in a :class:`~repro.runtime.pool.ModelParcel`.  This rule keeps it
that way, with no allowlist: a segment built anywhere is a finding.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.base import Finding, LintContext, Rule, dotted

__all__ = ["ShmSafeRule"]

#: Spellings of the segment constructor (import style varies).
_CONSTRUCTORS = frozenset(
    {
        "SharedMemory",
        "shared_memory.SharedMemory",
        "multiprocessing.shared_memory.SharedMemory",
        "ShareableList",
        "shared_memory.ShareableList",
        "multiprocessing.shared_memory.ShareableList",
    }
)


class ShmSafeRule(Rule):
    rule_id = "SHM-SAFE"
    description = (
        "no shared_memory segment construction anywhere; payloads cross "
        "to workers pickled in their tasks"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name in _CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() constructs a shared-memory segment; send the "
                    "payload pickled in the task (a model in a ModelParcel) "
                    "so nothing can outlive the run",
                )
