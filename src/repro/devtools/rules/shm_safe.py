"""SHM-SAFE: no shared-memory segment outside the pool module.

A ``multiprocessing.shared_memory.SharedMemory`` segment is a named
OS object with manual lifetime: whoever creates one owns an unlink
obligation, and a handle that crosses a ``parallel_map`` boundary can
outlive its segment (a stale attach) or leave it behind (a leak in
``/dev/shm`` that survives the run).  The program creates none: every
payload crosses to workers pickled inside its task, and a model rides
in a :class:`~repro.runtime.pool.ModelParcel`.  This rule keeps it
that way; :mod:`repro.runtime.pool`, which owns the worker lifecycle,
is the only module a segment could be built in.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools import contract
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
        "no direct shared_memory segment construction outside "
        "repro.runtime.pool; payloads cross to workers pickled in their tasks"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module in contract.SHM_ALLOWLIST:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name in _CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() constructs a shared-memory segment outside "
                    "repro.runtime.pool; send the payload pickled in the task "
                    "(a model in a ModelParcel) so nothing can outlive the run",
                )
