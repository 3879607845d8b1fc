"""The cursor walk that Shapley chunks once ran: the oracle for the table kernel.

Each ordering is walked on a fresh
:class:`~repro.runtime.engine.DeploymentCursor`, adding one monitor at a
time and crediting it with the utility it adds.  Slow — a dozen numpy
calls per addition — but a direct reading of the definition, so
:meth:`~repro.runtime.engine.ProviderTable.marginal_totals` is checked
against it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.metrics.utility import UtilityWeights
from repro.runtime.engine import EvaluationEngine


def cursor_marginal_totals(
    engine: EvaluationEngine,
    monitor_ids: Sequence[str],
    weights: UtilityWeights,
    orders: np.ndarray,
) -> np.ndarray:
    """Per-monitor marginal utility summed over ``orders`` (rows of local indices)."""
    totals = np.zeros(len(monitor_ids))
    for order in orders:
        cursor = engine.cursor(weights)
        previous = 0.0
        for index in order:
            cursor.add(monitor_ids[index])
            current = cursor.utility()
            totals[index] += current - previous
            previous = current
    return totals
