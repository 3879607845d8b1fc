"""Incremental, array-backed evaluation of deployment metrics.

The reference metrics in :mod:`repro.metrics` walk Python dicts for
every evaluation — clear, but linear in model size *per call*, which is
exactly the wrong constant for optimizers that probe thousands of
candidate deployments.  :class:`EvaluationEngine` precomputes the
coverage relation once as flat numpy arrays:

* a CSR layout over events: for every event, the providing monitors
  with their evidence weights, miss probabilities (``1 - weight *
  quality``), and *field bitsets* — each provider's contributed data
  fields encoded as bits within the event's capturable-field universe
  (``uint64`` words, multi-word when an event has more than 64 fields);
* an aggregation vector ``alpha`` folding the attack structure flat:
  ``alpha[e]`` is the total weight event ``e`` carries in any overall
  metric, so ``overall_coverage = alpha @ cov`` (and likewise for
  redundancy, richness, and confidence).

Full evaluation (:meth:`EvaluationEngine.components`) is then a handful
of ``reduceat`` reductions, and :class:`DeploymentCursor` supports
*delta evaluation*: adding a monitor is a vectorized ``max``/``+1``/
``|=`` over just the events that monitor can evidence, and a candidate
addition can be *peeked* without committing — the operation greedy
probes thousands of times.  Removal recomputes only the affected
events' CSR segments.

:meth:`EvaluationEngine.provider_table` cuts the CSR down to one
deployment's providers, grouped by event and padded into power-of-two
width buckets.  :meth:`ProviderTable.marginal_totals` then prices a
whole batch of orderings of that deployment at once — the Shapley
sampling kernel — instead of walking a cursor through each ordering.

The engine must agree with the reference metrics on every deployment up
to float round-off (aggregation order differs); the property suite in
``tests/runtime`` checks this on randomized models.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.model import SystemModel
from repro.errors import UnknownIdError
from repro.metrics.redundancy import DEFAULT_REDUNDANCY_CAP
from repro.metrics.utility import UtilityWeights

__all__ = ["EvaluationEngine", "DeploymentCursor", "ProviderTable", "engine_for"]


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(..., nwords)`` uint64 bitset array."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


class EvaluationEngine:
    """Precomputed array form of a model's coverage relation.

    Engines are immutable and cheap to share; use :func:`engine_for` to
    get the per-model singleton instead of constructing one per call.
    """

    def __init__(self, model: SystemModel) -> None:
        self.model = model
        self.monitor_ids: tuple[str, ...] = tuple(sorted(model.monitors))
        self.event_ids: tuple[str, ...] = tuple(sorted(model.events))
        self._midx = {m: i for i, m in enumerate(self.monitor_ids)}
        self._eidx = {e: i for i, e in enumerate(self.event_ids)}
        with obs.span(
            "engine.build", monitors=len(self.monitor_ids), events=len(self.event_ids)
        ) as sp:
            self._build_field_universe(model)
            self._build_csr(model)
            self._build_monitor_views()
            self._build_alpha(model)
        obs.counter("engine.builds").inc()
        obs.histogram("engine.build_seconds").observe(sp.duration)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_field_universe(self, model: SystemModel) -> None:
        # Per event: capturable fields (deploying everything) get stable
        # bit positions; the widest event decides the word count.
        self._field_bits: list[dict[str, int]] = []
        capturable = np.zeros(len(self.event_ids), dtype=np.int64)
        for i, event_id in enumerate(self.event_ids):
            fields = sorted(model.max_fields_for_event(event_id))
            self._field_bits.append({f: b for b, f in enumerate(fields)})
            capturable[i] = len(fields)
        self.n_words = max(1, int((capturable.max(initial=0) + 63) // 64))
        self._capturable = capturable
        with np.errstate(divide="ignore"):
            inv = np.where(capturable > 0, 1.0 / np.maximum(capturable, 1), 0.0)
        self._inv_capturable = inv

    def _field_mask(self, fields: frozenset[str], event_index: int) -> np.ndarray:
        bits = self._field_bits[event_index]
        mask = np.zeros(self.n_words, dtype=np.uint64)
        for field in fields:
            bit = bits[field]
            mask[bit // 64] |= np.uint64(1) << np.uint64(bit % 64)
        return mask

    def _build_csr(self, model: SystemModel) -> None:
        quality = {
            m: model.monitor_type(model.monitor(m).monitor_type_id).quality
            for m in self.monitor_ids
        }
        indptr = np.zeros(len(self.event_ids) + 1, dtype=np.int64)
        prov_monitor: list[int] = []
        prov_weight: list[float] = []
        prov_miss: list[float] = []
        prov_fields: list[np.ndarray] = []
        for i, event_id in enumerate(self.event_ids):
            providers = model.monitors_for_event(event_id)
            fields_of = model.provider_fields(event_id)
            for monitor_id in sorted(providers):
                weight = providers[monitor_id]
                prov_monitor.append(self._midx[monitor_id])
                prov_weight.append(weight)
                prov_miss.append(1.0 - weight * quality[monitor_id])
                prov_fields.append(self._field_mask(fields_of[monitor_id], i))
            indptr[i + 1] = len(prov_monitor)
        self._indptr = indptr
        self._prov_monitor = np.asarray(prov_monitor, dtype=np.int64)
        self._prov_weight = np.asarray(prov_weight, dtype=np.float64)
        self._prov_miss = np.asarray(prov_miss, dtype=np.float64)
        self._prov_fields = (
            np.vstack(prov_fields) if prov_fields else np.zeros((0, self.n_words), dtype=np.uint64)
        )

    def _build_monitor_views(self) -> None:
        # Per monitor: the events it evidences (as event indices), its
        # weight there, and its field bitset — the delta-update working
        # set of the cursor.
        by_monitor: dict[int, list[int]] = {i: [] for i in range(len(self.monitor_ids))}
        for position, monitor_index in enumerate(self._prov_monitor):
            by_monitor[int(monitor_index)].append(position)
        self._mon_events: list[np.ndarray] = []
        self._mon_weights: list[np.ndarray] = []
        self._mon_masks: list[np.ndarray] = []
        event_of_position = np.repeat(
            np.arange(len(self.event_ids), dtype=np.int64), np.diff(self._indptr)
        )
        for i in range(len(self.monitor_ids)):
            positions = np.asarray(by_monitor[i], dtype=np.int64)
            self._mon_events.append(event_of_position[positions])
            self._mon_weights.append(self._prov_weight[positions])
            self._mon_masks.append(
                self._prov_fields[positions]
                if positions.size
                else np.zeros((0, self.n_words), dtype=np.uint64)
            )

    def _build_alpha(self, model: SystemModel) -> None:
        alpha = np.zeros(len(self.event_ids), dtype=np.float64)
        attacks = model.attacks
        total_importance = sum(a.importance for a in attacks.values())
        if total_importance > 0:
            for attack in attacks.values():
                scale = attack.importance / (total_importance * attack.total_step_weight)
                for step in attack.steps:
                    alpha[self._eidx[step.event_id]] += scale * step.weight
        self._alpha = alpha

    # ------------------------------------------------------------------
    # full (vectorized) evaluation
    # ------------------------------------------------------------------

    def _deployed_mask(self, deployed: Iterable[str]) -> np.ndarray:
        mask = np.zeros(len(self.monitor_ids), dtype=bool)
        for monitor_id in deployed:
            index = self._midx.get(monitor_id)
            if index is None:
                raise UnknownIdError("monitor", monitor_id)
            mask[index] = True
        return mask

    def components(self, deployed: Iterable[str], cap: int = DEFAULT_REDUNDANCY_CAP) -> dict[str, float]:
        """Overall coverage/redundancy/richness/confidence, one pass.

        Each value matches its reference counterpart in
        :mod:`repro.metrics` up to aggregation round-off.
        """
        obs.counter("engine.full_evaluations").inc()
        with obs.span("engine.evaluate", events=len(self.event_ids)):
            return self._components(deployed, cap)

    def _components(self, deployed: Iterable[str], cap: int) -> dict[str, float]:
        mask = self._deployed_mask(deployed)
        n_events = len(self.event_ids)
        nnz = self._prov_monitor.size
        if n_events == 0 or nnz == 0:
            return {"coverage": 0.0, "redundancy": 0.0, "richness": 0.0, "confidence": 0.0}

        selected = mask[self._prov_monitor]
        # Each array is padded with one identity element so every indptr
        # value (including a trailing nnz for provider-less tail events)
        # is a valid reduceat index; clamping instead would steal the
        # last element from the preceding event's segment.  Zero-length
        # segments make reduceat return the element *at* the index, so
        # they are masked out afterwards.
        starts = self._indptr[:-1]
        empty = self._indptr[:-1] == self._indptr[1:]

        weight = np.append(np.where(selected, self._prov_weight, 0.0), 0.0)
        cov = np.maximum.reduceat(weight, starts)
        cov[empty] = 0.0

        count = np.add.reduceat(np.append(selected, False).astype(np.int64), starts)
        count[empty] = 0

        miss = np.append(np.where(selected, self._prov_miss, 1.0), 1.0)
        conf = 1.0 - np.multiply.reduceat(miss, starts)
        conf[empty] = 0.0

        fields = np.vstack(
            [
                np.where(selected[:, None], self._prov_fields, np.uint64(0)),
                np.zeros((1, self.n_words), dtype=np.uint64),
            ]
        )
        union = np.bitwise_or.reduceat(fields, starts, axis=0)
        union[empty] = 0
        pop = _popcount_rows(union)

        alpha = self._alpha
        return {
            "coverage": float(alpha @ cov),
            "redundancy": float(alpha @ (np.minimum(count, cap) / cap)),
            "richness": float(alpha @ (pop * self._inv_capturable)),
            "confidence": float(alpha @ conf),
        }

    def utility(self, deployed: Iterable[str], weights: UtilityWeights | None = None) -> float:
        """Combined utility via one vectorized pass."""
        weights = weights or UtilityWeights()
        parts = self.components(deployed, weights.redundancy_cap)
        return (
            weights.coverage * parts["coverage"]
            + weights.redundancy * parts["redundancy"]
            + weights.richness * parts["richness"]
        )

    def breakdown(self, deployed: Iterable[str], weights: UtilityWeights | None = None) -> dict[str, float]:
        """Component values plus combined utility (reference layout)."""
        weights = weights or UtilityWeights()
        parts = self.components(deployed, weights.redundancy_cap)
        return {
            "coverage": parts["coverage"],
            "redundancy": parts["redundancy"],
            "richness": parts["richness"],
            "utility": (
                weights.coverage * parts["coverage"]
                + weights.redundancy * parts["redundancy"]
                + weights.richness * parts["richness"]
            ),
        }

    def confidence(self, deployed: Iterable[str]) -> float:
        """Overall operational confidence (reporting metric)."""
        return self.components(deployed)["confidence"]

    def cursor(
        self, weights: UtilityWeights | None = None, initial: Iterable[str] = ()
    ) -> "DeploymentCursor":
        """A mutable deployment with O(affected events) delta updates."""
        return DeploymentCursor(self, weights or UtilityWeights(), initial)

    def provider_table(
        self, monitor_ids: Sequence[str], weights: UtilityWeights | None = None
    ) -> "ProviderTable":
        """One deployment's providers, grouped by event, for batch pricing.

        A monitor's local index is its position in ``monitor_ids``.
        Events that no listed monitor evidences, or that no attack step
        weighs, are left out: they give no ordering a marginal.  Each
        kept event lands in the bucket of the smallest power of two that
        holds its providers, so padding at most doubles the cells.
        """
        weights = weights or UtilityWeights()
        size = len(monitor_ids)
        local = np.full(len(self.monitor_ids), -1, dtype=np.int64)
        for position, monitor_id in enumerate(monitor_ids):
            index = self._midx.get(monitor_id)
            if index is None:
                raise UnknownIdError("monitor", monitor_id)
            local[index] = position
        n_events = len(self.event_ids)
        event = np.repeat(np.arange(n_events, dtype=np.int64), np.diff(self._indptr))
        owner = local[self._prov_monitor]
        keep = (owner >= 0) & (self._alpha[event] > 0)
        event, owner = event[keep], owner[keep]
        evidence_of, fields_of = self._prov_weight[keep], self._prov_fields[keep]
        count = np.bincount(event, minlength=n_events)
        # CSR order keeps each event's providers contiguous.
        slot = np.arange(event.size) - (np.cumsum(count) - count)[event]
        width = np.zeros(n_events, dtype=np.int64)
        present = count > 0
        width[present] = 2 ** np.ceil(np.log2(count[present])).astype(np.int64)
        buckets = []
        for bucket_width in np.unique(width[present]):
            events = np.flatnonzero(width == bucket_width)
            chosen = width[event] == bucket_width
            row, col = np.searchsorted(events, event[chosen]), slot[chosen]
            monitors = np.full((events.size, bucket_width), size, dtype=np.int64)
            monitors[row, col] = owner[chosen]
            evidence = np.zeros((events.size, bucket_width))
            evidence[row, col] = evidence_of[chosen]
            fields = np.zeros((events.size, bucket_width, self.n_words), dtype=np.uint64)
            fields[row, col] = fields_of[chosen]
            buckets.append(
                _WidthBucket(
                    monitors=monitors,
                    weights=evidence,
                    fields=fields,
                    alpha=self._alpha[events],
                    inv_capturable=self._inv_capturable[events],
                )
            )
        return ProviderTable(
            size=size, weights=weights, buckets=tuple(buckets), entries=int(event.size)
        )


class DeploymentCursor:
    """A deployment under incremental mutation.

    Additions are pure vectorized updates (``max`` for coverage, ``+1``
    for counts, ``|=`` + popcount for field bitsets); removals recompute
    only the affected events from the engine's CSR segments.
    :meth:`peek_add` prices a candidate addition without committing it.
    """

    def __init__(self, engine: EvaluationEngine, weights: UtilityWeights, initial: Iterable[str]):
        self.engine = engine
        self.weights = weights
        self._cap = weights.redundancy_cap
        n_events = len(engine.event_ids)
        self._deployed = np.zeros(len(engine.monitor_ids), dtype=bool)
        self._cov = np.zeros(n_events, dtype=np.float64)
        self._cnt = np.zeros(n_events, dtype=np.int64)
        self._union = np.zeros((n_events, engine.n_words), dtype=np.uint64)
        self._pop = np.zeros(n_events, dtype=np.int64)
        self._s_cov = 0.0
        self._s_red = 0.0
        self._s_rich = 0.0
        # Op tallies stay plain ints: cursor probes are the innermost
        # loop of greedy, too hot for per-event registry lookups.  The
        # solver drains them into the registry once per solve.
        self.ops_peek = 0
        self.ops_add = 0
        self.ops_remove = 0
        for monitor_id in sorted(set(initial)):
            self.add(monitor_id)

    # -- queries -----------------------------------------------------------

    @property
    def monitor_ids(self) -> frozenset[str]:
        """The currently deployed monitor ids."""
        ids = self.engine.monitor_ids
        return frozenset(ids[i] for i in np.flatnonzero(self._deployed))

    def __contains__(self, monitor_id: str) -> bool:
        index = self.engine._midx.get(monitor_id)
        return index is not None and bool(self._deployed[index])

    def __len__(self) -> int:
        return int(self._deployed.sum())

    def utility(self) -> float:
        """Combined utility of the current deployment."""
        w = self.weights
        return w.coverage * self._s_cov + w.redundancy * self._s_red + w.richness * self._s_rich

    def breakdown(self) -> dict[str, float]:
        """Component values plus combined utility."""
        return {
            "coverage": self._s_cov,
            "redundancy": self._s_red,
            "richness": self._s_rich,
            "utility": self.utility(),
        }

    # -- mutation ----------------------------------------------------------

    def _index_of(self, monitor_id: str) -> int:
        index = self.engine._midx.get(monitor_id)
        if index is None:
            raise UnknownIdError("monitor", monitor_id)
        return index

    def _add_deltas(
        self, index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, float, float, np.ndarray]:
        """New per-event values and sum deltas for adding monitor ``index``."""
        engine = self.engine
        events = engine._mon_events[index]
        new_cov = np.maximum(self._cov[events], engine._mon_weights[index])
        new_cnt = self._cnt[events] + 1
        new_union = self._union[events] | engine._mon_masks[index]
        new_pop = _popcount_rows(new_union)
        alpha = engine._alpha[events]
        d_cov = float(alpha @ (new_cov - self._cov[events]))
        d_red = (
            float(alpha @ (np.minimum(new_cnt, self._cap) - np.minimum(self._cnt[events], self._cap)))
            / self._cap
        )
        d_rich = float(alpha @ ((new_pop - self._pop[events]) * engine._inv_capturable[events]))
        return events, new_cov, new_cnt, new_union, d_cov, d_red, d_rich, new_pop

    def drain_op_counts(self) -> dict[str, int]:
        """Return and reset the peek/add/remove tallies (registry flush)."""
        counts = {"peek": self.ops_peek, "add": self.ops_add, "remove": self.ops_remove}
        self.ops_peek = self.ops_add = self.ops_remove = 0
        return counts

    def peek_add(self, monitor_id: str) -> float:
        """Utility if ``monitor_id`` were added, without committing."""
        self.ops_peek += 1
        index = self._index_of(monitor_id)
        if self._deployed[index]:
            return self.utility()
        _, _, _, _, d_cov, d_red, d_rich, _ = self._add_deltas(index)
        w = self.weights
        return (
            w.coverage * (self._s_cov + d_cov)
            + w.redundancy * (self._s_red + d_red)
            + w.richness * (self._s_rich + d_rich)
        )

    def add(self, monitor_id: str) -> None:
        """Deploy one more monitor (error if already deployed)."""
        self.ops_add += 1
        index = self._index_of(monitor_id)
        if self._deployed[index]:
            raise ValueError(f"monitor {monitor_id!r} is already deployed")
        events, new_cov, new_cnt, new_union, d_cov, d_red, d_rich, new_pop = self._add_deltas(index)
        self._cov[events] = new_cov
        self._cnt[events] = new_cnt
        self._union[events] = new_union
        self._pop[events] = new_pop
        self._s_cov += d_cov
        self._s_red += d_red
        self._s_rich += d_rich
        self._deployed[index] = True

    def remove(self, monitor_id: str) -> None:
        """Withdraw a deployed monitor (error if not deployed)."""
        self.ops_remove += 1
        index = self._index_of(monitor_id)
        if not self._deployed[index]:
            raise ValueError(f"monitor {monitor_id!r} is not deployed")
        engine = self.engine
        self._deployed[index] = False
        alpha_all = engine._alpha
        inv_cap = engine._inv_capturable
        for event in engine._mon_events[index]:
            event = int(event)
            start, stop = int(engine._indptr[event]), int(engine._indptr[event + 1])
            selected = self._deployed[engine._prov_monitor[start:stop]]
            if selected.any():
                new_cov = float(engine._prov_weight[start:stop][selected].max())
                new_cnt = int(selected.sum())
                new_union = np.bitwise_or.reduce(
                    engine._prov_fields[start:stop][selected], axis=0
                )
                new_pop = int(_popcount_rows(new_union[None, :])[0])
            else:
                new_cov, new_cnt, new_pop = 0.0, 0, 0
                new_union = np.zeros(engine.n_words, dtype=np.uint64)
            alpha = float(alpha_all[event])
            self._s_cov += alpha * (new_cov - self._cov[event])
            self._s_red += (
                alpha
                * (min(new_cnt, self._cap) - min(int(self._cnt[event]), self._cap))
                / self._cap
            )
            self._s_rich += alpha * (new_pop - int(self._pop[event])) * float(inv_cap[event])
            self._cov[event] = new_cov
            self._cnt[event] = new_cnt
            self._union[event] = new_union
            self._pop[event] = new_pop


@dataclass(frozen=True)
class _WidthBucket:
    """The events whose deployed providers fit one padded width.

    Row ``r`` is one event; column ``c`` its ``c``-th provider in CSR
    order.  Padding cells name monitor ``size`` (one past the last local
    index), with zero evidence weight and no fields.
    """

    monitors: np.ndarray  # (events, width) local monitor index
    weights: np.ndarray  # (events, width) evidence weight
    fields: np.ndarray  # (events, width, words) uint64 field bitsets
    alpha: np.ndarray  # (events,)
    inv_capturable: np.ndarray  # (events,)


@dataclass(frozen=True)
class ProviderTable:
    """A deployment's coverage relation, laid out for batch pricing.

    Built by :meth:`EvaluationEngine.provider_table`; small, immutable
    and picklable.  ``entries`` counts real provider cells, ``cells``
    the padded ones that :meth:`marginal_totals` evaluates per ordering.
    """

    size: int
    weights: UtilityWeights
    buckets: tuple[_WidthBucket, ...]
    entries: int

    @property
    def cells(self) -> int:
        """Padded provider cells, one pass of an ordering over the table."""
        return sum(bucket.monitors.size for bucket in self.buckets)

    def marginal_totals(self, orders: np.ndarray) -> np.ndarray:
        """Each monitor's utility gain on joining, summed over orderings.

        ``orders`` is an ``(n, size)`` array whose rows are permutations
        of the local monitor indices, first to join first.  Entry ``i``
        of the result is what walking a :class:`DeploymentCursor`
        through every row credits monitor ``i`` with, up to float
        summation order.  Per event, providers are sorted by when they
        join; a running ``max`` of evidence weight gives the coverage
        gains, the join rank against ``redundancy_cap`` the redundancy
        gains, and a running ``|`` of field bitsets the richness gains.
        """
        n, size = len(orders), self.size
        # joined[s, i]: the step at which monitor i joins ordering s;
        # the padding monitor ``size`` joins after everyone.
        joined = np.full((n, size + 1), size, dtype=np.int64)
        np.put_along_axis(joined, orders, np.arange(size), axis=1)
        w = self.weights
        cap = w.redundancy_cap
        owners: list[np.ndarray] = []
        gains: list[np.ndarray] = []
        for bucket in self.buckets:
            order = np.argsort(joined[:, bucket.monitors], axis=-1)
            evidence = np.take_along_axis(bucket.weights[None], order, axis=-1)
            d_cov = np.diff(np.maximum.accumulate(evidence, axis=-1), axis=-1, prepend=0.0)
            fields = np.take_along_axis(bucket.fields[None], order[..., None], axis=2)
            pop = _popcount_rows(np.bitwise_or.accumulate(fields, axis=2))
            d_pop = np.diff(pop, axis=-1, prepend=0)
            alpha = bucket.alpha[:, None]
            below_cap = np.arange(bucket.monitors.shape[1]) < cap
            gains.append(
                (w.coverage * alpha) * d_cov
                + (w.redundancy / cap) * alpha * below_cap
                + (w.richness * alpha * bucket.inv_capturable[:, None]) * d_pop
            )
            owners.append(np.take_along_axis(bucket.monitors[None], order, axis=-1))
        if not owners:
            return np.zeros(size)
        totals = np.bincount(
            np.concatenate([o.ravel() for o in owners]),
            weights=np.concatenate([g.ravel() for g in gains]),
            minlength=size + 1,
        )
        return totals[:size]


#: Per-model engine singletons; keyed weakly so models can be collected.
_ENGINES: "weakref.WeakKeyDictionary[SystemModel, EvaluationEngine]" = weakref.WeakKeyDictionary()


def engine_for(model: SystemModel) -> EvaluationEngine:
    """The shared :class:`EvaluationEngine` for ``model`` (built once)."""
    engine = _ENGINES.get(model)
    if engine is None:
        engine = EvaluationEngine(model)
        _ENGINES[model] = engine
    return engine
