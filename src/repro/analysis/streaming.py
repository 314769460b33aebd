"""Streaming/incremental analysis accumulators.

The batch analysis helpers (:mod:`repro.analysis.fairness`,
``quality``, ``heatmap``, ``truth``) all take fully
materialised sequences — fine for a 9-round campaign, hopeless for a
million-reading soak on the sqlite backend, where the whole point is
that readings never sit in process memory at once.  Each accumulator
here folds one observation at a time and holds only O(state) memory:

* :class:`StreamingSelectionCounts` — per-device selection counts and
  the Fig. 9 fairness report, folded from
  :class:`~repro.core.server.SelectionEvent` s (or their dicts as
  stored on the backend's ``selection_log``).
* :class:`StreamingMean` — running mean over values in arrival order;
  the same left-to-right additions the batch ``sum()`` performs, so
  the result is bit-identical to the batch mean on every backend.
* :class:`StreamingLatency` — count/mean/max and *exact* p95 of
  delivery latency.  Exact quantiles of an arbitrary stream require
  retaining the values (any one-pass selection needs Ω(n) memory —
  a kept-tail heap breaks the moment its target size grows past an
  already-discarded element), so each latency is retained as one
  compact 8-byte double rather than the reading that carried it.
  Defined in :mod:`repro.analysis.quality`, whose
  ``delivery_latency`` is a fold over it.
* :class:`StreamingHeatmap` — per-cell IDW numerator/denominator
  accumulators.  Defined in :mod:`repro.analysis.heatmap`, whose
  ``grid_field`` is a fold over it.
* :class:`ClaimsAccumulator` — builds the truth-discovery claims
  matrix incrementally from a reading stream (O(sources × items), not
  O(readings)).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional

from repro.analysis.fairness import fairness_report
from repro.analysis.heatmap import StreamingHeatmap
from repro.analysis.quality import StreamingLatency
from repro.analysis.truth import TruthDiscoveryResult, discover_truth

__all__ = [
    "ClaimsAccumulator",
    "StreamingHeatmap",
    "StreamingLatency",
    "StreamingMean",
    "StreamingSelectionCounts",
]


class StreamingSelectionCounts:
    """Fold selection events into per-device counts, one at a time."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self.events = 0

    def add(self, selected: Iterable[str]) -> None:
        """Fold one selector execution's picked device ids."""
        self.events += 1
        for device_id in selected:
            self._counts[device_id] = self._counts.get(device_id, 0) + 1

    def add_event(self, event) -> None:
        """Fold a ``SelectionEvent`` (or its stored dict form)."""
        selected = event["selected"] if isinstance(event, dict) else event.selected
        self.add(selected)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def report(self) -> Dict[str, float]:
        """The same summary ``fairness_report`` computes in batch."""
        return fairness_report(self._counts)


class StreamingMean:
    """Running mean with the batch ``sum()``'s exact addition order."""

    def __init__(self) -> None:
        self.count = 0
        self._total = 0.0

    def add(self, value: float) -> None:
        self._total += value
        self.count += 1

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self._total / self.count


class ClaimsAccumulator:
    """Build the truth-discovery claims matrix from a reading stream.

    Memory is O(sources × items) — the matrix itself — regardless of
    how many readings flow through; a source re-claiming an item
    overwrites (last write wins), matching how a claims mapping would
    be built from a stream anyway.
    """

    def __init__(self) -> None:
        self._claims: Dict[Hashable, Dict[Hashable, float]] = {}
        self.readings = 0

    def add_claim(self, source: Hashable, item: Hashable, value: float) -> None:
        self.readings += 1
        self._claims.setdefault(source, {})[item] = value

    def add_point(self, point, *, item: Optional[Hashable] = None) -> None:
        """Fold one ``SensedDataPoint``; ``item`` defaults to task id."""
        self.add_claim(
            point.device_hash,
            point.task_id if item is None else item,
            point.value,
        )

    @property
    def sources(self) -> int:
        return len(self._claims)

    def claims(self) -> Dict[Hashable, Dict[Hashable, float]]:
        return {s: dict(c) for s, c in self._claims.items()}

    def discover(
        self, *, max_iterations: int = 50, tolerance: float = 1e-6
    ) -> TruthDiscoveryResult:
        return discover_truth(
            self._claims, max_iterations=max_iterations, tolerance=tolerance
        )
