"""Incremental sliding-window engine (delta-driven window advancement).

The cold sliding sweep recomputes every window from scratch even though
consecutive windows share almost all of their edges.  This package
advances a window by its *delta* instead and updates -- rather than
rebuilds -- every layer of the pipeline, while certifying at each layer
that the result is identical to the cold recomputation:

* :class:`IncrementalMSTa` -- maintains the earliest-arrival tree by
  deleting the removed edges' dirty cone and re-relaxing only there;
* :func:`patch_prepared_instance` -- reuses the previous window's
  closure rows wherever the expansion is provably unchanged;
* :class:`SlidingEngine` -- composes the layers, warm-starts the pruned
  DST solve, and degrades to cold (with a recorded caveat) on budget
  exhaustion.

See ``docs/performance.md`` ("Incremental sliding windows") for the
delta model and the invalidation rules.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.sliding import WindowMeasurement, iter_windows
from repro.incremental.engine import SlidingEngine
from repro.incremental.msta import IncrementalMSTa
from repro.incremental.prepare import patch_prepared_instance
from repro.resilience.budget import Budget
from repro.temporal.edge import Vertex
from repro.temporal.graph import TemporalGraph

__all__ = [
    "IncrementalMSTa",
    "SlidingEngine",
    "patch_prepared_instance",
    "sliding_msta_incremental",
    "sliding_mstw_incremental",
]


def sliding_msta_incremental(
    graph: TemporalGraph,
    root: Vertex,
    window_length: float,
    step: Optional[float] = None,
    budget: Optional[Budget] = None,
    stats_out: Optional[Dict[str, int]] = None,
) -> List[WindowMeasurement]:
    """Drop-in incremental replacement for ``sliding_msta``.

    Output-identical to the cold sweep (trees and series match
    window-for-window); only the work per slide changes.  Pass a dict
    as ``stats_out`` to receive the engine's counters (including the
    fault-recovery ones) after the sweep.
    """
    engine = SlidingEngine(graph, root)
    measurements = [
        engine.measure_msta(window, budget=budget)
        for window in iter_windows(graph, window_length, step)
    ]
    if stats_out is not None:
        stats_out.update(engine.counters())
    return measurements


def sliding_mstw_incremental(
    graph: TemporalGraph,
    root: Vertex,
    window_length: float,
    step: Optional[float] = None,
    level: int = 2,
    algorithm: str = "pruned",
    budget: Optional[Budget] = None,
    stats_out: Optional[Dict[str, int]] = None,
) -> List[WindowMeasurement]:
    """Drop-in incremental replacement for ``sliding_mstw``."""
    engine = SlidingEngine(graph, root, level=level, algorithm=algorithm)
    measurements = [
        engine.measure_mstw(window, budget=budget)
        for window in iter_windows(graph, window_length, step)
    ]
    if stats_out is not None:
        stats_out.update(engine.counters())
    return measurements
