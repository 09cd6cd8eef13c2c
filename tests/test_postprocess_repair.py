"""Direct tests of the postprocessing internals, including the repair pass.

The smallest-arrival rule of Step 2(b) is provably safe except in
degenerate zero-duration graphs with mutually-enabling same-timestamp
edges; these tests drive :func:`_repair_selection` and
:func:`_smallest_arrival_selection` directly so the defensive path is
covered even if no dataset happens to trigger it.
"""

import pytest

from repro.core.errors import InvalidTreeError
from repro.core.mstw import minimum_spanning_tree_w
from repro.core.postprocess import (
    _repair_selection,
    _smallest_arrival_selection,
)
from repro.datasets.registry import load_dataset
from repro.temporal.edge import TemporalEdge
from repro.temporal.paths import reachable_set
from repro.temporal.window import TimeWindow


class TestSmallestArrival:
    def test_picks_minimum_arrival(self):
        candidates = {
            "v": [
                TemporalEdge("a", "v", 0, 5, 1),
                TemporalEdge("b", "v", 0, 3, 9),
            ]
        }
        chosen = _smallest_arrival_selection(candidates)
        assert chosen["v"].arrival == 3

    def test_tie_broken_by_weight_then_start(self):
        candidates = {
            "v": [
                TemporalEdge("a", "v", 1, 3, 5),
                TemporalEdge("b", "v", 2, 3, 2),
            ]
        }
        assert _smallest_arrival_selection(candidates)["v"].weight == 2


class TestRepairSelection:
    def test_repairs_mutual_cycle(self):
        # a and b enable each other at time 4; the smallest-arrival rule
        # could pick the cycle, but only a is genuinely fed by the root.
        candidates = {
            "a": [
                TemporalEdge("r", "a", 2, 4, 5),
                TemporalEdge("b", "a", 4, 4, 1),
            ],
            "b": [TemporalEdge("a", "b", 4, 4, 1)],
        }
        parent = _repair_selection("r", 0.0, candidates)
        assert parent["a"].source == "r"
        assert parent["b"].source == "a"

    def test_prefers_earliest_feasible(self):
        candidates = {
            "x": [
                TemporalEdge("r", "x", 1, 9, 1),
                TemporalEdge("r", "x", 1, 2, 1),
            ]
        }
        parent = _repair_selection("r", 0.0, candidates)
        assert parent["x"].arrival == 2

    def test_respects_t_alpha(self):
        candidates = {
            "x": [
                TemporalEdge("r", "x", 1, 2, 1),  # departs before t_alpha=3
                TemporalEdge("r", "x", 5, 6, 1),
            ]
        }
        parent = _repair_selection("r", 3.0, candidates)
        assert parent["x"].arrival == 6

    def test_unconnectable_vertex_raises(self):
        candidates = {
            "x": [TemporalEdge("ghost", "x", 0, 1, 1)],
        }
        with pytest.raises(InvalidTreeError, match="could not connect"):
            _repair_selection("r", 0.0, candidates)

    def test_chain_through_repairs(self):
        candidates = {
            "a": [TemporalEdge("r", "a", 0, 1, 1)],
            "b": [TemporalEdge("a", "b", 2, 3, 1)],
            "c": [TemporalEdge("b", "c", 3, 4, 1)],
        }
        parent = _repair_selection("r", 0.0, candidates)
        assert set(parent) == {"a", "b", "c"}
        # the chain respects time constraints end to end
        assert parent["c"].start >= parent["b"].arrival


class TestCyclicExpansionRegressions:
    """Level-3 queries on zero-duration dblp windows whose expansion is cyclic.

    Step 1 used to keep each vertex's cheapest in-edge of the expanded
    path union, which here closed cycles no root path enters and left
    Step 2 unable to connect 7 (resp. 6) vertices (``InvalidTreeError``).
    """

    @pytest.mark.parametrize(
        "dataset_seed, root, window",
        [
            (10, 11, TimeWindow(1995.9113553795323, 2003.1113553795324)),
            (664, 37, TimeWindow(1998.7307830094599, 2005.93078300946)),
        ],
    )
    def test_answer_is_valid_spanning_tree(self, dataset_seed, root, window):
        graph = load_dataset("dblp", scale=0.05, seed=dataset_seed, weighted=True)
        result = minimum_spanning_tree_w(graph, root, window, level=3)
        result.tree.validate(graph)
        assert result.tree.vertices == reachable_set(graph, root, window)
        assert result.weight <= result.closure_tree_cost + 1e-9
