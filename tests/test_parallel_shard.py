"""The time-sharded sweep engine: planner, payloads, identity, faults.

Headline property (the tentpole's contract): ``run_batch_sharded`` and
``sweep_sharded`` produce output byte-identical to the serial reference
(``run_sweep_serial`` / ``sweep(engine="incremental")``) at *any* shard
and job count, while each worker deserializes only its shard's columnar
slice -- never the whole graph.  Randomised coverage (slide sequences,
empty shards, halo boundaries, seeded crashes) lives in
``test_property_shard.py``; this file pins the deterministic surface.
"""

import pickle
import random
from array import array

import pytest

from repro import faults
from repro.core.errors import ReproError
from repro.core.sliding import iter_windows, sweep
from repro.experiments.runner import OverBudgetCell
from repro.faults import FaultPlan, FaultSpec, TASK_ERROR, WORKER_CRASH
from repro.parallel.batch import (
    BatchResult,
    SweepCell,
    run_batch,
    run_sweep_serial,
)
from repro.parallel.shard import (
    ShardPayload,
    ShardSpec,
    plan_shards,
    run_batch_sharded,
    sweep_sharded,
)
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


def _sweep_graph(n=14, extra=30, seed=11):
    """The deterministic batch-sweep graph (mirrors test_parallel_batch)."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        start = 4 + (v - 1)
        edges.append(TemporalEdge(v - 1, v, start, start, rng.randint(1, 9)))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        start = rng.randint(0, 18)
        edges.append(
            TemporalEdge(u, v, start, start + rng.randint(0, 2), rng.randint(1, 9))
        )
    return TemporalGraph(edges, vertices=range(n))


#: A sliding grid (not nested): contiguous runs shard naturally.
WINDOWS = tuple(TimeWindow(float(t), float(t + 8)) for t in range(0, 14, 2))

VARIANTS = (("pruned", 1), ("pruned", 2), ("improved", 2))


def _cells(windows=WINDOWS, fallback=False):
    return [
        SweepCell(0, window, level=level, algorithm=algorithm, fallback=fallback)
        for window in windows
        for algorithm, level in VARIANTS
    ]


class TestPlanShards:
    def test_partition_is_contiguous_and_ordered(self):
        specs = plan_shards(WINDOWS, 3)
        assert [s.index for s in specs] == [0, 1, 2]
        flattened = [w for s in specs for w in s.windows]
        assert flattened == sorted(
            set(WINDOWS), key=lambda w: (w.t_alpha, w.t_omega)
        )

    def test_near_equal_sizes_first_shards_get_extra(self):
        specs = plan_shards(WINDOWS, 3)  # 7 windows -> 3, 2, 2
        assert [len(s.windows) for s in specs] == [3, 2, 2]

    def test_single_shard_is_whole_grid(self):
        (spec,) = plan_shards(WINDOWS, 1)
        assert spec.windows == WINDOWS
        assert spec.t_lo == WINDOWS[0].t_alpha
        assert spec.t_hi == WINDOWS[-1].t_omega

    def test_more_shards_than_windows_clamps_without_empties(self):
        specs = plan_shards(WINDOWS, 100)
        assert len(specs) == len(WINDOWS)
        assert all(len(s.windows) == 1 for s in specs)

    def test_duplicate_windows_deduplicated(self):
        specs = plan_shards(WINDOWS + WINDOWS, 2)
        assert sum(len(s.windows) for s in specs) == len(WINDOWS)

    def test_empty_input_plans_nothing(self):
        assert plan_shards([], 4) == []

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ReproError):
            plan_shards(WINDOWS, 0)

    def test_halo_hulls_cover_every_window(self):
        """Each window fits inside its own shard's time hull.

        This is the halo invariant the byte-identity argument rests on:
        a shard can extract any of its windows without seeing edges
        owned by another shard.  Adjacent hulls overlap by up to one
        window length.
        """
        specs = plan_shards(WINDOWS, 3)
        for spec in specs:
            for window in spec.windows:
                assert spec.t_lo <= window.t_alpha
                assert window.t_omega <= spec.t_hi
        for left, right in zip(specs, specs[1:]):
            overlap = left.t_hi - right.t_lo
            assert overlap <= WINDOWS[0].t_omega - WINDOWS[0].t_alpha

    def test_spec_hull_properties(self):
        spec = ShardSpec(index=0, windows=(TimeWindow(2, 9), TimeWindow(4, 11)))
        assert spec.t_lo == 2
        assert spec.t_hi == 11


class TestShardPayload:
    def test_slice_matches_direct_window_filter(self):
        graph = _sweep_graph()
        payload = ShardPayload.slice_of(graph.columnar(), 4.0, 12.0)
        expected = [e for e in graph.edges if e.within(4.0, 12.0)]
        rebuilt = payload.to_graph()
        assert [tuple(e) for e in rebuilt.edges] == [tuple(e) for e in expected]
        assert payload.num_edges == len(expected)

    def test_columns_are_stdlib_arrays_not_edge_objects(self):
        """The compactness contract: arrays only, no per-edge objects."""
        graph = _sweep_graph()
        payload = ShardPayload.slice_of(graph.columnar(), 0.0, 20.0)
        assert isinstance(payload.columns["sources"], array)
        assert isinstance(payload.columns["targets"], array)
        for key in ("starts", "arrivals", "weights"):
            assert isinstance(payload.columns[key], (array, tuple))
        assert type(payload.columns["labels"]) is tuple

    def test_slice_pickles_smaller_than_whole_graph(self):
        graph = _sweep_graph(n=30, extra=120)
        windows = list(iter_windows(graph, 4.0))
        spec = plan_shards(windows, 4)[0]
        payload = ShardPayload.slice_of(graph.columnar(), spec.t_lo, spec.t_hi)
        assert len(pickle.dumps(payload)) < len(pickle.dumps(graph))

    def test_slice_excludes_out_of_range_edges(self):
        graph = _sweep_graph()
        payload = ShardPayload.slice_of(graph.columnar(), 6.0, 10.0)
        for edge in payload.to_graph().edges:
            assert edge.start >= 6.0
            assert edge.arrival <= 10.0

    def test_empty_slice_rebuilds_edgeless_graph(self):
        graph = _sweep_graph()
        payload = ShardPayload.slice_of(graph.columnar(), 100.0, 101.0)
        assert payload.num_edges == 0
        rebuilt = payload.to_graph()
        assert rebuilt.num_edges == 0
        assert rebuilt.num_vertices == 0

    def test_rebuilt_edges_keep_value_types(self):
        edges = [
            TemporalEdge("a", "b", 1, 2, 3),
            TemporalEdge("b", "c", 2.5, 3.5, 4.5),
        ]
        graph = TemporalGraph(edges)
        payload = ShardPayload.slice_of(graph.columnar(), 0.0, 10.0)
        rebuilt = payload.to_graph().edges
        assert [tuple(e) for e in rebuilt] == [tuple(e) for e in edges]
        assert type(rebuilt[0].weight) is int
        assert type(rebuilt[1].weight) is float

    def test_payload_round_trips_through_pickle(self):
        graph = _sweep_graph()
        payload = ShardPayload.slice_of(graph.columnar(), 0.0, 20.0)
        clone = pickle.loads(pickle.dumps(payload))
        assert [tuple(e) for e in clone.to_graph().edges] == [
            tuple(e) for e in payload.to_graph().edges
        ]


class TestBatchShardedEqualsSerial:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_values_identical_at_any_shard_count(self, shards):
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        result = run_batch_sharded(graph, cells, jobs=1, shards=shards)
        assert isinstance(result, BatchResult)
        assert result.values == expected
        assert result.fallback_summaries == [None] * len(cells)

    def test_values_identical_in_real_pool(self):
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        result = run_batch_sharded(graph, cells, jobs=2)
        assert result.values == expected

    def test_fallback_cells_round_trip(self):
        graph = _sweep_graph()
        cells = _cells(windows=WINDOWS[:3], fallback=True)
        expected = run_sweep_serial(graph, cells)
        result = run_batch_sharded(graph, cells, jobs=1, shards=2)
        assert result.values == expected
        for summary in result.fallback_summaries:
            assert summary is not None
            assert summary["attempts"][0]["status"] == "ok"

    def test_over_budget_cells_survive_the_boundary(self):
        graph = _sweep_graph()
        cells = _cells(windows=WINDOWS[:1])
        result = run_batch_sharded(
            graph, cells, jobs=1, shards=2, budget_seconds=1e-9
        )
        assert all(isinstance(v, OverBudgetCell) for v in result.values)

    def test_shard_diagnostics_shape(self):
        graph = _sweep_graph()
        cells = _cells()
        result = run_batch_sharded(graph, cells, jobs=1, shards=3)
        assert result.shards is not None
        assert len(result.shards) == 3
        for entry in result.shards:
            assert set(entry) >= {
                "shard", "t_lo", "t_hi", "windows",
                "edges", "payload_bytes", "cells", "elapsed_s",
            }
            assert entry["payload_bytes"] > 0
            assert entry["elapsed_s"] >= 0
        assert sum(e["cells"] for e in result.shards) == len(cells)

    def test_run_batch_routes_shards_argument(self):
        """``run_batch(..., shards=N)`` delegates to the sharded engine."""
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        routed = run_batch(graph, cells, jobs=1, shards=2)
        assert routed.values == expected
        assert routed.shards is not None and len(routed.shards) == 2
        legacy = run_batch(graph, cells, jobs=1)
        assert legacy.values == expected
        assert legacy.shards is None

    def test_reuse_counters_aggregate_across_shards(self):
        graph = _sweep_graph()
        cells = _cells()
        result = run_batch_sharded(graph, cells, jobs=1, shards=2)
        # Each shard's worker shares one reuse index across its cells:
        # same-window variants hit it.
        assert result.reuse["hits"] >= len(cells) - len(WINDOWS)
        assert result.reuse["misses"] >= 2  # one cold extraction per shard


class TestSweepSharded:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_msta_rows_identical_to_serial_sweep(self, shards):
        graph = _sweep_graph()
        serial = sweep(graph, 0, 8.0, kind="msta")
        sharded = sweep_sharded(graph, 0, 8.0, kind="msta", shards=shards)
        assert sharded.rows() == serial.rows()
        assert sharded.engine == "sharded"
        assert sharded.kind == "msta"

    @pytest.mark.parametrize("shards", [2, 3])
    def test_mstw_rows_identical_to_serial_sweep(self, shards):
        graph = _sweep_graph()
        serial = sweep(graph, 0, 8.0, kind="mstw")
        sharded = sweep_sharded(graph, 0, 8.0, kind="mstw", shards=shards)
        assert sharded.rows() == serial.rows()

    def test_rows_identical_in_real_pool(self):
        graph = _sweep_graph()
        serial = sweep(graph, 0, 8.0, kind="msta")
        sharded = sweep_sharded(graph, 0, 8.0, kind="msta", jobs=2)
        assert sharded.rows() == serial.rows()

    def test_explicit_step_is_honoured(self):
        graph = _sweep_graph()
        serial = sweep(graph, 0, 8.0, step=3.0, kind="msta")
        sharded = sweep_sharded(graph, 0, 8.0, step=3.0, kind="msta", shards=3)
        assert sharded.rows() == serial.rows()

    def test_stats_carry_shard_and_fault_diagnostics(self):
        graph = _sweep_graph()
        result = sweep_sharded(graph, 0, 8.0, kind="msta", shards=2)
        assert result.stats is not None
        shards = result.stats["shards"]
        assert len(shards) == 2
        assert all(entry["payload_bytes"] > 0 for entry in shards)
        assert sum(entry["windows"] for entry in shards) == len(
            list(iter_windows(graph, 8.0))
        )
        assert result.stats["faults"] == {
            "retries": 0, "rebuilds": 0, "inline_fallbacks": 0, "timeouts": 0,
        }

    @pytest.mark.parametrize("kind", ["msta", "mstw"])
    def test_engine_counters_match_serial_sweep(self, kind):
        """One shard runs the serial sweep's engine: same counters."""
        graph = _sweep_graph()
        serial = sweep(graph, 0, 8.0, kind=kind)
        sharded = sweep_sharded(graph, 0, 8.0, kind=kind, shards=1)
        assert serial.stats is not None and sharded.stats is not None
        counters = {
            key: value
            for key, value in sharded.stats.items()
            if key not in ("shards", "faults")
        }
        assert serial.stats == counters
        assert serial.stats["incremental_slides"] + serial.stats["cold_solves"] > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="kind"):
            sweep_sharded(_sweep_graph(), 0, 8.0, kind="mst")

    def test_jobs_aligned_default_plans_one_shard_per_job(self):
        graph = _sweep_graph()
        result = sweep_sharded(graph, 0, 8.0, kind="msta", jobs=2)
        assert len(result.stats["shards"]) == 2


class TestShardedFaultRecovery:
    """Shard tasks ride the executor's crash/retry/rebuild ladder."""

    def test_task_error_retried_values_unchanged(self):
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        plan = FaultPlan.of(FaultSpec("parallel.task", TASK_ERROR, occurrence=1))
        with faults.injected(plan):
            result = run_batch_sharded(graph, cells, jobs=2)
        assert result.values == expected
        assert result.faults["retries"] >= 1

    def test_worker_crash_rebuilds_pool_values_unchanged(self):
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        plan = FaultPlan.of(FaultSpec("parallel.task", WORKER_CRASH, occurrence=1))
        with faults.injected(plan):
            result = run_batch_sharded(graph, cells, jobs=2)
        assert result.values == expected
        assert result.faults["rebuilds"] >= 1

    def test_sweep_survives_worker_crash(self):
        graph = _sweep_graph()
        serial = sweep(graph, 0, 8.0, kind="msta")
        plan = FaultPlan.of(FaultSpec("parallel.task", WORKER_CRASH, occurrence=1))
        with faults.injected(plan):
            sharded = sweep_sharded(graph, 0, 8.0, kind="msta", jobs=2)
        assert sharded.rows() == serial.rows()
        assert sharded.stats["faults"]["rebuilds"] >= 1
