"""The benchmark's three seeded workloads and the checks on their answers.

Each workload builds its graphs from ``--seed`` (:meth:`setup`), draws a
fixed plan of distinct requests from the same seed (:meth:`plan`),
answers one request through the program's public API (:meth:`run`) and
verifies the answer outside the timed region (:meth:`check`).

* ``mstw_deep`` -- ``minimum_spanning_tree_w(level=3)`` on the Table 5
  shapes; the level-3 DST recursion dominates.
* ``mstw_wide`` -- ``minimum_spanning_tree_w(level=2)`` on wide windows of
  larger graphs; the metric closure dominates.  Requests come in groups
  of roots sharing one window.
* ``sweep_forecast`` -- the Section 2.3 forecast: a sharded ``MST_a``
  sweep then a sharded ``MST_w`` sweep over heavily overlapping windows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import InvalidTreeError, UnreachableRootError
from repro.core.msta import minimum_spanning_tree_a
from repro.core.mstw import MSTwResult, minimum_spanning_tree_w, prepare_mstw_instance
from repro.datasets.registry import load_dataset
from repro.experiments.workloads import MSTW_WORKLOADS
from repro.parallel import sweep_sharded
from repro.resilience.budget import Budget
from repro.steiner.bounds import combined_lower_bound
from repro.steiner.exact import exact_dst_cost
from repro.steiner.instance import approximation_ratio
from repro.temporal.graph import TemporalGraph
from repro.temporal.paths import reachable_set
from repro.temporal.window import TimeWindow, extract_window
from tracer import duration

#: Roots must reach at least this many other vertices (``|V_r| - 1``).
MIN_TERMINALS = 5

#: Windows drawn per shape while collecting its requests.
MAX_WINDOW_DRAWS = 200

#: The exact Theorem 6 check runs where ``k`` is at most this ...
EXACT_MAX_TERMINALS = 10
#: ... and the Dreyfus-Wagner DP is affordable: about ``n 3^k`` merge
#: plus ``n^2 2^k`` extend operations.  Larger instances are certified
#: against a lower bound on the optimum instead.
EXACT_MAX_WORK = 15 * 10**7

#: Relative slack on cost comparisons (float sums in another order).
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Shape:
    """A dataset at a scale, queried on windows of ``fraction`` of its range."""

    dataset: str
    scale: float
    fraction: float


@dataclass(frozen=True)
class MSTwRequest:
    graph: int
    root: Any
    window: TimeWindow
    level: int


@dataclass(frozen=True)
class SweepRequest:
    graph: int
    root: Any
    window_length: float
    step: float
    #: Index of the window re-checked against cold queries.
    check: int


def _leq(value: float, limit: float) -> bool:
    return value <= limit * (1 + TOLERANCE) + TOLERANCE


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def _eligible_roots(graph: TemporalGraph, window: TimeWindow) -> List[Any]:
    """Roots reaching at least ``MIN_TERMINALS`` others, fewest reached first."""
    reach = {v: len(reachable_set(graph, v, window)) - 1 for v in graph.vertices}
    return sorted((v for v in reach if reach[v] >= MIN_TERMINALS), key=lambda v: (reach[v], repr(v)))


def _stratified(
    rng: random.Random, ordered: Sequence[Any], count: int, stratum: int = 0, strata: int = 1
) -> List[Any]:
    """One random item from each of ``count`` equal slices of ``ordered``.

    Each slice is cut again into ``strata`` equal parts and the item is
    drawn from part ``stratum``.  Sampling roots across the range of
    ``|V_r|``, with the instances of a shape on distinct strata, keeps
    the mix of small and large trees alike from seed to seed.
    """
    count = min(count, len(ordered))
    if count == 0:
        return []
    parts = count * strata
    bounds = [len(ordered) * i // parts for i in range(parts + 1)]
    picked = []
    for part in range(stratum, parts, strata):
        lo, hi = bounds[part], bounds[part + 1]
        # A part is empty when ``ordered`` is shorter than ``parts``;
        # its lower bound still lies inside its slice.
        picked.append(ordered[lo + rng.randrange(max(1, hi - lo))])
    return picked


def _interleave(runs: Sequence[Sequence[Any]]) -> List[Any]:
    """Round-robin over ``runs`` so neighbouring items come from different runs."""
    out: List[Any] = []
    for position in range(max((len(r) for r in runs), default=0)):
        out.extend(r[position] for r in runs if position < len(r))
    return out


def _check_tree(graph: TemporalGraph, tree: Any, root: Any, window: TimeWindow) -> List[str]:
    """Time respect, graph membership and spanning exactly ``V_r``."""
    errors: List[str] = []
    try:
        tree.validate(graph)
    except InvalidTreeError as exc:
        errors.append(f"invalid tree: {exc}")
    reach = reachable_set(graph, root, window)
    if tree.vertices != reach:
        errors.append(
            f"tree spans {len(tree.vertices)} vertices, V_r has {len(reach)} "
            f"({len(reach - tree.vertices)} uncovered)"
        )
    return errors


class MSTwWorkload:
    """Single ``MST_w`` queries over seeded (root, window) pairs."""

    #: The traced span around one request.
    request_span = "core.mstw"

    def __init__(
        self,
        name: str,
        shapes: Tuple[Shape, ...],
        level: int,
        instances: int,
        requests_per_graph: int,
        roots_per_window: int,
        grouped: bool,
    ) -> None:
        self.name = name
        #: Every shape is generated ``instances`` times with distinct
        #: dataset seeds, so no single draw dominates a run.
        self.shapes = tuple(shape for shape in shapes for _ in range(instances))
        self.instances = instances
        self.level = level
        self.requests_per_graph = requests_per_graph
        self.roots_per_window = roots_per_window
        #: Keep a window's roots consecutive (window-cache hits) instead
        #: of interleaving graphs request by request.
        self.grouped = grouped
        self._optimum: Dict[MSTwRequest, Tuple[float, bool]] = {}

    def setup(self, seed: int) -> List[TemporalGraph]:
        return [
            load_dataset(
                shape.dataset, scale=shape.scale,
                seed=seed * self.instances + position % self.instances, weighted=True,
            )
            for position, shape in enumerate(self.shapes)
        ]

    def plan(self, graphs: List[TemporalGraph], seed: int) -> List[MSTwRequest]:
        rng = random.Random(f"{self.name}:{seed}")
        # The instances of a shape draw their roots from distinct strata
        # of the root order, in a seeded order.
        strata = {shape: rng.sample(range(self.instances), self.instances) for shape in dict.fromkeys(self.shapes)}
        per_graph: List[List[List[MSTwRequest]]] = []
        for index, (shape, graph) in enumerate(zip(self.shapes, graphs)):
            t_a, t_end = graph.time_span()
            length = shape.fraction * (t_end - t_a)
            stratum = strata[shape][index % self.instances]
            groups: List[List[MSTwRequest]] = []
            wanted = self.requests_per_graph
            for _attempt in range(MAX_WINDOW_DRAWS):
                if wanted <= 0:
                    break
                start = t_a + rng.uniform(0.25, 0.75) * (t_end - t_a - length)
                window = TimeWindow(start, start + length)
                eligible = _eligible_roots(graph, window)
                roots = _stratified(rng, eligible, min(self.roots_per_window, wanted), stratum, self.instances)
                if roots:
                    groups.append([MSTwRequest(index, r, window, self.level) for r in roots])
                    wanted -= len(roots)
            if not groups:
                raise RuntimeError(f"{shape.dataset}: no window has an eligible root")
            per_graph.append(groups)
        if self.grouped:
            return [req for group in _interleave(per_graph) for req in group]
        return _interleave([[req for group in groups for req in group] for groups in per_graph])

    def run(self, graphs: List[TemporalGraph], request: MSTwRequest, tracer: Any = None) -> MSTwResult:
        """One query; traced runs pass an unlimited budget to count expansions."""
        return minimum_spanning_tree_w(
            graphs[request.graph], request.root, request.window,
            level=request.level, budget=None if tracer is None else Budget.unlimited(),
        )

    @staticmethod
    def weight(answer: MSTwResult) -> float:
        return answer.weight

    def check(self, graphs: List[TemporalGraph], request: MSTwRequest, answer: MSTwResult) -> List[str]:
        graph = graphs[request.graph]
        errors = _check_tree(graph, answer.tree, request.root, request.window)
        if not _leq(answer.tree.total_weight, answer.closure_tree_cost):
            errors.append(
                f"tree weight {answer.tree.total_weight} exceeds closure cost "
                f"{answer.closure_tree_cost}"
            )
        k = answer.num_terminals
        if k <= EXACT_MAX_TERMINALS:
            optimum, exact = self._lower_bound_on_optimum(graph, request)
            limit = approximation_ratio(request.level, k) * optimum
            if not _leq(answer.closure_tree_cost, limit):
                kind = "exact optimum" if exact else "lower bound"
                errors.append(
                    f"closure cost {answer.closure_tree_cost} above ratio x {kind} {limit}"
                )
        return errors

    def _lower_bound_on_optimum(self, graph: TemporalGraph, request: MSTwRequest) -> Tuple[float, bool]:
        """The exact DST optimum where affordable, else a lower bound on it.

        Memoised per request: the plan repeats, the optimum does not change.
        """
        known = self._optimum.get(request)
        if known is None:
            _, prepared = prepare_mstw_instance(graph, request.root, request.window, use_cache=False)
            n, k = prepared.num_vertices, prepared.num_terminals
            if n * 3**k + n * n * 2**k <= EXACT_MAX_WORK:
                known = (exact_dst_cost(prepared), True)
            else:
                known = (combined_lower_bound(prepared), False)
            self._optimum[request] = known
        return known


class SweepWorkload:
    """The sliding forecast: sharded ``MST_a`` then ``MST_w`` sweeps."""

    name = "sweep_forecast"
    request_span = "incremental.forecast"
    #: Dataset instances per seed, slices cut from each, a slice's share
    #: of the time range, and the roots swept on each slice.
    shape = Shape("epinions", 1.0, 0.15)
    instances = 5
    slices_per_instance = 2
    roots_per_slice = 10
    #: The slice holds ``windows`` windows, each ``step_fraction`` of a
    #: window length after the previous one.
    windows = 10
    step_fraction = 0.05
    level = 2

    def __init__(self, jobs: int) -> None:
        #: Worker processes per sharded sweep.
        self.jobs = jobs

    def setup(self, seed: int) -> List[TemporalGraph]:
        rng = random.Random(f"{self.name}:slices:{seed}")
        graphs = []
        for instance in range(self.instances):
            base = load_dataset(
                self.shape.dataset, scale=self.shape.scale,
                seed=seed * self.instances + instance, weighted=True,
            )
            t_a, t_end = base.time_span()
            length = self.shape.fraction * (t_end - t_a)
            for _ in range(self.slices_per_instance):
                start = t_a + rng.random() * (t_end - t_a - length)
                graphs.append(base.restricted(start, start + length))
        return graphs

    def window_length(self, graph: TemporalGraph) -> float:
        t_a, t_end = graph.time_span()
        return (t_end - t_a) / (1 + (self.windows - 1) * self.step_fraction)

    def plan(self, graphs: List[TemporalGraph], seed: int) -> List[SweepRequest]:
        rng = random.Random(f"{self.name}:{seed}")
        runs = []
        for index, graph in enumerate(graphs):
            length = self.window_length(graph)
            t_a = graph.time_span()[0]
            eligible = _eligible_roots(graph, TimeWindow(t_a, t_a + length))
            if not eligible:
                raise RuntimeError(f"slice {index}: no eligible root")
            roots = _stratified(rng, eligible, self.roots_per_slice)
            runs.append(
                [
                    SweepRequest(
                        index, root, length, self.step_fraction * length,
                        rng.randrange(self.windows),
                    )
                    for root in roots
                ]
            )
        return _interleave(runs)

    def run(self, graphs: List[TemporalGraph], request: SweepRequest, tracer: Any = None) -> Tuple[Any, Any]:
        args = (graphs[request.graph], request.root, request.window_length, request.step)
        sweeps = []
        for kind in ("msta", "mstw"):
            if tracer is None:
                sweeps.append(sweep_sharded(*args, kind=kind, level=self.level, jobs=self.jobs))
                continue
            with tracer.span(f"incremental.{kind}_sweep") as span:
                sweeps.append(sweep_sharded(*args, kind=kind, level=self.level, jobs=self.jobs))
            _count_sweep(tracer, sweeps[-1].stats, span)
        msta, mstw = sweeps
        return msta, mstw

    @staticmethod
    def weight(answer: Tuple[Any, Any]) -> float:
        return sum(m.cost for m in answer[1].measurements)

    def check(self, graphs: List[TemporalGraph], request: SweepRequest, answer: Tuple[Any, Any]) -> List[str]:
        graph = graphs[request.graph]
        msta, mstw = answer
        errors: List[str] = []
        if len(msta.measurements) != len(mstw.measurements):
            return [f"{len(msta.measurements)} MST_a windows but {len(mstw.measurements)} MST_w"]
        for sweep in (msta, mstw):
            for m in sweep.measurements:
                if m.tree is not None:
                    errors.extend(_check_tree(graph, m.tree, request.root, m.window))
        j = request.check % len(msta.measurements)
        window = msta.measurements[j].window
        errors.extend(self._check_cold(graph, request.root, window, msta.measurements[j], mstw.measurements[j]))
        return errors

    def _check_cold(self, graph: TemporalGraph, root: Any, window: TimeWindow, msta: Any, mstw: Any) -> List[str]:
        """One window of each sweep against a cold single query."""
        errors: List[str] = []
        active = extract_window(graph, window)
        if root not in active.vertices:
            cold_a = None
        else:
            cold_a = minimum_spanning_tree_a(active, root, window)
        if (cold_a is None) != (msta.tree is None):
            errors.append(f"MST_a window {window}: sweep and cold query disagree on reachability")
        elif cold_a is not None and cold_a.arrival_times != msta.tree.arrival_times:
            errors.append(f"MST_a window {window}: arrival times differ from the cold query")
        try:
            cold_w: Optional[float] = minimum_spanning_tree_w(active, root, window, level=self.level).weight
        except UnreachableRootError:
            cold_w = None
        if cold_w is None:
            if mstw.tree is not None:
                errors.append(f"MST_w window {window}: sweep has a tree, cold query reaches nothing")
        elif not _close(cold_w, mstw.cost):
            errors.append(f"MST_w window {window}: sweep cost {mstw.cost} != cold {cold_w}")
        return errors


def _count_sweep(tracer: Any, stats: Dict[str, Any], span: list) -> None:
    """Fold one sharded sweep's ``SweepResult.stats`` into the tracer.

    Worker processes are not traced: shard busy time and payload size
    come from ``stats["shards"]``, recovery actions from
    ``stats["faults"]``, and dispatch is the sweep's wall time in the
    client minus its slowest shard.
    """
    counters = tracer.counters
    for key in (
        "windows", "incremental_slides", "cold_solves", "patched_prepares",
        "cold_prepares", "warm_solves", "budget_fallbacks",
    ):
        counters[f"sweep.{key}"] += stats.get(key, 0)
    elapsed = [shard["elapsed_s"] for shard in stats["shards"]]
    counters["parallel.sweeps"] += 1
    counters["parallel.shard_busy_s"] += sum(elapsed)
    counters["parallel.dispatch_s"] += duration(span) - max(elapsed)
    counters["parallel.imbalance_sum"] += max(elapsed) / (sum(elapsed) / len(elapsed))
    counters["parallel.payload_bytes"] += sum(shard["payload_bytes"] for shard in stats["shards"])
    counters["parallel.retries"] += sum(stats["faults"].values())


def _deep_shapes() -> Tuple[Shape, ...]:
    """The Table 5 shapes whose pruned solver runs at level 3."""
    return tuple(
        Shape(c.name, c.scale, c.fraction)
        for c in MSTW_WORKLOADS
        if c.pruned_max_level >= 3 and c.name != "facebook"
    )


def build(name: str, cpus: int) -> Any:
    """A fresh workload object by name; sweeps use at most ``cpus`` workers."""
    if name == "mstw_deep":
        return MSTwWorkload(
            name, _deep_shapes(), level=3, instances=20, requests_per_graph=1,
            roots_per_window=1, grouped=False,
        )
    if name == "mstw_wide":
        wide = tuple(Shape(d, 1.5, 0.3) for d in ("epinions", "facebook", "enron"))
        return MSTwWorkload(
            name, wide, level=2, instances=3, requests_per_graph=11,
            roots_per_window=3, grouped=True,
        )
    if name == "sweep_forecast":
        return SweepWorkload(jobs=min(2, cpus))
    raise KeyError(name)

