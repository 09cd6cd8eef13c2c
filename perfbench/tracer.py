"""In-memory span tracer and the hooks that attach it to the pipeline.

A span is ``[span_id, parent_id, request_id, name, start, end]``; spans
live in a list until the run ends and are then written out as JSONL.
Leaf kernels that run thousands of times per request are folded into
time accumulators instead of spans, so the trace stays small.

The hooks wrap the stage functions where the program looks them up
(module attributes and class methods) for the duration of a traced
pass and restore them afterwards.  A hook whose target no longer exists
stops the run, so no layer is reported that was never measured.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import IO, Any, Callable, Dict, Iterator, List, Optional

_ID, _PARENT, _REQUEST, _NAME, _START, _END = range(6)


def duration(span: list) -> float:
    """Seconds between a closed span's start and end."""
    return span[_END] - span[_START]


class Tracer:
    """Spans, per-layer counters and kernel time accumulators."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request: Optional[int] = None
        self._stack: List[list] = []

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Record ``name`` as a child of the innermost open span."""
        parent = self._stack[-1][_ID] if self._stack else None
        record = [len(self.spans), parent, self.request, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``fn`` inside a ``name`` span; ``observe`` sees its arguments and result.

        A call made while a span of the same name is already innermost
        (one extraction helper calling another) is not recorded again.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._stack and self._stack[-1][_NAME] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def accumulate(self, counter: str, fn: Callable) -> Callable:
        """``fn`` with its wall time added to ``counters[counter]``."""
        counters = self.counters

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[counter] += time.perf_counter() - start

        return timed

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def busy(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s[_END] - s[_START] for s in self.spans if s[_NAME] == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus that of their direct children."""
        ids = {s[_ID] for s in self.spans if s[_NAME] == name}
        total = sum(s[_END] - s[_START] for s in self.spans if s[_ID] in ids)
        children = sum(s[_END] - s[_START] for s in self.spans if s[_PARENT] in ids)
        return total - children

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[_NAME] == name)

    def write_jsonl(self, out: IO[str], trace_pass: int) -> None:
        """Append the spans as JSON lines tagged with ``trace_pass``."""
        for s in self.spans:
            out.write(
                json.dumps(
                    {
                        "pass": trace_pass,
                        "id": s[_ID],
                        "parent": s[_PARENT],
                        "request": s[_REQUEST],
                        "name": s[_NAME],
                        "start": s[_START],
                        "end": s[_END],
                    }
                )
                + "\n"
            )


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
def _count_transformed(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["core.transformation.vertices"] += result.num_vertices
    tracer.counters["core.transformation.edges"] += result.num_edges


#: Bytes per closure cell: a float64 distance plus an int32
#: predecessor (Dijkstra closure) or next hop (DAG closure).
CLOSURE_CELL_BYTES = 8 + 4


def _count_closure(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    cells = result.closure.dist.size
    tracer.counters["steiner.instance.closure_cells"] += cells
    tracer.counters["steiner.instance.closure_bytes"] += cells * CLOSURE_CELL_BYTES
    # The DAG closure serves acyclic expansions; anything else took the
    # one-Dijkstra-per-vertex path.
    if type(result.closure).__name__ != "DagMetricClosure":
        tracer.counters["steiner.instance.dijkstra_closures"] += 1


def _solver(tracer: Tracer, fn: Callable) -> Callable:
    """The DST solver in a span, counting the budget's expansions."""
    span_fn = tracer.wrap("steiner.solve", fn)

    def solve(*args: Any, **kwargs: Any) -> Any:
        budget = kwargs.get("budget")
        before = budget.expansions if budget is not None else 0
        result = span_fn(*args, **kwargs)
        if budget is not None:
            tracer.counters["steiner.solve.expansions"] += budget.expansions - before
        return result

    return solve


#: ``(module, attribute, span name, observer)`` for the stage functions
#: ``minimum_spanning_tree_w`` calls, wrapped where it looks them up.
_STAGES = (
    ("repro.core.mstw", "reachable_set", "temporal.paths", None),
    ("repro.core.mstw", "transform_temporal_graph", "core.transformation", _count_transformed),
    ("repro.core.mstw", "prepare_instance", "steiner.instance", _count_closure),
    ("repro.core.mstw", "closure_tree_to_temporal", "core.postprocess", None),
)

#: Window extraction on the columnar store (``repro.temporal``).
_WINDOW_METHODS = (
    "ColumnarEdgeStore.window_positions",
    "ColumnarEdgeStore.window_positions_graph_order",
    "ColumnarEdgeStore.time_slice_columns",
    "ColumnarEdgeStore.delta_positions",
)

#: Vectorised DST kernels (``repro.steiner.kernels``), timed as a leaf.
_KERNELS = (
    "pruned_scan",
    "materialize_prefix",
    "best_prefix_candidate",
    "PrunedScan.begin",
    "PrunedScan.step",
)


@contextmanager
def hooks(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced stage for the duration of the block."""
    with ExitStack() as stack:

        def attach(module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
            *parents, leaf = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError) as exc:
                raise SystemExit(f"error: cannot hook {module_name}.{path}: {exc}") from exc
            setattr(owner, leaf, make(original))
            stack.callback(setattr, owner, leaf, original)

        for module_name, path, name, observe in _STAGES:
            attach(module_name, path, lambda fn, n=name, o=observe: tracer.wrap(n, fn, o))
        for path in _WINDOW_METHODS:
            attach("repro.temporal.columnar", path, lambda fn: tracer.wrap("temporal.window", fn))
        for path in _KERNELS:
            attach("repro.steiner.kernels", path, lambda fn: tracer.accumulate("steiner.kernel_s", fn))
        try:
            solvers = importlib.import_module("repro.core.mstw")._SOLVERS
        except (ImportError, AttributeError) as exc:
            raise SystemExit(f"error: cannot hook repro.core.mstw._SOLVERS: {exc}") from exc
        for key, fn in list(solvers.items()):
            solvers[key] = _solver(tracer, fn)
            stack.callback(solvers.__setitem__, key, fn)
        yield tracer
