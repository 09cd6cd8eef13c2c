"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mstw_deep --seed 1 --seconds 30 --trace 0

One client sends requests in a closed loop: the next request goes out
when the previous answer is back and verified.  ``--trace 0`` times the
untraced pipeline and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes over the same request plan and
reports the per-layer metrics, writing the spans to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object; the lines before it name every
metric with its unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracer import Tracer, hooks

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("mstw_deep", "mstw_wide", "sweep_forecast")

#: Set-ups timed before and after the measured passes; ``setup_s`` is
#: their median.  Timing both ends of the run samples the machine at
#: more than one moment, as the request latencies do.
SETUP_REPS = 4
#: Every untraced run times at least this many requests, so that at
#: least ten samples lie beyond the p90.
MIN_REQUESTS = 100
#: No new pass starts after this much wall time (run must end < 180 s).
WALL_CAP_S = 140.0

#: ``(name, unit)`` of the metrics printed with ``--trace 0`` ...
END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_rps", "requests/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "fraction"),
    ("mstw_weight_sum", "weight"),
)

#: ... and with ``--trace 1``.  Times are per request, counts per pass
#: over the request plan (exact and repeatable for a seed).
PER_LAYER = (
    ("temporal.store_build_s", "s"),
    ("temporal.window.busy_s", "s"),
    ("temporal.window.calls", "count"),
    ("temporal.paths.busy_s", "s"),
    ("core.mstw.self_s", "s"),
    ("core.mstw.prep_share", "fraction"),
    ("core.mstw.solve_share", "fraction"),
    ("core.transformation.busy_s", "s"),
    ("core.transformation.vertices", "count"),
    ("core.transformation.edges", "count"),
    ("core.transformation.cache_hit_ratio", "fraction"),
    ("core.prepare_cache.lookups", "count"),
    ("core.postprocess.busy_s", "s"),
    ("steiner.instance.busy_s", "s"),
    ("steiner.instance.closure_cells", "count"),
    ("steiner.instance.closure_bytes", "bytes_computed"),
    ("steiner.instance.dijkstra_closures", "count"),
    ("steiner.solve.busy_s", "s"),
    ("steiner.solve.calls", "count"),
    ("steiner.solve.expansions", "count"),
    ("steiner.solve.kernel_frac", "fraction"),
    ("incremental.msta_sweep_s", "s"),
    ("incremental.mstw_sweep_s", "s"),
    ("incremental.msta_repair_ratio", "fraction"),
    ("incremental.patch_ratio", "fraction"),
    ("incremental.warm_ratio", "fraction"),
    ("incremental.budget_fallbacks", "count"),
    ("parallel.shard_busy_s", "s"),
    ("parallel.dispatch_s", "s"),
    ("parallel.imbalance", "ratio"),
    ("parallel.payload_bytes", "bytes"),
    ("parallel.retries", "count"),
    ("trace.overhead_frac", "fraction"),
)


def environment() -> int:
    """Check for the sources, cap thread pools and import from ``src``.

    BLAS/OpenMP pools are capped at the usable CPUs before numpy loads.
    Returns that CPU count; exits with status 1 when ``src`` is missing.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {ROOT / 'src'}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cpus:
            os.environ[var] = str(cpus)
    sys.path.insert(0, str(ROOT / "src"))
    return cpus


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished workers."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _reset_caches() -> None:
    """Empty the program's per-process caches so every pass repeats the same work."""
    from repro.core.mstw import clear_prepare_memo
    from repro.core.transformation import clear_transformation_cache

    clear_transformation_cache()
    clear_prepare_memo()


def _cache_counters() -> Dict[str, int]:
    """The transformation cache and prepare memo counters of this process."""
    from repro.core.mstw import prepare_cache_info
    from repro.core.transformation import transformation_cache_info

    counters = {f"cache.transform_{k}": v for k, v in transformation_cache_info().items()}
    counters.update({f"cache.prepare_{k}": v for k, v in prepare_cache_info().items()})
    return counters


def time_setups(workload: Any, seed: int) -> Tuple[List[Any], List[float], List[float]]:
    """``SETUP_REPS`` set-ups: the last graphs, total and store-build seconds.

    One set-up is dataset generation plus the columnar store build.
    """
    totals: List[float] = []
    builds: List[float] = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        graphs = workload.setup(seed)
        generated = time.perf_counter()
        for graph in graphs:
            graph.columnar()
        built = time.perf_counter()
        totals.append(built - start)
        builds.append(built - generated)
    return graphs, totals, builds


def set_up(workload: Any, seed: int) -> Tuple[List[Any], List[Any], List[float], List[float]]:
    """Timed set-ups, then the request plan and one warm-up request.

    Drawing the plan and the warm-up (lazy imports, first-touch
    allocations) are the benchmark's own work and are not timed.
    """
    graphs, totals, builds = time_setups(workload, seed)
    plan = workload.plan(graphs, seed)
    workload.run(graphs, plan[0])
    return graphs, plan, totals, builds


class Loop:
    """Closed-loop passes over the plan, with every answer verified."""

    def __init__(self, workload: Any, graphs: List[Any], plan: List[Any]) -> None:
        self.workload = workload
        self.graphs = graphs
        self.plan = plan
        self.latencies: List[float] = []
        self.failed = 0
        self.weights: List[float] = []
        self.passes = 0

    def run_pass(self, stop: Callable[[], bool] = lambda: False, tracer: Any = None) -> float:
        """One pass (cut short once ``stop()`` holds); returns its timed seconds."""
        _reset_caches()
        timed = 0.0
        for position, request in enumerate(self.plan):
            if tracer is not None:
                tracer.request = position
                caches = _cache_counters()
            start = time.perf_counter()
            try:
                if tracer is None:
                    answer = self.workload.run(self.graphs, request)
                else:
                    # Hooks come off before verification, which calls the
                    # same stage functions.
                    with hooks(tracer), tracer.span(self.workload.request_span):
                        answer = self.workload.run(self.graphs, request, tracer)
                errors: List[str] = []
            except Exception as exc:  # a failed request is counted, the loop goes on
                answer, errors = None, [f"raised {exc!r}"]
            elapsed = time.perf_counter() - start
            timed += elapsed
            self.latencies.append(elapsed)
            if tracer is not None:
                # Read before verification, which makes cache lookups too.
                for key, value in _cache_counters().items():
                    tracer.counters[key] += value - caches[key]
            if answer is not None:
                try:
                    errors = self.workload.check(self.graphs, request, answer)
                except Exception as exc:  # counted like a failed check
                    errors = [f"check raised {exc!r}"]
                weight = self.workload.weight(answer)
                if self.passes == 0:
                    self.weights.append(weight)
                elif weight != self.weights[position]:
                    errors.append(f"weight {weight} differs from first pass {self.weights[position]}")
            elif self.passes == 0:
                self.weights.append(0.0)
            if errors:
                self.failed += 1
                print(f"FAILED request {position} {request}: {'; '.join(errors)}", file=sys.stderr)
            if self.passes > 0 and stop():
                break
        self.passes += 1
        return timed


def measure(workload: Any, graphs: List[Any], plan: List[Any], seconds: float) -> Loop:
    """Untraced passes until ``seconds`` of request time and enough samples."""
    loop = Loop(workload, graphs, plan)
    began = time.perf_counter()

    def enough() -> bool:
        done = sum(loop.latencies) >= seconds and len(loop.latencies) >= MIN_REQUESTS
        return done or time.perf_counter() - began > WALL_CAP_S

    while not (loop.passes and enough()):
        loop.run_pass(enough)
    return loop


def end_to_end(loop: Loop) -> Dict[str, float]:
    """The end-to-end metrics except ``setup_s``, which ``main`` adds."""
    deciles = statistics.quantiles(loop.latencies, n=10, method="inclusive")
    attempted = len(loop.latencies)
    return {
        "latency_p50_s": statistics.median(loop.latencies),
        "latency_p90_s": deciles[8],
        "throughput_rps": attempted / sum(loop.latencies),
        "peak_rss_mb": _peak_rss_mb(),
        "verified_frac": (attempted - loop.failed) / attempted,
        "mstw_weight_sum": sum(loop.weights),
    }


def measure_traced(
    workload: Any, graphs: List[Any], plan: List[Any], seconds: float, trace_path: Path
) -> Tuple[Loop, List[Any], float]:
    """Alternate untraced and traced passes; returns the tracers and the overhead."""
    loop = Loop(workload, graphs, plan)
    tracers: List[Any] = []
    plain = traced = 0.0
    began = time.perf_counter()
    trace_path.parent.mkdir(exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as out:
        while not tracers or (plain + traced < seconds and time.perf_counter() - began < WALL_CAP_S):
            plain += loop.run_pass()
            tracer = Tracer()
            traced += loop.run_pass(tracer=tracer)
            tracer.write_jsonl(out, len(tracers))
            tracers.append(tracer)
    return loop, tracers, traced / plain - 1.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracers: List[Any], overhead: float, plan_size: int) -> Dict[str, float]:
    """Per-layer metrics except ``temporal.store_build_s``, which ``main`` adds.

    Times are per request; counts come from the first traced pass.
    """
    requests = plan_size * len(tracers)
    first = tracers[0]
    counters = first.counters

    def per_request(name: str) -> float:
        return sum(t.busy(name) for t in tracers) / requests

    def total(name: str) -> float:
        return sum(t.busy(name) for t in tracers)

    request_busy = total("core.mstw")
    prep = total("temporal.paths") + total("core.transformation") + total("steiner.instance")
    sweeps = counters["parallel.sweeps"]
    transform_lookups = sum(v for k, v in counters.items() if k.startswith("cache.transform_"))
    return {
        "temporal.window.busy_s": per_request("temporal.window"),
        "temporal.window.calls": first.calls("temporal.window"),
        "temporal.paths.busy_s": per_request("temporal.paths"),
        "core.mstw.self_s": sum(t.self_time("core.mstw") for t in tracers) / requests,
        "core.mstw.prep_share": _ratio(prep, request_busy),
        "core.mstw.solve_share": _ratio(total("steiner.solve"), request_busy),
        "core.transformation.busy_s": per_request("core.transformation"),
        "core.transformation.vertices": counters["core.transformation.vertices"],
        "core.transformation.edges": counters["core.transformation.edges"],
        "core.transformation.cache_hit_ratio": _ratio(counters["cache.transform_hits"], transform_lookups),
        # ``delta_derived`` prepares are counted among the misses.
        "core.prepare_cache.lookups": counters["cache.prepare_hits"] + counters["cache.prepare_misses"],
        "core.postprocess.busy_s": per_request("core.postprocess"),
        "steiner.instance.busy_s": per_request("steiner.instance"),
        "steiner.instance.closure_cells": counters["steiner.instance.closure_cells"],
        "steiner.instance.closure_bytes": counters["steiner.instance.closure_bytes"],
        "steiner.instance.dijkstra_closures": counters["steiner.instance.dijkstra_closures"],
        "steiner.solve.busy_s": per_request("steiner.solve"),
        "steiner.solve.calls": first.calls("steiner.solve"),
        "steiner.solve.expansions": counters["steiner.solve.expansions"],
        "steiner.solve.kernel_frac": _ratio(
            sum(t.counters["steiner.kernel_s"] for t in tracers), total("steiner.solve")
        ),
        "incremental.msta_sweep_s": per_request("incremental.msta_sweep"),
        "incremental.mstw_sweep_s": per_request("incremental.mstw_sweep"),
        "incremental.msta_repair_ratio": _ratio(
            counters["sweep.incremental_slides"], counters["sweep.incremental_slides"] + counters["sweep.cold_solves"]
        ),
        "incremental.patch_ratio": _ratio(
            counters["sweep.patched_prepares"], counters["sweep.patched_prepares"] + counters["sweep.cold_prepares"]
        ),
        "incremental.warm_ratio": _ratio(
            counters["sweep.warm_solves"], counters["sweep.patched_prepares"] + counters["sweep.cold_prepares"]
        ),
        "incremental.budget_fallbacks": counters["sweep.budget_fallbacks"],
        "parallel.shard_busy_s": sum(t.counters["parallel.shard_busy_s"] for t in tracers) / requests,
        "parallel.dispatch_s": sum(t.counters["parallel.dispatch_s"] for t in tracers) / requests,
        "parallel.imbalance": _ratio(counters["parallel.imbalance_sum"], sweeps),
        "parallel.payload_bytes": counters["parallel.payload_bytes"],
        "parallel.retries": counters["parallel.retries"],
        "trace.overhead_frac": overhead,
    }


def _report(values: Dict[str, float], units: Tuple[Tuple[str, str], ...]) -> Dict[str, Dict[str, Any]]:
    metrics = {}
    for name, unit in units:
        value = values[name]
        print(f"{name:40s} {value:>16.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpus = environment()
    import workloads

    workload = workloads.build(args.workload, cpus)
    graphs, plan, totals, builds = set_up(workload, args.seed)
    if args.trace:
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        loop, tracers, overhead = measure_traced(workload, graphs, plan, args.seconds, trace_path)
        values = per_layer(tracers, overhead, len(plan))
        units = PER_LAYER
    else:
        loop = measure(workload, graphs, plan, args.seconds)
        values = end_to_end(loop)
        units = END_TO_END
    _, more_totals, more_builds = time_setups(workload, args.seed)
    values["setup_s"] = statistics.median(totals + more_totals)
    values["temporal.store_build_s"] = statistics.median(builds + more_builds)
    attempted = len(loop.latencies)
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests over {loop.passes} passes "
          f"of {len(plan)}, {loop.failed} failed verification (failed_frac {loop.failed / attempted:.6g})")
    metrics = _report(values, units)
    print(json.dumps({"correct": loop.failed == 0, "attempted": attempted, "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
