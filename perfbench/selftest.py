"""Self-test of the benchmark's determinism and of its declared metrics.

    python3 perfbench/selftest.py

For each workload, one untraced and one traced pass run twice with the
same seed.  The exact counts of the traced pass and ``mstw_weight_sum``
must be identical across the two runs.  Another seed must draw other
inputs.  The metric names and units must match ``BENCHMARK.json``.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Tuple

from run import END_TO_END, PER_LAYER, ROOT, WORKLOADS, environment, measure_traced, per_layer, set_up

#: Per-layer units that are exact counts, repeatable for a seed.
EXACT_UNITS = ("count", "bytes", "bytes_computed")


def _run(name: str, seed: int, cpus: int, traced: bool) -> Tuple[Any, Dict[str, float]]:
    """The drawn inputs and, for a traced run, its exact counts."""
    import workloads

    workload = workloads.build(name, cpus)
    graphs, plan, _, _ = set_up(workload, seed)
    inputs = (repr(plan), tuple(tuple(graph.edges) for graph in graphs))
    if not traced:
        return inputs, {}
    trace_path = ROOT / ".bench_out" / f"selftest-{name}-seed{seed}.jsonl"
    loop, tracers, overhead = measure_traced(workload, graphs, plan, 0.0, trace_path)
    values = per_layer(tracers, overhead, len(plan))
    units = dict(PER_LAYER)
    counts = {k: v for k, v in values.items() if units[k] in EXACT_UNITS}
    counts["mstw_weight_sum"] = sum(loop.weights)
    counts["failed"] = loop.failed
    return inputs, counts


def _check_declaration() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        pairs = [(m["name"], m["unit"]) for m in declared[key]]
        if pairs != list(emitted):
            raise SystemExit(f"BENCHMARK.json {key} differs from what run.py prints")
    names = tuple(w["name"] for w in declared["workloads"])
    if names != WORKLOADS:
        raise SystemExit(f"BENCHMARK.json workloads {names} differ from {WORKLOADS}")


def main() -> int:
    cpus = environment()
    _check_declaration()
    for name in WORKLOADS:
        inputs, first = _run(name, 1, cpus, traced=True)
        again, second = _run(name, 1, cpus, traced=True)
        if inputs != again:
            raise SystemExit(f"{name}: seed 1 drew different inputs twice")
        if first != second:
            diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
            raise SystemExit(f"{name}: counts differ between two seed-1 runs: {diff}")
        other, _ = _run(name, 2, cpus, traced=False)
        if other[0] == inputs[0] or other[1] == inputs[1]:
            raise SystemExit(f"{name}: seeds 1 and 2 drew the same plan or the same graphs")
        print(f"{name}: ok ({len(first)} exact counts, mstw_weight_sum {first['mstw_weight_sum']:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
