"""Classical DST heuristics used as extra comparators.

Beyond the paper's three algorithms, two folklore baselines help place
the quality numbers (Tables 7/8) in context:

* :func:`shortest_paths_heuristic` -- buy every terminal its shortest
  path and merge (what Algorithm 3/4/6 degenerate to at ``i = 1``,
  expressed directly over base-graph edges);
* :func:`arborescence_prune_heuristic` -- compute a minimum spanning
  arborescence of the (reachable) graph with Chu-Liu/Edmonds, then
  repeatedly prune non-terminal leaves.

Both return ``(cost, edges)`` over base-graph indices, the same shape
as :func:`repro.steiner.tree.expand_closure_tree`, so they plug into
the validation helpers and benches unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from repro.core.errors import UnreachableRootError
from repro.static.arborescence import minimum_spanning_arborescence
from repro.steiner.instance import PreparedInstance
from repro.steiner.tree import select_in_edges

Edge = Tuple[int, int, float]


def shortest_paths_heuristic(prepared: PreparedInstance) -> Tuple[float, List[Edge]]:
    """Union of shortest root-to-terminal paths, one in-edge per vertex."""
    closure = prepared.closure
    union = [
        edge
        for terminal in prepared.terminals
        for edge in closure.path_edges(prepared.root, terminal)
    ]
    edges = select_in_edges(prepared.root, union, prepared.terminals)
    return sum(w for _, _, w in edges), edges


def arborescence_prune_heuristic(
    prepared: PreparedInstance,
) -> Tuple[float, List[Edge]]:
    """Minimum spanning arborescence of the reachable graph, pruned.

    Chu-Liu/Edmonds spans *every* reachable vertex; non-terminal leaves
    are then peeled off until only root-to-terminal structure remains.
    A classical upper-bound heuristic: cheap, but pays for spanning
    vertices the optimum would skip -- the benches show the greedy
    density algorithms beating it on quality as ``k/|V|`` shrinks.

    Raises
    ------
    UnreachableRootError
        If some terminal is unreachable from the root.
    """
    graph = prepared.instance.graph
    dist = prepared.closure.costs_from(prepared.root)
    reachable: Set[int] = {
        v for v in range(prepared.num_vertices) if math.isfinite(dist[v])
    }
    missing = [t for t in prepared.terminals if t not in reachable]
    if missing:
        raise UnreachableRootError(
            f"{len(missing)} terminals unreachable from the root"
        )
    edges = [
        (u, v, w)
        for u, v, w in graph.iter_edges()
        if u in reachable and v in reachable
    ]
    tree = minimum_spanning_arborescence(edges, prepared.root)

    keep_targets = set(prepared.terminals)
    children: Dict[int, int] = {}
    parent_edge: Dict[int, Edge] = {}
    for u, v, w in tree:
        parent_edge[v] = (u, v, w)
        children[u] = children.get(u, 0) + 1
        children.setdefault(v, children.get(v, 0))
    # Peel non-terminal leaves until fixpoint.
    changed = True
    while changed:
        changed = False
        for v in list(parent_edge):
            if children.get(v, 0) == 0 and v not in keep_targets:
                u, _, _ = parent_edge.pop(v)
                children[u] -= 1
                changed = True
    kept = list(parent_edge.values())
    return sum(w for _, _, w in kept), kept
