"""Trees over the transitive closure and their density bookkeeping.

The greedy DST algorithms assemble trees whose edges are *closure*
edges ``(u, v)`` -- each standing for a shortest path in the underlying
graph.  :class:`ClosureTree` tracks the edge multiset, the total cost,
and which terminals are covered; ``density`` is the paper's
``den(T) = cost(T) / k(T)``.

:func:`expand_closure_tree` is postprocessing Step 1: closure edges are
replaced by their shortest paths in the base graph and every vertex
keeps a single incoming edge (:func:`select_in_edges`), producing a
genuine tree whose cost never exceeds the closure tree's cost.
"""

from __future__ import annotations

import heapq
import math
from typing import Collection, Dict, FrozenSet, List, Tuple

from repro.steiner.instance import PreparedInstance


class ClosureTree:
    """An immutable tree fragment over closure edges.

    Attributes
    ----------
    edges:
        ``(u, v)`` closure-edge pairs in selection order.
    cost:
        Total closure cost (sum of shortest-path weights).
    covered:
        The terminals covered by this fragment.
    """

    __slots__ = ("edges", "cost", "covered")

    EMPTY: "ClosureTree"

    def __init__(
        self,
        edges: Tuple[Tuple[int, int], ...] = (),
        cost: float = 0.0,
        covered: FrozenSet[int] = frozenset(),
    ) -> None:
        self.edges = edges
        self.cost = cost
        self.covered = covered

    @property
    def num_covered(self) -> int:
        return len(self.covered)

    @property
    def density(self) -> float:
        """``den(T) = cost(T) / k(T)``; infinite for an empty cover."""
        if not self.covered:
            return math.inf
        return self.cost / len(self.covered)

    def density_with_edge(self, edge_cost: float) -> float:
        """``den(T ∪ e)`` for an incoming edge of cost ``edge_cost``."""
        if not self.covered:
            return math.inf
        return (self.cost + edge_cost) / len(self.covered)

    def merged(self, other: "ClosureTree") -> "ClosureTree":
        """The union ``T ∪ T'`` (costs add; covers union)."""
        return ClosureTree(
            self.edges + other.edges,
            self.cost + other.cost,
            self.covered | other.covered,
        )

    def with_edge(self, u: int, v: int, w: float) -> "ClosureTree":
        """The tree extended by closure edge ``(u, v)`` of cost ``w``."""
        return ClosureTree(self.edges + ((u, v),), self.cost + w, self.covered)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClosureTree(cost={self.cost:g}, covered={len(self.covered)}, "
            f"edges={len(self.edges)})"
        )


ClosureTree.EMPTY = ClosureTree()


def leaf_tree(prepared: PreparedInstance, root: int, terminal: int) -> ClosureTree:
    """The single-closure-edge tree ``root -> terminal``."""
    return ClosureTree(
        ((root, terminal),),
        prepared.cost(root, terminal),
        frozenset((terminal,)),
    )


def expand_closure_tree(
    prepared: PreparedInstance,
    tree: ClosureTree,
) -> Tuple[float, List[Tuple[int, int, float]]]:
    """Postprocessing Step 1: expand closure edges into base-graph edges.

    (a) every closure edge is replaced by its shortest path in the base
    graph; (b) every vertex keeps one incoming edge of that union
    (:func:`select_in_edges`), so the tree still reaches every terminal
    ``tree`` covers.  The result is ``(cost, edges)`` with ``edges`` as
    ``(u, v, w)`` triples over base-graph indices; the cost never
    exceeds ``tree.cost``.
    """
    closure = prepared.closure
    union = [
        edge
        for u, v in tree.edges
        if u != v
        for edge in closure.path_edges(u, v)
    ]
    edges = select_in_edges(prepared.root, union, tree.covered)
    total = sum(w for _, _, w in edges)
    return total, edges


def select_in_edges(
    root: int,
    union: List[Tuple[int, int, float]],
    required: Collection[int],
) -> List[Tuple[int, int, float]]:
    """One incoming edge per vertex of a union of expanded paths.

    Every vertex keeps its cheapest in-edge (first one on ties) when
    that selection still reaches all of ``required`` from ``root``.  On
    a base graph with cycles it need not: two paths crossing in opposite
    directions can hand each other's vertices their cheapest in-edges
    and close a cycle that no root path enters.  The in-edges are then
    rebuilt as a shortest-path tree over the union, grown from
    ``root``.  Both selections are subsets of the union, so their cost
    never exceeds the union's, nor the closure cost it expanded.
    """
    best_in: Dict[int, Tuple[int, float]] = {}
    for a, b, w in union:
        current = best_in.get(b)
        if current is None or w < current[1]:
            best_in[b] = (a, w)
    edges = [(a, b, w) for b, (a, w) in best_in.items()]
    if _reaches_all(root, edges, required):
        return edges
    return _shortest_path_tree(root, union)


def _reaches_all(
    root: int, edges: List[Tuple[int, int, float]], required: Collection[int]
) -> bool:
    """Whether ``edges`` hold a path from ``root`` to every ``required``."""
    adjacency: Dict[int, List[int]] = {}
    for u, v, _ in edges:
        adjacency.setdefault(u, []).append(v)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adjacency.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return all(t in seen for t in required)


def _shortest_path_tree(
    root: int, union: List[Tuple[int, int, float]]
) -> List[Tuple[int, int, float]]:
    """Dijkstra over ``union`` from ``root``: the tree's in-edges.

    Edges come out in settle order; ties keep the first relaxing edge
    in ``union`` order, so the result is deterministic.
    """
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for a, b, w in union:
        adjacency.setdefault(a, []).append((b, w))
    dist: Dict[int, float] = {root: 0.0}
    parent: Dict[int, Tuple[int, float]] = {}
    settled = set()
    tree: List[Tuple[int, int, float]] = []
    heap: List[Tuple[float, int, int]] = [(0.0, 0, root)]
    pushes = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u != root:
            a, w = parent[u]
            tree.append((a, u, w))
        for v, w in adjacency.get(u, ()):
            if v not in settled and d + w < dist.get(v, math.inf):
                dist[v] = d + w
                parent[v] = (u, w)
                heapq.heappush(heap, (d + w, pushes, v))
                pushes += 1
    return tree


def validate_covering_tree(
    prepared: PreparedInstance,
    edges: List[Tuple[int, int, float]],
) -> bool:
    """Check that ``edges`` contain a path from the root to each terminal.

    Used by tests to confirm the expanded structure actually covers the
    terminal set (Theorem 5's requirement on the DST result).
    """
    return _reaches_all(prepared.root, edges, prepared.terminals)
