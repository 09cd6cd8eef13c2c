"""Batched density kernels for the DST solver ladder.

Every w-iteration of Algorithms 3/4/5/6 answers the same question: over
all candidate vertices ``v`` and all prefix lengths ``j`` of the
cheapest-first remaining-terminal order from ``v``, which pair minimises
``(prefix_cost_j(v) + cost(r, v)) / j``?  The scalar solvers answer it
with nested Python loops over the per-source memo lists; this module
answers it with one batched pass:

* the metric closure's dense ``(n, n)`` cost matrix is sliced to an
  ``(n, T)`` terminal block and cost-sorted once per instance (stable
  argsort over ascending terminal columns, reproducing the
  ``(cost, index)`` tie-break of
  :meth:`repro.steiner.instance.PreparedInstance.sorted_terminals_from`
  exactly);
* per scan, the uncovered-terminal bitmask gathers into the sorted
  layout, ``cumsum`` produces every prefix cost and count, and a single
  flattened ``argmin`` over the ``(n, T)`` density matrix picks the
  winner -- row-major first occurrence, which is exactly the scalar
  scan's ``v``-ascending, ``j``-ascending strict-``<`` tie-break.

The results are *bit*-identical to the scalar scans, not merely close:
``cumsum`` accumulates left to right like the scalar running sum (the
masked-out ``+ 0.0`` terms cannot change a non-negative float64), the
density division performs the same float64 operations, and the winning
subtree is materialised with the same construction the scalar code
used.  ``(0, 0, inf)`` is the all-infeasible convention; each solver
maps it back to its own scalar behaviour (Algorithm 4 keeps the empty
subtree, Algorithm 3 covers one unreachable terminal and continues).

Backend discipline (PR 7): :func:`workspace_for` consults
``active_backend()``, so ``force_backend()`` and ``REPRO_FORCE_PURE``
route every scan through the pure path, which runs the same scalar
arithmetic over per-vertex sorted cost columns and returns the same
winner.  This module is the second owner of the ``_np`` discipline
after :mod:`repro.temporal.columnar` (REP203): the numpy-only helpers
dereference ``_np`` without per-function guards, which is why the
backend-purity owner set lists this module.

Dispatch rule, shared by all three solvers: every ``i == 2`` scan runs
here on a real ``PreparedInstance``.  The top-level scan (``level ==
2``) is gated by :data:`KERNEL_MIN_CELLS`; a *nested* scan -- the
level-2 scans the ``i >= 3`` recursion repeats for every candidate
vertex of the level above -- ignores the floor, because it runs
``O(n)`` times per enclosing w-iteration and the batched pass beats
the scalar loop even on small instances.  Deeper levels keep their
per-vertex loops over these batched level-2 scans.

Budget policy stays in the solver modules: callers batch the identical
tick totals (``budget.checkpoint(amount)``) at iteration boundaries, so
a rung trips on exactly the same w-iteration as the scalar scan did.
Instrumentation proxies (``CountingInstance``) are not
``PreparedInstance`` objects, so :func:`workspace_for` declines them
and the solvers keep their scalar loops for those runs.
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.steiner.instance import PreparedInstance
from repro.steiner.tree import ClosureTree
from repro.temporal.columnar import active_backend

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None  # type: ignore[assignment]

#: Smallest ``num_vertices * num_terminals`` for which the batched
#: kernels engage on a *top-level* scan (nested scans inside the
#: ``i >= 3`` recursion ignore it).  Below this floor the per-call
#: numpy dispatch overhead exceeds the scalar loops' whole runtime --
#: and, worse, flattens the *relative* costs of the quick level-2
#: table (a vectorised Charikar scan and a vectorised pruned scan cost
#: the same handful of array ops on a toy instance, erasing the pruning
#: gap of Table 5) -- so tiny level-2 solves keep the scalar paths,
#: whose output is bit-identical anyway.  Only that level-2 ordering is
#: protected: the quick level-3 instances of Table 7 run their nested
#: scans on the kernels for both solvers.  Tests that want the kernel
#: paths on small fixtures monkeypatch this to 0.
KERNEL_MIN_CELLS = 4096

#: Walk positions the pruned scan evaluates one-by-one in Python before
#: switching to batched chunks (the first w-iteration of a scan skips
#: the head: it evaluates every row in one pass).  After it, the
#: tau-ordered walk usually breaks within a handful of vertices, and a
#: short scalar prefix scan (over the LRU-memoised sorted rows) costs
#: far less than even one numpy dispatch at that length.
PRUNED_SCALAR_HEAD = 16

#: First batched chunk of the pruned scan once the scalar head is
#: exhausted; later chunks quadruple (:data:`PRUNED_CHUNK_GROWTH`) so a
#: break-free walk covers all ``n`` rows in ``O(log n)`` batched passes
#: while the wasted work past a late break point stays bounded by the
#: last chunk.
PRUNED_CHUNK = 32

#: Growth factor between successive chunks of one pruned scan.
PRUNED_CHUNK_GROWTH = 4


class KernelWorkspace:
    """Per-instance, per-backend sorted-column state for the batched scans.

    numpy backend: ``sorted_costs``/``sorted_ids`` are ``(n, T)``
    float64/int64 arrays holding, for every source vertex, the closure
    costs to all terminals in ascending ``(cost, index)`` order.  pure
    backend: the same columns as per-vertex Python lists, built lazily
    from the instance memos and kept for the workspace's lifetime (the
    pure scans are the fallback CI leg, not the perf path).

    Workspaces are memoised on ``PreparedInstance._kernels`` keyed by
    backend name, so a ``force_backend()`` switch mid-process builds a
    fresh one instead of mixing layouts.
    """

    __slots__ = (
        "backend",
        "num_vertices",
        "num_terminals",
        "sorted_costs",
        "sorted_ids",
        "_pure_rows",
    )

    def __init__(self, prepared: PreparedInstance, backend: str) -> None:
        self.backend = backend
        self.num_vertices = prepared.num_vertices
        self.num_terminals = len(prepared.terminals)
        self.sorted_costs: Any = None
        self.sorted_ids: Any = None
        self._pure_rows: Dict[int, Tuple[List[float], Tuple[int, ...]]] = {}
        if backend == "numpy":
            cols = _np.asarray(sorted(prepared.terminals), dtype=_np.int64)
            block = prepared.closure.dist[:, cols]
            # Stable sort over ascending-index columns == the scalar
            # ``(cost, index)`` tie-break of sorted_terminals_from.
            order = _np.argsort(block, axis=1, kind="stable")
            self.sorted_costs = _np.take_along_axis(block, order, axis=1)
            self.sorted_ids = cols[order]

    def pure_row(
        self, prepared: PreparedInstance, source: int
    ) -> Tuple[List[float], Tuple[int, ...]]:
        """``source``'s terminal costs in sorted order, plus the order."""
        row = self._pure_rows.get(source)
        if row is None:
            costs = prepared.cost_row(source)
            ids = prepared.sorted_terminals_from(source)
            row = ([costs[x] for x in ids], ids)
            self._pure_rows[source] = row
        return row


def workspace_for(
    prepared: object, nested: bool = False
) -> Optional[KernelWorkspace]:
    """The memoised workspace for ``prepared``, or None to stay scalar.

    Returns None for non-:class:`PreparedInstance` inputs (the
    instrumentation proxies must keep exercising the scalar loops they
    count), for terminal-free instances (nothing to scan), and for
    top-level scans of instances below the :data:`KERNEL_MIN_CELLS`
    size floor (where one scalar scan is faster than the numpy dispatch
    overhead).  ``nested`` marks a level-2 scan inside the ``i >= 3``
    recursion, which takes the kernels at any size.
    """
    if not isinstance(prepared, PreparedInstance):
        return None
    if not prepared.terminals:
        return None
    if (
        not nested
        and prepared.num_vertices * len(prepared.terminals) < KERNEL_MIN_CELLS
    ):
        return None
    backend = active_backend()
    if backend == "numpy" and _np is None:  # pragma: no cover - defensive
        backend = "pure"
    cache = prepared._kernels
    workspace = cache.get(backend)
    if workspace is None:
        workspace = KernelWorkspace(prepared, backend)
        cache[backend] = workspace
    assert isinstance(workspace, KernelWorkspace)
    return workspace


def best_prefix_candidate(
    prepared: PreparedInstance,
    workspace: KernelWorkspace,
    k: int,
    remaining: FrozenSet[int],
    source: int,
) -> Tuple[int, int, float]:
    """The scalar scan's winner ``(vertex, prefix_length, density)``.

    Evaluates, for every vertex ``v`` and every prefix length
    ``j <= k`` of the remaining-filtered sorted terminal order from
    ``v``, the density ``(prefix_cost + cost(source, v)) / j``, and
    returns the row-major first occurrence of the minimum -- identical
    to the scalar strict-``<`` winner.  ``(0, 0, inf)`` means no finite
    candidate exists.
    """
    if workspace.backend == "numpy":
        return _best_candidate_numpy(prepared, workspace, k, remaining, source)
    return _best_candidate_pure(prepared, workspace, k, remaining, source)


def _remaining_mask(num_vertices: int, remaining: FrozenSet[int]) -> Any:
    """A boolean scatter mask of the remaining terminals (numpy only)."""
    mask = _np.zeros(num_vertices, dtype=bool)
    mask[list(remaining)] = True
    return mask


def _density_block(
    workspace: KernelWorkspace,
    rows: Any,
    incoming: Any,
    remaining_mask: Any,
    k: int,
) -> Tuple[Any, Any]:
    """Densities and prefix counts for a block of source rows.

    ``rows`` indexes the workspace's sorted layout (None for all rows);
    returns ``(densities, counts)`` with infeasible entries (terminal
    already covered, or prefix longer than ``k``) set to ``inf``.
    """
    if rows is None:
        sorted_costs = workspace.sorted_costs
        sorted_ids = workspace.sorted_ids
    else:
        sorted_costs = workspace.sorted_costs[rows]
        sorted_ids = workspace.sorted_ids[rows]
    mask = remaining_mask[sorted_ids]
    counts = _np.cumsum(mask, axis=1)
    prefix_costs = _np.cumsum(_np.where(mask, sorted_costs, 0.0), axis=1)
    densities = (prefix_costs + incoming[:, None]) / _np.maximum(counts, 1)
    densities[~(mask & (counts <= k))] = _np.inf
    return densities, counts


def _best_candidate_numpy(
    prepared: PreparedInstance,
    workspace: KernelWorkspace,
    k: int,
    remaining: FrozenSet[int],
    source: int,
) -> Tuple[int, int, float]:
    incoming = prepared.closure.costs_from(source)
    rmask = _remaining_mask(workspace.num_vertices, remaining)
    densities, counts = _density_block(workspace, None, incoming, rmask, k)
    flat = int(_np.argmin(densities))
    vertex, position = divmod(flat, workspace.num_terminals)
    density = float(densities[vertex, position])
    if math.isinf(density):
        return 0, 0, math.inf
    return vertex, int(counts[vertex, position]), density


def _best_candidate_pure(
    prepared: PreparedInstance,
    workspace: KernelWorkspace,
    k: int,
    remaining: FrozenSet[int],
    source: int,
) -> Tuple[int, int, float]:
    incoming_row = prepared.cost_row(source)
    best_vertex = 0
    best_length = 0
    best_density = math.inf
    for vertex in range(workspace.num_vertices):
        incoming = incoming_row[vertex]
        costs, ids = workspace.pure_row(prepared, vertex)
        chosen = 0
        cost = 0.0
        for position, terminal in enumerate(ids):
            if chosen >= k:
                break
            if terminal not in remaining:
                continue
            chosen += 1
            cost += costs[position]
            density = (cost + incoming) / chosen
            if density < best_density:
                best_vertex = vertex
                best_length = chosen
                best_density = density
    if best_length == 0:
        return 0, 0, math.inf
    return best_vertex, best_length, best_density


def materialize_prefix(
    prepared: PreparedInstance,
    source: int,
    remaining: FrozenSet[int],
    length: int,
) -> ClosureTree:
    """The winning prefix subtree, built exactly as the scalar code does.

    ``length`` first remaining terminals of the sorted order from
    ``source``, cost re-summed left to right -- the same edges, cost
    float, and cover the scalar base case constructs.
    """
    row = prepared.cost_row(source)
    chosen: List[int] = []
    for terminal in prepared.sorted_terminals_from(source):
        if len(chosen) >= length:
            break
        if terminal not in remaining:
            continue
        chosen.append(terminal)
    cost = 0.0
    for terminal in chosen:
        cost += row[terminal]
    return ClosureTree(
        tuple((source, terminal) for terminal in chosen),
        cost,
        frozenset(chosen),
    )


class PrunedScan:
    """Vectorised tau-ordered vertex walk for Algorithm 6 (numpy only).

    One ``PrunedScan`` lives for the whole w-iteration loop of a
    ``FinalA^2``/``FinalB^2`` call and owns the scalar walk's evolving
    state as arrays: ``tau`` (stale branch densities, ``-inf``
    initially) and the walk order (re-sorted by stale ``tau`` at
    :meth:`begin`, via a stable argsort -- the same permutation as the
    scalar ``order.sort(key=tau.__getitem__)``).

    The first w-iteration of a scan is a *fresh* walk: every ``tau`` is
    still ``-inf``, so the early break cannot fire and the walk visits
    every vertex in index order.  :meth:`step` evaluates it as one
    batched chunk over all ``n`` rows.

    Later w-iterations replay the scalar walk hybrid-style.  The first
    :data:`PRUNED_SCALAR_HEAD` walk positions are evaluated one vertex
    per step with the scalar prefix scan (over the instance's memoised
    sorted rows): after the first w-iteration the early break almost
    always fires here, and a handful of Python evaluations beat any
    numpy dispatch.  A walk that survives the head switches to batched
    chunks of geometrically growing size, replaying the remaining walk
    with array ops:

    * the early break fires at the first walk position whose stale
      ``tau`` is ``>=`` the running best density over the *evaluated*
      positions before it (an exclusive ``minimum.accumulate`` seeded
      with the carry from earlier steps);
    * warm-bound skips (``root_row[v] >= bound_cost``) are a mask --
      skipped positions get no tau update, no ticks, and contribute
      ``inf`` to the running best, but their stale ``tau`` can still
      trigger the break, exactly as in the scalar walk;
    * the winner is the first evaluated position achieving the minimum
      density (first occurrence == the scalar strict-``<`` update), or
      the first evaluated position at all when every density is
      ``inf``.

    Budget policy stays in the solver: ``step`` returns the tick total
    it consumed (two per evaluated vertex, the scalar scan tick plus
    the ``FinalB^1`` base tick) and the caller checkpoints it, so a
    rung trips on the same w-iteration as the scalar walk.
    """

    __slots__ = (
        "_prepared",
        "_workspace",
        "_incoming",
        "_tau",
        "_walk",
        "_k",
        "_remaining",
        "_rmask",
        "_bound_cost",
        "_cursor",
        "_chunk",
        "_done",
        "_fresh",
        "best_vertex",
        "best_length",
        "best_density",
    )

    def __init__(
        self, prepared: PreparedInstance, workspace: KernelWorkspace, source: int
    ) -> None:
        self._prepared = prepared
        self._workspace = workspace
        self._incoming = prepared.closure.costs_from(source)
        self._tau = _np.full(workspace.num_vertices, -_np.inf)
        self._walk = _np.arange(workspace.num_vertices, dtype=_np.int64)
        self._k = 0
        self._remaining: FrozenSet[int] = frozenset()
        self._rmask: Any = None
        self._bound_cost: Optional[float] = None
        self._cursor = 0
        self._chunk = PRUNED_CHUNK
        self._done = True
        self._fresh = True
        self.best_vertex: Optional[int] = None
        self.best_length = 0
        self.best_density = math.inf

    def begin(
        self, k: int, remaining: FrozenSet[int], bound_cost: Optional[float]
    ) -> None:
        """Start one w-iteration's walk over the stale-tau order."""
        # Stable argsort of the previous walk order by stale tau == the
        # scalar ``order.sort(key=tau.__getitem__)`` permutation.
        self._walk = self._walk[_np.argsort(self._tau[self._walk], kind="stable")]
        self._k = k
        self._remaining = remaining
        self._rmask = None  # built lazily: only the chunked steps need it
        self._bound_cost = bound_cost
        self._cursor = 0
        self._chunk = PRUNED_CHUNK
        self._done = False
        self.best_vertex = None
        self.best_length = 0
        self.best_density = math.inf

    def step(self) -> Optional[int]:
        """Walk one step; the budget ticks consumed, or None when done."""
        if self._done or self._cursor >= len(self._walk):
            self._done = True
            return None
        if self._fresh:
            # All tau are -inf, so no break fires: one chunk of all n rows.
            self._fresh = False
            self._chunk = len(self._walk)
            return self._step_chunk(fresh=True)
        if self._cursor < PRUNED_SCALAR_HEAD:
            return self._step_scalar()
        return self._step_chunk()

    def _step_scalar(self) -> Optional[int]:
        """One scalar-head walk position: the per-vertex prefix scan."""
        vertex = int(self._walk[self._cursor])
        if (
            self.best_vertex is not None
            and float(self._tau[vertex]) >= self.best_density
        ):
            self._done = True
            return None
        incoming = float(self._incoming[vertex])
        self._cursor += 1
        if self._bound_cost is not None and incoming >= self._bound_cost:
            return 0
        row = self._prepared.cost_row(vertex)
        remaining = self._remaining
        chosen = 0
        cost = 0.0
        density = math.inf
        length = 0
        for terminal in self._prepared.sorted_terminals_from(vertex):
            if chosen >= self._k:
                break
            if terminal not in remaining:
                continue
            chosen += 1
            cost += row[terminal]
            candidate = (cost + incoming) / chosen
            if candidate < density:
                density = candidate
                length = chosen
        self._tau[vertex] = density
        if self.best_vertex is None or density < self.best_density:
            self.best_vertex = vertex
            self.best_length = length
            self.best_density = density
        return 2

    def _step_chunk(self, fresh: bool = False) -> Optional[int]:
        """One batched walk chunk, replayed with array ops.

        ``fresh`` marks the first walk's single chunk: the whole
        identity order (its rows are read without a gather), with every
        ``tau`` still ``-inf`` so no break can fire.
        """
        if self._rmask is None:
            self._rmask = _remaining_mask(
                self._workspace.num_vertices, self._remaining
            )
        chunk = self._walk[self._cursor : self._cursor + self._chunk]
        self._cursor += len(chunk)
        self._chunk *= PRUNED_CHUNK_GROWTH
        size = len(chunk)
        positions_range = _np.arange(size)

        incoming = self._incoming if fresh else self._incoming[chunk]
        densities, counts = _density_block(
            self._workspace, None if fresh else chunk, incoming,
            self._rmask, self._k,
        )
        best_positions = _np.argmin(densities, axis=1)
        row_density = densities[positions_range, best_positions]
        row_length = counts[positions_range, best_positions]

        if self._bound_cost is None:
            skipped = _np.zeros(size, dtype=bool)
        else:
            skipped = incoming >= self._bound_cost
        evaluated = ~skipped
        if not fresh:
            limit = self._break_limit(chunk, skipped, row_density)
            evaluated &= positions_range < limit

        ticks = 2 * int(_np.count_nonzero(evaluated))
        if ticks == 0:
            return ticks
        self._tau[chunk[evaluated]] = row_density[evaluated]

        candidates = _np.where(evaluated, row_density, _np.inf)
        index = int(_np.argmin(candidates))
        density = float(candidates[index])
        if math.isinf(density):
            # Every evaluated density is inf: the scalar walk keeps its
            # *first* evaluated vertex (the ``best_vertex is None``
            # arm), and never replaces a prior best with an inf.
            if self.best_vertex is None:
                index = int(_np.argmax(evaluated))
                self.best_vertex = int(chunk[index])
                self.best_length = 0
                self.best_density = math.inf
        elif self.best_vertex is None or density < self.best_density:
            self.best_vertex = int(chunk[index])
            self.best_length = int(row_length[index])
            self.best_density = density
        return ticks

    def _break_limit(self, chunk: Any, skipped: Any, row_density: Any) -> int:
        """The chunk position where the scalar walk's early break fires.

        Returns ``len(chunk)`` (and leaves the walk open) when no break
        fires inside the chunk.
        """
        size = len(chunk)
        effective = _np.where(skipped, _np.inf, row_density)
        # Exclusive running minimum of the evaluated densities, seeded
        # with the best carried in from earlier steps: ``prev_best[p]``
        # is the scalar walk's ``best_density`` when it reaches ``p``.
        carry = self.best_density if self.best_vertex is not None else math.inf
        prev_best = _np.empty(size)
        prev_best[0] = carry
        if size > 1:
            prev_best[1:] = _np.minimum(
                carry, _np.minimum.accumulate(effective[:-1])
            )
        # ``have_prev[p]``: the scalar ``best_vertex is not None`` gate
        # (some vertex before ``p`` -- possibly in an earlier step --
        # was evaluated, not skipped).
        have_prev = _np.empty(size, dtype=bool)
        have_prev[0] = self.best_vertex is not None
        if size > 1:
            have_prev[1:] = have_prev[0] | (_np.cumsum(~skipped[:-1]) > 0)

        breaks = have_prev & (self._tau[chunk] >= prev_best)
        if not breaks.any():
            return size
        self._done = True
        return int(_np.argmax(breaks))


def pruned_scan(
    prepared: object, source: int, nested: bool = False
) -> Optional[PrunedScan]:
    """A vectorised walk for one ``FinalA^2``/``FinalB^2`` call, or None.

    Returns None on the pure backend (the scalar walk *is* the pure
    implementation), for non-:class:`PreparedInstance` inputs, and
    wherever :func:`workspace_for` declines (``nested`` as there).
    """
    workspace = workspace_for(prepared, nested)
    if workspace is None or workspace.backend != "numpy":
        return None
    assert isinstance(prepared, PreparedInstance)
    return PrunedScan(prepared, workspace, source)
