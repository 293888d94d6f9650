"""Exact discrete minimization of Per(S) + lambda * |S delta E| on 2d grids.

The objective is submodular in the cell labels, so a single s-t min-cut
finds the global discrete optimum: each cell is a node, disagreement with E
costs lambda * h^2 through a terminal edge (capped where E is the only
minimizer anyway), and label changes across a 16-neighborhood pay the same
direction weights the perimeter estimator uses, making the cut value equal
the discrete energy.  Capacities are scaled to integers (the solver is
integral); the scale adapts to the instance so the rounding error stays
orders of magnitude below any energy gap that matters.

Minimizers are generally not unique (at the transition value of lambda whole
components appear or vanish); the canonical representative returned here is
the MAXIMAL minimizer, computed from the final residual network as the
complement of everything that still reaches the sink.  This choice is
deterministic and biases toward filled-in sets, which is the behavior the
hole-filling experiment measures.

Only the cells of E's lattice hull get graph nodes (``_lattice_hull``): the
cells whose centre x satisfies a.x <= max over E of a.x for all 16 normals
a = +-d of the direction classes d.  Every other cell is fixed background.
This is exact, by a discrete argument:

* Take a half-plane H that contains E's cell centres.  H meets each lattice
  line p + kd in a half-line, in all of it, or in none of it.
* A finite 0/1 sequence cut to a half-line has no more transitions than the
  whole sequence: the one transition the cut can add at the end of the
  half-line is matched by one the sequence already had on the dropped side.
* So for every labeling S, each direction class crosses S & H no more often
  than it crosses S, and |(S & H) delta E| = |S delta E| - |S - H|.
* The integer cut gives each direction class one integer weight and every
  terminal edge one more, so the same holds for its rounded energy, and
  S - H nonempty makes S & H strictly cheaper (a terminal weight that
  rounds to 0 leaves the empty set the only minimizer, which lies in H).
* Hence every minimizer of the integer cut lies in every such H, so in the
  hull, and the cut restricted to the hull has the same value and the same
  maximal minimizer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import CoverageBound, bound_flatnorm, reach_constant
from .errors import (
    CovergeoError,
    DeltaLambdaIncompatible,
    DimensionError,
    EmptySourceError,
    LambdaBelowThreshold,
    NotCompactlyContained,
    StabilityRadiusExceeded,
    SymDiffTooLarge,
    check_positive_finite,
)
from .grid import (
    _DIRS_2D,
    GridSet,
    _crofton_weights,
    _edt_sq,
    _load_extension,
    _neighbors,
    closing_stability_radius,
    diameter,
    opening_stability_radius,
    perimeter,
)
from .partition import Partition, good_partition, restrict_partition

__all__ = [
    "FlatNormResult",
    "ReachReport",
    "FillInReport",
    "flatnorm_minimize",
    "lambda_threshold",
    "minimizer_reach_check",
    "almost_cover_pipeline",
    "fill_in_experiment",
]


@dataclass(frozen=True)
class FlatNormResult:
    """Minimizer of Per(S) + lambda |S delta E| and its energy split."""

    lam: float
    sigma: GridSet
    energy: float
    perim_sigma: float
    sym_diff_measure: float


@dataclass(frozen=True)
class ReachReport:
    """Measured stability radii of a minimizer against the universal floor."""

    lam: float
    floor: float
    radius_sigma: float
    radius_complement: float
    verdict: bool


@dataclass(frozen=True)
class FillInReport:
    """Outcome of minimizing on a punctured set: did the hole fill back in?"""

    lam: float
    sym_diff_to_whole: float
    tolerance: float
    verdict: bool
    margin: float
    sigma: GridSet


# Every cut is solved on the cells of its lattice hull (``_cut_graph``), by
# one of two exact solvers.  The numpy max-preflow (``_preflow``) loads no
# scipy module.  The ``maximum_flow`` (Dinic) of scipy's compiled
# ``scipy.sparse.csgraph._flow`` extension is loaded from its file by itself:
# that skips the ``scipy.sparse.csgraph`` package, whose ``_laplacian``
# module imports ``scipy.sparse.linalg`` and ``scipy.linalg``.  Loading
# ``_flow`` still imports ``scipy.sparse`` (about 0.2 s and 20 MiB, once per
# process), because the extension imports ``csr_array`` and ``issparse``
# from it when it is initialized.  Once loaded, Dinic is the faster solver
# of every cut up to disk(128).  So the choice is rent or buy (Karlin,
# Manasse, Rudolph & Sleator 1988): the preflow's extra time is paid on
# every cut, the import once.  A process runs the preflow while the nodes
# of its preflow cuts stay under ``_PREFLOW_NODES``, then buys Dinic for
# good.  The budget is the import time over the preflow's extra time per
# node (its 75th percentile over disk 32..64 at lambda R = 1, 2.5 and 8),
# rounded down to a power of two: 193 ms / 8.7 us = 22.2k nodes on a 2-core
# Xeon (``BENCH_25.json``).  So a process spends about one import's worth
# of preflow time at most before it buys Dinic.  The preflow pushes in place
# on one int32 residual table (``Residual``, n + 2 rows of 17 arcs) beside
# the graph's own neighbour table; the reverse of an arc is computed from its
# head and column for the arcs a push or a search touches, never stored.  On
# the pipeline benchmark's 12937-node cut its traced peak is about 150 B a
# node, 1.9 MiB (561 B with a stored reverse-arc table and intp heads).
_PREFLOW_NODES = 1 << 14
# what is left of the budget in this process; only ``maximum_flow`` reads
# and writes it
_preflow_left = _PREFLOW_NODES

# a graph on nodes 0..3 and its maximum flow value from node 0 to node 3,
# which the loaded solver must find: the cut around node 0 (capacity 3 + 1)
_CHECK_EDGES = ((0, 1, 3), (0, 2, 1), (1, 2, 5), (1, 3, 2), (2, 3, 4))
_CHECK_FLOW = 4

# column of the reverse arc: the 16 directions come in ascending order, and
# negating a direction reverses that order; column 16 is the sink arc
_REVERSE = np.r_[np.arange(15, -1, -1), 16]


class CutGraph:
    """The terminal graph of a cut, as a node x 16 neighbour table.

    Nodes are 0 .. n - 1, the source is n and the sink n + 1.
    ``nbr[u, d]`` is node u's neighbour across the d-th of the 16 directions
    (in ascending order), or the sink where that neighbour is fixed
    background; every arc along direction d has capacity ``weights[d]``, and
    the arc (u, d) runs back as (nbr[u, d], 15 - d).  The arcs into the sink
    are summed into each node's one sink arc, ``to_sink``.  The source has
    an arc of capacity ``unary`` to every node ``in_e``.  ``Residual`` keeps
    ``nbr`` as its heads and computes each reverse arc by that rule.
    """

    __slots__ = ("nbr", "weights", "to_sink", "in_e", "unary")

    def __init__(self, nbr, weights, to_sink, in_e, unary):
        self.nbr = nbr
        self.weights = weights
        self.to_sink = to_sink
        self.in_e = in_e
        self.unary = unary

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of the graph's capacity matrix: n + 2 rows and columns."""
        size = len(self.nbr) + 2
        return size, size


class Residual:
    """Residual capacities of a cut graph under a flow, arc by arc.

    ``arcs[u, d]`` is the residual of node u's arc to ``nbr[u, d]`` (the
    graph's table), d < 16, and ``arcs[u, 16]`` that of its sink arc; a new
    one holds the capacities.  An arc that leaves the nodes has residual 0.
    A residual is at most two capacities, so it fits int32.  The reverse of
    arc (u, d) is not stored: it is ``arcs.ravel()[nbr[u, d] * 17 +
    _REVERSE[d]]``.  The two last rows, for the source and the sink, are
    zero at rest.  Arcs out of the source are not kept: at a maximum flow no
    node the source reaches can reach the sink.
    """

    __slots__ = ("nbr", "arcs")

    def __init__(self, graph: CutGraph):
        n_nodes = len(graph.nbr)
        self.nbr = graph.nbr
        self.arcs = np.zeros((n_nodes + 2, 17), dtype=np.int32)
        np.copyto(self.arcs[:-2, :16], graph.weights, where=graph.nbr != n_nodes + 1)
        self.arcs[:-2, 16] = graph.to_sink


def _arcs(graph: CutGraph) -> tuple[np.ndarray, np.ndarray]:
    """(heads, present) of the 17 arcs out of every node, as in ``Residual``.

    An arc that leaves the nodes is absent (its weight is in the sink arc),
    and so is the zero sink arc of a node of E with no such arc.
    """
    n_nodes = len(graph.nbr)
    off = graph.nbr == n_nodes + 1
    heads = np.column_stack([graph.nbr, np.full(n_nodes, n_nodes + 1, dtype=np.int32)])
    present = np.column_stack([~off, ~graph.in_e | off.any(axis=1)])
    return heads, present


def _csr(graph: CutGraph):
    """The capacities as a canonical int32 CSR matrix.

    Row k lists node k's neighbours among the nodes by ascending id, then
    its sink arc; the source row lists the nodes in E.
    """
    from scipy.sparse import csr_matrix

    heads, present = _arcs(graph)
    n_nodes = len(heads)
    from_e = np.flatnonzero(graph.in_e).astype(np.int32)
    indptr = np.zeros(n_nodes + 3, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1 : n_nodes + 1])
    indptr[n_nodes + 1 :] = indptr[n_nodes] + len(from_e)
    indices = np.concatenate([heads[present], from_e])
    data = np.concatenate([Residual(graph).arcs[:-2][present], np.full(len(from_e), graph.unary)])
    return csr_matrix((data, indices, indptr), shape=graph.shape)


def _public_maximum_flow(csgraph, source, sink):
    from scipy.sparse.csgraph import maximum_flow as solve

    return solve(csgraph, source, sink)


@functools.cache
def _solver():
    """scipy's ``maximum_flow``, from the ``_flow`` extension loaded by itself.

    If the load fails, or the loaded function gets the flow value of
    ``_CHECK_EDGES`` wrong, it is the package's public ``maximum_flow``,
    which is the same compiled function.
    """
    from scipy.sparse import csr_matrix

    try:
        solve = _load_extension("sparse.csgraph", "_flow").maximum_flow
        tail, head, cap = np.array(_CHECK_EDGES, dtype=np.int32).T
        check = csr_matrix((cap, (tail, head)), shape=(4, 4))
        if solve(check, 0, 3).flow_value == _CHECK_FLOW:
            return solve
    except (ImportError, OSError, AttributeError, TypeError, ValueError, RuntimeError):
        pass
    return _public_maximum_flow


def _dinic(graph: CutGraph, source: int, sink: int) -> tuple[int, Residual]:
    """scipy's maximum flow of the packed graph, mapped back onto its arcs."""
    result = _solver()(_csr(graph), source, sink)
    heads, present = _arcs(graph)
    # the flow matrix read at the (tail, head) of every present arc (a cut of
    # no node has none, and scipy answers that read with a sparse matrix);
    # it is dropped before the residual table is built, which bounds peak
    # memory
    tails = np.repeat(np.arange(len(heads), dtype=np.int32), present.sum(axis=1))
    moved = np.asarray(result.flow[tails, heads[present]]).ravel() if tails.size else 0
    flow_value = int(result.flow_value)
    del result, tails, heads
    residual = Residual(graph)
    residual.arcs[:-2][present] -= moved
    return flow_value, residual


def _preflow(graph: CutGraph, source: int, sink: int) -> tuple[int, Residual]:
    """Exact maximum preflow by level waves (Goldberg & Tarjan 1988).

    Every arc out of the source starts saturated.  Each round a search from
    the sink gives every node its exact residual distance, and then, from
    the top level down, every node with excess at level k splits it over its
    arcs into level k - 1 (its sink arc at level 1), in column order, each
    arc capped by its residual.  The rounds end when no node that holds
    excess reaches the sink.

    The flow value is the excess that reached the sink.  Then the set T of
    nodes that reach the sink holds no excess and no flow leaves it, so
    returning the stranded excess to the source changes flow only outside
    T: T is the minimal sink side of every maximum flow (Picard & Queyranne
    1980), the one Dinic's residual gives too.

    Distances never fall, and a round that leaves excess at a node that
    still reaches the sink has saturated every arc of that node into the
    level below, so its distance rises.  Every round but the last raises
    the sum of the distances, counted as n + 2 for a node that no longer
    reaches the sink; that sum is the round cap, and a round that does not
    raise it is a fault, reported as a CovergeoError.
    """
    residual = Residual(graph)
    nbr, arcs = residual.nbr, residual.arcs
    n_nodes = len(nbr)
    flat = arcs.ravel()
    excess = np.zeros(n_nodes + 2, dtype=np.int64)
    excess[:-2][graph.in_e] = graph.unary
    dist = np.empty(n_nodes + 2, dtype=np.int32)
    spent = -1
    while True:
        levels = _levels(residual, sink)
        dist.fill(n_nodes + 2)
        for k, level in enumerate(levels):
            dist[level] = k
        # the distances of the nodes that hold excess and reach the sink
        active = dist[:-2][excess[:-2] > 0]
        active = active[active <= n_nodes + 1]
        if not active.size:
            return int(excess[sink]), residual
        total = int(dist[:-2].sum())
        if total <= spent:
            raise CovergeoError(
                f"max-preflow round raised no distance (sum {total}): the push is faulty"
            )
        spent = total
        for k in range(int(active.max()), 0, -1):
            level = levels[k][excess[levels[k]] > 0]
            if not level.size:
                continue
            # the 17 heads of the level's arcs, the sink last
            to = np.empty((len(level), 17), dtype=np.intp)
            to[:, :16] = nbr[level]
            to[:, 16] = sink
            held = arcs[level]
            room = np.where(dist[to] == k - 1, held, 0)
            push = np.minimum(room, np.maximum(excess[level, None] - room.cumsum(axis=1) + room, 0))
            arcs[level] = held - push
            excess[level] -= push.sum(axis=1)
            # the pushed amounts reach their heads (the sink's excess is the
            # flow value) and open the reverse arcs; the reverse of a sink
            # arc lands in the sink's row, cleared after the wave
            at = np.flatnonzero(push)
            moved = push.ravel()[at]
            heads = to.ravel()[at]
            np.add.at(excess, heads, moved)
            flat[heads * 17 + _REVERSE[at % 17]] += moved
        arcs[-1] = 0


def maximum_flow(graph: CutGraph, source: int, sink: int) -> tuple[int, Residual]:
    """(flow value, residual) of a maximum flow of ``graph``.

    The numpy preflow solves the cut while the nodes of this process's
    preflow cuts, this one included, stay under ``_PREFLOW_NODES``; the
    cut's nodes then come off what is left.  Any other cut runs scipy's
    Dinic and leaves nothing, so every later cut, even one of no node, runs
    Dinic too.  Both give the same flow value, and their residuals the same
    sink side.

    ``_preflow_left`` is per-process state, read and written only here;
    cuts run on one thread.
    """
    global _preflow_left
    nodes = len(graph.nbr)
    if nodes < _preflow_left:
        _preflow_left -= nodes
        return _preflow(graph, source, sink)
    _preflow_left = 0
    return _dinic(graph, source, sink)


def _levels(residual: Residual, start: int) -> list[np.ndarray]:
    """The nodes that reach ``start`` along positive residual arcs, by distance.

    Level k holds the nodes whose shortest residual path to ``start`` has k
    arcs, level 0 is ``start``, and every level is nonempty.  The search is
    level-synchronous against the arcs: the arcs into a node come from its
    neighbours, read through the reverse column, and those into the sink
    are the live sink arcs.  A stamp keeps one copy of each node a level
    finds more than once: the position whose write survives.
    """
    nbr, arcs = residual.nbr, residual.arcs
    n_nodes = len(nbr)
    reached = np.zeros(n_nodes + 2, dtype=bool)
    reached[start] = True
    stamp = np.empty(n_nodes + 2, dtype=np.int32)
    levels = [np.array([start], dtype=np.intp)]
    if start == n_nodes + 1:
        found = np.flatnonzero(arcs[:-2, 16] > 0)
    else:
        found = _into(nbr, arcs, levels[0])
    while True:
        found = found[~reached[found]]
        at = np.arange(len(found))
        stamp[found] = at
        found = found[stamp[found] == at]
        if not found.size:
            return levels
        reached[found] = True
        levels.append(found)
        found = _into(nbr, arcs, found)


def _into(nbr: np.ndarray, arcs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The neighbours of ``rows`` with a live arc into ``rows``."""
    # read only for these rows; the sink's row is zero, so the sink never
    # qualifies.  intp spares the gathers below and the search's a conversion
    heads = nbr[rows].astype(np.intp)
    back = heads * 17
    back += _REVERSE[:16]
    return heads[arcs.ravel()[back] > 0]


def breadth_first_order(residual: Residual, start: int) -> np.ndarray:
    """The nodes that reach ``start`` along positive residual arcs.

    The levels of ``_levels`` one after the other, ``start`` first.
    """
    return np.concatenate(_levels(residual, start))


def _terminal_capacity(e: GridSet, lam: float) -> float:
    """Capacity of a terminal edge: lambda h^2, capped at 2W.

    W = 2 * sum of the direction weights is the most that flipping one cell
    can change Per: the cell sits in two pairs per direction class.  So
    flipping a set D changes Per by at most W |D|, and once lambda h^2 > W,
    every S != E costs at least (lambda h^2 - W) |S delta E| > 0 more than
    E.  E is then the unique minimizer, both of the true objective and of
    the capped one, whose terminal price 2W is above W too; the cut returns
    E and its value Per(E) is the true energy.  The cap keeps the direction
    weights at full integer resolution (see ``_cut_scale``), which a scale
    sized from a large lambda h^2 would round to a few units.
    """
    cap = 4.0 * sum(_crofton_weights(2, e.h).values())
    return min(lam * e.h * e.h, cap)


def _cut_scale(e: GridSet, lam: float) -> int:
    """Factor that turns the cut capacities into integers.

    They must be int32: the solver accepts wider dtypes but silently
    returns non-maximal flows with them (observed as flow values below
    provable cut values).  2^26 on the largest entry (a terminal edge or the
    heaviest direction) leaves room for per-node capacity sums.  Raises
    CovergeoError when lambda h^2 or a direction weight passes 2^26.
    """
    weights = _crofton_weights(2, e.h).values()
    top = max(lam * e.h * e.h, *weights)
    if top > 2.0**26:
        raise CovergeoError(
            f"largest cut capacity {top:g} (lambda*h^2 = {lam * e.h * e.h:g}) "
            "exceeds the 2^26 limit of integer cut capacities"
        )
    return math.floor(2.0**26 / max(_terminal_capacity(e, lam), *weights))


def _lattice_hull(e: GridSet) -> np.ndarray:
    """Cells whose centre lies in every half-plane a.x <= max_E a.x, a = +-d.

    d runs over the direction classes of the cut, so the hull is cut out by
    16 lattice half-planes; see the module docstring for why every
    minimizer lies in it.  An empty E gives an empty hull.
    """
    if e.is_empty:
        return np.zeros(e.dims, dtype=bool)
    ii, jj = np.indices(e.dims, sparse=True)
    cells = e.true_cells()
    hull = np.ones(e.dims, dtype=bool)
    for d in _DIRS_2D:
        on_e = cells @ d
        proj = d[0] * ii + d[1] * jj
        hull &= (proj >= on_e.min()) & (proj <= on_e.max())
    return hull


def _cut_graph(e: GridSet, lam: float, nodes: np.ndarray) -> tuple[CutGraph, int, int, int]:
    """Build the terminal graph on the ``nodes`` cells.

    Returns (graph, source, sink, scale).  Node k is the k-th true cell of
    ``nodes`` in row-major order; every other cell is fixed background.  The
    capacities are int32 integers: ``scale`` times the real ones, rounded.
    """
    n_nodes = int(np.count_nonzero(nodes))
    source = n_nodes
    sink = n_nodes + 1
    scale = _cut_scale(e, lam)
    unary = np.int32(np.rint(_terminal_capacity(e, lam) * scale))
    ids = np.full(e.dims, sink, dtype=np.int32)
    ids[nodes] = np.arange(n_nodes, dtype=np.int32)
    in_e = e.mask[nodes]

    # pairwise edges: every node points at its neighbor on either side of
    # each direction class, so each pair gets one edge per direction; in
    # row-major order of the offsets the neighbors come by ascending id
    steps = []
    for d, w in _crofton_weights(2, e.h).items():
        fwd, bwd = _neighbors(ids, d, sink)
        weight = np.int32(np.rint(w * scale))
        steps += [(d, fwd[nodes], weight), (tuple(-c for c in d), bwd[nodes], weight)]
    steps.sort(key=lambda step: step[0])
    nbr = np.stack([to for _, to, _ in steps], axis=1)
    weights = np.array([weight for *_, weight in steps], dtype=np.int32)

    # terminal edges: cells of E hang from the source, background cells
    # drain to the sink; cutting one pays the disagreement cost.  Neighbors
    # beyond the frame or outside the nodes are permanently background, so
    # each open end adds its weight to the node's one sink edge; the rounded
    # entries are summed as integers, as merging duplicate entries would
    off = nbr == sink
    to_sink = np.where(in_e, 0, unary) + (off * weights).sum(axis=1, dtype=np.int32)
    return CutGraph(nbr, weights, to_sink, in_e, unary), source, sink, scale


def _min_cut(e: GridSet, lam: float, nodes: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Cut the graph on ``nodes``; returns (maximal minimizer, flow, scale).

    The flow value is the integer one; divided by the scale it is the
    minimum energy.
    """
    graph, source, sink, scale = _cut_graph(e, lam, nodes)
    flow, residual = maximum_flow(graph, source, sink)
    # nodes that still reach the sink hold the minimal sink side; their
    # complement is the maximal source side, i.e. the largest minimizer
    sink_side = np.zeros(graph.shape[0], dtype=bool)
    sink_side[breadth_first_order(residual, sink)] = True
    labels = np.zeros(e.dims, dtype=bool)
    labels[nodes] = ~sink_side[:source]
    return labels, flow, scale


def flatnorm_minimize(e: GridSet, lam: float) -> FlatNormResult:
    """Global discrete minimizer (maximal one) of the flat-norm objective."""
    check_positive_finite(lam, "lambda")
    if e.ndim != 2:
        raise DimensionError("unsupported dimension: minimization is 2d-only")
    labels, flow, scale = _min_cut(e, lam, _lattice_hull(e))
    sigma = e.with_mask(labels)
    sym = float(np.logical_xor(e.mask, labels).sum()) * e.h**2
    per = perimeter(sigma)
    energy = per + lam * sym
    # duality tripwire: the labeling read off the residual must price out to
    # the flow value; a mismatch means the solver or extraction misbehaved
    gap = abs(energy - flow / scale)
    if gap > 1e-3 * (1.0 + energy):
        raise CovergeoError(
            f"min-cut inconsistency: labeling energy {energy} vs flow "
            f"{flow / scale} (gap {gap})"
        )
    return FlatNormResult(
        lam=lam,
        sigma=sigma,
        energy=energy,
        perim_sigma=per,
        sym_diff_measure=sym,
    )


# the threshold bisection stops once its bracket is narrower than both this
# share of its initial width and this share of its lower end, so its midpoint
# is within the second share above lambda*
_BRACKET_WIDTH, _BRACKET_REL_WIDTH = 1e-3, 5e-3


def lambda_threshold(e: GridSet) -> float:
    """Transition value of lambda between the empty and nonempty minimizer.

    Below the threshold removing everything is cheaper than keeping any
    boundary; above it the minimizer retains bulk.  The exact transition
    lambda* comes from Dinkelbach's iteration on the cut
    (``_transition_lambda``, two cuts on round sets).  The returned value is
    the one a bisection on measure(sigma) > 0 gives: the bracket arithmetic is
    replayed with "sigma is empty at x" read as ``x < lambda*``, and the
    result is the bracket midpoint after the bracket shrinks to
    ``_BRACKET_WIDTH`` times its initial width.  The replay solves no cut.  A
    bisection midpoint within the cut's rounding bound of lambda* is the one
    place where the replay and a real cut at that midpoint could differ.

    The initial bracket (0.1/diam(E), 10/h) already holds lambda*, which is
    Per(S)/g(S) for a nonempty S with g(S) > 0 (see ``_transition_lambda``):

    * lo: each row and each column that meets S crosses its boundary at
      least twice, at the axis weight w = 0.2318 h, and holds at most
      D/h + 1 cells of E, where D is the diameter of E's cell centres.  With
      k the fewer of S's rows and columns, Per(S) >= 4wk and
      g(S) <= |S & E| <= hk(D + h), so lambda* >= 4w/(h(D + h)) =
      0.927/(D + h), above 0.1/diam(E) = 0.1/(D + h sqrt(2)).
    * hi: every crossing of E crosses one of its cells, so
      lambda* <= Per(E)/|E| <= Per(cell)/h^2 = 2.085/h < 10/h.
    """
    if e.is_empty:
        raise EmptySourceError("threshold of an empty set is undefined")
    lam_star = _transition_lambda(e)
    lo = 0.1 / diameter(e.true_cells(), e.h)
    hi = 10.0 / e.h
    width_target = _BRACKET_WIDTH * (hi - lo)
    # the absolute target alone is too loose when the transition sits far
    # below the initial bracket top, so also require the bracket to be
    # narrow relative to the transition value itself
    while hi - lo > width_target or hi - lo > _BRACKET_REL_WIDTH * lo:
        mid = 0.5 * (lo + hi)
        if mid < lam_star:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _transition_lambda(e: GridSet) -> float:
    """lambda* = min over nonempty S of Per(S) / g(S), g(S) = |S & E| - |S - E|.

    The minimizer at lambda is empty exactly when Per(S) - lambda g(S) > 0
    for every nonempty S, and the flat-norm cut at lambda minimizes that
    value (its energy minus lambda |E|), so it is Dinkelbach's subproblem
    for the ratio.  Starting at Per(E) / |E|, each cut either shows that no
    set beats the current ratio by more than the rounding bound, or hands
    over a set with a smaller one.
    """
    # the integer cut rounds each capacity entry it crosses (one terminal
    # entry per cell, two per cell and direction class) by at most one half
    entries = e.dims[0] * e.dims[1] * (1 + 2 * len(_crofton_weights(2, e.h)))
    lam = perimeter(e) / e.measure
    for _ in range(40):
        res = flatnorm_minimize(e, lam)
        gain = e.measure - res.sym_diff_measure  # g(sigma), in h^2 units
        if res.perim_sigma - lam * gain >= -0.5 * entries / _cut_scale(e, lam):
            return lam
        lam = res.perim_sigma / gain
    raise CovergeoError("Dinkelbach iteration for the transition lambda did not converge")


def minimizer_reach_check(
    res: FlatNormResult, radii: tuple[float, float] | None = None
) -> ReachReport:
    """Check both stability radii of a minimizer against the C_hat/lambda floor.

    Grid slack of 3h absorbs the discrete boundary ring on either side.
    ``radii`` are the (opening, closing) stability radii of ``res.sigma``
    when a check of the same minimizer at another lambda already has them.
    """
    if res.sigma.is_empty:
        raise EmptySourceError("reach check needs a nonempty minimizer")
    c_hat = reach_constant().c_hat
    h = res.sigma.h
    floor = c_hat / res.lam - 3.0 * h
    if radii is None:
        radii = opening_stability_radius(res.sigma), closing_stability_radius(res.sigma)
    r_open, r_close = radii
    return ReachReport(
        lam=res.lam,
        floor=floor,
        radius_sigma=r_open,
        radius_complement=r_close,
        verdict=bool(r_open >= floor and r_close >= floor),
    )


def almost_cover_pipeline(
    e: GridSet, lam: float, delta: float
) -> tuple[Partition, CoverageBound]:
    """Regularize, partition the regular part, keep what lies in the set.

    Checks the three hypotheses in order, each with its own typed error:
    lambda above the set's threshold, residual mass below delta^2 / 2, and
    delta below 1/(5 lambda).  On success returns the partition of
    A = E intersect sigma_lambda together with the almost-coverage bound.

    The threshold costs cuts, and a lambda far enough above Per(E)/|E|
    passes its gate without them.  The threshold bisection ends with
    lo < lambda* and hi - lo <= 5e-3 lo (``_BRACKET_REL_WIDTH``), so
    threshold < (1 + 5e-3) lambda*.  Dinkelbach's iteration starts at
    Per(E)/|E| and only decreases, so lambda* <= Per(E)/|E|.  Hence every
    lambda > (1 + 2 * 5e-3) Per(E)/|E| is above the threshold, and the
    threshold is computed only at or below that bound.
    """
    check_positive_finite(lam, "lambda")
    check_positive_finite(delta, "delta")
    if e.is_empty or lam <= (1.0 + 2.0 * _BRACKET_REL_WIDTH) * perimeter(e) / e.measure:
        thr = lambda_threshold(e)
        LambdaBelowThreshold.check(
            lam, "lambda > threshold", thr,
            f"lambda = {lam} <= transition threshold = {thr:.6g}",
        )
    res = flatnorm_minimize(e, lam)
    s_mass = res.sym_diff_measure
    half_square = delta * delta / 2.0
    SymDiffTooLarge.check(
        s_mass, "|S_lambda| < delta^2 / 2", half_square,
        f"|S_lambda| = {s_mass} >= delta^2 / 2 = {half_square}",
    )
    delta_cap = 1.0 / (5.0 * lam)
    DeltaLambdaIncompatible.check(
        delta, "delta < 1/(5 lambda)", delta_cap,
        f"delta = {delta} not in (0, 1/(5 lambda)) = (0, {delta_cap:.6g})",
    )
    part_sigma = good_partition(res.sigma, delta)
    a_mask = e.mask & res.sigma.mask
    a = e.with_mask(a_mask)
    part_a = restrict_partition(part_sigma, a)
    bound = bound_flatnorm(part_a.region_count, delta, s_mass, a.measure)
    return part_a, bound


def fill_in_experiment(u: GridSet, a: GridSet, lam: float) -> FillInReport:
    """Minimize on the punctured set and test whether the holes fill back in.

    ``a`` must sit strictly inside ``u`` with more than one cell of physical
    margin, and 2/lambda must stay below the stability radius of ``u`` (the
    scale at which the ambient boundary itself would start to move).  The
    verdict compares measure(sigma delta u) to a two-ring boundary tolerance.
    Holes well below the 2/lambda scale fill back in; a False verdict means
    either that the minimizer kept a hole or that it dropped the whole
    punctured set (sigma empty), which is cheaper once the holes are large.
    """
    check_positive_finite(lam, "lambda")
    if not u.same_frame(a):
        raise CovergeoError("hole set lives on a different grid frame")
    outside = float(np.count_nonzero(a.mask & ~u.mask)) * u.h**u.ndim
    NotCompactlyContained.check(
        outside, "|hole - ambient| <= 0", 0.0, "hole is not a subset of the ambient set"
    )
    if not a.is_empty:
        dsq_comp = _edt_sq(~u.mask)
        margin = u.h * math.sqrt(float(dsq_comp[a.mask].min()))
        NotCompactlyContained.check(
            margin, "hole margin > h", u.h,
            f"hole margin {margin} <= h = {u.h}: not strictly inside",
        )
    else:
        margin = math.inf
    if not math.isfinite(2.0 / lam):
        raise CovergeoError(f"lambda = {lam} is too small: 2/lambda overflows")
    stab = opening_stability_radius(u)
    StabilityRadiusExceeded.check(
        2.0 / lam, "2/lambda < stability radius", stab,
        f"2/lambda = {2.0 / lam} >= stability radius of the ambient set = {stab}",
    )
    e = u.with_mask(u.mask & ~a.mask)
    res = flatnorm_minimize(e, lam)
    sym_to_u = float(np.logical_xor(res.sigma.mask, u.mask).sum()) * u.h**2
    tol = 2.0 * u.h * perimeter(u)
    return FillInReport(
        lam=lam,
        sym_diff_to_whole=sym_to_u,
        tolerance=tol,
        verdict=bool(sym_to_u <= tol),
        margin=margin,
        sigma=res.sigma,
    )
