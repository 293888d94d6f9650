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


# Every cut is solved on the cells of its lattice hull (``_cut_graph``) by one
# exact solver, the numpy max-preflow of ``maximum_flow``, which loads no
# scipy module.  It pushes in place on one int32 residual table
# (``Residual``, n + 2 rows of 17 arcs) beside the graph's own neighbour
# table; the reverse of an arc is computed from its head and column for the
# arcs a push or a search touches, never stored.  A global search from the
# sink gives the nodes their exact distances, and waves with local relabels
# follow it (``_preflow``).  What costs the preflow rounds is surplus that
# cannot reach the far terminal, so it starts from the side whose terminal
# arcs carry less: above the transition lambda most of the source capacity
# is stranded, while below it half the sink capacity is.

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
    """Residual capacities of a cut graph under a preflow, arc by arc.

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


def maximum_flow(graph: CutGraph, source: int, sink: int) -> tuple[int, Residual]:
    """(flow value, residual) of a maximum preflow of ``graph``.

    The nodes that reach the sink in the residual are the minimal sink side
    of every maximum flow (Picard & Queyranne 1980).

    Unless the sink arcs carry at least 16/15 of what the source arcs
    carry, the preflow runs on the reversed graph H: its surplus starts on
    the sink arcs and drains into the source arcs, one from every node of
    E, so its paths are short.  No more than the source arcs carry can
    flow, so the margin keeps the forward run, whose paths are longer, for
    the cuts on which the reversed run must strand at least a sixteenth of
    its surplus.  On disks of radius 32 to 128 the faster run changes
    where the sink arcs carry between 1.02 and 1.11 times what the source
    arcs do (``BENCH_28.json``).  H's arc (u, d) is G's arc back
    from nbr[u, d], of capacity ``weights[15 - d]``, so H has the same
    heads, and G's residual is H's transposed.  A maximum preflow of H
    strands its surplus on nodes that cannot reach H's sink; the minimal
    source side of H, which is G's minimal sink side, is what H's source or
    a stranded node reaches in H (every minimum cut of H has the stranded
    nodes on its source side and carries no flow back across).  In G's
    residual those are the nodes that reach the sink or a stranded node, so
    each stranded node gets a sink arc of residual 1 (H keeps every arc out
    of its source saturated, so G's other sink arcs hold 0).
    """
    residual = Residual(graph)
    excess = np.zeros(sink + 1, dtype=np.int64)
    from_source = np.where(graph.in_e, graph.unary, 0)
    if 15 * graph.to_sink.sum(dtype=np.int64) >= 16 * from_source.sum(dtype=np.int64):
        excess[:-2] = from_source
        _preflow(residual, excess, sink)
        return int(excess[sink]), residual
    excess[:-2] = graph.to_sink
    arcs = residual.arcs
    np.copyto(arcs[:-2, :16], graph.weights[::-1], where=graph.nbr != sink)
    arcs[:-2, 16] = from_source
    _preflow(residual, excess, sink)
    # swap every neighbour arc with its reverse; arcs that leave the nodes
    # swap zeros with the sink's row
    back = residual.nbr[:, :8] * 17
    back += _REVERSE[:8]
    ahead = arcs[:-2, :8].copy()
    arcs[:-2, :8] = arcs.ravel()[back]
    arcs.ravel()[back] = ahead
    arcs[:-2, 16] = excess[:-2] > 0
    return int(excess[sink]), residual


def _preflow(residual: Residual, excess: np.ndarray, sink: int) -> None:
    """Exact maximum preflow by waves (Goldberg & Tarjan 1988), in place.

    ``excess`` holds each node's surplus, the arcs out of the source being
    saturated, and ends with the flow value at the sink.  Each node carries
    a label: a lower bound on its residual distance to the sink, valid (at
    most one more than the label across any live arc), n + 2 for a node
    that no longer reaches it.  A global search from the sink gives every
    node it finds its exact distance, and stops at the level by which every
    node holding excess is found.  A node it does not find gets n + 2 if a
    node holding excess went unfound, since the search then ran out, and
    else at least one more than the search's last level.  Then
    waves run: each takes the nodes holding excess by label from the top
    down; a node at label k splits its excess over its arcs into label
    k - 1 (its sink arc at label 1), in column order, each arc capped by its
    residual, and what it sends is carried down at once.  A node left
    holding excess has saturated those arcs, so its new label, one more
    than the least label across its live arcs, is higher; the next wave
    takes it there.  Once the waves have touched about half the nodes the
    search found, or no node is left to push, the search runs again.  It
    ends when it finds no node holding excess.  Then the set T of nodes
    that reach the sink holds no excess and no flow leaves it, so the
    excess that reached the sink is the flow value and T is the minimal
    sink side.

    Labels never fall: pushes and relabels keep them valid, so a label is
    at most the exact distance, and a search only raises them.  So the sum
    of the labels, at most n (n + 2), rises between any two searches that
    find a node holding excess: the first wave after the earlier one either
    leaves a node holding excess below n + 2, relabelled upward, or leaves
    all excess at the sink or on nodes that cannot reach it, and then the
    later search finds none.  That sum caps the searches, and each runs at
    most half its nodes' worth of waves plus one.  A search that finds work
    without the sum having risen is a fault, reported as a CovergeoError.
    """
    nbr, arcs = residual.nbr, residual.arcs
    n_nodes = len(nbr)
    label = np.zeros(n_nodes + 2, dtype=np.int32)
    spent = -1
    while True:
        levels = _levels(residual, sink, excess)
        found = np.concatenate(levels)[1:]
        active = found[excess[found] > 0]
        if not active.size:
            return
        if len(active) < np.count_nonzero(excess[:-2]):
            label.fill(n_nodes + 2)
        else:
            np.maximum(label, len(levels), out=label)
        for k, level in enumerate(levels):
            label[level] = k
        total = int(label[:-2].sum())
        if total <= spent:
            raise CovergeoError(f"max-preflow labels stalled at sum {total}: the push is faulty")
        spent = total
        work = len(found) // 2
        while True:
            active, touched = _wave(residual, excess, label, active, sink)
            work -= touched
            if not active.size or work <= 0:
                break


def _wave(
    residual: Residual, excess: np.ndarray, label: np.ndarray, active: np.ndarray, sink: int
) -> tuple[np.ndarray, int]:
    """One wave of ``_preflow`` from the ``active`` nodes, top label first.

    Returns the nodes left holding excess, relabelled, whose new label is
    below n + 2, and how many nodes the wave took.
    """
    nbr, arcs = residual.nbr, residual.arcs
    dead = len(nbr) + 2
    flat = arcs.ravel()
    active = active[np.argsort(label[active], kind="stable")]
    # the nodes at label k are active[ends[k] : ends[k + 1]]
    top = int(label[active[-1]])
    ends = np.searchsorted(label[active], np.arange(top + 2))
    stamp = np.empty(dead, dtype=np.int32)
    carried = active[:0]
    stuck = []
    touched = 0
    for k in range(top, 0, -1):
        level = active[ends[k] : ends[k + 1]]
        if carried.size:
            level = _once(np.concatenate([level, carried]), stamp)
        if not level.size:
            continue
        touched += len(level)
        # the 17 heads of the level's arcs, the sink last
        to = np.empty((len(level), 17), dtype=np.intp)
        to[:, :16] = nbr[level]
        to[:, 16] = sink
        held = arcs[level]
        below = label[to]
        room = np.where(below == k - 1, held, 0)
        surplus = excess[level]
        push = np.minimum(room, np.maximum(surplus[:, None] - room.cumsum(axis=1) + room, 0))
        held -= push
        arcs[level] = held
        surplus -= push.sum(axis=1)
        excess[level] = surplus
        # the pushed amounts reach their heads (the sink's excess is the
        # flow value) and open the reverse arcs; the reverse of a sink arc
        # lands in the sink's row, cleared after the wave
        at = np.flatnonzero(push)
        moved = push.ravel()[at]
        heads = to.ravel()[at]
        np.add.at(excess, heads, moved)
        flat[heads * 17 + _REVERSE[at % 17]] += moved
        carried = heads[heads != sink]
        left = surplus > 0
        if left.any():
            lifted = np.minimum(np.where(held[left] > 0, below[left], dead).min(axis=1) + 1, dead)
            label[level[left]] = lifted
            stuck.append(level[left][lifted < dead])
    arcs[-1] = 0
    return (np.concatenate(stuck) if stuck else active[:0]), touched


def _levels(residual: Residual, start: int, excess: np.ndarray | None = None) -> list[np.ndarray]:
    """The nodes that reach ``start`` along positive residual arcs, by distance.

    Level k holds the nodes whose shortest residual path to ``start`` has k
    arcs, level 0 is ``start``, and every level is nonempty.  With
    ``excess``, the search stops at the level by which every node holding
    excess is found.  The search is level-synchronous against the arcs: the
    arcs into a node come from its neighbours, read through the reverse
    column, and those into the sink are the live sink arcs.  A stamp keeps
    one copy of each node a level finds more than once (``_once``).
    """
    nbr, arcs = residual.nbr, residual.arcs
    n_nodes = len(nbr)
    reached = np.zeros(n_nodes + 2, dtype=bool)
    reached[start] = True
    stamp = np.empty(n_nodes + 2, dtype=np.int32)
    levels = [np.array([start], dtype=np.intp)]
    unfound = -1 if excess is None else np.count_nonzero(excess[:-2])
    if start == n_nodes + 1:
        found = np.flatnonzero(arcs[:-2, 16] > 0)
    else:
        found = _into(nbr, arcs, levels[0])
    while unfound:
        found = _once(found[~reached[found]], stamp)
        if not found.size:
            break
        reached[found] = True
        levels.append(found)
        unfound -= 0 if excess is None else np.count_nonzero(excess[found])
        found = _into(nbr, arcs, found)
    return levels


def _once(nodes: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """``nodes`` with one copy of each: the position whose write to
    ``stamp`` survives."""
    at = np.arange(len(nodes))
    stamp[nodes] = at
    return nodes[stamp[nodes] == at]


def _into(nbr: np.ndarray, arcs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The neighbours of ``rows`` with a live arc into ``rows``."""
    # read only for these rows; the sink's row is zero, so the sink never
    # qualifies.  One int32 table of reverse-arc positions, cut to the live
    # ones, gives the neighbours back by floor division
    back = nbr[rows] * 17
    back += _REVERSE[:16]
    back = back[arcs.ravel()[back] > 0]
    back //= 17
    return back


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

    They must fit the solver's int32 residual table.  2^26 on the largest
    entry (a terminal edge or the heaviest direction) leaves room for
    per-node capacity sums and for a residual of two capacities.  Raises
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
