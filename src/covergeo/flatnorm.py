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
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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


# scipy.sparse is imported by the code that builds or cuts a graph, so that
# importing the package (and every command that never cuts) does not pay for it


def maximum_flow(csgraph, source, sink, **kwargs):
    """scipy's ``maximum_flow``, imported on the first call."""
    from scipy.sparse.csgraph import maximum_flow as solve

    return solve(csgraph, source, sink, **kwargs)


def breadth_first_order(csgraph, i_start, **kwargs):
    """scipy's ``breadth_first_order``, imported on the first call."""
    from scipy.sparse.csgraph import breadth_first_order as order

    return order(csgraph, i_start, **kwargs)


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


def _cut_graph(
    e: GridSet, lam: float, nodes: np.ndarray
) -> tuple[csr_matrix, int, int, int]:
    """Build the terminal graph on the ``nodes`` cells.

    Returns (capacities, source, sink, scale).  Node k is the k-th true cell
    of ``nodes`` in row-major order; every other cell is fixed background.
    """
    from scipy.sparse import csr_matrix

    n_nodes = int(np.count_nonzero(nodes))
    source = n_nodes
    sink = n_nodes + 1
    unary = _terminal_capacity(e, lam)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    caps: list[np.ndarray] = []
    ids = np.full(e.dims, sink)
    ids[nodes] = np.arange(n_nodes)
    node_ids = ids[nodes]

    # terminal edges: cells of E hang from the source, background cells
    # drain to the sink; cutting one pays the disagreement cost
    in_e = e.mask[nodes]
    src_ids = node_ids[in_e]
    rows.append(np.full(len(src_ids), source))
    cols.append(src_ids)
    caps.append(np.full(len(src_ids), unary))
    snk_ids = node_ids[~in_e]
    rows.append(snk_ids)
    cols.append(np.full(len(snk_ids), sink))
    caps.append(np.full(len(snk_ids), unary))

    # pairwise edges: every node points at its neighbor on either side of
    # each direction class, so each pair gets one edge per direction;
    # neighbors beyond the frame or outside the nodes are permanently
    # background, so the open end becomes a sink edge of the same weight
    for d, w in _crofton_weights(2, e.h).items():
        for nbr in _neighbors(ids, d, sink):
            rows.append(node_ids)
            cols.append(nbr[nodes])
            caps.append(np.full(n_nodes, w))

    row = np.concatenate(rows)
    col = np.concatenate(cols)
    cap = np.concatenate(caps)
    scale = _cut_scale(e, lam)
    icap = np.rint(cap * scale).astype(np.int32)
    graph = csr_matrix(
        (icap, (row, col)), shape=(n_nodes + 2, n_nodes + 2), dtype=np.int32
    )
    graph.sum_duplicates()
    return graph, source, sink, scale


def _min_cut(e: GridSet, lam: float, nodes: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Cut the graph on ``nodes``; returns (maximal minimizer, flow, scale).

    The flow value is the integer one; divided by the scale it is the
    minimum energy.
    """
    graph, source, sink, scale = _cut_graph(e, lam, nodes)
    result = maximum_flow(graph, source, sink)
    residual = graph - result.flow
    # nodes that still reach the sink hold the minimal sink side; their
    # complement is the maximal source side, i.e. the largest minimizer
    reach_sink = breadth_first_order(
        (residual > 0).T, sink, directed=True, return_predecessors=False
    )
    sink_side = np.zeros(graph.shape[0], dtype=bool)
    sink_side[reach_sink] = True
    labels = np.zeros(e.dims, dtype=bool)
    labels[nodes] = ~sink_side[:source]
    return labels, int(result.flow_value), scale


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
    """
    if e.is_empty:
        raise EmptySourceError("threshold of an empty set is undefined")
    lam_star = _transition_lambda(e)
    diam = diameter(e.true_cells(), e.h)
    lo = 0.1 / diam
    hi = 10.0 / e.h
    for _ in range(40):
        if lo < lam_star:
            break
        lo *= 0.5
    else:
        raise CovergeoError("no empty minimizer found at any small lambda")
    # hi already lies above lambda*: every crossing of E crosses one of its
    # cells, so lambda* <= Per(E)/|E| <= Per(cell)/h^2 = 2.085/h < 10/h
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


def minimizer_reach_check(res: FlatNormResult) -> ReachReport:
    """Check both stability radii of a minimizer against the C_hat/lambda floor.

    Grid slack of 3h absorbs the discrete boundary ring on either side.
    """
    if res.sigma.is_empty:
        raise EmptySourceError("reach check needs a nonempty minimizer")
    c_hat = reach_constant().c_hat
    h = res.sigma.h
    floor = c_hat / res.lam - 3.0 * h
    r_open = opening_stability_radius(res.sigma)
    r_close = closing_stability_radius(res.sigma)
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
        if lam <= thr:
            raise LambdaBelowThreshold(
                f"lambda = {lam} <= transition threshold = {thr:.6g}",
                inequality="lambda > threshold",
                lhs=lam,
                rhs=thr,
                margin=thr - lam,
            )
    res = flatnorm_minimize(e, lam)
    s_mass = res.sym_diff_measure
    half_square = delta * delta / 2.0
    if s_mass >= half_square:
        raise SymDiffTooLarge(
            f"|S_lambda| = {s_mass} >= delta^2 / 2 = {half_square}",
            inequality="|S_lambda| < delta^2 / 2",
            lhs=s_mass,
            rhs=half_square,
            margin=s_mass - half_square,
        )
    delta_cap = 1.0 / (5.0 * lam)
    if delta >= delta_cap:
        raise DeltaLambdaIncompatible(
            f"delta = {delta} not in (0, 1/(5 lambda)) = (0, {delta_cap:.6g})",
            inequality="delta < 1/(5 lambda)",
            lhs=delta,
            rhs=delta_cap,
            margin=delta - delta_cap,
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
    if outside:
        raise NotCompactlyContained(
            "hole is not a subset of the ambient set",
            inequality="|hole - ambient| <= 0",
            lhs=outside,
            rhs=0.0,
            margin=outside,
        )
    if not a.is_empty:
        dsq_comp = _edt_sq(~u.mask)
        margin = u.h * math.sqrt(float(dsq_comp[a.mask].min()))
        if margin <= u.h:
            raise NotCompactlyContained(
                f"hole margin {margin} <= h = {u.h}: not strictly inside",
                inequality="hole margin > h",
                lhs=margin,
                rhs=u.h,
                margin=u.h - margin,
            )
    else:
        margin = math.inf
    stab = opening_stability_radius(u)
    if not (2.0 / lam < stab):
        raise StabilityRadiusExceeded(
            f"2/lambda = {2.0 / lam} >= stability radius of the ambient set = {stab}",
            inequality="2/lambda < stability radius",
            lhs=2.0 / lam,
            rhs=stab,
            margin=2.0 / lam - stab,
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
