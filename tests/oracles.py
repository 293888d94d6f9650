"""Brute-force reference implementations used to pin expected values.

Everything here trades speed for obviousness: exhaustive pairwise scans and
full state-space enumeration, no clever data structures.  Tests compare the
package against these on small inputs and freeze the resulting numbers.
"""

import math

import numpy as np

from covergeo.errors import (
    CovergeoError,
    EmptySourceError,
    StabilityRadiusExceeded,
    check_positive_finite,
)
from covergeo.flatnorm import _cut_scale, _terminal_capacity, flatnorm_minimize
from covergeo.grid import (
    GridSet,
    _crofton_weights,
    _edt_sq,
    _erosion_empty,
    _neighbors,
    _refined_solid_dsq,
    _threshold_sq,
    diameter,
    erode,
)
from covergeo.partition import RegionRecord, _region_records
from covergeo.render import _CELL_PX, _document

_BIG = 1 << 20


def edt_sq_brute(source: np.ndarray) -> np.ndarray:
    """Exact squared index-distance to the nearest True cell, O(cells^2)."""
    source = np.asarray(source, dtype=bool)
    src = np.argwhere(source)
    if len(src) == 0:
        raise ValueError("empty source")
    pts = np.indices(source.shape).reshape(source.ndim, -1).T
    d2 = ((pts[:, None, :] - src[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return d2.reshape(source.shape).astype(np.int64)


def perimeter_batch(masks: np.ndarray, h: float) -> np.ndarray:
    """Crofton perimeter of each mask in a (B, r, c) stack, outside empty."""
    masks = np.asarray(masks, dtype=bool)
    wt = _crofton_weights(2, h)
    pad = 3  # covers every direction class plus one guard row
    b = np.pad(masks, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros(len(masks))
    for (di, dj), w in wt.items():
        shifted = np.roll(b, shift=(-di, -dj), axis=(1, 2))
        out += w * np.count_nonzero(b ^ shifted, axis=(1, 2))
    return out


def flatnorm_brute(e_window: np.ndarray, lam: float, h: float):
    """Exhaustive minimizer of Per(S) + lam * h^2 * |S xor E| over a window.

    Enumerates every subset of the window (so the window must stay small,
    16 cells = 65536 candidates).  Returns the minimal energy, the union of
    all minimizers (checked to be a minimizer itself), and their count.
    Bit k of a candidate code maps to flat cell k in row-major order.
    """
    e_window = np.asarray(e_window, dtype=bool)
    n = e_window.size
    if n > 20:
        raise ValueError(f"window too large to enumerate: {n} cells")
    codes = np.arange(1 << n, dtype=np.int64)
    masks = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    masks = masks.reshape(-1, *e_window.shape)
    per = perimeter_batch(masks, h)
    sym = np.count_nonzero(masks ^ e_window[None], axis=(1, 2))
    energy = per + lam * h * h * sym
    emin = float(energy.min())
    arg = np.flatnonzero(energy <= emin + 1e-9)
    union = masks[arg].any(axis=0)
    u_energy = float(
        perimeter_batch(union[None], h)[0]
        + lam * h * h * np.count_nonzero(union ^ e_window)
    )
    if u_energy > emin + 1e-9:
        raise AssertionError(
            f"union of minimizers is not a minimizer: {u_energy} > {emin}"
        )
    return emin, union, int(len(arg))


def window_code(window: np.ndarray) -> int:
    """Pack a boolean window into the integer code flatnorm_brute uses."""
    flat = np.asarray(window, dtype=bool).ravel()
    return int(sum(1 << k for k in np.flatnonzero(flat)))


def diameter_brute(cells: np.ndarray, h: float) -> float:
    """Max pairwise center distance plus the h*sqrt(n) cell-extent pad."""
    cells = np.asarray(cells, dtype=np.int64)
    k, n = cells.shape
    best = 0
    for i in range(k):
        d2 = ((cells[i + 1 :] - cells[i]) ** 2).sum(axis=1)
        if len(d2):
            best = max(best, int(d2.max()))
    return h * (np.sqrt(best) + np.sqrt(n))


def worst_sample_dsq_brute(true_cells: np.ndarray, sample_cells: np.ndarray) -> int:
    """Max over true cells of the min squared index-distance to a sample cell.

    Integer arithmetic throughout, so a coverage decision made from this
    value is exact rather than tolerance-based.
    """
    true_cells = np.asarray(true_cells, dtype=np.int64)
    sample_cells = np.asarray(sample_cells, dtype=np.int64)
    d2 = ((true_cells[:, None, :] - sample_cells[None, :, :]) ** 2).sum(axis=2)
    return int(d2.min(axis=1).max())


def covered_counts_frame(e: GridSet, cells: np.ndarray, r: float) -> tuple[int, int]:
    """True cells of e within r and within r - h*sqrt(n)/2 of the sampled cells.

    The coverage verdict as it was before the box-bucketed kernel, kept
    verbatim: one distance transform of the whole frame per draw.
    """
    check_positive_finite(r, "coverage radius")
    if e.is_empty:
        raise EmptySourceError("coverage of an empty set is undefined")
    r_cons = r - e.h * math.sqrt(e.ndim) / 2.0
    if len(cells) == 0:
        return 0, 0
    source = np.zeros(e.dims, dtype=bool)
    source[tuple(cells.T)] = True
    dsq = _edt_sq(source)[e.mask]
    hit = int(np.count_nonzero(dsq <= _threshold_sq(r, e.h)))
    hit_cons = int(np.count_nonzero(dsq <= _threshold_sq(r_cons, e.h))) if r_cons > 0 else 0
    return hit, hit_cons


def lambda_threshold_bisect(e: GridSet, rel_width: float = 1e-3) -> float:
    """Transition lambda by bisection with a full min-cut at every probe.

    The threshold search as it was before the Dinkelbach replay, kept
    verbatim: ``lambda_threshold`` must return exactly this value.
    """
    check_positive_finite(rel_width, "bracket width")
    if e.is_empty:
        raise EmptySourceError("threshold of an empty set is undefined")
    diam = diameter(e.true_cells(), e.h)
    lo = 0.1 / diam
    hi = 10.0 / e.h
    for _ in range(40):
        if flatnorm_minimize(e, lo).sigma.is_empty:
            break
        lo *= 0.5
    else:
        raise CovergeoError("no empty minimizer found at any small lambda")
    for _ in range(40):
        if not flatnorm_minimize(e, hi).sigma.is_empty:
            break
        hi *= 2.0
    else:
        raise CovergeoError("no nonempty minimizer found at any large lambda")
    width_target = rel_width * (hi - lo)
    # the absolute target alone is too loose when the transition sits far
    # below the initial bracket top, so also require the bracket to be
    # narrow relative to the transition value itself
    while hi - lo > width_target or hi - lo > 5e-3 * lo:
        mid = 0.5 * (lo + hi)
        if flatnorm_minimize(e, mid).sigma.is_empty:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def row_runs_brute(row):
    """(start, length, value) runs of equal nonzero values, one cell at a time."""
    runs = []
    j = 0
    while j < len(row):
        if row[j] == 0:
            j += 1
            continue
        k = j + 1
        while k < len(row) and row[k] == row[j]:
            k += 1
        runs.append((j, k - j, int(row[j])))
        j = k
    return runs


def _row_runs(row: np.ndarray):
    """Yield (start, length, value) runs of equal nonzero values."""
    bounds = np.concatenate(([0], np.flatnonzero(row[1:] != row[:-1]) + 1, [len(row)]))
    for j, k in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if row[j] != 0:
            yield j, k - j, row[j]


def _rects_per_row(values: np.ndarray, color_of) -> list[str]:
    out = []
    for i in range(values.shape[0]):
        for j, length, v in _row_runs(values[i]):
            out.append(
                f'<rect x="{j * _CELL_PX:.1f}" y="{i * _CELL_PX:.1f}" '
                f'width="{length * _CELL_PX:.1f}" height="{_CELL_PX:.1f}" '
                f'fill="{color_of(v)}"/>'
            )
    return out


def svg_per_row(values: np.ndarray, color_of) -> str:
    """An SVG raster as the renderers wrote it before the one run table, kept
    verbatim: the runs of each row found apart, one ``color_of`` call and
    one float format per rectangle."""
    return _document(values.shape, _rects_per_row(values, color_of))


def _solid_box_dsq(shape: tuple[int, ...], lo: tuple[int, ...], hi: tuple[int, ...]) -> np.ndarray:
    """Squared distance (cell units) from every cell center to a solid box.

    The box spans cells ``lo[i] .. hi[i]`` inclusive per axis, including
    their full extent, so its faces sit half a cell beyond the outer cell
    centers.  Distance from a center at integer coordinates to the box is
    the per-axis clamp, which lands on half-integers; everything is scaled
    by 2 so the arithmetic stays integral, then divided back out as float.
    """
    total = None
    for ax, n_ax in enumerate(shape):
        coords = 2 * np.arange(n_ax, dtype=np.int64)  # doubled center coords
        lo_face = 2 * lo[ax] - 1
        hi_face = 2 * hi[ax] + 1
        d = np.maximum(lo_face - coords, 0) + np.maximum(coords - hi_face, 0)
        d2 = (d * d).astype(np.float64) / 4.0
        reshape = [1] * len(shape)
        reshape[ax] = n_ax
        d2 = d2.reshape(reshape)
        total = d2 if total is None else total + d2
    return total


def grow_regions_brute(
    base: GridSet, delta: float, grow_radius: float, ell_cells: int
) -> tuple[np.ndarray, tuple[RegionRecord, ...]]:
    """Partition regions grown by a first-come sweep over the seed cubes.

    ``partition._build_regions`` as it was before the one-pass-per-offset
    growth, kept verbatim: one solid-box distance window per seed cube, in
    rank order, each claiming the cells still unclaimed within reach.
    """
    core = erode(base, delta)
    if core.is_empty:
        raise _erosion_empty(
            base,
            delta,
            f"erosion empty at delta = {delta} (largest admissible delta is "
            f"below the set inradius)",
        )
    dims = base.dims
    # seed cubes: index-lattice blocks of ell_cells per axis, anchored at 0,
    # that contain at least one core cell.  A cube's seed index is its
    # row-major place in the cube lattice, so ascending seed indices run in
    # lexicographic cube order and a seed's rank is its region id.
    cube_grid = tuple(d // ell_cells + 1 for d in dims)
    cube_of = np.ravel_multi_index(np.ix_(*[np.arange(d) // ell_cells for d in dims]), cube_grid)
    rank = np.zeros(math.prod(cube_grid), dtype=np.int32)
    rank[cube_of[core.mask]] = 1
    seeds = np.flatnonzero(rank).tolist()
    rank[seeds] = np.arange(1, len(seeds) + 1)

    # pass 1: cells inside a seed cube belong to that cube's region
    labels = rank[cube_of]
    labels[~base.mask] = 0

    # pass 2: remaining cells join the first cube within grow_radius of its
    # solid box; earlier cubes win, so a single sweep in rank order suffices
    reach = int(math.ceil(grow_radius / base.h)) + 1
    rsq_cells = (grow_radius / base.h) ** 2
    unclaimed = base.mask & (labels == 0)
    for rid, seed in enumerate(seeds, start=1):
        if not unclaimed.any():
            break
        lo = [int(c) * ell_cells for c in np.unravel_index(seed, cube_grid)]
        hi = [min(l + ell_cells, d) - 1 for l, d in zip(lo, dims)]
        win_lo = [max(0, l - reach) for l in lo]
        win_hi = [min(d, hh + reach + 1) for hh, d in zip(hi, dims)]
        window = tuple(slice(a, b) for a, b in zip(win_lo, win_hi))
        sub_unclaimed = unclaimed[window]
        if not sub_unclaimed.any():
            continue
        sub_shape = tuple(b - a for a, b in zip(win_lo, win_hi))
        rel_lo = tuple(l - a for l, a in zip(lo, win_lo))
        rel_hi = tuple(hh - a for hh, a in zip(hi, win_lo))
        dsq = _solid_box_dsq(sub_shape, rel_lo, rel_hi)
        take = sub_unclaimed & (dsq <= rsq_cells + 1e-9)
        if take.any():
            labels[window][take] = rid
            unclaimed[window] &= ~take

    uncovered = int((base.mask & (labels == 0)).sum())
    if uncovered:
        raise StabilityRadiusExceeded(
            f"delta exceeds stability radius: {uncovered} cells of the set lie "
            f"farther than the growth radius {grow_radius} from every seed cube",
            inequality="cells beyond the growth radius <= 0",
            lhs=uncovered,
            rhs=0.0,
        )
    return labels, _region_records(labels, base.h, enumerate(seeds, start=1))


def stable_under_opening_refined(mask: np.ndarray, comp_dsq: np.ndarray, m: int) -> bool:
    """Opening-stability probe at radius m*h/2 on the 2x-refined lattice.

    ``grid._stable_under_opening`` as it was before the coarse witness and
    certain-fail rules, kept verbatim: every probe runs the exact distance
    to the solid core.
    """
    core = mask & (4 * comp_dsq > m * m)
    if not core.any():
        return False
    solid = _refined_solid_dsq(core)
    return bool(np.all(solid[mask] <= m * m))


def cut_graph_coo(e: GridSet, lam: float, nodes: np.ndarray):
    """``flatnorm._cut_graph`` as it was before the direct int32 CSR build,
    kept verbatim: float COO lists, rounded, then merged by ``sum_duplicates``.
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


def cut_graph_csr(graph):
    """The capacities of a ``flatnorm.CutGraph`` as a canonical int32 CSR
    matrix, packed as the package packed them for scipy's solver.

    Row k lists node k's neighbours among the nodes by ascending id, then
    its sink arc; the source row lists the nodes in E.  An arc that leaves
    the nodes is absent (its weight is in the sink arc), and so is the zero
    sink arc of a node of E with no such arc.
    """
    from scipy.sparse import csr_matrix

    n_nodes = len(graph.nbr)
    off = graph.nbr == n_nodes + 1
    heads = np.column_stack([graph.nbr, np.full(n_nodes, n_nodes + 1, dtype=np.int32)])
    present = np.column_stack([~off, ~graph.in_e | off.any(axis=1)])
    caps = np.column_stack([np.broadcast_to(graph.weights, graph.nbr.shape), graph.to_sink])
    from_e = np.flatnonzero(graph.in_e).astype(np.int32)
    indptr = np.zeros(n_nodes + 3, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1 : n_nodes + 1])
    indptr[n_nodes + 1 :] = indptr[n_nodes] + len(from_e)
    indices = np.concatenate([heads[present], from_e])
    data = np.concatenate([caps[present], np.full(len(from_e), graph.unary)])
    return csr_matrix((data, indices, indptr), shape=graph.shape)


def min_cut_scipy(e: GridSet, lam: float, nodes: np.ndarray):
    """(flow value, sink side, maximal minimizer) of the cut on ``nodes``:
    scipy's public ``maximum_flow`` (Dinic) on ``cut_graph_coo``, and the
    sink side ``sink_side_bfs`` finds on its residual."""
    from scipy.sparse.csgraph import maximum_flow

    graph, source, sink, _ = cut_graph_coo(e, lam, nodes)
    result = maximum_flow(graph, source, sink)
    side = sink_side_bfs(graph - result.flow, sink)
    labels = np.zeros(e.dims, dtype=bool)
    labels[nodes] = ~side[:source]
    return int(result.flow_value), side, labels


def sink_side_bfs(residual, sink: int) -> np.ndarray:
    """The nodes that reach ``sink`` in the residual graph, as a boolean mask,
    by scipy's ``breadth_first_order`` on the transposed positive part."""
    from scipy.sparse.csgraph import breadth_first_order

    order = breadth_first_order(
        (residual > 0).T, sink, directed=True, return_predecessors=False
    )
    side = np.zeros(residual.shape[0], dtype=bool)
    side[order] = True
    return side


def reach_constant_scan() -> tuple[float, float, tuple]:
    """(c_hat, theta_star, profile) of ``bounds.reach_constant`` as it was
    before its scan ran in numpy, kept verbatim: the dense scan one theta at
    a time in ``math``, then the same golden-section refinement."""
    from covergeo.bounds import _SCAN_POINTS, _c_profile

    lo, hi = 1.5 * math.pi, 2.0 * math.pi
    eps = (hi - lo) * 1e-9
    thetas = [lo + eps + (hi - lo - 2 * eps) * i / (_SCAN_POINTS - 1) for i in range(_SCAN_POINTS)]
    values = [_c_profile(t) for t in thetas]
    k = max(range(_SCAN_POINTS), key=values.__getitem__)
    a = thetas[max(0, k - 1)]
    b = thetas[min(_SCAN_POINTS - 1, k + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _c_profile(c), _c_profile(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _c_profile(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _c_profile(d)
    theta_star = (a + b) / 2.0
    step = _SCAN_POINTS // 512
    profile = tuple(zip(thetas[::step], values[::step]))
    return _c_profile(theta_star), theta_star, profile
