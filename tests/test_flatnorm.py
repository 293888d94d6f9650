"""Boundary-plus-mass minimization: exactness, thresholds, reach, pipeline.

The FROZEN table below was produced by tests/oracles.flatnorm_brute —
exhaustive enumeration of all 65536 labelings of a 4x4 window inside an
empty 6x6 frame.  Each row is (set_code, lam, energy, minimizer_code,
minimizer_count); codes pack the window row-major, bit k = flat cell k.
The solver must reproduce the energy to 1e-9 and the maximal minimizer
exactly.  A live slice of the table is re-derived on every run so the
table itself stays honest.
"""

import math
import tracemalloc

import numpy as np
import pytest

from covergeo import (
    GridSet,
    almost_cover_pipeline,
    disk,
    erode,
    fill_in_experiment,
    flatnorm_minimize,
    lambda_threshold,
    minimizer_reach_check,
    perimeter,
    two_disks,
)
from covergeo.errors import (
    CovergeoError,
    DeltaLambdaIncompatible,
    DimensionError,
    EmptySourceError,
    HypothesisViolation,
    LambdaBelowThreshold,
    NotCompactlyContained,
    StabilityRadiusExceeded,
    SymDiffTooLarge,
)
from covergeo import flatnorm
from covergeo.flatnorm import _cut_graph, _lattice_hull, _min_cut, _transition_lambda
from covergeo.grid import _crofton_weights, _neighbors, diameter
from covergeo.shapes import ball3, disk_minus_box, dumbbell, rasterize

from oracles import (
    cut_graph_coo,
    cut_graph_csr,
    flatnorm_brute,
    lambda_threshold_bisect,
    min_cut_scipy,
    perimeter_batch,
    sink_side_bfs,
    window_code,
)

# (set_code, lam, energy, minimizer_code, minimizer_count)
FROZEN = [
    (65535, 0.3, 4.8, 0, 1),
    (65535, 3.0, 13.919163587, 65535, 1),
    (64, 0.5, 0.5, 0, 1),
    (64, 4.0, 2.084800689, 64, 1),
    (42405, 0.8, 6.4, 0, 1),
    (42405, 2.5, 14.630797521, 42405, 1),
    (1879, 1.0, 8.0, 0, 1),
    (0, 1.0, 0.0, 0, 1),
    (8328, 2.20988, 5.790754458, 8328, 1),
    (23499, 1.547786, 15.068574296, 23499, 1),
    (30635, 0.023043, 0.253473, 0, 1),
    (65213, 1.95235, 15.298784549, 65213, 1),
    (49099, 0.918652, 11.023824, 0, 1),
    (62173, 0.038449, 0.422939, 0, 1),
    (36164, 0.031825, 0.19095, 0, 1),
    (34432, 2.590381, 7.069290412, 34432, 1),
    (398, 2.543649, 8.454307882, 398, 1),
    (8193, 1.861111, 3.722222, 0, 1),
    (27219, 0.13946, 1.11568, 0, 1),
    (12484, 2.135689, 8.62992825, 12484, 1),
    (23592, 1.573535, 9.44121, 0, 1),
    (387, 0.090332, 0.361328, 0, 1),
    (16, 0.472136, 0.472136, 0, 1),
    (24708, 1.324395, 5.29758, 0, 1),
    (64445, 0.28556, 3.71228, 0, 1),
    (15837, 1.003477, 11.038247, 0, 1),
    (30719, 0.023865, 0.33411, 0, 1),
    (65467, 1.021064, 14.294896, 0, 1),
    (46063, 0.025126, 0.301512, 0, 1),
    (56191, 0.033366, 0.433758, 0, 1),
    (64895, 0.46335, 6.4869, 0, 1),
    (652, 0.347393, 1.389572, 0, 1),
    (16315, 0.046193, 0.554316, 0, 1),
    (3346, 0.044192, 0.22096, 0, 1),
    (8968, 0.166209, 0.664836, 0, 1),
    (48023, 1.500529, 15.40256781, 48023, 1),
    (34524, 0.20101, 1.60808, 0, 1),
    (56252, 0.137897, 1.516867, 0, 1),
    (48623, 0.32144, 4.17872, 0, 1),
    (31073, 0.874573, 6.996584, 0, 1),
    (17247, 0.41984, 3.77856, 0, 1),
    (46845, 0.125131, 1.501572, 0, 1),
    (63611, 0.86268, 9.48948, 0, 1),
    (28606, 2.479179, 13.21398386, 28606, 1),
    (48362, 1.277996, 12.77996, 0, 1),
    (41695, 0.204176, 2.04176, 0, 1),
    (32768, 1.501882, 1.501882, 0, 1),
    (45049, 0.206682, 2.480184, 0, 1),
    (1056, 0.651242, 1.302484, 0, 1),
    (63231, 0.101537, 1.421518, 0, 1),
    # targeted geometry: ring, block-plus-satellite, columns, concavities
    (1879, 1.3596754852526658, 10.654213697, 1879, 1),
    (1879, 0.33991887131316645, 2.719350971, 0, 1),
    (34679, 2.0, 11.480423908, 34679, 1),
    (34679, 4.0, 11.480423908, 34679, 1),
    (34679, 0.9, 9.0, 0, 1),
    (32771, 2.9, 5.790754458, 32771, 1),
    (13111, 1.4, 11.016776299, 13111, 1),
    (13111, 3.0, 11.016776299, 13111, 1),
    (21845, 1.6, 12.8, 0, 1),
    (21845, 2.6, 12.842797647, 21845, 1),
    (28951, 2.2, 12.275366777, 28951, 1),
    (28951, 5.0, 12.275366777, 28951, 1),
    # cases where the minimizer is strictly between empty and the input
    (52225, 1.8, 7.829588322, 52224, 1),
    (52225, 2.5, 8.11438901, 52225, 1),
    (52225, 1.3, 6.5, 0, 1),
    (52227, 1.7, 9.429588322, 52224, 1),
    (8207, 1.9, 8.848259928, 15, 1),
]


def decode(code):
    bits = (code >> np.arange(16)) & 1
    return bits.astype(bool).reshape(4, 4)


def embed(window):
    m = np.zeros((6, 6), dtype=bool)
    m[1:5, 1:5] = window
    return GridSet(m, 1.0)


class TestExactness:
    @pytest.mark.parametrize("e_code,lam,energy,sig_code,n_min", FROZEN)
    def test_frozen_instances(self, e_code, lam, energy, sig_code, n_min):
        res = flatnorm_minimize(embed(decode(e_code)), lam)
        assert res.energy == pytest.approx(energy, abs=1e-8)
        assert window_code(res.sigma.mask[1:5, 1:5]) == sig_code

    def test_oracle_live_slice(self):
        # re-derive a sample of the frozen table, including every row with a
        # nontrivial minimizer, straight from the exhaustive enumeration
        live = [r for r in FROZEN if r[3] not in (0, r[0])] + FROZEN[:8]
        for e_code, lam, energy, sig_code, n_min in live:
            emin, union, count = flatnorm_brute(decode(e_code), lam, 1.0)
            assert emin == pytest.approx(energy, abs=1e-8), e_code
            assert window_code(union) == sig_code, e_code
            assert count == n_min, e_code

    def test_energy_decomposition(self):
        for e_code, lam, *_ in FROZEN[8:20]:
            e = embed(decode(e_code))
            res = flatnorm_minimize(e, lam)
            sym = float(np.logical_xor(res.sigma.mask, e.mask).sum())
            assert res.sym_diff_measure == sym
            assert res.perim_sigma == pytest.approx(perimeter(res.sigma), rel=1e-9)
            assert res.energy == pytest.approx(res.perim_sigma + lam * sym, rel=1e-9)

    def test_never_beaten_by_random_candidates(self):
        rng = np.random.default_rng(1234)
        for e_code, lam, *_ in FROZEN[::7]:
            e = embed(decode(e_code))
            res = flatnorm_minimize(e, lam)
            for _ in range(40):
                w = rng.random((4, 4)) < rng.uniform(0.2, 0.8)
                cand = embed(w)
                cand_energy = perimeter(cand) + lam * float(
                    np.logical_xor(cand.mask, e.mask).sum()
                )
                assert res.energy <= cand_energy + 1e-9

    def test_feasibility_sandwich(self):
        # the empty set and the input itself are always feasible
        for e_code, lam, *_ in FROZEN[:25]:
            e = embed(decode(e_code))
            res = flatnorm_minimize(e, lam)
            assert res.energy <= lam * e.count + 1e-9
            assert res.energy <= perimeter(e) + 1e-9

    def test_maximality_via_fixed_point(self):
        # a minimizer fed back in is reproduced cell for cell
        sig = flatnorm_minimize(disk(32.0), 0.08).sigma
        again = flatnorm_minimize(sig, 0.08)
        assert again.sym_diff_measure == 0.0
        assert again.sigma == sig

    def test_sym_diff_monotone_in_lambda(self):
        e = disk(16.0)
        lams = [0.05, 0.08, 0.12, 0.2, 0.4, 0.8, 1.6]
        syms = [flatnorm_minimize(e, lam).sym_diff_measure for lam in lams]
        assert all(a >= b - 1e-12 for a, b in zip(syms, syms[1:]))
        assert syms[0] == e.measure  # below threshold: drop everything
        assert syms[-1] == 0.0  # far above: keep everything

    def test_disk_shaves_knife_edge_ring(self):
        e = disk(32.0)
        res = flatnorm_minimize(e, 1.1 * 2.0 / 32.0)
        assert res.sigma.count == e.count - 4
        assert not (res.sigma.mask & ~e.mask).any()

    def test_validation(self):
        with pytest.raises(CovergeoError):
            flatnorm_minimize(disk(8.0), 0.0)
        with pytest.raises(DimensionError):
            flatnorm_minimize(ball3(4.0), 0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
    def test_non_finite_lambda_rejected(self, lam):
        # infinite lambda used to build NaN capacities and fail much later
        # with an unrelated frame error
        e = disk(8.0)
        with pytest.raises(CovergeoError, match="finite and positive"):
            flatnorm_minimize(e, lam)
        with pytest.raises(CovergeoError, match="finite and positive"):
            almost_cover_pipeline(e, lam, 1.0)
        with pytest.raises(CovergeoError, match="finite and positive"):
            fill_in_experiment(e, e.with_mask(np.zeros(e.dims, dtype=bool)), lam)

    def test_lambda_past_integer_capacities_rejected(self):
        # every capacity used to round to 0, ending in an unrelated rim error
        with pytest.raises(CovergeoError, match=r"lambda\*h\^2 = 1e\+08.*2\^26") as exc:
            flatnorm_minimize(disk(16.0), 1e8)
        assert "rim" not in str(exc.value)

    @pytest.mark.parametrize("lam", [6e5, 1e6, 1e7])
    def test_large_lambda_returns_the_input(self, lam):
        # a terminal capacity sized from lambda*h^2 used to round the
        # direction weights to a few integer units and trip the duality check
        e = disk(16.0)
        res = flatnorm_minimize(e, lam)
        assert res.sigma == e
        assert res.sym_diff_measure == 0.0
        assert res.energy == perimeter(e)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -3.0])
    def test_non_finite_delta_rejected(self, delta):
        # checked before any cut: lambda = 0.01 is below the threshold of
        # disk(8), so a cut would end in LambdaBelowThreshold instead
        with pytest.raises(CovergeoError, match="delta must be finite and positive") as exc:
            almost_cover_pipeline(disk(8.0), 0.01, delta)
        assert not isinstance(exc.value, HypothesisViolation)


def hull_edge(hull):
    """Cells of the hull with a neighbor outside it along some direction class."""
    edge = np.zeros_like(hull)
    for d in _crofton_weights(2, 1.0):
        for nbr in _neighbors(hull, d, False):
            edge |= hull & ~nbr
    return edge


def speckle(seed: int, h: float) -> GridSet:
    """Random cells in a random box well inside a 24x30 frame."""
    rng = np.random.default_rng(seed)
    i0, j0 = rng.integers(1, 8, size=2)
    i1, j1 = i0 + rng.integers(4, 15), j0 + rng.integers(4, 21)
    mask = np.zeros((24, 30), dtype=bool)
    mask[i0:i1, j0:j1] = rng.random((i1 - i0, j1 - j0)) < rng.uniform(0.2, 0.8)
    mask[i0, j0] = True
    return GridSet(mask, h)


HULL_SETS = [
    two_disks(8.0, 22.0),
    dumbbell(7.0, 1.5, 20.0),
    disk_minus_box(14.0, 6.0),
    disk(13.0, 0.5),
    *[speckle(seed, h) for seed in range(8) for h in (0.5, 1.0, 2.0)],
]


def snake(turns: int, length: int) -> GridSet:
    """A one-cell-wide path of ``turns`` rows of ``length`` cells, each row
    joined to the next at alternating ends."""
    mask = np.zeros((2 * turns + 3, length + 4), dtype=bool)
    for k in range(turns):
        mask[2 + 2 * k, 2 : 2 + length] = True
        if k < turns - 1:
            mask[3 + 2 * k, 1 + length if k % 2 == 0 else 2] = True
    return GridSet(mask, 1.0)


def cut_corpus_entry(name: str) -> tuple[GridSet, float, np.ndarray]:
    """(E, lambda, nodes) of one named instance of the cut-graph corpus."""
    point = np.zeros((5, 5), dtype=bool)
    point[2, 2] = True
    line = np.zeros((3, 11), dtype=bool)
    line[1, 1:10] = True
    interior = np.zeros((8, 8), dtype=bool)
    interior[1:-1, 1:-1] = np.random.default_rng(503).random((6, 6)) < 0.6
    kind, _, lam = name.partition("@")
    e = {
        "empty": lambda: GridSet(np.zeros((9, 11), dtype=bool), 1.0),
        "cell": lambda: GridSet(point, 1.0),
        "line": lambda: GridSet(line, 1.0),
        "frame8": lambda: GridSet(interior, 1.0),
        "speckle-h0.5": lambda: speckle(4, 0.5),
        "disk13-h0.5": lambda: disk(13.0, 0.5),
        "disk32": lambda: disk(32.0),
        "rough64": punctured_regular_disk,
        "snake": lambda: snake(12, 60),
    }[kind]()
    # the 8x8 frame's nodes are all of its cells, rim included
    nodes = np.ones(e.dims, dtype=bool) if kind == "frame8" else _lattice_hull(e)
    return e, float(lam), nodes


# lambda = 1e-9 rounds every terminal capacity to an explicit 0, so the
# speckle's holes get sink entries of 0; 1e3 and 1e7 h^2 lie above the 2W
# terminal cap; the disk(32) ladder and 2.5/64 on the punctured disk are the
# benchmark's cuts
CUT_CORPUS = [
    "empty@1.0",
    "cell@1.0",
    "cell@1e-9",
    "line@0.5",
    "line@3.0",
    "frame8@0.3",
    "frame8@1e3",
    "speckle-h0.5@1e-9",
    "speckle-h0.5@0.3",
    "speckle-h0.5@2.0",
    "disk13-h0.5@1e7",
    "disk32@0.08",
    "disk32@0.125",
    "disk32@0.25",
    "rough64@0.0390625",
    "snake@0.05",
    "snake@0.5",
    "snake@3.0",
]


def chain(n: int) -> flatnorm.CutGraph:
    """A cut graph whose nodes form a path: the source feeds node 0 two
    units, the arc from each node to the next carries one (the reverse arcs
    none), and node n - 1 drains into the sink."""
    sink = n + 1
    nbr = np.full((n, 16), sink, dtype=np.int32)
    nbr[:-1, 0] = np.arange(1, n)
    nbr[1:, 15] = np.arange(n - 1)
    weights = np.zeros(16, dtype=np.int32)
    weights[0] = 1
    to_sink = ((nbr == sink) * weights).sum(axis=1, dtype=np.int32)
    in_e = np.arange(n) == 0
    return flatnorm.CutGraph(nbr, weights, to_sink, in_e, np.int32(2))


class TestCutGraph:
    @staticmethod
    def assert_cut_values(e, lam, nodes, labelings):
        # the capacity from S plus the source to the rest is the energy of S
        graph, source, sink, scale = _cut_graph(e, lam, nodes)
        n_nodes = int(nodes.sum())
        assert graph.shape == (n_nodes + 2, n_nodes + 2)
        assert (source, sink) == (n_nodes, n_nodes + 1)
        capacities = cut_graph_csr(graph)
        for s in labelings:
            assert not (s & ~nodes).any()
            side = np.append(s[nodes], [True, False])
            across = capacities[side][:, ~side]
            # each entry merges at most 17 rounded edges: one terminal edge
            # and one from either side of each of the 8 direction classes
            tol = 0.5 * 17 * across.nnz / scale
            energy = perimeter_batch(s[None], e.h)[0] + lam * e.h**2 * np.count_nonzero(s ^ e.mask)
            assert abs(across.sum(dtype=np.int64) / scale - energy) <= tol

    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize("lam", [0.05, 0.3, 2.0])
    def test_cut_value_is_the_energy(self, lam, h):
        # labelings that touch the frame edge too: there the boundary sink
        # edges carry the crossings into the empty world beyond
        rng = np.random.default_rng(500)
        shape = (7, 9)
        e_mask = np.zeros(shape, dtype=bool)
        e_mask[1:-1, 1:-1] = rng.random((5, 7)) < 0.6
        e = GridSet(e_mask, h)
        labelings = [rng.random(shape) < rng.uniform(0.1, 0.9) for _ in range(24)]
        labelings += [np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool), ~e_mask]
        assert sum(s[0].any() or s[-1].any() or s[:, 0].any() or s[:, -1].any()
                   for s in labelings) >= 24
        self.assert_cut_values(e, lam, np.ones(shape, dtype=bool), labelings)

    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize("lam", [0.05, 0.3, 2.0])
    def test_hull_cut_value_is_the_energy(self, lam, h):
        # labelings inside the hull that touch its edge: there the sink
        # edges toward cells outside the hull carry the crossings
        e = speckle(3, h)
        hull = _lattice_hull(e)
        edge = hull_edge(hull)
        rng = np.random.default_rng(501)
        labelings = [hull & (rng.random(e.dims) < rng.uniform(0.1, 0.9)) for _ in range(24)]
        labelings += [hull, np.zeros(e.dims, dtype=bool), e.mask, edge]
        assert sum((s & edge).any() for s in labelings) >= 25
        self.assert_cut_values(e, lam, hull, labelings)

    @pytest.mark.parametrize("e", HULL_SETS + [GridSet(np.zeros((9, 11), dtype=bool), 1.0)])
    def test_hull_cut_equals_frame_cut(self, e):
        hull = _lattice_hull(e)
        frame = np.ones(e.dims, dtype=bool)
        if e.is_empty:
            assert not hull.any()
        else:
            assert e.mask[hull].sum() == e.count and hull.sum() < hull.size
        for lam in (0.01, 0.05, 0.2, 1.0, 5.0, 50.0):
            labels, flow, scale = _min_cut(e, lam, hull)
            labels_frame, flow_frame, scale_frame = _min_cut(e, lam, frame)
            assert flow == flow_frame and scale == scale_frame
            assert np.array_equal(labels, labels_frame)

    @pytest.mark.parametrize("e", HULL_SETS[:4] + HULL_SETS[4::5])
    def test_cropping_to_the_hull_never_costs(self, e):
        # the discrete argument behind the crop, checked on the oracle:
        # Per(S & H) <= Per(S) and |(S & H) xor E| = |S xor E| - |S - H|
        hull = _lattice_hull(e)
        rng = np.random.default_rng(502)
        for _ in range(30):
            s = rng.random(e.dims) < rng.uniform(0.05, 0.95)
            per_s, per_cut = perimeter_batch(np.stack([s, s & hull]), e.h)
            assert per_cut <= per_s + 1e-9
            assert np.count_nonzero((s & hull) ^ e.mask) == (
                np.count_nonzero(s ^ e.mask) - np.count_nonzero(s & ~hull)
            )

    def test_hull_is_cut_by_the_sixteen_half_planes(self):
        # a lone cell is its own hull; a lattice segment along a knight
        # direction keeps only its own cells
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        assert np.array_equal(_lattice_hull(GridSet(mask, 1.0)), mask)
        mask[6, 5] = True
        hull = _lattice_hull(GridSet(mask, 1.0))
        assert np.array_equal(hull, mask)

    @pytest.mark.parametrize("name", CUT_CORPUS)
    def test_csr_and_sink_side_equal_the_oracles(self, name):
        # the int32 CSR packed from the table is the one the COO lists merged
        # into, entry for entry, and the numpy search on the preflow's
        # residual table finds the sink side scipy's search finds on the
        # residual of scipy's maximum flow
        from scipy.sparse.csgraph import maximum_flow

        e, lam, nodes = cut_corpus_entry(name)
        graph, source, sink, scale = _cut_graph(e, lam, nodes)
        packed = cut_graph_csr(graph)
        coo, *terminals = cut_graph_coo(e, lam, nodes)
        assert (source, sink, scale) == tuple(terminals)
        assert packed.shape == coo.shape == graph.shape
        for part in ("indptr", "indices", "data"):
            ours, theirs = getattr(packed, part), getattr(coo, part)
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs), part
        assert packed.has_sorted_indices == coo.has_sorted_indices
        flow, residual = flatnorm.maximum_flow(graph, source, sink)
        order = flatnorm.breadth_first_order(residual, sink)
        assert order[0] == sink and len(np.unique(order)) == len(order)
        side = np.zeros(graph.shape[0], dtype=bool)
        side[order] = True
        result = maximum_flow(packed, source, sink)
        assert flow == result.flow_value
        assert np.array_equal(side, sink_side_bfs(packed - result.flow, sink))

    def test_each_arc_runs_back_through_the_reverse_column(self):
        e, lam, nodes = cut_corpus_entry("speckle-h0.5@0.3")
        graph, _, sink, _ = _cut_graph(e, lam, nodes)
        tail, col = np.nonzero(graph.nbr != sink)
        head = graph.nbr[tail, col]
        assert np.array_equal(graph.nbr[head, 15 - col], tail)
        assert np.array_equal(graph.weights, graph.weights[::-1])
        assert np.array_equal(flatnorm._REVERSE[:16], 15 - np.arange(16))

    @pytest.mark.parametrize("n", [1, 2, 3000])
    def test_search_follows_a_chain_one_level_at_a_time(self, n):
        # a chain source -> 0 -> 1 -> ... -> n - 1 -> sink is the deepest
        # search there is: n levels of one node each, and the order is the
        # chain reversed; dead (zero) reverse arcs are not followed
        graph = chain(n)
        residual = flatnorm.Residual(graph)
        assert residual.nbr is graph.nbr
        assert np.array_equal(flatnorm.breadth_first_order(residual, n + 1), np.r_[n + 1, n - 1 : -1 : -1])
        assert np.array_equal(flatnorm.breadth_first_order(residual, 0), [0])

    @pytest.mark.parametrize("n", [1, 2, 3000])
    def test_preflow_ends_on_a_chain(self, n):
        # one unit runs down all n levels.  With node n - 1 draining one
        # unit, the sink arcs carry less than the source's two and the
        # preflow runs on the reversed graph; the sink side is the sink
        # alone.  Draining three, it runs forward, the second unit stays
        # stranded at node 0 (on a chain of one node it drains too), and
        # node n - 1 keeps a live sink arc
        for drain, flow_value, sink_side in ((1, 1, [n + 1]), (3, 1 + (n == 1), [n + 1, n - 1])):
            graph = chain(n)
            graph.to_sink[-1] = drain
            flow, residual = flatnorm.maximum_flow(graph, n, n + 1)
            order = list(flatnorm.breadth_first_order(residual, n + 1))
            assert (flow, order) == (flow_value, sink_side)


class TestSolversAgree:
    """The numpy preflow gives the flow value, the sink side and so the
    maximal minimizer of scipy's public ``maximum_flow`` (Dinic) on the
    oracle's COO graph, cut for cut."""

    @staticmethod
    def assert_same_cut(e, lam, nodes):
        graph, source, sink, _ = _cut_graph(e, lam, nodes)
        flow, residual = flatnorm.maximum_flow(graph, source, sink)
        side = np.zeros(graph.shape[0], dtype=bool)
        side[flatnorm.breadth_first_order(residual, sink)] = True
        labels, cut_flow, _ = _min_cut(e, lam, nodes)
        flow_ref, side_ref, labels_ref = min_cut_scipy(e, lam, nodes)
        assert cut_flow == flow == flow_ref
        assert np.array_equal(side, side_ref)
        assert np.array_equal(labels, labels_ref)

    @pytest.mark.parametrize("name", CUT_CORPUS)
    def test_cut_corpus(self, name):
        self.assert_same_cut(*cut_corpus_entry(name))

    @pytest.mark.parametrize("e", HULL_SETS)
    def test_hull_sets(self, e):
        for lam in (0.01, 0.05, 0.2, 1.0, 5.0):
            self.assert_same_cut(e, lam, _lattice_hull(e))

    def test_frozen_windows(self):
        for e_code, lam, *_ in FROZEN:
            e = embed(decode(e_code))
            self.assert_same_cut(e, lam, np.ones(e.dims, dtype=bool))
            self.assert_same_cut(e, lam, _lattice_hull(e))


def bench_rough64() -> GridSet:
    """The pipeline benchmark's input at seed 0, built as ``bench/inputs.py``
    builds it: the lambda = 2.5/64 minimizer of disk(64) less the 2x2 block
    that seed 0 picks among those inside the minimizer eroded by 12."""
    sigma = flatnorm_minimize(disk(64.0), 2.5 / 64.0).sigma
    inner = erode(sigma, 12.0).mask
    whole_block = inner[:-1, :-1] & inner[1:, :-1] & inner[:-1, 1:] & inner[1:, 1:]
    corners = np.argwhere(whole_block)
    i, j = corners[np.random.default_rng(0).integers(len(corners))]
    mask = sigma.mask.copy()
    mask[i : i + 2, j : j + 2] = False
    return sigma.with_mask(mask)


class TestPreflowMemory:
    def test_the_pipeline_cut_needs_at_most_300_bytes_a_node(self):
        # the int32 residual table is 68 B a node, and the rest is per-node
        # search and push state and per-level temporaries: no stored
        # reverse-arc table and no intp copy of the heads (561 B a node
        # with both).  This cut runs on the reversed graph, whose first
        # search level holds every node of E
        e = bench_rough64()
        graph, source, sink, _ = _cut_graph(e, 2.5 / 64.0, _lattice_hull(e))
        assert len(graph.nbr) == 12937
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            flatnorm.maximum_flow(graph, source, sink)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 300 * len(graph.nbr)


def seeded_threshold_set(kind: str, seed: int) -> GridSet:
    """Small seeded sets for checking the threshold against real cuts."""
    rng = np.random.default_rng(seed)
    if kind == "two-radii":
        # two components of different radii, far enough apart to stay apart
        r1, r2 = rng.uniform(4.0, 7.0), rng.uniform(8.0, 12.0)
        c1, c2 = -(r1 + 3.0), r2 + 3.0
        return rasterize(
            lambda x, y: ((x - c1) ** 2 + y**2 <= r1 * r1) | ((x - c2) ** 2 + y**2 <= r2 * r2),
            c2 + r2,
            1.0,
        )
    if kind == "punctured":
        e = disk(rng.uniform(10.0, 14.0))
        cells = np.argwhere(e.mask)
        mask = e.mask.copy()
        for i, j in cells[rng.choice(len(cells), size=6, replace=False)]:
            mask[i : i + 2, j : j + 2] = False
        return e.with_mask(mask)
    if kind == "half-cell":
        return disk(rng.uniform(5.0, 9.0), 0.5)
    raise ValueError(kind)


THRESHOLD_SETS = [(kind, seed) for kind in ("two-radii", "punctured", "half-cell") for seed in (0, 1, 2)]


class TestLambdaThreshold:
    @pytest.mark.parametrize("kind,seed", THRESHOLD_SETS)
    def test_equals_bisection_on_real_cuts(self, kind, seed):
        e = seeded_threshold_set(kind, seed)
        assert lambda_threshold(e) == lambda_threshold_bisect(e)

    @pytest.mark.parametrize("kind,seed", THRESHOLD_SETS)
    def test_transition_separates_empty_from_nonempty(self, kind, seed):
        e = seeded_threshold_set(kind, seed)
        lam_star = _transition_lambda(e)
        assert flatnorm_minimize(e, (1.0 - 1e-6) * lam_star).sigma.is_empty
        assert not flatnorm_minimize(e, (1.0 + 1e-6) * lam_star).sigma.is_empty

    def test_two_cuts(self, monkeypatch):
        # the bisection it replaces solved 17 cuts on this set
        cuts = count_cuts(monkeypatch)
        lambda_threshold(disk(24.0))
        assert len(cuts) == 2

    def test_disk_transition_near_analytic(self):
        # for a disk, the empty set wins below 2/R and loses above
        thr = lambda_threshold(disk(64.0))
        assert thr == pytest.approx(0.031211644593848297, abs=1e-9)
        assert 0.97 * (2.0 / 64.0) <= thr <= 1.03 * (2.0 / 64.0)

    def test_scales_with_resolution(self):
        thr = lambda_threshold(disk(32.0, 0.5))
        assert thr == pytest.approx(2 * 0.031211644593848297, rel=1e-6)

    def test_disjoint_pair_transitions_at_component_scale(self):
        thr = lambda_threshold(two_disks(24.0, 70.0))
        assert thr == pytest.approx(2.0 / 24.0, rel=0.03)

    def test_bracket_semantics(self):
        e = disk(24.0)
        thr = lambda_threshold(e)
        assert flatnorm_minimize(e, 0.9 * thr).sigma.is_empty
        assert not flatnorm_minimize(e, 1.1 * thr).sigma.is_empty

    def test_empty_input(self):
        with pytest.raises(EmptySourceError):
            lambda_threshold(GridSet(np.zeros((5, 5), bool), 1.0))

    @pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
    def test_single_cell_perimeter(self, h):
        # every crossing of E crosses one of its cells, so
        # Per(E)/|E| <= Per(cell)/h^2 = 2.085/h, below the bracket top 10/h
        cell = np.zeros((3, 3), dtype=bool)
        cell[1, 1] = True
        assert perimeter(GridSet(cell, h)) == pytest.approx(2.0848006888344788 * h, rel=1e-12)

    @pytest.mark.parametrize("kind,seed", THRESHOLD_SETS)
    def test_bracket_bottom_lies_below_the_transition(self, kind, seed):
        # lambda* >= 4w / (h (D + h)) with w the axis weight and D the centre
        # diameter, above the bracket bottom 0.1 / diam = 0.1 / (D + h sqrt(2))
        e = seeded_threshold_set(kind, seed)
        diam = diameter(e.true_cells(), e.h)
        centre_diam = diam - e.h * math.sqrt(2.0)
        w = _crofton_weights(2, e.h)[(0, 1)]
        floor = 4.0 * w / (e.h * (centre_diam + e.h))
        assert 0.1 / diam < floor <= _transition_lambda(e)

    @pytest.mark.parametrize("kind,seed", THRESHOLD_SETS)
    def test_bracket_top_lies_above_the_transition(self, kind, seed):
        e = seeded_threshold_set(kind, seed)
        ratio = perimeter(e) / e.measure
        assert ratio < 10.0 / e.h
        assert _transition_lambda(e) <= ratio


class TestReachCheck:
    def test_regularized_disk_beats_floor(self):
        res = flatnorm_minimize(disk(64.0), 2.5 / 64.0)
        assert res.sigma.count == 12833  # 20 knife-edge cells shed
        rep = minimizer_reach_check(res)
        assert rep.floor == pytest.approx(2.6755771772275674, abs=1e-9)
        assert rep.radius_sigma == 55.5
        assert rep.radius_complement == 132.5
        assert rep.verdict

    def test_vacuous_floor_still_true(self):
        rep = minimizer_reach_check(flatnorm_minimize(disk(32.0), 0.125))
        assert rep.floor < 0  # lambda too large for a meaningful floor
        assert (rep.radius_sigma, rep.radius_complement) == (29.5, 68.5)
        assert rep.verdict

    def test_empty_minimizer_rejected(self):
        res = flatnorm_minimize(disk(16.0), 0.05)
        assert res.sigma.is_empty
        with pytest.raises(EmptySourceError):
            minimizer_reach_check(res)


class TestFillIn:
    def make_hole(self, u, k):
        c = u.dims[0] // 2
        hm = np.zeros(u.dims, bool)
        lo = c - k // 2
        hm[lo : lo + k, lo : lo + k] = True
        return u.with_mask(hm)

    def test_small_hole_fills(self):
        u = disk(40.0)
        rep = fill_in_experiment(u, self.make_hole(u, 3), 0.1)
        assert rep.sym_diff_to_whole == 4.0  # only the knife-edge cells differ
        assert rep.tolerance == pytest.approx(2.0 * perimeter(u))
        assert rep.verdict
        assert rep.margin == pytest.approx(38.8330, abs=1e-3)

    def test_quarter_area_hole_still_fills(self):
        # even a hole of area R^2/4 costs less to fill than to excise:
        # its boundary is long relative to lam times its area
        u = disk(40.0)
        rep = fill_in_experiment(u, self.make_hole(u, 20), 0.1)
        assert rep.sym_diff_to_whole == 4.0
        assert rep.verdict

    def test_huge_round_hole_does_not_fill(self):
        u = disk(40.0)
        c = u.dims[0] // 2
        ii, jj = np.indices(u.dims)
        hole = u.with_mask((((ii - c) ** 2 + (jj - c) ** 2) <= 22.0**2) & u.mask)
        rep = fill_in_experiment(u, hole, 0.1)
        assert rep.sigma.is_empty  # the annulus is abandoned entirely
        assert rep.sym_diff_to_whole == u.measure
        assert not rep.verdict

    def test_lambda_below_ambient_scale(self):
        u = disk(40.0)
        with pytest.raises(StabilityRadiusExceeded):
            fill_in_experiment(u, self.make_hole(u, 3), 0.04)

    def test_hole_touching_boundary(self):
        u = disk(40.0)
        c = u.dims[0] // 2
        hm = np.zeros(u.dims, bool)
        hm[c, c + 40] = True  # margin exactly one cell
        with pytest.raises(NotCompactlyContained):
            fill_in_experiment(u, u.with_mask(hm), 0.1)

    def test_hole_outside_ambient(self):
        u = disk(40.0)
        hm = np.zeros(u.dims, bool)
        hm[1, 1] = True
        with pytest.raises(NotCompactlyContained):
            fill_in_experiment(u, u.with_mask(hm), 0.1)

    def test_empty_hole_is_plain_minimization(self):
        u = disk(40.0)
        rep = fill_in_experiment(u, u.with_mask(np.zeros(u.dims, bool)), 0.1)
        assert rep.margin == math.inf
        assert rep.verdict


def punctured_regular_disk():
    """The regularized disk with a 2x2 hole: an exact-fixed-point input."""
    s0 = flatnorm_minimize(disk(64.0), 2.5 / 64.0).sigma
    c = s0.dims[0] // 2
    m = s0.mask.copy()
    m[c : c + 2, c : c + 2] = False
    return s0.with_mask(m)


class TestPipeline:
    def test_end_to_end(self):
        e = punctured_regular_disk()
        part, bound = almost_cover_pipeline(e, 2.5 / 64.0, 4.5)
        assert part.region_count == 1289
        assert part.base.measure == 12829.0  # sigma restores the hole: A = E
        assert bound.kind == "flatnorm-almost"
        assert bound.m_regions == 1289
        assert 0 < bound.evaluate(21275) < 1

    def test_lambda_gate(self):
        e = punctured_regular_disk()
        with pytest.raises(LambdaBelowThreshold, match="threshold"):
            almost_cover_pipeline(e, 0.01, 4.5)

    def test_residual_gate(self):
        # the raw disk sheds 20 boundary cells: more than delta^2/2 allows
        with pytest.raises(SymDiffTooLarge, match=r"20\.0"):
            almost_cover_pipeline(disk(64.0), 2.5 / 64.0, 4.5)

    def test_delta_lambda_gate(self):
        with pytest.raises(DeltaLambdaIncompatible, match=r"1/\(5 lambda\)"):
            almost_cover_pipeline(disk(32.0), 0.08, 5.0)


def count_cuts(monkeypatch) -> list:
    """Record every maximum_flow call the flat-norm module makes."""
    cuts = []
    solve = flatnorm.maximum_flow

    def counted(*args):
        cuts.append(args)
        return solve(*args)

    monkeypatch.setattr(flatnorm, "maximum_flow", counted)
    return cuts


def gate_set(kind: str, seed: int) -> GridSet:
    return punctured_regular_disk() if kind == "rough64" else seeded_threshold_set(kind, seed)


class TestPipelineLambdaGate:
    # delta = 1e3 fails the delta < 1/(5 lambda) gate for every lambda here,
    # so a lambda that passes its own gate ends there, before any partition
    DELTA = 1e3

    @pytest.mark.parametrize("kind,seed", THRESHOLD_SETS + [("rough64", 0)])
    def test_gate_raises_exactly_at_or_below_the_threshold(self, kind, seed):
        e = gate_set(kind, seed)
        thr = lambda_threshold(e)
        # the bound the pipeline settles the gate from without cuts
        assert thr < 1.01 * perimeter(e) / e.measure
        for factor in (0.9, 0.999, 1.001, 1.005, 1.02, 1.3):
            lam = factor * thr
            with pytest.raises(HypothesisViolation) as exc:
                almost_cover_pipeline(e, lam, self.DELTA)
            assert isinstance(exc.value, LambdaBelowThreshold) == (lam <= thr), factor
            if lam > thr:
                assert isinstance(exc.value, DeltaLambdaIncompatible)

    def test_error_order_above_the_bound(self):
        # lambda, delta, then the empty set, then 2d-only, even for a lambda
        # far above any bound that skips the threshold
        empty = GridSet(np.zeros((6, 6), dtype=bool), 1.0)
        with pytest.raises(CovergeoError, match="lambda must be finite"):
            almost_cover_pipeline(empty, math.nan, math.nan)
        with pytest.raises(CovergeoError, match="delta must be finite"):
            almost_cover_pipeline(empty, 1e3, math.nan)
        with pytest.raises(EmptySourceError):
            almost_cover_pipeline(empty, 1e3, 1e-4)
        with pytest.raises(DimensionError):
            almost_cover_pipeline(ball3(4.0), 1e3, 1e-4)

    def test_cuts_above_and_below_the_bound(self, monkeypatch):
        e = punctured_regular_disk()
        bound = 1.01 * perimeter(e) / e.measure
        thr = lambda_threshold(e)
        assert thr < bound
        cuts = count_cuts(monkeypatch)
        for lam, n_cuts in ((1.02 * bound, 1), (0.5 * (thr + bound), 3)):
            cuts.clear()
            with pytest.raises(DeltaLambdaIncompatible):
                almost_cover_pipeline(e, lam, self.DELTA)
            assert len(cuts) == n_cuts, lam
