import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sympair import util
from sympair.errors import CoincidentPoints, ColorArityMismatch, GaugeUnderdetermined, SympairError
from sympair.graphs import (
    INF,
    UNKNOWN,
    ColoredGraph,
    angle,
    compile_operator,
    enumerate_graphs,
    mirror_orientation_sign,
    weight_mc,
    zero_weight_predicate,
)
from sympair.liealg import trace_word
from sympair.poly import Poly
from sympair.polyops import BlockPolynomial

from conftest import relabel_aerial


# -- admissibility and canonical forms ------------------------------------------

def test_edge_color_rules():
    with pytest.raises(ValueError):
        ColoredGraph(1, 1, [(1, 0, "+")])  # ground-sourced edge must be dashed
    with pytest.raises(ValueError):
        ColoredGraph(1, 1, [(0, 1, "-")])  # into ground must be solid
    with pytest.raises(ValueError):
        ColoredGraph(1, 0, [(0, INF, "+")])  # infinity edges are dashed
    with pytest.raises(ValueError):
        ColoredGraph(1, 2, [(0, 1, "+"), (0, 1, "+")])  # double edge same color
    with pytest.raises(ValueError):
        ColoredGraph(1, 0, [(0, 0, "-")])  # loop
    with pytest.raises(ValueError, match=r"color '\+\+' is neither"):
        ColoredGraph(1, 2, [(0, 1, "++"), (0, 2, "+")])  # two colors only
    # distinct colors to the same target are allowed
    g = ColoredGraph(2, 0, [(0, 1, "+"), (0, 1, "-")])
    assert len(g.edges) == 2


@pytest.mark.parametrize("bad", [
    (1.0, 3, "+"), (1.5, 3, "+"), (1, 3.0, "+"), (True, 3, "+"), (0, True, "-"), ("1", 3, "+"), (1, "3", "+"),
])
def test_graph_rejects_non_integer_endpoints(bad):
    # int() would truncate 1.5 to 1 and read True as vertex 1
    with pytest.raises(ValueError, match="must be an integer") as info:
        ColoredGraph(2, 2, [(0, 2, "+"), (0, 3, "+"), (1, 2, "+"), bad])
    assert repr(bad) in str(info.value)


def test_graph_accepts_numpy_integer_endpoints():
    import numpy as np
    g = ColoredGraph(2, 2, [(np.int64(0), np.int32(2), "+"), (np.uint8(0), 3, "+"), (1, np.int16(2), "+"),
                            (np.int64(1), INF, "-")])
    assert g == ColoredGraph(2, 2, [(0, 2, "+"), (0, 3, "+"), (1, 2, "+"), (1, INF, "-")])
    assert all(type(v) is int for s, d, _ in g.edges for v in (s, d) if v != INF)


def test_canonical_labeling_invariance():
    rng = random.Random(3)
    g = ColoredGraph(3, 2, [(0, 1, "+"), (1, 2, "+"), (2, 3, "+"), (0, 3, "+"), (1, 4, "+"), (2, 0, "-")])
    base = g.canonical()
    for _ in range(10):
        perm = list(range(3))
        rng.shuffle(perm)
        assert relabel_aerial(g, perm).canonical() == base


def test_canonical_is_the_least_relabeling():
    from conftest import canonical_reference
    rng = random.Random(11)
    top = [g for g in enumerate_graphs(3, 2, [2] * 3) if len(g.finite_edges) == 6]
    assert len(top) == 590
    for g in top:
        assert g.canonical() == canonical_reference(g) == g
        perm = list(range(3))
        rng.shuffle(perm)
        h = relabel_aerial(g, perm)
        assert h.canonical() == canonical_reference(h) == g
    # edges to infinity
    for g in rng.sample(enumerate_graphs(2, 1, [2, 2], allow_infinity=True), 20):
        assert relabel_aerial(g, [1, 0]).canonical() == canonical_reference(g) == g
    # four aerial vertices, under random relabelings
    g = ColoredGraph(4, 1, [(0, 1, "+"), (1, 2, "-"), (2, 3, "+"), (3, 4, "+"), (0, INF, "-"), (2, 0, "+")])
    for _ in range(10):
        perm = list(range(4))
        rng.shuffle(perm)
        h = relabel_aerial(g, perm)
        assert h.canonical() == canonical_reference(h) == canonical_reference(g)


def test_enumerate_wedge_family():
    graphs = enumerate_graphs(1, 2, [2])
    assert len(graphs) == 1
    g = graphs[0]
    assert g.edges == ((0, 1, "+"), (0, 2, "+"))
    # independent brute-force oracle over the raw edge space
    opts = []
    for tgt in (1, 2):
        for color in ("+",):
            opts.append((tgt, color))
    raw = set()
    for pair_ in itertools.combinations(opts, 2):
        edges = [(0, t, c) for t, c in pair_]
        try:
            raw.add(ColoredGraph(1, 2, edges).canonical())
        except ValueError:
            continue
    assert raw == set(graphs)


def test_enumerate_empty_graph():
    graphs = enumerate_graphs(0, 2, [])
    assert len(graphs) == 1 and graphs[0].edges == ()


def test_enumerate_impossible_out_degree():
    assert enumerate_graphs(1, 1, [3]) == []


# -- zero-weight predicate ---------------------------------------------------------

def test_dimension_mismatch_zero():
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+"), (0, INF, "-")])
    # finite edges 2 == 2n+m-2, so this one is fine
    assert zero_weight_predicate(g) is UNKNOWN
    g2 = ColoredGraph(1, 3, [(0, 1, "+"), (0, 2, "+")])
    assert zero_weight_predicate(g2).reason == "dimension_mismatch"


def test_pattern_zero():
    g = ColoredGraph(2, 2, [(0, 2, "+"), (0, 1, "-"), (1, 2, "+"), (1, 3, "+")])
    assert zero_weight_predicate(g).reason == "pattern_bullet_leftarrow_dashrightarrow"


def test_wedge_unknown():
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    assert zero_weight_predicate(g) is UNKNOWN


def test_untouched_vertex_zero():
    # ground vertex 3 is touched by no edge; the edgeless graph on two ground
    # points is a top form too, but of a point, with weight 1
    g = ColoredGraph(2, 2, [(0, 1, "+"), (0, 2, "+"), (1, 0, "+"), (1, 2, "+")])
    assert zero_weight_predicate(g).reason == "untouched_vertex"
    assert zero_weight_predicate(ColoredGraph(0, 2, [])) is UNKNOWN


# -- angle functions -----------------------------------------------------------------

def rnd_point(rng):
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))


def test_angle_coincident_points():
    with pytest.raises(CoincidentPoints):
        angle(1 + 1j, 1 + 1j, "+")


def test_dphi_minus_swap_identity():
    rng = random.Random(5)
    for _ in range(20):
        p, q = rnd_point(rng), rnd_point(rng)
        if p == q:
            continue
        _, c_m = angle(p, q, "-")
        _, c_p = angle(q, p, "+")
        # d phi_-(p,q) = d phi_+(q,p): p-coefficients of one match q-coefficients of the other
        assert abs(c_m[0] - c_p[2]) < 1e-12
        assert abs(c_m[1] - c_p[3]) < 1e-12
        assert abs(c_m[2] - c_p[0]) < 1e-12
        assert abs(c_m[3] - c_p[1]) < 1e-12


def test_angle_value_against_finite_difference():
    # the analytic coefficients agree with a numerical gradient of the value
    rng = random.Random(7)
    h = 1e-7
    for color in ("+", "-"):
        p, q = rnd_point(rng), rnd_point(rng)
        v0, c = angle(p, q, color)
        grads = []
        for dp, dq in [(h, 0), (h * 1j, 0), (0, h), (0, h * 1j)]:
            v1, _ = angle(p + dp, q + dq, color)
            grads.append((v1 - v0) / h)
        for a, b in zip(grads, c):
            assert abs(a - b) < 1e-5


# -- weights ----------------------------------------------------------------------

def test_weight_determinism():
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    e1 = weight_mc(g, 50000, 123)
    e2 = weight_mc(g, 50000, 123)
    assert e1.value == e2.value and e1.std_error == e2.std_error
    e3 = weight_mc(g, 50000, 124)
    assert e1.value != e3.value


def test_weight_wedge_half():
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    est = weight_mc(g, 400000, 2024)
    assert abs(est.value - 0.5) < 0.01


def test_weight_gauge_m1():
    # n=1, m=1, one solid edge to ground plus one dashed to infinity
    g = ColoredGraph(1, 1, [(0, 1, "+"), (0, INF, "-")])
    est = weight_mc(g, 200000, 5)
    assert est.std_error < 0.05  # integrates without blowing up


def test_weight_constant_integrand_has_no_variance_floor():
    # the m = 1 graph with one solid edge integrates a constant: the error is
    # rounding of the centered block sums, not sqrt(eps) of a one-pass variance
    g = ColoredGraph(1, 1, [(0, 1, "+"), (0, INF, "-")])
    est = weight_mc(g, 32768, 5)
    assert est.std_error < 1e-15


def test_weight_gauge_underdetermined():
    with pytest.raises(GaugeUnderdetermined):
        weight_mc(ColoredGraph(0, 2, []), 1000, 1)


def test_weight_rejects_too_few_samples():
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    for samples in (0, -5):
        with pytest.raises(SympairError):
            weight_mc(g, samples, 1)


def test_weight_non_top_form_is_zero():
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+"), (0, INF, "-")])
    g2 = ColoredGraph(2, 2, [(0, 2, "+"), (0, 3, "+"), (1, 2, "+"), (1, 3, "+"), (1, 0, "-"), (0, 1, "-")])
    est = weight_mc(g2, 1000, 1)
    assert (est.value, est.std_error) == (0.0, 0.0)


def mirror_corpus():
    return [
        ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")]),
        ColoredGraph(2, 2, [(0, 1, "+"), (0, 2, "+"), (1, 2, "+"), (1, 3, "+")]),
        ColoredGraph(2, 2, [(0, 1, "+"), (0, 3, "+"), (1, 2, "+"), (1, 3, "+")]),
        ColoredGraph(2, 2, [(0, 2, "+"), (0, 3, "+"), (1, 2, "+"), (1, 3, "+")]),
        ColoredGraph(2, 1, [(0, 1, "-"), (0, 2, "+"), (1, 2, "+"), (1, INF, "-")]),
        ColoredGraph(2, 2, [(0, 1, "-"), (0, 2, "+"), (1, 2, "+"), (1, 3, "+")]),
        ColoredGraph(3, 2, [(0, 3, "+"), (0, 4, "+"), (1, 0, "+"), (1, 3, "+"), (2, 1, "+"), (2, 4, "+")]),
        ColoredGraph(3, 2, [(0, 3, "+"), (0, 4, "+"), (1, 3, "+"), (1, 4, "+"), (2, 3, "+"), (2, 4, "+")]),
        ColoredGraph(3, 1, [(0, 1, "+"), (0, 3, "+"), (1, 2, "+"), (1, INF, "-"), (2, 3, "+"), (2, 0, "-")]),
    ]


def test_mirror_relation_on_corpus():
    for g in mirror_corpus():
        s = mirror_orientation_sign(g)
        w = weight_mc(g, 200000, 31)
        wm = weight_mc(g.mirror(), 200000, 37)
        tol = 3.0 * math.sqrt(w.std_error ** 2 + wm.std_error ** 2) + 1e-9
        assert abs(wm.value - s * w.value) <= tol, (g, w.value, wm.value, s)


# -- operator compilation ------------------------------------------------------------

def test_compile_empty_graph_is_product(sl2_pair):
    f = BlockPolynomial(sl2_pair, "p", Poly(2, {(1, 0): 1}))
    g = BlockPolynomial(sl2_pair, "p", Poly(2, {(0, 1): 2}))
    res = compile_operator(ColoredGraph(0, 2, []), sl2_pair, [f, g])
    assert res == f * g


def test_compile_wedge_is_half_poisson(sl2_pair, solvable_pair):
    wedge = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    rng = random.Random(41)
    from conftest import random_block_poly
    for pair in (sl2_pair, solvable_pair):
        for _ in range(4):
            f = random_block_poly(pair, "g", 2, rng)
            g = random_block_poly(pair, "g", 2, rng)
            res = compile_operator(wedge, pair, [f, g])
            # direct bivector contraction oracle over the p block
            oracle = Poly.zero(pair.dim)
            for a in pair.block_indices("p"):
                for b in pair.block_indices("p"):
                    w = pair.adapted.bracket_basis(a, b)
                    lin = Poly(pair.dim, {tuple(1 if t == i else 0 for t in range(pair.dim)): Fraction(w[i], 2)
                                          for i in range(pair.dim) if w[i]})
                    oracle = oracle + lin.mul(f.poly.diff(a)).mul(g.poly.diff(b))
            assert res == BlockPolynomial(pair, "g", oracle).restrict_to_p()


def test_compile_wheel_trace_shape(sl2_pair, solvable_pair):
    # cycle colored (+,-) contracts to (1/4) tr_k(ad e_r ad e_s) dr f ds g
    wheel = ColoredGraph(2, 2, [(0, 1, "+"), (1, 0, "-"), (0, 2, "+"), (1, 3, "+")])
    for pair in (sl2_pair, solvable_pair):
        for r in range(pair.dim_p):
            for s in range(pair.dim_p):
                f = BlockPolynomial(pair, "p", Poly.var(pair.dim_p, r))
                g = BlockPolynomial(pair, "p", Poly.var(pair.dim_p, s))
                res = compile_operator(wheel, pair, [f, g])
                er = util.unit_vec(pair.dim, r)
                es = util.unit_vec(pair.dim, s)
                expected = Fraction(trace_word(pair, "k", [er, es]), 4)
                assert res.poly == Poly.const(pair.dim_p, expected)


def test_compile_wheel_matches_alternation_building_block(sl2_pair):
    """Both wheel orientations assemble the order-2 alternation pieces:
    tr_p from the (-,+) cycle, tr_k from the (+,-) cycle."""
    wheel_k = ColoredGraph(2, 2, [(0, 1, "+"), (1, 0, "-"), (0, 2, "+"), (1, 3, "+")])
    wheel_p = ColoredGraph(2, 2, [(0, 1, "-"), (1, 0, "+"), (0, 2, "+"), (1, 3, "+")])
    pair = sl2_pair
    for r in range(pair.dim_p):
        for s in range(pair.dim_p):
            f = BlockPolynomial(pair, "p", Poly.var(pair.dim_p, r))
            g = BlockPolynomial(pair, "p", Poly.var(pair.dim_p, s))
            er, es = util.unit_vec(pair.dim, r), util.unit_vec(pair.dim, s)
            res_k = compile_operator(wheel_k, pair, [f, g]).poly.constant()
            res_p = compile_operator(wheel_p, pair, [f, g]).poly.constant()
            assert res_k == Fraction(trace_word(pair, "k", [er, es]), 4)
            assert res_p == Fraction(trace_word(pair, "p", [es, er]), 4)


def test_compile_multilinearity(sl2_pair):
    wedge = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    rng = random.Random(43)
    from conftest import random_block_poly
    f1 = random_block_poly(sl2_pair, "g", 2, rng)
    f2 = random_block_poly(sl2_pair, "g", 2, rng)
    g = random_block_poly(sl2_pair, "g", 2, rng)
    lhs = compile_operator(wedge, sl2_pair, [f1 + f2.scale(3), g])
    rhs = compile_operator(wedge, sl2_pair, [f1, g]) + compile_operator(wedge, sl2_pair, [f2, g]).scale(3)
    assert lhs == rhs


def test_compile_basis_permutation_equivariance():
    """Relabeling the base algebra's basis commutes with compilation."""
    from sympair.liealg import LieAlgebraDef, build_symmetric_pair
    orig = LieAlgebraDef("sl2", ["H", "X", "Y"], {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    pair1 = build_symmetric_pair(orig, [[-1, 0, 0], [0, 0, -1], [0, -1, 0]])
    # permuted basis order (X, Y, H)
    perm = LieAlgebraDef("sl2p", ["X", "Y", "H"], {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    pair2 = build_symmetric_pair(perm, [[0, -1, 0], [-1, 0, 0], [0, 0, -1]])
    assert pair1.adapted_names == ["H", "X+Y", "X-Y"]
    assert pair2.adapted_names == ["X+Y", "H", "X-Y"]
    wheel = ColoredGraph(2, 2, [(0, 1, "+"), (1, 0, "-"), (0, 2, "+"), (1, 3, "+")])
    # same geometric arguments: the symbol H in both coordinates
    f1 = BlockPolynomial(pair1, "p", Poly.var(2, 0))
    f2 = BlockPolynomial(pair2, "p", Poly.var(2, 1))
    r1 = compile_operator(wheel, pair1, [f1, f1]).poly.constant()
    r2 = compile_operator(wheel, pair2, [f2, f2]).poly.constant()
    assert r1 == r2


def test_compile_arity_errors(sl2_pair):
    wedge = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    f = BlockPolynomial(sl2_pair, "p", Poly(2, {(1, 0): 1}))
    with pytest.raises(ColorArityMismatch):
        compile_operator(wedge, sl2_pair, [f])
    with pytest.raises(ColorArityMismatch):
        g = ColoredGraph(1, 1, [(0, 1, "+"), (0, INF, "-")])
        compile_operator(g, sl2_pair, [f])


def test_pattern_requires_isolated_vertex():
    # a dashed 2-cycle with two spokes is NOT in the vanishing class: after
    # color conversion it is the classical two-spoke wheel, whose weight is
    # nonzero, so the predicate must stay conservative here
    cyc = ColoredGraph(2, 2, [(0, 1, "-"), (0, 2, "+"), (1, 0, "-"), (1, 3, "+")])
    assert zero_weight_predicate(cyc) is UNKNOWN
    est = weight_mc(cyc, 1500000, 3)
    assert est.value - 3 * est.std_error > 0.01  # significantly nonzero


def test_converted_double_edge_is_exact_zero():
    g = ColoredGraph(2, 2, [(0, 1, "+"), (1, 0, "-"), (0, 2, "+"), (1, 3, "+")])
    assert zero_weight_predicate(g).reason == "double_edge_same_color"
    est = weight_mc(g, 20000, 5)
    # two identical determinant rows: the integrator returns 0 +- 0 without sampling
    assert (est.value, est.std_error) == (0.0, 0.0)


def test_predicate_sound_on_full_enumeration():
    # every flagged top-dimensional graph on two aerial points integrates to ~0
    flagged = [g for g in enumerate_graphs(2, 2, [2, 2])
               if len(g.finite_edges) == 4 and zero_weight_predicate(g) is not UNKNOWN]
    assert len(flagged) >= 5
    for g in flagged:
        est = weight_mc(g, 300000, 13)
        assert abs(est.value) <= 3 * est.std_error + 0.01


# -- the column-wise kernel against the dense reference ---------------------------

def kernel_corpus():
    import os
    from sympair.io import load_graph_file
    folder = os.path.join(os.path.dirname(__file__), "..", "algebras", "graphs")
    files = [load_graph_file(os.path.join(folder, f)) for f in sorted(os.listdir(folder))]
    top = [g for g in enumerate_graphs(2, 2, [2, 2]) if len(g.finite_edges) == 4]
    # dim 5 (n = 2, m = 3, one dashed ground-sourced edge): more ground than the pinned two
    dim5 = ColoredGraph(2, 3, [(0, 2, "+"), (0, 3, "+"), (1, 3, "+"), (1, 4, "+"), (4, 0, "-")])
    return files, top, dim5


def gauge_corpus():
    """The m = 1 gauge (a point on the unit circle), the m = 0 gauge (a point
    pinned at i), three aerial points (dim 6), and four aerial points over
    three ground points (dim 9)."""
    m1 = ColoredGraph(2, 1, [(0, 1, "-"), (0, 2, "+"), (1, 2, "+"), (1, "inf", "-")])
    m0 = ColoredGraph(2, 0, [(0, 1, "+"), (1, 0, "+")])
    n3 = ColoredGraph(3, 2, [(0, 1, "+"), (0, 2, "-"), (1, 3, "+"), (1, 0, "-"), (2, 3, "+"), (2, 4, "+")])
    dim9 = ColoredGraph(4, 3, [(0, 4, "+"), (0, 5, "+"), (1, 5, "+"), (1, 6, "+"), (2, 0, "+"), (2, 1, "+"),
                               (3, 2, "+"), (3, 4, "+"), (6, 3, "-")])
    return [m1, m0, n3, dim9]


def shared_pair_corpus():
    """Graphs with several rows on one endpoint pair, in both orientations
    and both colors, in every gauge; two rows with the same one-form (an
    edge and its reversed, recolored twin) make a zero weight."""
    return [
        # m = 0: the pinned point on a shared pair; three rows on one pair
        ColoredGraph(3, 0, [(0, 1, "+"), (1, 0, "+"), (1, 2, "+"), (2, 1, "+")]),
        ColoredGraph(3, 0, [(0, 1, "+"), (0, 1, "-"), (1, 2, "+"), (2, 0, "-")]),
        ColoredGraph(3, 0, [(0, 2, "-"), (1, 2, "+"), (1, 2, "-"), (2, 1, "+")]),
        # m = 1: the point on the unit circle on a shared pair, off and on the axis
        ColoredGraph(2, 1, [(0, 1, "+"), (1, 0, "+"), (1, 2, "+")]),
        ColoredGraph(2, 1, [(0, 1, "+"), (0, 1, "-"), (1, 2, "+")]),
        ColoredGraph(2, 1, [(0, 1, "-"), (1, 0, "-"), (0, 2, "+")]),
        ColoredGraph(2, 1, [(0, 2, "+"), (2, 0, "-"), (1, 0, "+")]),
        # m = 2 and m = 3 (a ground gap column), with edges leaving ground points
        ColoredGraph(2, 2, [(0, 1, "+"), (1, 0, "+"), (0, 3, "+"), (2, 1, "-")]),
        ColoredGraph(2, 3, [(0, 1, "+"), (0, 1, "-"), (1, 4, "+"), (4, 1, "-"), (0, 3, "+")]),
        ColoredGraph(2, 3, [(0, 1, "+"), (1, 0, "+"), (4, 0, "-"), (0, 2, "+"), (1, 3, "+")]),
        # dim 9: four aerial points, a shared pair in both colors
        ColoredGraph(4, 3, [(0, 1, "+"), (1, 0, "+"), (0, 4, "+"), (1, 5, "+"), (2, 3, "+"), (2, 3, "-"),
                            (3, 4, "+"), (3, 5, "+"), (6, 2, "-")]),
    ]


def test_weight_kernel_matches_dense_reference():
    from conftest import weight_mc_dense
    files, top, dim5 = kernel_corpus()
    assert len(files) == 3 and len(top) == 21
    m1, m0, n3, dim9 = gauge_corpus()
    shared = shared_pair_corpus()
    # dim 12 (five aerial points, two ground gap columns) and dim 16 (eight aerial points)
    dim12 = ColoredGraph(5, 4, [(0, 6, "+"), (0, 7, "+"), (1, 0, "-"), (1, 5, "+"), (2, 1, "-"), (2, 8, "+"),
                                (3, 1, "-"), (3, 6, "+"), (4, 5, "+"), (4, 6, "+"), (7, 4, "-"), (8, 0, "-")])
    dim16 = ColoredGraph(8, 2, [(0, 4, "+"), (0, 9, "+"), (1, 8, "+"), (1, 9, "+"), (2, 1, "+"), (2, 5, "+"),
                                (3, 1, "+"), (3, 8, "+"), (4, 0, "+"), (4, 6, "+"), (5, 0, "-"), (5, 8, "+"),
                                (6, 5, "-"), (6, 9, "+"), (7, 1, "+"), (7, 2, "+")])
    assert [len(g.finite_edges) for g in (dim9, shared[-1], dim12, dim16)] == [9, 9, 12, 16]
    assert not any(pointwise_zero_rules(g) for g in (dim9, shared[-1], dim12, dim16))
    for g in files + top + [dim5, m1, m0, n3, dim9] + shared + [dim12, dim16]:
        for seed in (1, 77):
            est = weight_mc(g, 32768, seed)
            ref = weight_mc_dense(g, 32768, seed)
            assert est.nonfinite == 0
            assert abs(est.value - ref.value) <= 1e-9 + 1e-9 * abs(ref.value), (g, est, ref)
            assert abs(est.std_error - ref.std_error) <= 1e-9 + 1e-9 * abs(ref.std_error), (g, est, ref)
            if g in (dim12, dim16):
                # (2 pi)^-#E shrinks these weights below the absolute 1e-9, so
                # compare them on the scale of their own error bar as well
                assert abs(est.value - ref.value) <= 1e-9 * ref.std_error, (g, est, ref)
    for g in (dim5, dim9, shared[-1], dim12, dim16):
        assert weight_mc(g, 32768, 1).std_error > 0  # not structurally zero


def pointwise_zero_rules(g):
    """The rules by which a top form's integrand vanishes at every point.

    "double_edge": two edges with the same one-form, dphi_-(p, q) being
    dphi_+(q, p); "untouched_vertex": a vertex that no finite edge touches,
    so the form is pulled back from a space of lower dimension.
    """
    edges = g.finite_edges
    forms = {(s, d, c) if s < d else (d, s, {"+": "-", "-": "+"}[c]) for s, d, c in edges}
    touched = {v for e in edges for v in e[:2]}
    return {rule for rule, holds in (("double_edge", len(forms) < len(edges)),
                                     ("untouched_vertex", len(touched) < g.n + g.m)) if holds}


@pytest.mark.parametrize("samples", [1, 4095, 4097, 32769, 70000])
def test_weight_program_equals_block_kernel(samples):
    # the compiled program rewrites the entry-by-entry kernel only by sign
    # flips, factors 2 and negated differences, all exact in IEEE arithmetic,
    # so the estimates agree bit for bit, not just to rounding; a graph whose
    # integrand vanishes pointwise is 0 +- 0 exactly, where the kernel reads rounding
    from conftest import weight_mc_blocks_reference
    files, top, dim5 = kernel_corpus()
    for corpus in (files, top, [dim5], gauge_corpus(), shared_pair_corpus()):
        assert any(not pointwise_zero_rules(g) for g in corpus)  # some graphs still run the program
        for g in corpus:
            for seed in (1, 77):
                est = weight_mc(g, samples, seed)
                ref = weight_mc_blocks_reference(g, samples, seed)
                if pointwise_zero_rules(g):
                    assert (est.value, est.std_error, est.nonfinite) == (0.0, 0.0, 0), (g, seed)
                    assert abs(ref.value) < 1e-12 and ref.std_error < 1e-12, (g, seed, ref)
                else:
                    assert (est.value, est.std_error, est.nonfinite) == (ref.value, ref.std_error, ref.nonfinite), \
                        (g, seed)


def assert_exact_zero_is_sound(graphs, samples=4097, seed=11):
    """`weight_mc` returns exact 0 +- 0 for every graph a rule flags, and every
    exact zero it returns reads zero, to rounding, through the entry-by-entry
    block kernel."""
    from conftest import weight_mc_blocks_reference
    for g in graphs:
        est = weight_mc(g, samples, seed)
        if (est.value, est.std_error, est.nonfinite) == (0.0, 0.0, 0):
            ref = weight_mc_blocks_reference(g, samples, seed)
            assert abs(ref.value) < 1e-12 and ref.std_error < 1e-12, (g, ref)
        else:
            assert not pointwise_zero_rules(g), (g, est)


def assert_predicate_reports_pointwise_zeros(graphs):
    """`zero_weight_predicate` gives a pointwise reason exactly for the top
    graphs that `pointwise_zero_rules` flags."""
    pointwise = {"double_edge_same_color", "untouched_vertex"}
    for g in graphs:
        reason = getattr(zero_weight_predicate(g), "reason", None)
        assert (reason in pointwise) == bool(pointwise_zero_rules(g)), (g, reason)


@pytest.mark.parametrize("n, m, ground, total, double, untouched, flagged", [
    (2, 2, None, 21, 9, 11, 13),
    (2, 3, [0, 0, 1], 100, 63, 63, 77),
    (3, 2, None, 590, 326, 316, 421),
])
def test_pointwise_zero_rules_are_sound_on_enumerations(n, m, ground, total, double, untouched, flagged):
    top = [g for g in enumerate_graphs(n, m, [2] * n, ground_out_degrees=ground)
           if len(g.finite_edges) == 2 * n + m - 2]
    rules = [pointwise_zero_rules(g) for g in top]
    assert len(top) == total
    assert sum("double_edge" in r for r in rules) == double
    assert sum("untouched_vertex" in r for r in rules) == untouched
    assert sum(bool(r) for r in rules) == flagged
    assert_exact_zero_is_sound(top)
    assert_predicate_reports_pointwise_zeros(top)


def test_pointwise_zero_rules_in_pinned_gauges():
    # m = 0 (aerial point 0 pinned at i) and m = 1 (it sits on the unit
    # circle): one graph per rule in each, the untouched vertex being pinned
    graphs = {
        ("double_edge", 0): ColoredGraph(2, 0, [(0, 1, "+"), (1, 0, "-")]),
        ("untouched_vertex", 0): ColoredGraph(4, 0, [(1, 2, "+"), (1, 2, "-"), (1, 3, "+"), (3, 1, "+"),
                                                     (2, 3, "+"), (3, 2, "+")]),
        ("double_edge", 1): ColoredGraph(2, 1, [(0, 1, "+"), (1, 0, "-"), (1, 2, "+")]),
        ("untouched_vertex", 1): ColoredGraph(3, 1, [(0, 1, "+"), (1, 0, "+"), (0, 2, "+"), (1, 2, "+"),
                                                     (2, 1, "+")]),
    }
    for (rule, m), g in graphs.items():
        assert g.m == m and pointwise_zero_rules(g) == {rule}, g
    assert_exact_zero_is_sound(graphs.values())
    assert_predicate_reports_pointwise_zeros(graphs.values())


@pytest.mark.parametrize("samples", [1, 4095, 4097, 32769, 70000])
def test_weight_blocks_match_dense_reference_across_boundaries(samples):
    # sample counts that end inside a block, just past one, and inside a
    # second and a third chunk; the dense reference draws each chunk at once
    from conftest import weight_mc_dense
    _, top, dim5 = kernel_corpus()
    m1 = ColoredGraph(2, 1, [(0, 1, "-"), (0, 2, "+"), (1, 2, "+"), (1, "inf", "-")])
    m0 = ColoredGraph(2, 0, [(0, 1, "+"), (1, 0, "+")])
    for g in (top[0], dim5, m1, m0):
        est = weight_mc(g, samples, 5)
        ref = weight_mc_dense(g, samples, 5)
        assert est.nonfinite == 0
        assert abs(est.value - ref.value) <= 1e-9 + 1e-9 * abs(ref.value), (g, est, ref)
        assert abs(est.std_error - ref.std_error) <= 1e-9 + 1e-9 * abs(ref.std_error), (g, est, ref)


def test_weight_allocation_peak_stays_small():
    # one chunk is integrated block by block, so no chunk-sized temporaries
    # live at once; dim 9 runs the same program, on more block buffers
    import tracemalloc
    dim4 = ColoredGraph(2, 2, [(0, 1, "+"), (0, 2, "+"), (1, 2, "+"), (1, 3, "+")])
    dim9 = gauge_corpus()[-1]
    for g in (dim4, dim9):
        weight_mc(g, 10, 1)  # loads numpy outside the traced call
        tracemalloc.start()
        try:
            weight_mc(g, 32768, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, (g, peak)


def test_weight_rejects_negative_seed():
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    with pytest.raises(SympairError, match="seed"):
        weight_mc(g, 10, -1)


@pytest.mark.parametrize("samples, seed, name", [
    (1000.0, 1, "samples"), (True, 1, "samples"), ("10", 1, "samples"),
    (10, 1.5, "seed"), (10, True, "seed"), (10, None, "seed"),
])
def test_weight_rejects_non_integer_arguments(samples, seed, name):
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    with pytest.raises(SympairError, match=name):
        weight_mc(g, samples, seed)


def test_weight_accepts_numpy_integers():
    import numpy as np
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    est, ref = weight_mc(g, np.int64(100), np.uint32(7)), weight_mc(g, 100, 7)
    assert (est.value, est.std_error) == (ref.value, ref.std_error)


def test_weight_leaves_no_cyclic_garbage():
    import gc
    g = ColoredGraph(2, 2, [(0, 1, "+"), (0, 2, "+"), (1, 2, "+"), (1, 3, "+")])
    gc.collect()
    gc.disable()
    try:
        weight_mc(g, 40000, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_weight_counts_nonfinite_samples(monkeypatch):
    import numpy as np
    real_rng = np.random.default_rng

    class OneCoincident:
        """Generator whose first sample puts the aerial vertex on ground vertex 0."""

        def __init__(self, stream):
            self.rng = real_rng(stream)
            self.first = True

        def random(self, shape):
            u = self.rng.random(shape)
            if self.first:
                u[0] = (0.5, 0.0)  # x = tan(0) = 0, y = 0
                self.first = False
            return u

    monkeypatch.setattr(np.random, "default_rng", OneCoincident)
    g = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
    est = weight_mc(g, 20000, 4)
    assert est.nonfinite == 1
    assert math.isfinite(est.value) and math.isfinite(est.std_error)
    assert abs(est.value - 0.5) < 5 * est.std_error


def test_import_does_not_load_numpy():
    """numpy loads with the first Monte-Carlo call, not with `import sympair`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, sympair; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
