"""Colored Kontsevich graphs: admissibility, weights, and operators.

Aerial vertices are 0..n-1, ground vertices n..n+m-1 (ground positions are
ordered on the real axis), and "inf" marks an edge without target.  Edge
colors are "+" (solid, derives tangent directions) and "-" (dashed, the
normal ones).

Weights are integrals of products of angle one-forms over the compactified
configuration space of the upper half-plane, normalized by (2 pi)^#E; they
are estimated by Monte Carlo with the one-form coefficients assembled
analytically (never by numerical differencing).
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from operator import add, mul, sub, truediv

from .errors import CoincidentPoints, ColorArityMismatch, GaugeUnderdetermined, SympairError
from .liealg import SymmetricPair
from .poly import Poly
from .polyops import BlockPolynomial

INF = "inf"
TWO_COLOR = ("+", "-")


def _is_integer(v) -> bool:
    """An integer (numpy integers included) that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


class ColoredGraph:
    def __init__(self, n: int, m: int, edges):
        self.n = n
        self.m = m
        norm = []
        vertices = range(n + m)
        for edge in edges:
            src, dst, color = edge
            if color not in TWO_COLOR:
                raise ValueError(f"edge {edge!r}: color {color!r} is neither '+' nor '-'")
            if not (_is_integer(src) and (dst == INF or _is_integer(dst))):
                raise ValueError(f"edge {edge!r}: the source must be an integer and the target an integer or {INF!r}")
            src, dst = int(src), dst if dst == INF else int(dst)
            edge = (src, dst, color)
            if src not in vertices:
                raise ValueError(f"edge {edge!r}: source {src} is not a vertex 0..{n + m - 1}")
            if dst != INF and dst not in vertices:
                raise ValueError(f"edge {edge!r}: target {dst} is neither {INF!r} nor a vertex 0..{n + m - 1}")
            if src == dst:
                raise ValueError(f"edge {edge!r}: loops are not allowed")
            norm.append(edge)
        norm.sort(key=_edge_key)
        double = next((e for e, f in zip(norm, norm[1:]) if e == f), None)
        if double is not None:
            raise ValueError(f"edge {double!r}: double edge with identical source, target, color")
        self.edges = tuple(norm)
        for edge in self.edges:
            why = _color_violation(n, m, *edge)
            if why:
                raise ValueError(f"edge {edge!r}: {why}")

    @property
    def finite_edges(self):
        return tuple(e for e in self.edges if e[1] != INF)

    def out_degree(self, v: int) -> int:
        return sum(1 for e in self.edges if e[0] == v)

    def relabel_aerial(self, perm) -> "ColoredGraph":
        """Apply a permutation of the aerial labels (ground labels are fixed)."""
        return ColoredGraph(self.n, self.m, _relabel(self.n, self.edges, perm))

    def canonical(self) -> "ColoredGraph":
        """Lexicographically minimal edge encoding over aerial relabelings."""
        return ColoredGraph(self.n, self.m, _canonical_edges(self.n, self.edges))

    def _mirror_vertex(self, v):
        """Image of a vertex under the reflection through the vertical axis (ground order reversed)."""
        return v if v == INF or v < self.n else self.n + (self.m - 1) - (v - self.n)

    def mirror(self) -> "ColoredGraph":
        """Reflection through the vertical axis: ground order reversed."""
        re = self._mirror_vertex
        return ColoredGraph(self.n, self.m, [(re(s), re(d), c) for s, d, c in self.edges])

    def __eq__(self, other):
        return (
            isinstance(other, ColoredGraph)
            and (self.n, self.m, self.edges) == (other.n, other.m, other.edges)
        )

    def __hash__(self):
        return hash((self.n, self.m, self.edges))

    def __repr__(self):
        return f"ColoredGraph(n={self.n}, m={self.m}, edges={list(self.edges)})"


def _edge_key(e):
    src, dst, color = e
    return (src, (1, 0) if dst == INF else (0, dst), color)


def _relabel(n: int, edges, perm) -> list:
    """Edges with each aerial vertex v renamed perm[v]."""
    return [(s if s >= n else perm[s], d if d == INF or d >= n else perm[d], c) for s, d, c in edges]


def _canonical_edges(n: int, edges) -> list:
    """`edges` relabeled by the aerial permutation whose `_edge_key` list is
    least, in key order.  Keys are distinct, so edges are compared only by ==."""
    least = min(sorted((_edge_key(e), e) for e in _relabel(n, edges, perm))
                for perm in itertools.permutations(range(n)))
    return [e for _, e in least]


def _color_violation(n: int, m: int, src, dst, color: str) -> str | None:
    """Why an edge's color is inadmissible, or None.

    Edges leaving a ground vertex carry the dashed color, edges into one
    the solid color, and edges to infinity the dashed color.
    """
    if n <= src < n + m and color != "-":
        return "edges leaving the real axis must carry the dashed color"
    if dst != INF and n <= dst < n + m and color != "+":
        return "edges into ground vertices must carry the solid color"
    if dst == INF and color != "-":
        return "edges to infinity carry the dashed color"
    return None


class WeightEstimate:
    """Mean and standard error over the finite samples of `samples` drawn.

    `nonfinite` counts the samples left out because their integrand was
    inf or nan (coincident points).
    """

    def __init__(self, value: float, std_error: float, samples: int, seed: int, nonfinite: int = 0):
        self.value = value
        self.std_error = std_error
        self.samples = samples
        self.seed = seed
        self.nonfinite = nonfinite

    def __repr__(self):
        return (f"WeightEstimate({self.value:.6f} +- {self.std_error:.6f}, samples={self.samples}, "
                f"seed={self.seed}, nonfinite={self.nonfinite})")


class ZeroWeight:
    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Zero({self.reason})"


UNKNOWN = "unknown"


def _pointwise_zero(g: ColoredGraph) -> str | None:
    """Why the weight of `g` is zero because its integrand is zero at every point, or None.

    "dimension_mismatch": the finite edges are not 2n + m - 2 in number, so
    the form is not a top form; "double_edge_same_color": two edges have
    the same one-form (`_one_form`), so the determinant has two equal rows;
    "untouched_vertex": some vertex, pinned or not, is touched by no finite
    edge, so the form is pulled back from a configuration space of lower
    dimension (a top form without edges is the weight 1 of a point).
    """
    edges = g.finite_edges
    if len(edges) != 2 * g.n + g.m - 2:
        return "dimension_mismatch"
    forms = {_one_form(e) for e in edges}
    if len(forms) < len(edges):
        return "double_edge_same_color"
    if edges and len({v for p, q, _ in forms for v in (p, q)}) < g.n + g.m:
        return "untouched_vertex"
    return None


def zero_weight_predicate(g: ColoredGraph):
    """Cheap sufficient conditions for a vanishing weight, else `UNKNOWN`.

    First the reasons of `_pointwise_zero`, under which the integrand
    vanishes at every point and `weight_mc` returns exactly 0 +- 0 without
    sampling.  Then the isolated pattern: since dphi_-(p,q) = dphi_+(q,p),
    converting every dashed edge to a reversed solid one preserves the
    integrand up to sign, and a vertex whose only incident edges are one
    solid and one dashed out-edge to distinct targets isolates a two-form
    in one aerial point, which integrates to zero although the integrand
    does not vanish, so `weight_mc` still samples it.  The predicate is
    conservative: a vertex with further incident edges is NOT flagged
    (such graphs can carry nonzero weight, e.g. the two-spoke cycle on two
    aerial points).
    """
    reason = _pointwise_zero(g)
    if reason:
        return ZeroWeight(reason)
    edges = g.finite_edges
    for v in range(g.n):
        if any(e[1] == v for e in edges):
            continue  # incoming edges break the isolation argument
        solid, dashed = ({dst for src, dst, c in edges if src == v and c == color} for color in TWO_COLOR)
        if any(s != d for s in solid for d in dashed):
            return ZeroWeight("pattern_bullet_leftarrow_dashrightarrow")
    return UNKNOWN


def enumerate_graphs(n: int, m: int, out_degrees, allow_infinity: bool = False, ground_out_degrees=None):
    """All admissible graphs up to aerial renumbering.

    `out_degrees[v]` is the number of edges leaving aerial vertex v (2 for
    the linear-bivector profile).  Ground vertices emit
    `ground_out_degrees[j]` dashed edges (default 0).  The count grows
    quickly: n = 4, m = 1 with out-degree 2 gives 8,295 graphs.
    """
    ground_out_degrees = ground_out_degrees or [0] * m
    degrees = [out_degrees[v] for v in range(n)] + [ground_out_degrees[j] for j in range(m)]
    targets = list(range(n + m)) + ([INF] if allow_infinity else [])

    def choices_for(v, deg):
        opts = [(v, tgt, color) for tgt in targets if tgt != v for color in TWO_COLOR
                if _color_violation(n, m, v, tgt, color) is None]
        return list(itertools.combinations(opts, deg))

    # every combination is admissible: no loops, admissible colors, and
    # distinct edges, as each vertex picks distinct out-edges of its own
    out = {}  # canonical edge lists in order of first appearance -> graph
    for combo in itertools.product(*(choices_for(v, deg) for v, deg in enumerate(degrees))):
        edges = tuple(_canonical_edges(n, [e for ch in combo for e in ch]))
        if edges not in out:
            out[edges] = ColoredGraph(n, m, edges)
    return list(out.values())


# -- angle functions ----------------------------------------------------------
#
# An edge's angle is a signed sum of arg w over the factors w = p - q and
# p - conj(q).  With a = xp - xq, b1 = yp - yq, b2 = yp + yq,
# u = 1/(a^2 + b1^2) and v = 1/(a^2 + b2^2), by d arg(w) =
# (a db - b da)/|w|^2 its one-form in color c (c' the other) is
#     -P_c dxp + A_c dyp + P_c dxq - A_c' dyq,  P+- = u b1 +- v b2,  A+- = a (u +- v).
# As dphi_-(p, q) = dphi_+(q, p), edge q -> p of color c has the form of
# p -> q of color c', so four arrays serve every edge on a pair.  With q on
# the real axis, b1 = b2 = yp, u = v and every edge has color + from p to q:
# P+ = 2 u yp and A+ = 2 a u, whose halves `_ON_AXIS` keeps.

_OTHER = {"+": "-", "-": "+"}


def _one_form(edge):
    """Canonical one-form (p, q, c) of a finite two-color edge: p < q, and c
    is the edge's color, flipped when the edge runs q -> p."""
    src, dst, color = edge
    return (src, dst, color) if src < dst else (dst, src, _OTHER[color])


#: p on the unit circle at (xp, yp): -yp d/dxp + xp d/dyp of color c is T_c = P_c yp + A_c xp
_CIRCLE = {
    "T+": (add, "yP+", "xA+"), "yP+": (mul, "P+", "yp"), "xA+": (mul, "A+", "xp"),
    "T-": (add, "yP-", "xA-"), "yP-": (mul, "P-", "yp"), "xA-": (mul, "A-", "xp"),
}
#: how each array of an endpoint pair p < q is built: name -> (operator,
#: left, right), down to the leaves "xp", "yp", "xq", "yq" and "one"
_OFF_AXIS = {
    "a": (sub, "xp", "xq"), "aa": (mul, "a", "a"), "b1": (sub, "yp", "yq"), "b2": (add, "yp", "yq"),
    "b1b1": (mul, "b1", "b1"), "r1": (add, "aa", "b1b1"), "u": (truediv, "one", "r1"), "ub1": (mul, "u", "b1"),
    "b2b2": (mul, "b2", "b2"), "r2": (add, "aa", "b2b2"), "v": (truediv, "one", "r2"), "vb2": (mul, "v", "b2"),
    "P+": (add, "ub1", "vb2"), "P-": (sub, "ub1", "vb2"), "u+v": (add, "u", "v"), "A+": (mul, "a", "u+v"),
    "u-v": (sub, "u", "v"), "A-": (mul, "a", "u-v"), **_CIRCLE,
}
_ON_AXIS = {
    "a": (sub, "xp", "xq"), "aa": (mul, "a", "a"), "b1b1": (mul, "yp", "yp"), "r1": (add, "aa", "b1b1"),
    "u": (truediv, "one", "r1"), "P+": (mul, "u", "yp"), "A+": (mul, "a", "u"), **_CIRCLE,
}


def _pair_value(known, recipes, name, emit):
    """Array `name` of one endpoint pair, built on first use by emit(operator, left, right)."""
    if name not in known:
        f, left, right = recipes[name]
        known[name] = emit(f, _pair_value(known, recipes, left, emit), _pair_value(known, recipes, right, emit))
    return known[name]


def angle(p: complex, q: complex, color: str):
    """Angle value and analytic one-form coefficients for one colored edge.

    Returns (value, coeffs) with coeffs = [d/dRe p, d/dIm p, d/dRe q, d/dIm q].
    The value is a sum of atan2 branches (well defined modulo 2 pi).  The
    coefficients are the pair arrays of `_OFF_AXIS`, evaluated here on
    floats and by the Monte-Carlo program on blocks of samples.
    """
    if p == q:
        raise CoincidentPoints("p == q")
    if color not in TWO_COLOR:
        raise ValueError(color)
    xp, yp, xq, yq = p.real, p.imag, q.real, q.imag
    a, b1, b2 = xp - xq, yp - yq, yp + yq
    for key, b in (("p-q", b1), ("p-qbar", b2)):
        if a * a + b * b == 0.0:
            raise CoincidentPoints(f"factor {key} degenerates")
    value = math.atan2(b1, a) + (1.0 if color == "+" else -1.0) * math.atan2(b2, a)
    known = {"xp": xp, "yp": yp, "xq": xq, "yq": yq, "one": 1.0}
    P, A, A_other = (_pair_value(known, _OFF_AXIS, name, lambda f, x, y: f(x, y))
                     for name in ("P" + color, "A" + color, "A" + _OTHER[color]))
    return value, [-P, A, P, -A_other]


# -- Monte-Carlo weights -------------------------------------------------------

_CHUNK = 1 << 15
#: a chunk's uniforms are drawn and integrated in blocks of this many
#: samples, whose temporaries stay in cache; successive draws from the
#: chunk's generator give exactly the chunk's stream
_BLOCK = 1 << 12
#: global orientation: fixed so that the solid-solid wedge has weight +1/2.
_ORIENT = 1.0

#: gauge kinds of a vertex: pinned at a fixed (x, y), or owning columns of
#: the integrand (a point on the unit circle owns its angle, a free aerial
#: point its x and y, a ground point past ground 1 its gap to the previous)
_PINNED, _THETA, _FREE, _GROUND = "pinned", "theta", "free", "ground"


def _gauge_plan(g: ColoredGraph):
    """Where each vertex sits after gauge fixing, one entry per vertex.

    Entry v is (kind, where): `where` is the fixed (x, y) of a `_PINNED`
    vertex, else the first integrand column the vertex owns (`_FREE`
    owns two).  Columns are numbered in vertex order.  Ground points 0
    and 1 are pinned at 0 and 1 for m >= 2; for m == 1 the ground point
    sits at 0 and aerial point 0 on the unit circle; for m == 0 aerial
    point 0 is pinned at i.
    """
    n, m = g.n, g.m
    dim = 2 * n + m - 2
    if dim <= 0:
        raise GaugeUnderdetermined(f"configuration dimension {dim}")
    plan = []
    column = 0
    for v in range(n + m):
        if v == 0 and m == 0:
            plan.append((_PINNED, (0.0, 1.0)))
        elif v == 0 and m == 1:
            plan.append((_THETA, column))
            column += 1
        elif v < n:
            plan.append((_FREE, column))
            column += 2
        elif v < n + 2:
            plan.append((_PINNED, (float(v - n), 0.0)))
        else:
            plan.append((_GROUND, column))
            column += 1
    return plan


def weight_mc(g: ColoredGraph, samples: int, seed: int) -> WeightEstimate:
    """Monte-Carlo estimate of the weight of a colored graph.

    The gauge is that of `_gauge_plan`.  The integrand is the determinant
    of the edge-form coefficients against the free coordinates, times the
    Jacobian of the map from the unit cube.  The estimate is exactly
    0 +- 0 with nothing drawn when the integrand vanishes at every point
    for one of the reasons of `_pointwise_zero`, which are the first that
    `zero_weight_predicate` reports.  Otherwise each call compiles the
    integrand into a straight-line numpy program on a few reused block
    buffers: the arrays of each endpoint pair's table
    (`_integrand_entries`), then the Laplace expansion of the determinant
    (`_laplace_program`) at every dimension; the program's length, and the
    cost of a call, follow the number of memoized minors rather than the
    dimension.  Entry and cofactor signs
    and the factor 2 of rows on the real axis move, exactly, into the
    normalization.  Non-finite samples (coincident points) are counted in
    `nonfinite` and left out of the mean and the standard error.  Chunk t
    of `_CHUNK` samples draws from the t-th stream spawned from `seed`,
    built as the chunk starts, block by block; the variance merges each
    block's centered sum of squares about its own mean, so a near-constant
    integrand has no rounding floor.
    """
    import numpy as np

    for name, value in (("samples", samples), ("seed", seed)):
        if not _is_integer(value):
            raise SympairError(f"{name} must be an integer, got {value!r}")
    if samples < 1:
        raise SympairError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise SympairError(f"seed must be >= 0, got {seed}")
    plan = _gauge_plan(g)
    if _pointwise_zero(g):
        return WeightEstimate(0.0, 0.0, samples, seed)
    edges = g.finite_edges
    dim = len(edges)

    nin = 2 * (g.n + g.m) + 1  # values of a block's inputs: its xs, its ys and the constant 1.0
    steps = [None] * nin  # steps[i] = (operator, left, right) computes value i
    def emit(f, left, right):
        steps.append((f, left, right))
        return len(steps) - 1
    entries, scales = _integrand_entries(g.n, plan, edges, nin)
    det = _laplace_program(entries, dim, 0, {}, emit)
    if det is None:
        return WeightEstimate(0.0, 0.0, samples, seed)  # structurally zero: every sample is 0
    norm = _ORIENT / (2.0 * math.pi) ** len(edges)
    norm *= det[1] * math.prod(scales)
    program, det_reg, nbuf = _registers(np, steps, nin, det[0])
    size = min(_BLOCK, samples)
    buffers = [np.empty(size) for _ in range(nbuf)]

    total = 0.0
    blocks = []  # (count, mean, centered sum of squares) of each block's finite samples
    nonfinite = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for chunk_id in range((samples + _CHUNK - 1) // _CHUNK):
            # the chunk_id-th child of SeedSequence(seed).spawn, built when its chunk starts
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_id,)))
            chunk = min(_CHUNK, samples - chunk_id * _CHUNK)
            for start in range(0, chunk, _BLOCK):
                count = min(_BLOCK, chunk - start)
                xs, ys, jac = _place_vertices(plan, np.ascontiguousarray(rng.random((count, dim)).T))
                regs = xs + ys + [1.0] + (buffers if count == size else [b[:count] for b in buffers])
                for f, left, right, out in program:
                    f(regs[left], regs[right], out=regs[out])
                vals = regs[det_reg] * jac
                finite = np.isfinite(vals)
                kept = int(np.count_nonzero(finite))
                if kept < count:
                    nonfinite += count - kept
                    vals = vals[finite]
                if kept:
                    block_sum = float(vals.sum())
                    total += block_sum
                    dev = vals - block_sum / kept
                    blocks.append((kept, block_sum / kept, float(dev @ dev)))

    used = samples - nonfinite
    if not used:
        return WeightEstimate(math.nan, math.nan, samples, seed, nonfinite)
    mean = total / used
    var = sum(m2 + k * (block_mean - mean) ** 2 for k, block_mean, m2 in blocks) / used
    # + 0.0: a zero mean reads +0.0 whatever sign went into the normalization
    return WeightEstimate(norm * mean + 0.0, abs(norm) * math.sqrt(var / used), samples, seed, nonfinite)


def _place_vertices(plan, u):
    """Vertex coordinates and Jacobian for one block of uniforms.

    `u` holds one contiguous row of the block's uniforms per integrand
    column of `plan`.  Pinned coordinates stay Python floats and
    broadcast against the sampled arrays.
    """
    import numpy as np

    xs, ys = [], []
    jac = 1.0  # becomes an array at the first sampled factor, then updates in place
    for kind, where in plan:
        if kind == _PINNED:
            x, y = where
        elif kind == _THETA:
            theta = math.pi * u[where]
            x, y = np.cos(theta), np.sin(theta)
            jac *= math.pi
        elif kind == _FREE:
            uy = u[where + 1]
            x = np.tan(math.pi * (u[where] - 0.5))
            y = uy / (1.0 - uy)
            jac *= math.pi * (1.0 + x * x)
            jac *= 1.0 / (1.0 - uy) ** 2
        else:
            us = u[where]
            x, y = xs[-1] + us / (1.0 - us), 0.0
            jac *= 1.0 / (1.0 - us) ** 2
        xs.append(x)
        ys.append(y)
    return xs, ys, jac


def _integrand_entries(n: int, plan, edges, nin: int):
    """Structurally nonzero entries {(row, column): (sign, known, recipes, name)} and row scales.

    Row t, the one-form of edge t, is nonzero only at the coordinates of its
    endpoints p < q: scales[t] * sign * the pair's array `name` (`_pair_value`)
    from `_ON_AXIS` with scale 2 when q is a ground point, else `_OFF_AXIS`.
    The leaves are block inputs: x of vertex v is value v, y value nin // 2 + v,
    1.0 value nin - 1.  The point on the unit circle (m == 1) is vertex 0, a p.
    """
    tables, entries, scales = {}, {}, []
    for row, edge in enumerate(edges):
        p, q, c = _one_form(edge)
        recipes = _ON_AXIS if q >= n else _OFF_AXIS
        known = tables.setdefault((p, q), {"xp": p, "yp": nin // 2 + p, "xq": q, "yq": nin // 2 + q, "one": nin - 1})
        form = ((-1, "P" + c), (1, "A" + c), (1, "P" + c), (-1, "A" + _OTHER[c]))  # dxp, dyp, dxq, dyq
        for v, (sx, x_name), (sy, y_name) in ((p, *form[:2]), (q, *form[2:])):
            kind, column = plan[v]
            if kind != _PINNED:  # on the unit circle, the angle derivative T_c
                entries[row, column] = (1, known, recipes, "T" + c) if kind == _THETA else (sx, known, recipes, x_name)
            if kind == _FREE:
                entries[row, column + 1] = (sy, known, recipes, y_name)
        scales.append(2.0 if q >= n else 1.0)
    return entries, scales


def _laplace_program(entries, dim: int, mask: int, memo: dict, emit):
    """(value, sign) with sign * value the minor on rows popcount(mask).. and the columns not in `mask`.

    Laplace expansion along the first row over its structurally nonzero
    entries, emitted once per `memo` (keyed by the mask); the cofactor and
    entry signs pick add or subtract.  None is a structurally zero minor,
    (None, 1) the empty minor 1.
    """
    row = mask.bit_count()
    if row == dim:
        return None, 1
    if mask not in memo:
        det = sign = None
        position = 0  # rank of `col` among the minor's columns: the cofactor sign
        for col in range(dim):
            bit = 1 << col
            if mask & bit:
                continue
            entry = entries.get((row, col))
            minor = entry and _laplace_program(entries, dim, mask | bit, memo, emit)
            if minor:
                value = _pair_value(*entry[1:], emit)
                if minor[0] is not None:
                    value = emit(mul, value, minor[0])
                s = entry[0] * minor[1] * (-1) ** position
                if det is None:
                    det, sign = value, s
                else:
                    det = emit(add if s == sign else sub, det, value)
            position += 1
        memo[mask] = None if det is None else (det, sign)
    return memo[mask]


def _registers(np, steps: list, nin: int, keep: int):
    """The program (ufunc, left, right, out) of `steps`, the register of value `keep`, the number of buffers.

    Values below `nin` are a block's inputs, kept as registers.  One pass
    backwards over the steps allocates the block buffers: a value takes a
    free buffer at its last read (the first met going backwards) and gives
    it back at the step that computes it; `keep` holds its buffer to the end.
    """
    ufuncs = {add: np.add, sub: np.subtract, mul: np.multiply, truediv: np.divide}
    fresh = itertools.count(nin)
    reg = {v: v for v in range(nin)}
    reg[keep] = next(fresh)
    free, program = [], []
    for i in range(len(steps) - 1, nin - 1, -1):
        f, left, right = steps[i]
        free.append(reg[i])
        for v in (left, right):
            if v not in reg:
                reg[v] = free.pop() if free else next(fresh)
        program.append((ufuncs[f], reg[left], reg[right], reg[i]))
    program.reverse()
    return program, reg[keep], next(fresh) - nin


def mirror_orientation_sign(g: ColoredGraph) -> int:
    """Sign s with  w(mirror(g)) = s * w(g)  under the integrator's conventions.

    The reflection flips every edge one-form (factor (-1)^#E), reverses the
    orientation of each aerial plane (factor (-1)^n), and the mirrored edge
    list is re-sorted canonically, which permutes the rows of the
    coefficient determinant (factor (-1)^inversions of the mirrored keys).
    """
    re = g._mirror_vertex
    keys = [_edge_key((re(s), re(d), c)) for s, d, c in g.finite_edges]
    inversions = sum(a > b for a, b in itertools.combinations(keys, 2))
    return (-1) ** (inversions + len(keys) + g.n)


# -- operator compilation ------------------------------------------------------

def compile_operator(g: ColoredGraph, pair: SymmetricPair, arguments) -> BlockPolynomial:
    """Contract a colored graph into a polydifferential value on S(g).

    Aerial vertices carry half the linear Poisson bivector; an edge of
    color '+' ranges over p indices and differentiates tangent directions,
    one of color '-' over k indices.  Ground vertex j holds arguments[j].
    The result is restricted to the k-annihilator (k symbols killed).
    """
    if len(arguments) != g.m:
        raise ColorArityMismatch(f"graph has {g.m} ground vertices, got {len(arguments)} arguments")
    if any(e[1] == INF for e in g.edges):
        raise ColorArityMismatch("edges to infinity are not compiled")
    for v in range(g.n):
        if g.out_degree(v) != 2:
            raise ColorArityMismatch("linear bivector needs aerial out-degree 2")
    args = [a.to_g().poly for a in arguments]

    dim = pair.dim
    edges = g.edges
    ranges = [pair.block_indices("p" if color == "+" else "k") for _, _, color in edges]
    total = Poly.zero(dim)
    for assign in itertools.product(*ranges):
        term = Poly.const(dim, 1)
        for v in range(g.n + g.m):
            if v < g.n:
                # edges sort by source, so aerial vertex v owns rows 2v and 2v + 1;
                # its symbol is (1/2) <xi, [e_a, e_b]>
                w = pair.adapted.bracket_basis(assign[2 * v], assign[2 * v + 1])
                factor = Poly.linear([Fraction(c, 2) for c in w])
            else:
                factor = args[v - g.n]
            exps = [0] * dim
            for (_, dst, _), i in zip(edges, assign):
                if dst == v:
                    exps[i] += 1
            factor = factor.diff_mono(exps)
            if factor.is_zero():
                break
            term = term.mul(factor)
        else:
            total = total + term
    return BlockPolynomial(pair, "g", total).restrict_to_p()
