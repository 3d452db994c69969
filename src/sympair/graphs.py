"""Colored Kontsevich graphs: admissibility, weights, and operators.

Aerial vertices are 0..n-1, ground vertices n..n+m-1 (ground positions are
ordered on the real axis), and "inf" marks an edge without target.  Edge
colors are "+" and "-" in the two-color palette (solid derives tangent
directions, dashed the normal ones) or two-character strings "++", "+-",
"-+", "--" in the four-color palette of the quadrant.

Weights are integrals of products of angle one-forms over the compactified
configuration space of the upper half-plane, normalized by (2 pi)^#E; they
are estimated by Monte Carlo with the one-form coefficients assembled
analytically (never by numerical differencing).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import (
    CapExceeded,
    CoincidentPoints,
    ColorArityMismatch,
    GaugeUnderdetermined,
    SympairError,
    UnsupportedPalette,
)
from .liealg import SymmetricPair
from .poly import Poly
from .polyops import BlockPolynomial

INF = "inf"
TWO_COLOR = ("+", "-")
FOUR_COLOR = ("++", "+-", "-+", "--")
ENUM_CAP = 3
WEIGHT_CAP = 2


class ColoredGraph:
    def __init__(self, n: int, m: int, edges, palette: str = "two_color"):
        self.n = n
        self.m = m
        self.palette = palette
        colors = TWO_COLOR if palette == "two_color" else FOUR_COLOR
        norm = []
        vertices = range(n + m)
        for src, dst, color in edges:
            if color not in colors:
                raise ValueError(f"color {color!r} not in palette {palette}")
            src, dst = int(src), dst if dst == INF else int(dst)
            if src not in vertices:
                raise ValueError(f"edge source {src} is not a vertex 0..{n + m - 1}")
            if dst != INF and dst not in vertices:
                raise ValueError(f"edge target {dst} is neither {INF!r} nor a vertex 0..{n + m - 1}")
            if src == dst:
                raise ValueError("loops are not allowed")
            norm.append((src, dst, color))
        norm.sort(key=_edge_key)
        if len(set(norm)) != len(norm):
            raise ValueError("double edge with identical source, target, color")
        self.edges = tuple(norm)
        for src, dst, color in self.edges:
            why = _color_violation(n, m, palette, src, dst, color)
            if why:
                raise ValueError(why)

    @property
    def finite_edges(self):
        return tuple(e for e in self.edges if e[1] != INF)

    def out_degree(self, v: int) -> int:
        return sum(1 for e in self.edges if e[0] == v)

    def out_edges(self, v: int):
        return tuple(e for e in self.edges if e[0] == v)

    def relabel_aerial(self, perm) -> "ColoredGraph":
        """Apply a permutation of the aerial labels (ground labels are fixed)."""
        def re(v):
            if v == INF or v >= self.n:
                return v
            return perm[v]
        return ColoredGraph(self.n, self.m, [(re(s), re(d), c) for s, d, c in self.edges], self.palette)

    def canonical(self) -> "ColoredGraph":
        """Lexicographically minimal edge encoding over aerial relabelings."""
        best = None
        for perm in itertools.permutations(range(self.n)):
            g = self.relabel_aerial(perm)
            key = tuple(_edge_key(e) for e in g.edges)
            if best is None or key < best[0]:
                best = (key, g)
        return best[1] if best else self

    def _mirror_vertex(self, v):
        """Image of a vertex under the reflection through the vertical axis (ground order reversed)."""
        return v if v == INF or v < self.n else self.n + (self.m - 1) - (v - self.n)

    def mirror(self) -> "ColoredGraph":
        """Reflection through the vertical axis: ground order reversed."""
        re = self._mirror_vertex
        return ColoredGraph(self.n, self.m, [(re(s), re(d), c) for s, d, c in self.edges], self.palette)

    def __eq__(self, other):
        return (
            isinstance(other, ColoredGraph)
            and (self.n, self.m, self.palette, self.edges) == (other.n, other.m, other.palette, other.edges)
        )

    def __hash__(self):
        return hash((self.n, self.m, self.palette, self.edges))

    def __repr__(self):
        return f"ColoredGraph(n={self.n}, m={self.m}, edges={list(self.edges)})"


def _edge_key(e):
    src, dst, color = e
    return (src, (1, 0) if dst == INF else (0, dst), color)


def _color_violation(n: int, m: int, palette: str, src, dst, color: str) -> str | None:
    """Why an edge's color is inadmissible, or None.

    Edges leaving a ground vertex carry the dashed color, edges into one
    the solid color, and edges to infinity the (fully) dashed color.  In
    both palettes the first character is the color in the plane.
    """
    if n <= src < n + m and not color.startswith("-"):
        return "edges leaving the real axis must carry the dashed color"
    if dst != INF and n <= dst < n + m and not color.startswith("+"):
        return "edges into ground vertices must carry the solid color"
    if dst == INF and color != ("-" if palette == "two_color" else "--"):
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


def zero_weight_predicate(g: ColoredGraph):
    """Cheap sufficient conditions for a vanishing weight, else `UNKNOWN`.

    Since the dashed form satisfies dphi_-(p,q) = dphi_+(q,p), converting
    every dashed edge to a reversed solid one preserves the integrand up to
    sign.  Two rules follow: a converted double edge gives two identical
    rows (exact zero), and a vertex whose only incident edges are one solid
    and one dashed out-edge to distinct targets isolates a two-form in one
    aerial point, which integrates to zero.  The predicate is conservative:
    a vertex with further incident edges is NOT flagged (such graphs can
    carry nonzero weight, e.g. the two-spoke cycle on two aerial points).
    """
    dim = 2 * g.n + g.m - 2
    if len(g.finite_edges) != dim:
        return ZeroWeight("dimension_mismatch")
    if g.palette == "two_color":
        finite = set(g.finite_edges)
        for src, dst, color in finite:
            if color == "-" and dst != INF and (dst, src, "+") in finite:
                return ZeroWeight("double_edge_same_color")
        for v in range(g.n):
            if any(e[1] == v for e in g.finite_edges):
                continue  # incoming edges break the isolation argument
            out = [e for e in g.out_edges(v) if e[1] != INF]
            solid = [e for e in out if e[2] == "+"]
            dashed = [e for e in out if e[2] == "-"]
            for es in solid:
                for ed in dashed:
                    if es[1] != ed[1]:
                        return ZeroWeight("pattern_bullet_leftarrow_dashrightarrow")
    return UNKNOWN


def enumerate_graphs(n: int, m: int, out_degrees, palette: str = "two_color",
                     allow_infinity: bool = False, ground_out_degrees=None):
    """All admissible graphs up to aerial renumbering.

    `out_degrees[v]` is the number of edges leaving aerial vertex v (2 for
    the linear-bivector profile).  Ground vertices emit
    `ground_out_degrees[j]` dashed edges (default 0).
    """
    if n > ENUM_CAP or m > ENUM_CAP:
        raise CapExceeded(f"enumeration capped at n,m <= {ENUM_CAP}")
    if palette not in ("two_color", "four_color"):
        raise UnsupportedPalette(palette)
    colors = TWO_COLOR if palette == "two_color" else FOUR_COLOR
    ground_out_degrees = ground_out_degrees or [0] * m
    targets = list(range(n + m)) + ([INF] if allow_infinity else [])

    def choices_for(v, deg):
        opts = [(tgt, color) for tgt in targets if tgt != v for color in colors
                if _color_violation(n, m, palette, v, tgt, color) is None]
        return list(itertools.combinations(opts, deg))

    per_vertex = []
    for v in range(n):
        per_vertex.append([(v, ch) for ch in choices_for(v, out_degrees[v])])
    for j in range(m):
        per_vertex.append([(n + j, ch) for ch in choices_for(n + j, ground_out_degrees[j])])

    seen = set()
    out = []
    for combo in itertools.product(*per_vertex):
        edges = [(v, tgt, color) for v, ch in combo for tgt, color in ch]
        try:
            g = ColoredGraph(n, m, edges, palette).canonical()
        except ValueError:
            continue
        if g not in seen:
            seen.add(g)
            out.append(g)
    return out


# -- angle functions ----------------------------------------------------------

#: (eps_x, eps_y) encoding of the four arg factors: w = (xp + eps_x xq) + i (yp + eps_y yq)
_ARG_FACTORS = {
    "p-q": (-1.0, -1.0),
    "p-qbar": (-1.0, 1.0),
    "p+qbar": (1.0, -1.0),
    "p+q": (1.0, 1.0),
}


def _arg_terms(color: str, palette: str):
    if palette == "two_color":
        if color == "+":
            return [(1.0, "p-q"), (1.0, "p-qbar")]
        if color == "-":
            return [(1.0, "p-q"), (-1.0, "p-qbar")]
        raise ValueError(color)
    e1 = 1.0 if color[0] == "+" else -1.0
    e2 = 1.0 if color[1] == "+" else -1.0
    return [(1.0, "p-q"), (e1, "p-qbar"), (e2, "p+qbar"), (e1 * e2, "p+q")]


def angle(p: complex, q: complex, color: str, palette: str = "two_color"):
    """Angle value and analytic one-form coefficients for one colored edge.

    Returns (value, coeffs) with coeffs = [d/dRe p, d/dIm p, d/dRe q, d/dIm q].
    The value is a sum of atan2 branches (well defined modulo 2 pi); the
    coefficients are the Monte-Carlo kernel's, `_angle_coeffs_arrays`.
    """
    if p == q:
        raise CoincidentPoints("p == q")
    value = 0.0
    xp, yp, xq, yq = p.real, p.imag, q.real, q.imag
    for sign, key in _arg_terms(color, palette):
        ex, ey = _ARG_FACTORS[key]
        a = xp + ex * xq
        b = yp + ey * yq
        if a * a + b * b == 0.0:
            raise CoincidentPoints(f"factor {key} degenerates")
        value += sign * math.atan2(b, a)
    return value, _angle_coeffs_arrays(xp, yp, xq, yq, color, palette)


def _angle_coeffs_arrays(xp, yp, xq, yq, color, palette):
    """One-form coefficients from d arg(w) = (x dy - y dx)/|w|^2, term by term.

    Inputs are numpy arrays or floats.
    """
    c = [0.0, 0.0, 0.0, 0.0]
    for sign, key in _arg_terms(color, palette):
        ex, ey = _ARG_FACTORS[key]
        a = xp + ex * xq
        b = yp + ey * yq
        s = sign / (a * a + b * b)
        sa, sb = s * a, s * b
        c[0] = c[0] - sb
        c[1] = c[1] + sa
        c[2] = c[2] - ex * sb
        c[3] = c[3] + ey * sa
    return c


# -- Monte-Carlo weights -------------------------------------------------------

_CHUNK = 1 << 15
#: largest top-form dimension (2n edges) for graphs of at most WEIGHT_CAP
#: aerial vertices of out-degree 2; the Laplace kernel covers these dimensions
_LAPLACE_MAX_DIM = 2 * WEIGHT_CAP
#: global orientation: fixed so that the solid-solid wedge has weight +1/2.
_ORIENT = 1.0


def _gauge_plan(g: ColoredGraph):
    """Free-coordinate layout after gauge fixing.

    Returns (columns, theta_vertex, fixed_aerial) where columns is a list of
    ('ax', v) / ('ay', v) / ('theta', v) / ('ground', j) in canonical order.
    """
    n, m = g.n, g.m
    dim = 2 * n + m - 2
    if dim <= 0:
        raise GaugeUnderdetermined(f"configuration dimension {dim}")
    columns = []
    theta_vertex = None
    fixed_aerial = None
    if m >= 2:
        free_aerial = range(n)
    elif m == 1:
        if n == 0:
            raise GaugeUnderdetermined("no moduli")
        theta_vertex = 0
        columns.append(("theta", 0))
        free_aerial = range(1, n)
    else:
        fixed_aerial = 0
        free_aerial = range(1, n)
    for v in free_aerial:
        columns.append(("ax", v))
        columns.append(("ay", v))
    for j in range(2, m):
        columns.append(("ground", j))
    assert len(columns) == dim
    return columns, theta_vertex, fixed_aerial


def weight_mc(g: ColoredGraph, samples: int, seed: int) -> WeightEstimate:
    """Monte-Carlo estimate of the weight of a colored graph.

    Gauge: ground points 0 and 1 pinned for m >= 2; for m == 1 the ground
    point sits at 0 and the first aerial point on the unit circle; for
    m == 0 the first aerial point is pinned at i.  The integrand is the
    determinant of the edge-form coefficients against the free coordinates,
    times the Jacobian of the map from the unit cube.  Samples whose
    integrand is not finite (coincident points) are counted in `nonfinite`
    and left out of the mean and the standard error.
    """
    if samples < 1:
        raise SympairError(f"samples must be >= 1, got {samples}")
    if g.palette != "two_color":
        raise UnsupportedPalette("weights are integrated for the two-color palette")
    if g.n > WEIGHT_CAP:
        raise CapExceeded(f"integration capped at n <= {WEIGHT_CAP}")
    edges = g.finite_edges
    columns, theta_vertex, fixed_aerial = _gauge_plan(g)
    dim = len(columns)
    if len(edges) != dim:
        return WeightEstimate(0.0, 0.0, samples, seed)  # not a top form
    col_index = {c: t for t, c in enumerate(columns)}

    ss = np.random.SeedSequence(seed)
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = ss.spawn(n_chunks)
    total = 0.0
    total_sq = 0.0
    nonfinite = 0
    done = 0
    for chunk_id in range(n_chunks):
        count = min(_CHUNK, samples - done)
        rng = np.random.default_rng(streams[chunk_id])
        ucols = iter(np.ascontiguousarray(rng.random((count, dim)).T))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xs, ys, jac = _place_vertices(g, ucols, theta_vertex, fixed_aerial)
            entries = _matrix_entries(g, edges, col_index, xs, ys, theta_vertex)
            if dim <= _LAPLACE_MAX_DIM:
                dets = _laplace(entries, dim, 0, {})
            else:
                dets = _lu_det(entries, dim, count)
            vals = np.zeros(count) if dets is None else dets * jac
        finite = np.isfinite(vals)
        bad = count - int(np.count_nonzero(finite))
        if bad:
            nonfinite += bad
            vals = vals[finite]
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += count

    norm = _ORIENT / (2.0 * math.pi) ** len(edges)
    used = samples - nonfinite
    if not used:
        return WeightEstimate(math.nan, math.nan, samples, seed, nonfinite)
    mean = total / used
    var = max(total_sq / used - mean * mean, 0.0)
    return WeightEstimate(norm * mean, abs(norm) * math.sqrt(var / used), samples, seed, nonfinite)


def _place_vertices(g: ColoredGraph, ucols, theta_vertex, fixed_aerial):
    """Vertex coordinates and Jacobian for one chunk of uniforms.

    `ucols` yields one contiguous column of uniforms per free coordinate, in
    the order of `_gauge_plan`.  Pinned coordinates stay Python floats and
    broadcast against the sampled arrays.
    """
    xs = [0.0] * (g.n + g.m)
    ys = [0.0] * (g.n + g.m)
    jac = 1.0  # becomes an array at the first sampled factor, then updates in place
    if theta_vertex is not None:
        theta = math.pi * next(ucols)
        xs[0] = np.cos(theta)
        ys[0] = np.sin(theta)
        jac = math.pi
    if fixed_aerial is not None:
        ys[0] = 1.0
    start = 0 if (theta_vertex is None and fixed_aerial is None) else 1
    for v in range(start, g.n):
        ux = next(ucols)
        uy = next(ucols)
        x = np.tan(math.pi * (ux - 0.5))
        xs[v] = x
        ys[v] = uy / (1.0 - uy)
        jac *= math.pi * (1.0 + x * x)
        jac *= 1.0 / (1.0 - uy) ** 2
    if g.m >= 2:
        xs[g.n + 1] = 1.0
    for j in range(2, g.m):
        us = next(ucols)
        xs[g.n + j] = xs[g.n + j - 1] + us / (1.0 - us)
        jac *= 1.0 / (1.0 - us) ** 2
    return xs, ys, jac


def _matrix_entries(g: ColoredGraph, edges, col_index, xs, ys, theta_vertex):
    """Structurally nonzero entries {(row, column): values} of the integrand matrix.

    Row t holds the one-form of edge t against the free coordinates; only
    the coordinates of its two endpoints can be nonzero, so a row has at
    most four entries.  On the unit circle of the m == 1 gauge the theta
    derivative is -sin(theta) d/dx + cos(theta) d/dy.
    """
    entries = {}
    for row, (src, dst, color) in enumerate(edges):
        cf = _angle_coeffs_arrays(xs[src], ys[src], xs[dst], ys[dst], color, "two_color")
        for endpoint, v in ((0, src), (2, dst)):
            if v == theta_vertex:
                entries[(row, col_index[("theta", v)])] = -cf[endpoint] * ys[v] + cf[endpoint + 1] * xs[v]
            elif ("ax", v) in col_index:
                entries[(row, col_index[("ax", v)])] = cf[endpoint]
                entries[(row, col_index[("ay", v)])] = cf[endpoint + 1]
            elif ("ground", v - g.n) in col_index:
                entries[(row, col_index[("ground", v - g.n)])] = cf[endpoint]
    return entries


def _laplace(entries, dim: int, mask: int, memo: dict):
    """Determinant of the minor on rows popcount(mask).. and the columns not in `mask`.

    Laplace expansion along the minor's first row, over its structurally
    nonzero entries only; each minor is computed once per `memo` (keyed by
    the mask of used columns).  None stands for a structurally zero minor.
    """
    row = mask.bit_count()
    if row == dim:
        return 1.0
    if mask in memo:
        return memo[mask]
    det = None
    position = 0  # rank of `col` among the minor's columns: the cofactor sign
    for col in range(dim):
        bit = 1 << col
        if mask & bit:
            continue
        vals = entries.get((row, col))
        if vals is not None:
            minor = _laplace(entries, dim, mask | bit, memo)
            if minor is not None:
                term = vals * minor
                if det is None:
                    det = -term if position % 2 else term
                elif position % 2:
                    det -= term
                else:
                    det += term
        position += 1
    memo[mask] = det
    return det


def _lu_det(entries, dim: int, count: int):
    """Batched LU determinant of the dense matrix, for dim > _LAPLACE_MAX_DIM."""
    M = np.zeros((count, dim, dim))
    for (row, col), vals in entries.items():
        M[:, row, col] = vals
    return np.linalg.det(M)


def mirror_orientation_sign(g: ColoredGraph) -> int:
    """Sign s with  w(mirror(g)) = s * w(g)  under the integrator's conventions.

    The reflection flips every edge one-form (factor (-1)^#E), reverses the
    orientation of each aerial plane (factor (-1)^n), and the mirrored edge
    list is re-sorted canonically, which permutes the rows of the
    coefficient determinant (factor sign of that permutation).
    """
    re = g._mirror_vertex
    imgs = [(re(s), re(d), c) for s, d, c in g.finite_edges]
    order = sorted(range(len(imgs)), key=lambda t: _edge_key(imgs[t]))
    sign = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = order[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign * (-1) ** (len(imgs) + g.n)


# -- operator compilation ------------------------------------------------------

def compile_operator(g: ColoredGraph, pair: SymmetricPair, arguments) -> BlockPolynomial:
    """Contract a two-color graph into a polydifferential value on S(g).

    Aerial vertices carry half the linear Poisson bivector; an edge of
    color '+' ranges over p indices and differentiates tangent directions,
    one of color '-' over k indices.  Ground vertex j holds arguments[j].
    The result is restricted to the k-annihilator (k symbols killed).
    """
    if g.palette != "two_color":
        raise UnsupportedPalette("compile_operator supports the two-color palette")
    if len(arguments) != g.m:
        raise ColorArityMismatch(f"graph has {g.m} ground vertices, got {len(arguments)} arguments")
    if any(e[1] == INF for e in g.edges):
        raise ColorArityMismatch("edges to infinity are not compiled")
    for v in range(g.n):
        if g.out_degree(v) != 2:
            raise ColorArityMismatch("linear bivector needs aerial out-degree 2")
    args = [a.to_g() for a in arguments]

    dim = pair.dim
    edges = list(g.edges)
    ranges = []
    for src, dst, color in edges:
        ranges.append(list(pair.block_indices("p" if color == "+" else "k")))

    incoming = {v: [t for t, e in enumerate(edges) if e[1] == v] for v in range(g.n + g.m)}
    out_pairs = {v: [t for t, e in enumerate(edges) if e[0] == v] for v in range(g.n)}

    def incoming_derivative(v, assign):
        exps = [0] * dim
        for t in incoming[v]:
            exps[assign[t]] += 1
        return exps

    total = Poly.zero(dim)
    for assign in itertools.product(*ranges):
        coeff_poly = Poly.const(dim, 1)
        ok = True
        for v in range(g.n):
            e1, e2 = out_pairs[v]
            a, b = assign[e1], assign[e2]
            w = pair.adapted.bracket_basis(a, b)
            # vertex symbol: (1/2) <xi, [e_a, e_b]>, then incoming derivatives
            vp = Poly(dim, {tuple(1 if t == i else 0 for t in range(dim)): Fraction(w[i], 2)
                            for i in range(dim) if w[i]})
            vp = vp.diff_mono(incoming_derivative(v, assign))
            if vp.is_zero():
                ok = False
                break
            coeff_poly = coeff_poly.mul(vp)
        if not ok:
            continue
        for j in range(g.m):
            fj = args[j].poly.diff_mono(incoming_derivative(g.n + j, assign))
            if fj.is_zero():
                ok = False
                break
            coeff_poly = coeff_poly.mul(fj)
        if ok:
            total = total + coeff_poly
    return BlockPolynomial(pair, "g", total).restrict_to_p()
