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
#
# An edge's angle is a signed sum of arg w over the factors w = p - q and
# p - conj(q), joined by p + conj(q) and p + q in the four-color palette.
# The factors come in halves that share their real part a = xp -+ xq; the
# imaginary parts are b1 = yp - yq and b2 = yp + yq, so a half needs the
# two reciprocals u = 1/(a^2 + b1^2) and v = 1/(a^2 + b2^2), and v = u
# exactly when an endpoint is on the real axis (then b1 = +-b2).


def _reciprocals(a, b1, b2, on_axis: bool):
    """u = 1/(a^2 + b1^2) and v = 1/(a^2 + b2^2), with v = u on the axis."""
    aa = a * a
    u = 1.0 / (aa + b1 * b1)
    return u, (u if on_axis else 1.0 / (aa + b2 * b2))


def _half_terms(a, b1, b2, u, v, color: str):
    """(P, Q, R) of d[arg(a + i b1) +- arg(a + i b2)], the sign being the color's.

    From d arg(w) = (a db - b da)/|w|^2: P = u b1 +- v b2, Q = a (u +- v)
    and R = a (+-v - u), so with a = xp + e xq the half's one-form is
    -P dxp + Q dyp - e P dxq + R dyq.  This is the one coefficient routine
    of `angle` and the Monte-Carlo kernel; inputs are numpy arrays or floats.
    """
    if color[0] == "+":
        return u * b1 + v * b2, a * (u + v), a * (v - u)
    return u * b1 - v * b2, a * (u - v), -a * (u + v)


def angle(p: complex, q: complex, color: str, palette: str = "two_color"):
    """Angle value and analytic one-form coefficients for one colored edge.

    Returns (value, coeffs) with coeffs = [d/dRe p, d/dIm p, d/dRe q, d/dIm q].
    The value is a sum of atan2 branches (well defined modulo 2 pi).  The
    coefficients are summed over the halves by `_half_terms`, as in the
    Monte-Carlo kernel; in the four-color palette the half p + conj(q),
    p + q carries the color's second sign.
    """
    if p == q:
        raise CoincidentPoints("p == q")
    if palette == "two_color" and color not in TWO_COLOR:
        raise ValueError(color)
    xp, yp, xq, yq = p.real, p.imag, q.real, q.imag
    b1, b2 = yp - yq, yp + yq
    e1 = 1.0 if color[0] == "+" else -1.0
    halves = [(-1.0, 1.0, ("p-q", "p-qbar"))]
    if palette != "two_color":
        halves.append((1.0, 1.0 if color[1] == "+" else -1.0, ("p+qbar", "p+q")))
    value = 0.0
    coeffs = [0.0, 0.0, 0.0, 0.0]
    for e, weight, keys in halves:
        a = xp + e * xq
        for key, b in zip(keys, (b1, b2)):
            if a * a + b * b == 0.0:
                raise CoincidentPoints(f"factor {key} degenerates")
        value += weight * (math.atan2(b1, a) + e1 * math.atan2(b2, a))
        P, Q, R = _half_terms(a, b1, b2, *_reciprocals(a, b1, b2, False), color)
        for t, term in enumerate((-P, Q, -e * P, R)):
            coeffs[t] += weight * term
    return value, coeffs


# -- Monte-Carlo weights -------------------------------------------------------

_CHUNK = 1 << 15
#: a chunk's uniforms are drawn and integrated in blocks of this many
#: samples, whose temporaries stay in cache; successive draws from the
#: chunk's generator give exactly the chunk's stream
_BLOCK = 1 << 12
#: largest dimension whose determinant is a Laplace expansion; above it a
#: batched LU.  Laplace is the faster of the two through dimension 14
#: (2.5-4x at 5-10, 1.7-2x at 12-14, even at 16), but its memo keeps one
#: block-sized minor (32 KB) per subset of columns it reaches: at most
#: 8 MB at dimension 8, up to 128 MB at 12, where measured peaks already
#: ran twice the LU's
_LAPLACE_MAX_DIM = 8
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
    Jacobian of the map from the unit cube.  Samples whose integrand is
    not finite (coincident points) are counted in `nonfinite` and left out
    of the mean and the standard error.  Chunk t of `_CHUNK` samples draws
    from the t-th stream spawned from `seed`, block by block; the variance
    merges each block's centered sum of squares about its own mean, so a
    near-constant integrand has no rounding floor.
    """
    import numpy as np

    if samples < 1:
        raise SympairError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise SympairError(f"seed must be >= 0, got {seed}")
    if g.palette != "two_color":
        raise UnsupportedPalette("weights are integrated for the two-color palette")
    edges = g.finite_edges
    plan = _gauge_plan(g)
    dim = 2 * g.n + g.m - 2
    if len(edges) != dim:
        return WeightEstimate(0.0, 0.0, samples, seed)  # not a top form

    ss = np.random.SeedSequence(seed)
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = ss.spawn(n_chunks)
    total = 0.0
    blocks = []  # (count, mean, centered sum of squares) of each block's finite samples
    nonfinite = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for chunk_id in range(n_chunks):
            rng = np.random.default_rng(streams[chunk_id])
            chunk = min(_CHUNK, samples - chunk_id * _CHUNK)
            for start in range(0, chunk, _BLOCK):
                count = min(_BLOCK, chunk - start)
                xs, ys, jac = _place_vertices(plan, np.ascontiguousarray(rng.random((count, dim)).T))
                entries = _matrix_entries(g.n, plan, edges, xs, ys)
                if dim <= _LAPLACE_MAX_DIM:
                    dets = _laplace(entries, dim, 0, {})
                else:
                    dets = _lu_det(entries, dim, count)
                if dets is None:
                    blocks.append((count, 0.0, 0.0))  # structurally zero: every sample is 0
                    continue
                vals = dets * jac
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

    norm = _ORIENT / (2.0 * math.pi) ** len(edges)
    used = samples - nonfinite
    if not used:
        return WeightEstimate(math.nan, math.nan, samples, seed, nonfinite)
    mean = total / used
    var = sum(m2 + k * (block_mean - mean) ** 2 for k, block_mean, m2 in blocks) / used
    return WeightEstimate(norm * mean, abs(norm) * math.sqrt(var / used), samples, seed, nonfinite)


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


def _matrix_entries(n: int, plan, edges, xs, ys):
    """Structurally nonzero entries {(row, column): values} of the integrand matrix.

    Row t holds the one-form of edge t against the free coordinates; only
    the coordinates of its two endpoints can be nonzero, so a row has at
    most four entries.  Ground vertices (v >= n) are the only ones on the
    real axis.  Edges on the same endpoint pair share the reciprocals of
    `_reciprocals`.  On the unit circle of the m == 1 gauge the theta
    derivative is -sin(theta) d/dx + cos(theta) d/dy.
    """
    entries = {}
    recips = {}
    for row, (src, dst, color) in enumerate(edges):
        yp, yq = ys[src], ys[dst]
        a = xs[src] - xs[dst]
        if dst >= n:
            b1 = b2 = yp
        elif src >= n:
            b1, b2 = -yq, yq
        else:
            b1, b2 = yp - yq, yp + yq
        pair = (min(src, dst), max(src, dst))
        if pair not in recips:
            recips[pair] = _reciprocals(a, b1, b2, pair[1] >= n)
        P, Q, R = _half_terms(a, b1, b2, *recips[pair], color)
        cf = (-P, Q, P, R)
        for endpoint, v in ((0, src), (2, dst)):
            kind, column = plan[v]
            if kind == _THETA:
                entries[(row, column)] = -cf[endpoint] * ys[v] + cf[endpoint + 1] * xs[v]
            elif kind == _FREE:
                entries[(row, column)] = cf[endpoint]
                entries[(row, column + 1)] = cf[endpoint + 1]
            elif kind == _GROUND:
                entries[(row, column)] = cf[endpoint]
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
    import numpy as np

    M = np.zeros((count, dim, dim))
    for (row, col), vals in entries.items():
        M[:, row, col] = vals
    return np.linalg.det(M)


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
