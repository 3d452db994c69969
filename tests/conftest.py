import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sympair import util
from sympair.freelie import (
    X,
    Y,
    FreeAssocSeries,
    FreeLieSeries,
    _check_order,
    _lyndon,
    bch,
    expand_bracket,
    lie_from_assoc,
)
from sympair.graphs import ColoredGraph, _edge_key, _relabel
from sympair.liealg import LieAlgebraDef, build_symmetric_pair, coadjoint_semidirect, group_type
from sympair.poly import Poly, monomials_of_degree
from sympair.polyops import BlockPolynomial, CEChain, apply_series_operator, k_derivation
from sympair.series import density_series
from sympair.uea import UEAElement, hc_projection_uea


# -- small constructions only the tests use -----------------------------------

def lyndon_words(max_len: int) -> list[tuple[int, ...]]:
    """All Lyndon words over {0,1} of length 1..max_len (Duval's algorithm)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if w[-1] < 2:
            out.append(tuple(w))
            while len(w) < max_len:
                w.append(w[len(w) - m])
            while w and w[-1] == 1:
                w.pop()
        else:
            w.pop()
    return sorted(out, key=lambda u: (len(u), u))


def swap_letters(series: FreeLieSeries) -> FreeLieSeries:
    """The series with X and Y exchanged (recomputed on the Lyndon basis)."""
    swapped = {tuple(1 - a for a in w): c for w, c in series.to_assoc().terms.items()}
    return lie_from_assoc(FreeAssocSeries._of(series.order, swapped))


def monomials_up_to_degree(nvars: int, d: int):
    for k in range(d + 1):
        yield from monomials_of_degree(nvars, k)


def relabel_aerial(g: ColoredGraph, perm) -> ColoredGraph:
    """Apply a permutation of the aerial labels (ground labels are fixed)."""
    return ColoredGraph(g.n, g.m, _relabel(g.n, g.edges, perm))


def uea_from_vector(ctx, v_ctx) -> UEAElement:
    """The degree-1 element of U(g) with coordinates v_ctx in the context's basis."""
    return UEAElement(ctx, {(i,): c for i, c in enumerate(v_ctx) if c})


def sl2_algebra():
    return LieAlgebraDef("sl2", ["H", "X", "Y"], {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


@pytest.fixture(scope="session")
def sl2_pair():
    return build_symmetric_pair(sl2_algebra(), [[-1, 0, 0], [0, 0, -1], [0, -1, 0]])


@pytest.fixture(scope="session")
def solvable_pair():
    alg = LieAlgebraDef("solvable4", ["t", "x", "y", "z"], {(0, 1): {1: -1}, (0, 2): {2: 1}, (1, 2): {3: 1}})
    sigma = [[-1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]
    return build_symmetric_pair(alg, sigma)


@pytest.fixture(scope="session")
def heisenberg_pair():
    alg = LieAlgebraDef("heisenberg3", ["x", "y", "z"], {(0, 1): {2: 1}})
    sigma = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    return build_symmetric_pair(alg, sigma)


@pytest.fixture(scope="session")
def abelian_pair():
    alg = LieAlgebraDef("abelian2", ["a", "b"], {})
    return build_symmetric_pair(alg, [[-1, 0], [0, -1]])


@pytest.fixture(scope="session")
def diagonal_pair():
    return group_type("sl2", ["H", "X", "Y"], [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])


@pytest.fixture(scope="session")
def am_pair():
    """sl2 semidirect its coadjoint module: an anti-invariant quadratic pair."""
    return coadjoint_semidirect(sl2_algebra())


def ln_e_symbol_reference(pair):
    """ln E through order 4 as a polynomial in the (X, Y) slot variables.

    -(1/240)(tr_p - tr_k)(ad W)^2 at W = [X, Y], with ad W and its square
    built by dense loops over the structure constants (no polynomial
    bracket, adjoint matrix or trace-series compiler of the package).  X
    slots are variables 0..dim_p-1, Y slots dim_p..2 dim_p-1.
    """
    dp, n = pair.dim_p, pair.dim
    nv = 2 * dp
    c = pair.adapted.bracket_basis
    W = [Poly.zero(nv) for _ in range(n)]
    for a in range(dp):
        for b in range(dp):
            xy = Poly.var(nv, a).mul(Poly.var(nv, dp + b))
            W = [W[t] + xy.scale(c(a, b)[t]) for t in range(n)]
    M = [[sum((W[i].scale(c(i, j)[t]) for i in range(n)), Poly.zero(nv)) for j in range(n)] for t in range(n)]
    M2 = [[sum((M[i][t].mul(M[t][j]) for t in range(n)), Poly.zero(nv)) for j in range(n)] for i in range(n)]
    tr = Poly.zero(nv)
    for i in pair.block_indices("p"):
        tr = tr + M2[i][i]
    for i in pair.block_indices("k"):
        tr = tr - M2[i][i]
    return tr.scale(Fraction(-1, 240))


def trace_words_orbit_reference(series, pair, over):
    """`TraceSeries.as_polynomial` by full-power orbits.

    tr_s((ad X)^k) is the sum over i in s of coordinate i of (ad X)^k e_i,
    read off the orbit e_i, [X, e_i], [X, [X, e_i]], ... of each basis
    vector in a block the series uses; one pass covers every power.
    The term products are then multiplied out.
    """
    nv = len(pair.block_indices(over))
    sym = pair.symbolic_vector(over, nv)
    used = {word for key in series.terms for word in key}
    top: dict[int, int] = {}
    for space, power in used:
        for i in pair.block_indices(space):
            top[i] = max(top.get(i, 0), power)
    diagonal: dict[int, list[Poly]] = {}  # i -> coordinate i of (ad X)^k e_i, k = 0, 1, ...
    for i, k in top.items():
        v = [Poly.const(nv, 1 if t == i else 0) for t in range(pair.dim)]
        diagonal[i] = [v[i]]
        for _ in range(k):
            v = pair.bracket_poly(sym, v)
            diagonal[i].append(v[i])
    words = {(space, power): sum((diagonal[i][power] for i in pair.block_indices(space)), Poly.zero(nv))
             for space, power in used}
    out = Poly.zero(nv)
    for key, c in series.terms.items():
        term = Poly.const(nv, c)
        for word in key:
            term = term.mul(words[word])
        out = out + term
    return out


@pytest.fixture(scope="session")
def omega(sl2_pair):
    return BlockPolynomial(sl2_pair, "p", Poly(2, {(2, 0): 1, (0, 2): 1}))


def random_block_poly(pair, space, max_degree, rng, density=0.5, bound=3):
    nv = len(pair.block_indices(space))
    terms = {}
    for m in monomials_up_to_degree(nv, max_degree):
        if rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                terms[m] = Fraction(c)
    return BlockPolynomial(pair, space, Poly(nv, terms))


def random_p_vector(pair, rng, bound=3):
    from sympair.util import zero_vec
    v = list(zero_vec(pair.dim))
    for i in range(pair.dim_p):
        v[i] = Fraction(rng.randint(-bound, bound))
    return tuple(v)


# -- reference oracles: independent routes the library is checked against ----

def graded_product_reference(left: dict, right: dict, degree, order, combine) -> dict:
    """`util.graded_product` as one Fraction multiply-add per pair of terms."""
    rights = util.by_degree(right, degree)
    out: dict = {}
    for d1, terms in util.by_degree(left, degree).items():
        kept = [t for d2, ts in rights.items() if order is None or d1 + d2 <= order for t in ts]
        for k1, c1 in terms:
            for k2, c2 in kept:
                k = combine(k1, k2)
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
    return {k: c for k, c in out.items() if c}


def rref_dense_reference(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """The dense Gauss-Jordan that the sparse `util.rref` replaced: (nonzero rows, pivot columns)."""
    M = [list(r) for r in rows]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b if b else a for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [row for row in M if any(x != 0 for x in row)], pivots


def _insert_sorted(subset: tuple[int, ...], a: int):
    """Insert index a into a sorted subset; returns (sign, new subset) or None."""
    if a in subset:
        return None
    pos = sum(1 for b in subset if b < a)
    return (-1) ** pos, subset[:pos] + (a,) + subset[pos:]


def ce_diff_reference(pair, chain: CEChain) -> CEChain:
    """`polyops.cartan_eilenberg_diff` by signed insertions from each source subset.

    Each component phi(S) is pushed forward: K_a . phi(S) lands on S + {a}
    with the sign of a's insertion, and phi(S) times the coefficient of K_b
    in [K_a, K_c] lands on S - {b} + {a, c} for every b in S.
    """
    dk = pair.dim_k
    out: dict[tuple[int, ...], Poly] = {}

    def add(subset, poly):
        if poly.is_zero():
            return
        cur = out.get(subset)
        out[subset] = poly if cur is None else cur + poly

    for subset, poly in chain.components.items():
        f = BlockPolynomial(pair, "p", poly)
        for a in range(dk):
            ins = _insert_sorted(subset, a)
            if ins is None:
                continue
            sign, new_subset = ins
            add(new_subset, k_derivation(pair, a, f).poly.scale(sign))
        for a in range(dk):
            for c in range(a + 1, dk):
                w = pair.adapted.bracket_basis(pair.dim_p + a, pair.dim_p + c)
                for b in range(dk):
                    coef = w[pair.dim_p + b]
                    if not coef or b not in subset:
                        continue
                    pos_b = subset.index(b)
                    reduced = subset[:pos_b] + subset[pos_b + 1:]
                    ins_a = _insert_sorted(reduced, a)
                    if ins_a is None:
                        continue
                    s1, with_a = ins_a
                    ins_c = _insert_sorted(with_a, c)
                    if ins_c is None:
                        continue
                    s2, full = ins_c
                    add(full, poly.scale(((-1) ** pos_b) * s1 * s2 * coef))
    return CEChain(pair, chain.degree + 1, {s: q for s, q in out.items() if not q.is_zero()})


# Truncated exp and log by callbacks: elements need +, -, scale(c) and
# is_zero(); `mul` must truncate, so that the powers of an element without
# constant term eventually vanish.

def exp_reference(x, one, mul):
    """sum_k x^k / k! for x without constant term."""
    out = term = one
    k = 1
    while True:
        term = mul(term, x).scale(Fraction(1, k))
        if term.is_zero():
            return out
        out = out + term
        k += 1


def log_reference(x, one, mul):
    """sum_k (-1)^(k+1) u^k / k with u = x - one, for x with constant term 1."""
    u = x - one
    out = one.scale(0)
    power = one
    k = 1
    while True:
        power = mul(power, u)
        if power.is_zero():
            return out
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
        k += 1


def substitute_letter(series: FreeAssocSeries, i: int, image: FreeAssocSeries) -> FreeAssocSeries:
    """Replace letter i of an associative series by `image` (e.g. zero or 2*letter)."""
    out = FreeAssocSeries(series.order)
    for w, c in series.terms.items():
        term = FreeAssocSeries.unit(series.order, c)
        for a in w:
            term = term * (image if a == i else FreeAssocSeries.letter(series.order, a))
        out = out + term
    return out


def straighten_random(ctx, word, rng):
    """Straighten by resolving a random inversion at each step (no memo)."""
    invs = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
    if not invs:
        return {word: Fraction(1)}
    i = rng.choice(invs)
    swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
    result = dict(straighten_random(ctx, swapped, rng))
    w = ctx.algebra.bracket_basis(word[i], word[i + 1])
    for t in range(ctx.dim):
        if w[t]:
            for mono, c in straighten_random(ctx, word[:i] + (t,) + word[i + 2 :], rng).items():
                result[mono] = result.get(mono, Fraction(0)) + w[t] * c
    return {m: c for m, c in result.items() if c}


def symmetrized_by_permutations(ctx, word):
    """Symmetrization of one word: the average of ctx.straighten over its
    distinct orderings, enumerated depth-first (factorial in the length)."""
    counts = {}
    for a in word:
        counts[a] = counts.get(a, 0) + 1
    perms, cur = [], []

    def rec():
        if len(cur) == len(word):
            perms.append(tuple(cur))
            return
        for s in sorted(counts):
            if counts[s]:
                counts[s] -= 1
                cur.append(s)
                rec()
                cur.pop()
                counts[s] += 1

    rec()
    out = {}
    for perm in perms:
        for m, c in ctx.straighten(perm).items():
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c / len(perms) for m, c in out.items() if c}


def right_normed(order):
    """w -> [w_1,[w_2,[...,w_n]]] in the tensor algebra, memoized per caller."""
    cache = {}

    def bracket_word(w):
        if w not in cache:
            if len(w) == 1:
                cache[w] = FreeAssocSeries.letter(order, w[0])
            else:
                head = FreeAssocSeries.letter(order, w[0])
                tail = bracket_word(w[1:])
                cache[w] = head * tail - tail * head
        return cache[w]

    return bracket_word


def dynkin_map(series):
    """Right-normed bracketing map D(w) = [w_1,[w_2,[...,w_n]]], word by word."""
    out = FreeAssocSeries(series.order)
    bracket_word = right_normed(series.order)
    for w, c in series.terms.items():
        if w:
            out = out + bracket_word(w).scale(c)
    return out


def bch_dynkin(order):
    """Dynkin's explicit BCH formula, as an associative expansion.

    Z = sum over m >= 1 of (-1)^(m-1)/m times the right-normed bracketing of
    X^(p_1) Y^(q_1) ... X^(p_m) Y^(q_m), divided by n * prod(p_i! q_i!) with
    n the word length.  Independent of the log/exp route of `bch`.
    """
    _check_order(order)
    out = FreeAssocSeries(order)
    bracket_word = right_normed(order)

    def factorial(k):
        f = 1
        for i in range(2, k + 1):
            f *= i
        return f

    def block_lists(m, budget):
        """All length-m lists of (p, q) != (0, 0) with total p+q <= budget."""
        if m == 0:
            yield []
            return
        for p in range(budget + 1):
            for q in range(budget - p + 1):
                if p == 0 and q == 0:
                    continue
                if p + q > budget - (m - 1):
                    continue
                for rest in block_lists(m - 1, budget - p - q):
                    yield [(p, q)] + rest

    for m in range(1, order + 1):
        for pairs in block_lists(m, order):
            w = ()
            denom = 1
            for p, q in pairs:
                w = w + (X,) * p + (Y,) * q
                denom *= factorial(p) * factorial(q)
            n = len(w)
            coeff = Fraction((-1) ** (len(pairs) - 1), len(pairs)) / Fraction(n * denom)
            out = out + bracket_word(w).scale(coeff)
    return out


def lie_from_assoc_reference(series: FreeAssocSeries) -> FreeLieSeries:
    """Lyndon coordinates peeled on Fraction dicts, degree by degree (the
    peel of `freelie.lie_from_assoc` before it ran on integer numerators)."""
    out: dict[tuple[int, ...], Fraction] = {}
    graded = util.by_degree(series.terms, len)
    for n in range(1, series.order + 1):
        comp = dict(graded.get(n, ()))
        guard = 0
        while comp:
            w = min(comp)
            c = comp[w]
            entry = _lyndon(w)
            if entry is None:
                raise ValueError(f"not a Lie element: leading word {w} is not Lyndon")
            w, b = entry
            out[w] = c
            util.add_into(comp, expand_bracket(b, n).terms, -c)
            guard += 1
            if guard > 4 ** n:
                raise RuntimeError("Lyndon peeling failed to terminate")
    return FreeLieSeries(series.order, out)


def sym_factorize_reference(order):
    """e^X e^Y = e^P e^K, recomputing log(e^P e^K) at the full order for every degree."""
    _check_order(order)
    target = bch(order)
    P = FreeLieSeries(order)
    K = FreeLieSeries(order)
    for n in range(1, order + 1):
        current = lie_from_assoc_reference((P.to_assoc().exp() * K.to_assoc().exp()).log())
        defect = (target - current).homogeneous_part(n)
        if n % 2 == 1:
            P = P + defect
        else:
            K = K + defect
    return P, K


def _sinhc_series(count):
    """b_k, a_k for k < count: with sinh z / z = sum s_k z^(2k) = sum z^(2k) / (2k+1)!, its inverse
    is sum b_k z^(2k) and its logarithm sum a_k z^(2k) (k a_k = k s_k - sum_(0<t<k) t a_t s_(k-t))."""
    s = [Fraction(1, math.factorial(2 * k + 1)) for k in range(count)]
    b, a = [Fraction(1)], [Fraction(0)]
    for k in range(1, count):
        b.append(-sum((s[t] * b[k - t] for t in range(1, k + 1)), Fraction(0)))
        a.append(s[k] - sum((t * a[t] * s[k - t] for t in range(1, k)), Fraction(0)) / k)
    return b, a


def laplace_beltrami_symbol(pair, R, jet, density):
    """Symbol of J^(1/2) o (Delta + c) o J^(-1/2) in exponential coordinates on p, exact
    through x-degree jet - 2, in the variables of `exp_coord_operator` (x, then xi).

    Delta is the Laplace-Beltrami operator of the metric that Exp pulls back
    from the form on p dual to the quadratic Casimir R:
    g(X) = <T u, T v> with T = sinh(ad X)/ad X on p, so its inverse is
    G = T^-1 R T^-T and its volume J_g = det_p T = exp sum_n a_n tr_p M^n,
    where M = (ad X)^2 on p and a_n are the coefficients of log(sinh z / z).
    Its symbol is G^ij xi_i xi_j + (d_i G^ij + G^ij d_i log J_g) xi_j.  The
    conjugating density is log J = sum_n density(n, a_n) tr_p M^n, and
    c = R(d) J^(1/2) at 0.  M comes from the numeric ad matrices, and every
    series from `_sinhc_series`: nothing of `series` or `apply_series_operator`.
    """
    dp, n, N = pair.dim_p, pair.dim, jet // 2
    b, a = _sinhc_series(N + 1)
    zero = Poly.zero(dp)

    def matmul(A, B):
        return [[sum((A[i][t].mul(B[t][j], jet) for t in range(len(B))), zero) for j in range(len(B[0]))]
                for i in range(len(A))]

    ads = [pair.adapted.ad(util.unit_vec(n, t)) for t in range(dp)]
    adX = [[sum((Poly.var(dp, t, ads[t][i][j]) for t in range(dp) if ads[t][i][j]), zero) for j in range(n)]
           for i in range(n)]
    M = [row[:dp] for row in matmul(adX, adX)[:dp]]
    powers = [[[Poly.const(dp, int(i == j)) for j in range(dp)] for i in range(dp)]]
    for _ in range(N):
        powers.append(matmul(powers[-1], M))
    traces = [sum((P[i][i] for i in range(dp)), zero) for P in powers]
    log_jg = sum((tr.scale(c) for c, tr in zip(a[1:], traces[1:])), zero)
    log_j = sum((tr.scale(density(k, a[k])) for k, tr in enumerate(traces[1:], 1)), zero)

    def r_entry(i, j):  # R(xi) = sum_ij r_ij xi_i xi_j
        c = R.poly.terms.get(tuple((t == i) + (t == j) for t in range(dp)), Fraction(0))
        return Poly.const(dp, c if i == j else c / 2)

    r = [[r_entry(i, j) for j in range(dp)] for i in range(dp)]
    t_inv = [[sum((P[i][j].scale(c) for c, P in zip(b, powers)), zero) for j in range(dp)] for i in range(dp)]
    G = matmul(matmul(t_inv, r), [list(col) for col in zip(*t_inv)])
    V = [sum((G[i][j].diff(i) + G[i][j].mul(log_jg.diff(i), jet) for i in range(dp)), zero) for j in range(dp)]
    # with D = d log J: first order V - G D, zero order G (D D / 4 - d D / 2) - V D / 2 + c
    D = [log_j.diff(i) for i in range(dp)]
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    c = sum((r[i][j].mul(D[i].diff(j)) for i in range(dp) for j in range(dp)), zero).truncate(0).scale(half)
    order0 = c - sum((V[j].mul(D[j], jet) for j in range(dp)), zero).scale(half)
    for i, j in itertools.product(range(dp), repeat=2):
        order0 = order0 + G[i][j].mul(D[i].mul(D[j], jet).scale(quarter) - D[i].diff(j).scale(half), jet)
    order1 = [V[j] - sum((G[i][j].mul(D[i], jet) for i in range(dp)), zero) for j in range(dp)]
    terms = {}
    parts = [(order0, ())] + [(order1[j], (j,)) for j in range(dp)]
    parts += [(G[i][j], (i, j)) for i in range(dp) for j in range(dp)]
    for coeff, xi in parts:
        xi_exps = tuple(xi.count(t) for t in range(dp))
        util.add_into(terms, {m + xi_exps: v for m, v in coeff.terms.items()})
    return Poly(2 * dp, terms)


def composition_symbol_at_origin(P, D_Q):
    """The symbol at x = 0 of D_P o D_Q, given that D_P has symbol P(xi) there:
    sum_alpha d_xi^alpha P(xi) (d_x^alpha D_Q)(0, xi) / alpha!, a polynomial in xi.

    D_Q is a symbol in the variables of `exp_coord_operator` (x, then xi), so
    (d_x^alpha D_Q)(0, xi) / alpha! is its coefficient of x^alpha.  The PBW
    layer is not used.
    """
    dp = P.poly.nvars
    out = Poly.zero(dp)
    for mono, c in D_Q.terms.items():
        out = out + P.poly.diff_mono(mono[:dp]).mul(Poly.monomial(dp, mono[dp:], c))
    return out


def moyal(f, g, c):
    """The Moyal product f exp((c/2)(d_u (x) d_v - d_v (x) d_u)) g of two polynomials in u, v:
    sum_n (c/2)^n / n! sum_k C(n, k) (-1)^k (d_u^(n-k) d_v^k f) (d_u^k d_v^(n-k) g)."""
    out = Poly.zero(2)
    for n in range(min(f.degree(), g.degree()) + 1):
        for k in range(n + 1):
            coeff = (Fraction(c) / 2) ** n / math.factorial(n) * math.comb(n, k) * (-1) ** k
            out = out + f.diff_mono((n - k, k)).mul(g.diff_mono((k, n - k))).scale(coeff)
    return out


def hc_gamma(iw, P):
    """gamma(P) = hc_projection_uea(d_{J^(1/2)} P), the density through order 2 ceil(deg P / 2),
    which covers deg P: the Harish-Chandra map of the class of P, a polynomial in the p0 coordinates."""
    order = 2 * math.ceil(P.degree() / 2)
    return hc_projection_uea(iw.pair, apply_series_operator(iw.pair, density_series("J_half", order), P), iw)


def shifted(f, c):
    """f with every variable t replaced by t + c (the rho shift of p0 coordinates at c = 1)."""
    n = f.nvars
    return f.subs([Poly.var(n, i) + Poly.const(n, c) for i in range(n)])


def coadjoint_orbit_point(pair, K, f, max_power=12):
    """exp(ad K)* f for a k-vector with nilpotent ad, exactly."""
    K = util.vec(K)
    f = util.vec(f)
    M = pair.adapted.ad(K)
    # coadjoint: <exp(ad K)* f, v> = <f, exp(-ad K) v>
    out = list(f)
    term = list(f)
    k = 1
    while True:
        # term <- -(1/k) * term o ad K   (i.e. transpose action)
        nxt = [Fraction(0)] * pair.dim
        for j in range(pair.dim):
            s = Fraction(0)
            for i in range(pair.dim):
                if term[i] and M[i][j]:
                    s += term[i] * M[i][j]
            nxt[j] = -s / k
        term = nxt
        if all(c == 0 for c in term):
            break
        out = [a + b for a, b in zip(out, term)]
        k += 1
        if k > max_power:
            raise ValueError("ad K is not nilpotent to the requested power")
    return tuple(out)


def canonical_reference(g):
    """The least aerial relabeling of `g` by its edge-key list, built as one
    graph per permutation."""
    return min((relabel_aerial(g, perm) for perm in itertools.permutations(range(g.n))),
               key=lambda h: [_edge_key(e) for e in h.edges])


def _angle_coeffs_dense(xp, yp, xq, yq, color):
    """Vectorized two-color one-form coefficients, term by term.

    The angle is arg(p - q) + arg(p - conj q) for the solid color and
    arg(p - q) - arg(p - conj q) for the dashed one; each factor
    w = (xp + ex xq) + i (yp + ey yq) adds sign * (Re w dIm w - Im w dRe w)/|w|^2.
    """
    second = {"+": 1.0, "-": -1.0}[color]
    c = [np.zeros_like(xp) for _ in range(4)]
    for sign, ex, ey in ((1.0, -1.0, -1.0), (second, -1.0, 1.0)):
        a = xp + ex * xq
        b = yp + ey * yq
        r2 = a * a + b * b
        c[0] += sign * (-b) / r2
        c[1] += sign * a / r2
        c[2] += sign * (-b * ex) / r2
        c[3] += sign * (a * ey) / r2
    return c


def weight_mc_dense(g, samples, seed):
    """Reference `weight_mc`: the dense (count, dim, dim) matrix and a batched LU.

    Draws the same uniforms as the library and assembles every matrix entry
    in a strided array; the determinant comes from `np.linalg.det` (closed
    forms for dim 1 and 2) and the variance from all samples at once.
    Non-finite samples are not filtered.  The gauge is written out here:
    for m == 1 aerial point 0 sits on the unit circle (column 0 is its
    angle), for m == 0 it is pinned at i, ground points 0 and 1 sit at 0
    and 1; the columns are the angle, then (x, y) of each free aerial
    point, then the gap of each further ground point to the previous one.
    """
    from sympair.graphs import _CHUNK, _ORIENT, WeightEstimate
    edges = g.finite_edges
    dim = 2 * g.n + g.m - 2
    if len(edges) != dim:
        return WeightEstimate(0.0, 0.0, samples, seed)
    first_free = 0 if g.m >= 2 else 1
    offset = 1 if g.m == 1 else 0
    xcol = {v: offset + 2 * (v - first_free) for v in range(first_free, g.n)}
    gcol = {j: offset + 2 * (g.n - first_free) + j - 2 for j in range(2, g.m)}

    ss = np.random.SeedSequence(seed)
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = ss.spawn(n_chunks)
    chunks = []
    done = 0
    for chunk_id in range(n_chunks):
        count = min(_CHUNK, samples - done)
        rng = np.random.default_rng(streams[chunk_id])
        u = rng.random((count, dim))

        xs = np.zeros((count, g.n + g.m))
        ys = np.zeros((count, g.n + g.m))
        jac = np.ones(count)

        if g.m == 1:
            theta = math.pi * u[:, 0]
            xs[:, 0] = np.cos(theta)
            ys[:, 0] = np.sin(theta)
            jac *= math.pi
            sin_t, cos_t = np.sin(theta), np.cos(theta)
        if g.m == 0:
            ys[:, 0] = 1.0
        for v, c in xcol.items():
            ux, uy = u[:, c], u[:, c + 1]
            x = np.tan(math.pi * (ux - 0.5))
            xs[:, v] = x
            ys[:, v] = uy / (1.0 - uy)
            jac *= math.pi * (1.0 + x * x)
            jac *= 1.0 / (1.0 - uy) ** 2
        if g.m >= 2:
            xs[:, g.n + 1] = 1.0
        for j, c in gcol.items():
            us = u[:, c]
            xs[:, g.n + j] = xs[:, g.n + j - 1] + us / (1.0 - us)
            jac *= 1.0 / (1.0 - us) ** 2

        M = np.zeros((count, dim, dim))
        for row, (src, dst, color) in enumerate(edges):
            cf = _angle_coeffs_dense(xs[:, src], ys[:, src], xs[:, dst], ys[:, dst], color)
            for endpoint, v in ((0, src), (2, dst)):
                if v == 0 and g.m == 1:
                    M[:, row, 0] += -cf[endpoint] * sin_t + cf[endpoint + 1] * cos_t
                elif v in xcol:
                    M[:, row, xcol[v]] += cf[endpoint]
                    M[:, row, xcol[v] + 1] += cf[endpoint + 1]
                elif v - g.n in gcol:
                    M[:, row, gcol[v - g.n]] += cf[endpoint]
        if dim == 1:
            dets = M[:, 0, 0]
        elif dim == 2:
            dets = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        else:
            dets = np.linalg.det(M)
        chunks.append(dets * jac)
        done += count

    vals = np.concatenate(chunks)
    norm = _ORIENT / (2.0 * math.pi) ** len(edges)
    return WeightEstimate(norm * vals.mean(), abs(norm) * math.sqrt(vals.var() / samples), samples, seed)


# -- the block kernel of the dictionary-and-recursion integrator ---------------
#
# `weight_mc_blocks_reference` is the Monte-Carlo integrator as it stood
# before the integrand became a compiled program: per block it builds a
# dict of matrix entries from each edge's own (P, Q, R) and expands the
# determinant by a recursion over column masks.  It shares the gauge,
# the vertex placement and the sample streams with `weight_mc`, so the
# two agree exactly (`==`), not just to rounding.

def _reciprocals_reference(a, b1, b2, on_axis):
    aa = a * a
    u = 1.0 / (aa + b1 * b1)
    return u, (u if on_axis else 1.0 / (aa + b2 * b2))


def _half_terms_reference(a, b1, b2, u, v, color):
    """(P, Q, R) of d[arg(a + i b1) +- arg(a + i b2)], the sign being the color's."""
    if color[0] == "+":
        return u * b1 + v * b2, a * (u + v), a * (v - u)
    return u * b1 - v * b2, a * (u - v), -a * (u + v)


def _matrix_entries_reference(n, plan, edges, xs, ys):
    """{(row, column): values} of the integrand matrix, edge by edge."""
    from sympair.graphs import _FREE, _GROUND, _THETA
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
            recips[pair] = _reciprocals_reference(a, b1, b2, pair[1] >= n)
        P, Q, R = _half_terms_reference(a, b1, b2, *recips[pair], color)
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


def _laplace_reference(entries, dim, mask, memo):
    """Determinant of the minor on rows popcount(mask).. and the columns not in `mask`."""
    row = mask.bit_count()
    if row == dim:
        return 1.0
    if mask in memo:
        return memo[mask]
    det = None
    position = 0
    for col in range(dim):
        bit = 1 << col
        if mask & bit:
            continue
        vals = entries.get((row, col))
        if vals is not None:
            minor = _laplace_reference(entries, dim, mask | bit, memo)
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


def weight_mc_blocks_reference(g, samples, seed):
    """`weight_mc` with the per-block dict of entries and the recursive Laplace expansion."""
    from sympair.graphs import _BLOCK, _CHUNK, _ORIENT, WeightEstimate, _gauge_plan, _place_vertices
    edges = g.finite_edges
    plan = _gauge_plan(g)
    dim = 2 * g.n + g.m - 2
    if len(edges) != dim:
        return WeightEstimate(0.0, 0.0, samples, seed)
    streams = np.random.SeedSequence(seed).spawn((samples + _CHUNK - 1) // _CHUNK)
    total = 0.0
    blocks = []
    nonfinite = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for chunk_id, stream in enumerate(streams):
            rng = np.random.default_rng(stream)
            chunk = min(_CHUNK, samples - chunk_id * _CHUNK)
            for start in range(0, chunk, _BLOCK):
                count = min(_BLOCK, chunk - start)
                xs, ys, jac = _place_vertices(plan, np.ascontiguousarray(rng.random((count, dim)).T))
                entries = _matrix_entries_reference(g.n, plan, edges, xs, ys)
                dets = _laplace_reference(entries, dim, 0, {})
                if dets is None:
                    blocks.append((count, 0.0, 0.0))
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
