"""Universal enveloping algebra with PBW normal form over an ordered basis.

A PBWContext fixes an ordered basis of g (given by vectors in the pair's
adapted coordinates) and straightens words by the rewriting
e_j e_i -> e_i e_j + [e_j, e_i] whenever j comes after i in the order.
The order puts a run of p symbols (`ctx.p_symbols`) before the k symbols,
which come last.  The default context is the adapted basis, with the
bracket table `pair.adapted`; others use `pair.adapted.rebased(vectors)`.

`_symmetrized` gives the average of the straightened orderings of one word
by recursion on the first letter, memoized per context by sorted word,

    beta(x^alpha) = (1/|alpha|) sum_i alpha_i x_i beta(x^(alpha - e_i)),

`_beta_over` sums it over a polynomial, and `_peel` inverts any map that is
the identity on top degree, by degree-descending elimination.  Both
quotients of U(g) share `_project`, the projection mod U(g).k^lambda onto
beta of the p symbols: the Rouviere product in the default context, and the
Harish-Chandra map in the Iwasawa basis (n+, p0, k0, r) at lambda = 0,
after dropping n+.U(g); there beta(S(p0)) is U(g0)/U(g0).k0.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from . import util
from .liealg import Character, SymmetricPair
from .poly import Poly, monomials_of_degree
from .polyops import BlockPolynomial, require_invariant
from .series import TraceSeries, density_series


class PBWContext:
    """Ordered basis plus straightening and symmetrization memos.

    The memos are the only mutable state; entries are pure functions of the
    word, so concurrent readers can at worst duplicate work, never disagree.
    """

    def __init__(self, pair: SymmetricPair, vectors=None, k_start: int | None = None, p_start: int = 0):
        self.pair = pair
        default = vectors is None
        if default:
            vectors = [util.unit_vec(pair.dim, i) for i in range(pair.dim)]
            k_start = pair.dim_p
        self.vectors = [util.vec(v) for v in vectors]
        if len(self.vectors) != pair.dim:
            raise ValueError("context basis must have dim(g) vectors")
        self.dim = pair.dim
        self.k_start = pair.dim_p if k_start is None else k_start
        self.p_symbols = range(p_start, self.k_start)
        # rebasing the adapted table onto its own unit vectors would rebuild it unchanged
        self.algebra = pair.adapted if default else pair.adapted.rebased(self.vectors)
        self._memo: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        self._sym_memo: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}

    def straighten(self, word: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        """Canonical PBW form of a basis word, as {sorted word: coefficient}."""
        if word in self._memo:
            return self._memo[word]
        inv = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
        if inv is None:
            result = {word: Fraction(1)}
        else:
            i = inv
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            result = dict(self.straighten(swapped))
            for t, c in self.algebra.bracket_terms(word[i], word[i + 1]):
                util.add_into(result, self.straighten(word[:i] + (t,) + word[i + 2 :]), c)
        self._memo[word] = result
        return result


class UEAElement:
    """Exact combination of PBW monomials (non-decreasing index words)."""

    def __init__(self, ctx: PBWContext, terms: dict | None = None):
        self.ctx = ctx
        self.terms: dict[tuple[int, ...], Fraction] = {}
        for w, c in (terms or {}).items():
            c = util.frac(c)
            if c:
                assert all(w[i] <= w[i + 1] for i in range(len(w) - 1)), "not a PBW monomial"
                self.terms[tuple(w)] = c

    @classmethod
    def unit(cls, ctx, c=1):
        return cls(ctx, {(): util.frac(c)})

    @classmethod
    def generator(cls, ctx, i, c=1):
        return cls(ctx, {(i,): util.frac(c)})

    def __add__(self, other):
        return UEAElement(self.ctx, util.add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = util.frac(c)
        return UEAElement(self.ctx, {w: c * v for w, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, UEAElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def top_part(self):
        d = self.degree()
        return {w: c for w, c in self.terms.items() if len(w) == d}

    def __repr__(self):
        return f"UEAElement({len(self.terms)} terms, degree {self.degree()})"


def pbw_multiply(a: UEAElement, b: UEAElement) -> UEAElement:
    assert a.ctx is b.ctx, "same context required"
    ctx = a.ctx
    out: dict[tuple[int, ...], Fraction] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            util.add_into(out, ctx.straighten(w1 + w2), c1 * c2)
    return UEAElement(ctx, out)


def ad_action(ctx: PBWContext, i: int, u: UEAElement) -> UEAElement:
    g = UEAElement.generator(ctx, i)
    return pbw_multiply(g, u) - pbw_multiply(u, g)


def _mono_to_word(idx: range, mono) -> tuple[int, ...]:
    """Exponent tuple over the symbols idx -> sorted index word."""
    return tuple(idx[t] for t, e in enumerate(mono) for _ in range(e))


def _word_to_mono(idx: range, word) -> tuple[int, ...]:
    """Index word over the symbols idx -> exponent tuple."""
    mono = [0] * len(idx)
    for i in word:
        mono[i - idx.start] += 1
    return tuple(mono)


def _symmetrized(ctx: PBWContext, word) -> dict[tuple[int, ...], Fraction]:
    """Symmetrization of one word: the average of ctx.straighten over its orderings.

    Grouping the orderings by their first letter gives
    beta(w) = (1/|w|) sum_i alpha_i straighten(x_i beta(w - x_i)) over the
    distinct letters x_i of w, alpha_i their multiplicities.
    """
    word = tuple(sorted(word))
    memo = ctx._sym_memo
    if word in memo:
        return memo[word]
    if len(word) <= 1:
        result = {word: Fraction(1)}
    else:
        out: dict[tuple[int, ...], Fraction] = {}
        for t, i in enumerate(word):
            if t and word[t - 1] == i:
                continue
            for m, c in _symmetrized(ctx, word[:t] + word[t + 1:]).items():
                util.add_into(out, ctx.straighten((i,) + m), word.count(i) * c)
        result = {m: c / len(word) for m, c in out.items()}
    memo[word] = result
    return result


def _peel(rem: UEAElement, nvars: int, mono_of, step) -> Poly:
    """Degree-descending inversion of a map that is the identity on top degree.

    Moves the top-degree part of `rem`, read as a polynomial through
    `mono_of`, into the result; step(rem, top) must then cancel it.
    """
    acc = Poly.zero(nvars)
    while not rem.is_zero():
        d = rem.degree()
        top = Poly(nvars, {mono_of(w): c for w, c in rem.top_part().items()})
        acc = acc + top
        rem = step(rem, top)
        if not rem.is_zero() and rem.degree() >= d:
            raise RuntimeError("peeling failed to lower the degree")  # pragma: no cover
    return acc


def _beta_over(ctx: PBWContext, symbols: range, poly: Poly) -> UEAElement:
    """Symmetrization of a polynomial whose variable t is the context symbol symbols[t]."""
    out: dict[tuple[int, ...], Fraction] = {}
    for mono, coeff in poly.terms.items():
        util.add_into(out, _symmetrized(ctx, _mono_to_word(symbols, mono)), coeff)
    return UEAElement(ctx, out)


def beta(ctx: PBWContext, f: BlockPolynomial) -> UEAElement:
    """Symmetrization of a polynomial: average of all factor orderings."""
    return _beta_over(ctx, ctx.pair.block_indices(f.space), f.poly)


def beta_inverse(ctx: PBWContext, u: UEAElement) -> BlockPolynomial:
    """Full inverse of the symmetrization, by degree-descending elimination."""
    pair = ctx.pair
    acc = _peel(u, pair.dim, lambda w: _word_to_mono(range(pair.dim), w),
                lambda rem, top: rem - beta(ctx, BlockPolynomial(pair, "g", top)))
    return BlockPolynomial(pair, "g", acc)


def reduce_mod_k_lambda(u: UEAElement, lam: Character) -> UEAElement:
    """Rewrite mod U(g).k^lambda: each k symbol K of a word becomes -lambda(K).

    The k symbols come last in every context order, so in a PBW monomial
    they form its tail, and the tail reduces to a product of scalars.
    """
    ctx = u.ctx
    ks = ctx.k_start
    neg = [-lam.of_k_vector(v) for v in ctx.vectors[ks:]]
    out: dict[tuple[int, ...], Fraction] = {}
    for w, c in u.terms.items():
        t = bisect.bisect_left(w, ks)
        for i in w[t:]:
            c *= neg[i - ks]
        util.add_into(out, {w[:t]: c})
    return UEAElement(ctx, out)


def _project(ctx: PBWContext, u: UEAElement, lam: Character) -> Poly:
    """S over ctx.p_symbols with u = beta(S) mod U(g).k^lambda; u has no symbol before them."""
    p = ctx.p_symbols
    return _peel(reduce_mod_k_lambda(u, lam), len(p), lambda w: _word_to_mono(p, w),
                 lambda rem, top: reduce_mod_k_lambda(rem - _beta_over(ctx, p, top), lam))


def project_mod_k_lambda(ctx: PBWContext, u: UEAElement, lam: Character) -> BlockPolynomial:
    """The unique S in S(p) with u = beta(S) mod U(g).k^lambda."""
    pair = ctx.pair
    if ctx.p_symbols != pair.block_indices("p"):
        raise ValueError("projection needs the adapted context")
    return BlockPolynomial(pair, "p", _project(ctx, u, lam))


# -- transported star products ----------------------------------------------

def _transport(ctx: PBWContext, series: TraceSeries, f: BlockPolynomial, g: BlockPolynomial,
               quotient) -> BlockPolynomial:
    """d_(series^-1) of quotient(beta(d_series f) . beta(d_series g)).

    The series is compiled once over the block of f and g, its inverse once
    over the block of the quotient.
    """
    pair = ctx.pair
    op = series.as_polynomial(pair, f.space)
    u, v = (beta(ctx, BlockPolynomial(pair, h.space, h.poly.diff_by(op))) for h in (f, g))
    S = quotient(pbw_multiply(u, v))
    return BlockPolynomial(pair, S.space, S.poly.diff_by(series.inverse().as_polynomial(pair, S.space)))


def star_dk(pair: SymmetricPair, f: BlockPolynomial, g: BlockPolynomial) -> BlockPolynomial:
    """Duflo-Kontsevich product on S(g), transported from U(g).

    beta(d_{q^(1/2)}(f * g)) = beta(d_{q^(1/2)} f) . beta(d_{q^(1/2)} g),
    solved for f * g through the full (unquotiented) inverse of beta.
    """
    ctx = PBWContext(pair)
    f, g = f.to_g(), g.to_g()
    qh = density_series("q_half", 2 * ((f.degree() + g.degree() + 1) // 2))
    return _transport(ctx, qh, f, g, lambda w: beta_inverse(ctx, w))


def rouviere_sharp(pair: SymmetricPair, P: BlockPolynomial, Q: BlockPolynomial,
                   lam: Character | None = None) -> BlockPolynomial:
    """Rouviere product on S(p)^k at character lambda.

    beta(d_{J^(1/2)} R) = beta(d_{J^(1/2)} P) . beta(d_{J^(1/2)} Q)
    modulo U(g).k^(-lambda), then R = d_{J^(-1/2)} of the projection.
    """
    ctx = PBWContext(pair)
    lam = lam or pair.zero_character()
    require_invariant(pair, P, "P")
    require_invariant(pair, Q, "Q")
    Jh = density_series("J_half", 2 * ((P.degree() + Q.degree() + 1) // 2))
    return _transport(ctx, Jh, P, Q, lambda w: project_mod_k_lambda(ctx, w, lam.scale(-1)))


# -- Duflo relation on filtered subspaces -------------------------------------

def duflo_relation_check(pair: SymmetricPair, lam: Character, degree: int) -> bool:
    """Exact test of k^(-lam).U ∩ U^k == U^k ∩ U.k^(-lam + tr_k) at a degree.

    The left side is spanned by (K - lam(K)).m, the right by
    m.K + (tr_k - lam)(K).m, for K in the k basis and m a PBW word of degree
    < `degree`.  The invariant part of each is the common kernel of ad k
    over its generators, and the two are compared by their canonical RREF.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    ctx = PBWContext(pair)
    trk = pair.trk_character()
    words = [UEAElement(ctx, {_mono_to_word(range(pair.dim), m): 1})
             for d in range(degree) for m in monomials_of_degree(pair.dim, d)]
    maps = [lambda u, i=i: ad_action(ctx, i, u).terms for i in pair.block_indices("k")]

    def invariant_rref(generators):
        rows = []
        for c in util.common_kernel(generators, maps):
            row: dict = {}
            for ct, u in zip(c, generators):
                if ct:
                    util.add_into(row, u.terms, ct)
            rows.append(row)
        return util.rref(rows)[0]

    left, right = [], []
    for a, i in enumerate(pair.block_indices("k")):
        K = UEAElement.generator(ctx, i)
        for m in words:
            left.append(pbw_multiply(K, m) - m.scale(lam.values[a]))
            right.append(pbw_multiply(m, K) + m.scale(trk.values[a] - lam.values[a]))
    return invariant_rref(left) == invariant_rref(right)


# -- Harish-Chandra projection through the enveloping algebra ----------------

def hc_projection_uea(pair: SymmetricPair, class_poly: BlockPolynomial, iwasawa) -> Poly:
    """Project a class beta(S) mod U(g).k onto the small-pair coordinates.

    Symmetrizes S in the Iwasawa order (n+, p0, k0, r), drops n+.U(g), and
    projects the rest mod U(g).k onto beta(S(p0)).  Returns a polynomial in
    the p0 symbols.
    """
    nn = len(iwasawa.n_plus)
    ctx = PBWContext(pair, iwasawa.basis, k_start=nn + len(iwasawa.p0), p_start=nn)
    # symmetrization does not depend on the basis: substitute Iwasawa coordinates first
    u = _beta_over(ctx, range(pair.dim), class_poly.to_g().poly.subs([Poly.linear(x) for x in iwasawa.coords]))
    kept = UEAElement(ctx, {w: c for w, c in u.terms.items() if not w or w[0] >= nn})
    return _project(ctx, kept, pair.zero_character())
