"""The two-argument expansion E_lambda(X, Y) and the products built on it.

Only the coefficients through total order 4 are known in closed form:
the k-valued component

    H(X,Y) = 1/2 [X,Y] - 1/24 [X,[X,[X,Y]]] - 1/24 [Y,[Y,[X,Y]]]
             - 1/48 [X,[Y,[X,Y]]] - 1/48 [Y,[X,[X,Y]]] + ...

and the scalar logarithm, whose order-2 part vanishes identically and
whose order-4 part is the trace series -(1/240)(tr_p - tr_k)(ad W)^2 at
W = [X,Y] in k, that is -(1/240) b(W, W) with b = K_g - 2 K_k.  The
symbol compiles it over the k block with `TraceSeries.as_polynomial`, the
one symbolic trace-word compiler; `ln_e_scalar` evaluates it at vectors
through `trace_word`.  Requests beyond order 4 fail loudly rather than guess.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from . import util
from .errors import NotPolarization, NotSigmaStable, OrderTooHigh, TruncationTooLow, TruncationWarning
from .freelie import FreeAssocSeries, FreeLieSeries, expand_bracket, lie_from_assoc, z_sym
from .liealg import (
    Character,
    PolarizationCandidate,
    SymmetricPair,
    polarization_check,
    trace_alternation,
)
from .poly import Poly, poly_exp
from .polyops import BlockPolynomial, require_invariant
from .series import TraceSeries, log_density

E_MAX_ORDER = 4

#: (coefficient, nested bracket) pairs of the k-valued component H(X, Y).
H_TERMS = (
    (Fraction(1, 2), ("X", "Y")),
    (Fraction(-1, 24), ("X", ("X", ("X", "Y")))),
    (Fraction(-1, 24), ("Y", ("Y", ("X", "Y")))),
    (Fraction(-1, 48), ("X", ("Y", ("X", "Y")))),
    (Fraction(-1, 48), ("Y", ("X", ("X", "Y")))),
)

#: coefficient of the alternation sum on ([X,Y],[X,Y]) in ln E, order 4.
LN_E_ORDER4_COEFF = Fraction(-1, 240)

#: ln E through order 4 as a trace series in W = [X, Y] in k: -(1/240)(tr_p - tr_k)(ad W)^2
LN_E_SERIES = (TraceSeries.word(2, "p", 2) - TraceSeries.word(2, "k", 2)).scale(LN_E_ORDER4_COEFF)


def h_component(order: int) -> FreeLieSeries:
    """The k-valued Lie series H(X, Y) through the requested order (<= 4)."""
    if order > E_MAX_ORDER:
        raise OrderTooHigh(f"H(X,Y) coefficients are only known through order {E_MAX_ORDER}")
    if order < 1:
        raise OrderTooHigh("order must be >= 1")
    assoc = FreeAssocSeries(order)
    for c, b in H_TERMS:
        assoc = assoc + expand_bracket(b, order).scale(c)
    return lie_from_assoc(assoc)


def ln_e_scalar(pair: SymmetricPair, X, Y) -> Fraction:
    """Order-4 value of ln E(X, Y): -(1/240) (tr_p - tr_k)(ad[X,Y])^2.

    The order-2 alternation tr_p(ad X ad Y) - tr_k(ad Y ad X) vanishes for
    every pair (trace of AB versus BA across the two blocks), so the first
    contribution is the order-4 one.
    """
    return LN_E_ORDER4_COEFF * trace_alternation(pair, [("X", "Y"), ("X", "Y")], X, Y)


def _bidiff_symbol(pair: SymmetricPair, lam: Character) -> Poly:
    """exp(lambda(H) + ln E) as a polynomial in (xi, eta) slot variables.

    Variables 0..dim_p-1 are the X slots (derivatives on the first factor),
    dim_p..2dim_p-1 the Y slots.  Truncated at total slot degree E_MAX_ORDER.
    ln E is the trace series LN_E_SERIES, compiled over the k block and
    substituted at W = [X, Y], which lies in k.
    """
    order = E_MAX_ORDER
    dp = pair.dim_p
    nv = 2 * dp
    Xs = pair.symbolic_vector("p", nv, 0)
    Ys = pair.symbolic_vector("p", nv, dp)

    log_sym = Poly.zero(nv)
    if not lam.is_zero():
        hs = h_component(order)
        hval = hs.evaluate_poly(pair, Xs, Ys)
        for i in pair.block_indices("k"):
            if not hval[i].is_zero():
                log_sym = log_sym + hval[i].scale(lam.values[i - dp])
    W = pair.bracket_poly(Xs, Ys)
    log_sym = log_sym + LN_E_SERIES.as_polynomial(pair, "k").subs([W[i] for i in pair.block_indices("k")], order)
    return poly_exp(log_sym, order)


def star_cf(pair: SymmetricPair, f: BlockPolynomial, g: BlockPolynomial,
            lam: Character | None = None) -> BlockPolynomial:
    """The E-function product on S(p)^k at character lambda.

    Exact whenever one argument is constant or deg f + deg g <= 5.  An
    unknown order >= 6 term with slot bidegree (a, b), a, b >= 1, reaches
    f # g when a <= deg f and b <= deg g, so every other product emits a
    TruncationWarning.
    """
    lam = lam or pair.zero_character()
    if f.space != "p" or g.space != "p":
        raise ValueError("star_cf needs p-polynomials")
    require_invariant(pair, f, "f")
    require_invariant(pair, g, "g")
    if min(f.degree(), g.degree()) >= 1 and f.degree() + g.degree() >= 6:
        warnings.warn(f"degrees {f.degree()} and {g.degree()}: unknown order >= 6 terms are dropped, "
                      f"product truncated at order {E_MAX_ORDER}", TruncationWarning)
    dp = pair.dim_p
    on_g: dict[tuple[int, ...], Poly] = {}  # derivative on f -> symbol of the operator on g
    for mono, c in _bidiff_symbol(pair, lam).terms.items():
        on_g.setdefault(mono[:dp], Poly.zero(dp)).terms[mono[dp:]] = c
    out = Poly.zero(dp)
    for alpha, op in on_g.items():
        df = f.poly.diff_mono(alpha)
        if df:
            out = out + df.mul(g.poly.diff_by(op))
    return BlockPolynomial(pair, "p", out)


def wheel_factor_A(order: int) -> TraceSeries:
    """A = q^(1/2) / J^(1/2) as a trace series (B is identically 1)."""
    return (log_density("q_half", order) - log_density("J_half", order)).exp()


def wheel_factor_B(order: int) -> TraceSeries:
    return TraceSeries.constant(order, 1)


# -- invariant operators in exponential coordinates ---------------------------

def exp_coord_operator(pair: SymmetricPair, R: BlockPolynomial, jet_order: int, X=None) -> Poly:
    """Normalized symbol of the invariant operator attached to R, at X.

    Computes exp(-<xi, X>) R(d_Y)[ J^(1/2)(Y) J^(1/2)(X) J^(-1/2)(Z(X,Y))
    exp(<xi, Z(X,Y)>) ] at Y = 0, with Z the symmetric-space BCH series
    truncated at jet_order (the wheel factor on the second axis is 1).  With
    l = log J^(1/2), compiled once, the bracket is the single exponential
    exp(l(Y) + l(X) - l(Z) + <xi, Z - X>).

    Variables of the result: 0..dim_p-1 are the X coordinates, dim_p..2dim_p-1
    the symbol (xi) coordinates.  The result is exact and holds every term
    of x-degree <= jet_order - deg R, and no other: R(d_Y) reads y-degrees up
    to deg R, and Z is known only through (X,Y)-order jet_order.  Only that
    jet is formed: Z, the three substitutions into l and the exponential are
    cut by the one grading (x-degree, y-degree) <= (jet_order - deg R, deg R),
    xi of weight 0.  At jet_order 0, R is a constant and so is the result.  A
    concrete X, given by its dim_p p-coordinates or as an adapted vector of g
    with k-part 0, is substituted for the X variables of that jet.
    """
    if R.space != "p":
        raise ValueError("R must be a p-polynomial")
    require_invariant(pair, R, "R")
    if R.degree() > jet_order:
        raise TruncationTooLow(f"deg R = {R.degree()} exceeds jet order {jet_order}")
    dp = pair.dim_p
    if X is not None:
        X = util.vec(X)
        if len(X) not in (dp, pair.dim) or any(X[dp:]):
            raise ValueError(f"X = {util.fmt_vec(X)} must be {dp} p-coordinates "
                             f"or an adapted vector of length {pair.dim} that lies in p")
    nv = 3 * dp  # x block, xi block, y block
    r, a = R.degree(), jet_order - R.degree()
    jet = (a, r)  # the exact jet: x-degree <= a, y-degree <= r

    def grade(m):  # xi has weight 0: each term of Z - X carries a Y, so xi-degree <= y-degree
        return sum(m[:dp]), sum(m[2 * dp:])

    xs = pair.symbolic_vector("p", nv, 0)
    ys = pair.symbolic_vector("p", nv, 2 * dp)
    # z_sym starts at order 1; at jet 0 (R constant) the cut keeps none of its words
    words = {w: c for w, c in z_sym(max(jet_order, 1)).terms.items() if len(w) - sum(w) <= a and sum(w) <= r}
    Z = FreeLieSeries(jet_order, words).evaluate_poly(pair, xs, ys)  # i X's, j Y's: x-degree i, y-degree j

    l = log_density("J_half", jet_order).as_polynomial(pair, "p")
    exponent = l.subs(ys[:dp], jet, grade) + l.subs(xs[:dp], jet, grade) - l.subs(Z[:dp], jet, grade)
    for t, i in enumerate(pair.block_indices("p")):
        exponent = exponent + (Z[i] - Poly.var(nv, t)).mul(Poly.var(nv, dp + t))
    total = poly_exp(exponent, jet, grade)

    # R(d_Y) then Y = 0: d^beta y^gamma at 0 is beta! when gamma = beta, else 0
    terms: dict[tuple[int, ...], Fraction] = {}
    for m, c in total.terms.items():
        coeff = R.poly.terms.get(m[2 * dp:])
        if coeff is not None:
            key = m[:2 * dp]
            terms[key] = terms.get(key, 0) + c * coeff * math.prod(math.factorial(e) for e in m[2 * dp:])
    out = Poly(2 * dp, terms)
    if X is not None:
        images = [Poly.const(dp, c) for c in X[:dp]]
        images += [Poly.var(dp, t) for t in range(dp)]
        return out.subs(images)
    return out


# -- characters from sigma-stable polarizations -------------------------------

def character_sigma_stable(pair: SymmetricPair, P: BlockPolynomial, b: PolarizationCandidate) -> Fraction:
    """Character value at the linear form b.f in the k-annihilator.

    Validates that b is a sigma-stable polarization at b.f; the character of
    the invariant algebra is then evaluation at b.f (the vertical wheel
    factor is 1), constant on the K-orbit of b.f.
    """
    if P.space != "p":
        raise ValueError("P must be a p-polynomial")
    require_invariant(pair, P, "P")
    f = b.f  # adapted coordinates of a form on g
    if len(f) != pair.dim or any(len(v) != pair.dim for v in b.b_basis):
        raise ValueError(f"f = {util.fmt_vec(f)} and each b vector need {pair.dim} coordinates")
    if any(f[i] for i in pair.block_indices("k")):
        raise ValueError("f must annihilate k")

    # sigma stability of span(b): sigma is -1 on p and +1 on k in adapted coords
    sig = [tuple(-v[i] if i < pair.dim_p else v[i] for i in range(pair.dim)) for v in b.b_basis]
    if not util.span_eq(b.b_basis, sig):
        raise NotSigmaStable("sigma(b) != b")

    # polarization flags, computed on the adapted-coordinate copy of g
    report = polarization_check(pair.adapted, b)
    if not report.is_polarization:
        raise NotPolarization(repr(report))
    return P.evaluate([f[i] for i in pair.block_indices("p")])

