"""Truncated free Lie and associative series on the alphabet {X, Y}.

Words are tuples over {0, 1} with 0 = X and 1 = Y.  Lie series live on the
Lyndon basis: a Lyndon word stands for its standard bracketing (bracket of
the standard factorization), which is triangular with respect to the
lexicographic leading word and therefore supports exact extraction of Lie
coordinates from any associative expansion.

Both series types are `util.Series` graded by word length; that base
class supplies their sums, scaling, homogeneous parts and equality.  A
product buckets both factors by length and only multiplies buckets whose
lengths add up to at most the order (`util.graded_product`), so no word
beyond the order is formed; exp and log sum the weighted powers of the
series as each is formed (`util.power_sum`).  Both kernels run on integer
numerators over a common denominator and return Fraction coefficients.
Lie coordinates are peeled one degree at a time in place, by the
degree-n expansion of each Lyndon bracketing.  The factorization
g = e^X e^Y = e^P e^K reads P off the symmetric-space series: sigma
fixes K and negates P, so g sigma(g)^(-1) = e^(2P) = e^X e^(2Y) e^X and
P = z_sym; then K = log(e^(-P) e^X e^Y).

`evaluate_bracket` is the one walk over a nested bracket.  With the
commutator it expands the bracket into the tensor algebra
(`expand_bracket`); with `SymmetricPair.bracket_poly` it substitutes
polynomial vectors into a Lie series (`FreeLieSeries.evaluate_poly`);
`liealg.trace_alternation` and the CLI's labels call it with a numeric
and a string bracket.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import util
from .errors import OrderTooHigh
from .util import frac

X, Y = 0, 1
LETTERS = ("X", "Y")


class FreeAssocSeries(util.Series):
    """Finite rational combination of words, truncated by word length."""

    @classmethod
    def unit(cls, order: int, c=1) -> "FreeAssocSeries":
        return cls(order, {(): frac(c)})

    @classmethod
    def letter(cls, order: int, i: int, c=1) -> "FreeAssocSeries":
        return cls(order, {(i,): frac(c)})

    def __mul__(self, other):
        order = min(self.order, other.order)
        return FreeAssocSeries._of(order, util.graded_product(self.terms, other.terms, len, order, operator.add))

    def constant(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def exp(self):
        if self.constant() != 0:
            raise ValueError("exp needs zero constant term")
        return FreeAssocSeries._of(self.order, util.exp(self.terms, (), len, self.order, operator.add))

    def log(self):
        if self.constant() != 1:
            raise ValueError("log needs constant term 1")
        return FreeAssocSeries._of(self.order, util.log(self.terms, (), len, self.order, operator.add))


# -- Lyndon machinery -------------------------------------------------------

def standard_factorization(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word w = uv with v its longest proper Lyndon suffix."""
    assert len(w) >= 2
    for i in range(1, len(w)):
        v = w[i:]
        if is_lyndon(v):
            return w[:i], v
    raise ValueError(f"not a Lyndon word: {w}")


def is_lyndon(w) -> bool:
    return len(w) > 0 and all(w < w[i:] for i in range(1, len(w)))


def bracket_of_word(w: tuple[int, ...]):
    """Nested-pair bracketing of a Lyndon word (letters as 'X'/'Y')."""
    if len(w) == 1:
        return LETTERS[w[0]]
    u, v = standard_factorization(w)
    return (bracket_of_word(u), bracket_of_word(v))


#: Lyndon word -> (the word, its standard bracketing), filled on first use;
#: every series that lie_from_assoc builds keys its terms on these words
_LYNDON: dict[tuple[int, ...], tuple] = {}


def _lyndon(w: tuple[int, ...]):
    """(shared word, standard bracketing) of a Lyndon word; None if w is not Lyndon."""
    entry = _LYNDON.get(w)
    if entry is None and is_lyndon(w):
        entry = _LYNDON[w] = (w, bracket_of_word(w))
    return entry


def evaluate_bracket(b, x, y, bracket, memo: dict):
    """Value of a nested bracket ('X', 'Y' or a pair of brackets) at x, y.

    `bracket` combines the values of the two halves of a pair; each pair's
    value is kept in `memo`, so a shared sub-bracket is evaluated once.
    """
    if b == "X":
        return x
    if b == "Y":
        return y
    out = memo.get(b)
    if out is None:
        out = memo[b] = bracket(evaluate_bracket(b[0], x, y, bracket, memo),
                                evaluate_bracket(b[1], x, y, bracket, memo))
    return out


#: order -> {nested bracket: its expansion at that order}
_EXPAND_CACHE: dict[int, dict] = {}


def expand_bracket(b, order: int) -> FreeAssocSeries:
    """Expand a nested bracket (pairs of 'X'/'Y') into the tensor algebra."""
    memo = _EXPAND_CACHE.setdefault(order, {})
    out = memo.get(b)
    if out is None:
        out = evaluate_bracket(b, FreeAssocSeries.letter(order, X), FreeAssocSeries.letter(order, Y),
                               lambda u, v: u * v - v * u, memo)
    return out


class FreeLieSeries(util.Series):
    """Rational combination of standard Lyndon bracketings, graded by length."""

    def degrees(self):
        return sorted({len(w) for w in self.terms})

    def to_assoc(self) -> FreeAssocSeries:
        out: dict[tuple[int, ...], Fraction] = {}
        for w, c in self.terms.items():
            util.add_into(out, expand_bracket(bracket_of_word(w), len(w)).terms, c)
        return FreeAssocSeries._of(self.order, out)

    def evaluate_poly(self, pair, Xp, Yp):
        """Substitute polynomial-coefficient vectors for the letters."""
        from .poly import Poly
        memo: dict = {}
        out: list[dict] = [{} for _ in range(pair.dim)]
        for w, c in self.terms.items():
            val = evaluate_bracket(bracket_of_word(w), Xp, Yp, pair.bracket_poly, memo)
            for acc, v in zip(out, val):
                util.add_into(acc, v.terms, c)
        return [Poly(Xp[0].nvars, terms) for terms in out]


def lie_from_assoc(series: FreeAssocSeries) -> FreeLieSeries:
    """Lyndon coordinates of a Lie element given by its word expansion.

    Peels the lexicographically smallest remaining word degree by degree;
    for a genuine Lie element that word is Lyndon and carries the
    coefficient of its standard bracketing.  A non-Lie input is detected
    and rejected.  Each degree n is peeled in place in one dict, by the
    degree-n expansion of each bracket.
    """
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


def _check_order(order: int):
    if order < 1:
        raise OrderTooHigh("order must be >= 1")


def bch(order: int) -> FreeLieSeries:
    """log(e^X e^Y) in Lyndon coordinates, truncated at the given order."""
    _check_order(order)
    ex = FreeAssocSeries.letter(order, X).exp()
    ey = FreeAssocSeries.letter(order, Y).exp()
    return lie_from_assoc((ex * ey).log())


def z_sym(order: int) -> FreeLieSeries:
    """(1/2) log(e^X e^(2Y) e^X), the symmetric-space BCH series."""
    _check_order(order)
    ex = FreeAssocSeries.letter(order, X).exp()
    e2y = FreeAssocSeries.letter(order, Y, 2).exp()
    return lie_from_assoc((ex * e2y * ex).log().scale(Fraction(1, 2)))


def sym_factorize(order: int):
    """Solve e^X e^Y = e^P e^K with P odd-graded and K even-graded.

    With sigma(X) = -X, sigma(Y) = -Y, a bracket of length n is p-type for
    odd n and k-type for even n.  For g = e^X e^Y = e^P e^K, sigma(g) =
    e^(-P) e^K, so g sigma(g)^(-1) = e^(2P) = e^X e^(2Y) e^X: P is z_sym,
    and K = log(e^(-P) e^X e^Y).
    """
    P = z_sym(order)
    ex = FreeAssocSeries.letter(order, X).exp()
    ey = FreeAssocSeries.letter(order, Y).exp()
    K = lie_from_assoc((P.to_assoc().scale(-1).exp() * ex * ey).log())
    return P, K
