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
e^X e^Y = e^P e^K is incremental: degree n of P or K only needs
log(e^P e^K) at order n, with P and K known through degree n - 1.
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


_EXPAND_CACHE: dict = {}


def expand_bracket(b, order: int) -> FreeAssocSeries:
    """Expand a nested bracket (pairs of 'X'/'Y') into the tensor algebra."""
    key = (b, order)
    if key in _EXPAND_CACHE:
        return _EXPAND_CACHE[key]
    if b == "X":
        out = FreeAssocSeries.letter(order, X)
    elif b == "Y":
        out = FreeAssocSeries.letter(order, Y)
    else:
        u, v = b
        eu, ev = expand_bracket(u, order), expand_bracket(v, order)
        out = eu * ev - ev * eu
    _EXPAND_CACHE[key] = out
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

    def swap_letters(self) -> "FreeLieSeries":
        """The series with X and Y exchanged (recomputed on the Lyndon basis)."""
        swapped = {tuple(1 - a for a in w): c for w, c in self.to_assoc().terms.items()}
        return lie_from_assoc(FreeAssocSeries._of(self.order, swapped))

    def evaluate_poly(self, pair, Xp, Yp, max_degree=None):
        """Substitute polynomial-coefficient vectors for the letters."""
        word_vals = {}

        def walk(b):
            if b == "X":
                return Xp
            if b == "Y":
                return Yp
            if b not in word_vals:
                u, v = b
                word_vals[b] = pair.bracket_poly(walk(u), walk(v))
            return word_vals[b]

        from .poly import Poly
        nv = Xp[0].nvars
        out = [Poly.zero(nv) for _ in range(pair.dim)]
        for w, c in self.terms.items():
            val = walk(bracket_of_word(w))
            for i in range(pair.dim):
                if not val[i].is_zero():
                    out[i] = out[i] + val[i].scale(c)
        if max_degree is not None:
            out = [q.truncate(max_degree) for q in out]
        return out


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


def sym_factorize(order: int):
    """Solve e^X e^Y = e^P e^K with P odd-graded and K even-graded.

    With sigma(X) = -X, sigma(Y) = -Y, a bracket of length n is p-type for
    odd n and k-type for even n; each degree of the defect log(e^X e^Y) -
    log(e^P e^K) is homogeneous, so the correction is assigned wholesale.
    Degree n of the defect only depends on P and K through degree n - 1,
    so step n works at truncation order n and peels degree n alone.
    """
    _check_order(order)
    target = bch(order)
    P: dict[tuple[int, ...], Fraction] = {}
    K: dict[tuple[int, ...], Fraction] = {}
    for n in range(1, order + 1):
        e_pk = FreeLieSeries(n, P).to_assoc().exp() * FreeLieSeries(n, K).to_assoc().exp()
        current = lie_from_assoc(e_pk.log().homogeneous_part(n))
        defect = target.homogeneous_part(n) - current
        (P if n % 2 == 1 else K).update(defect.terms)
    return FreeLieSeries(order, P), FreeLieSeries(order, K)


def z_sym(order: int) -> FreeLieSeries:
    """(1/2) log(e^X e^(2Y) e^X), the symmetric-space BCH series."""
    _check_order(order)
    ex = FreeAssocSeries.letter(order, X).exp()
    e2y = FreeAssocSeries.letter(order, Y, 2).exp()
    return lie_from_assoc((ex * e2y * ex).log().scale(Fraction(1, 2)))
