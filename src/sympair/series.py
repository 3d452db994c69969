"""Formal trace series and the density series q, J, and their square roots.

A TraceSeries is a finite rational combination of products of block-trace
words tr_s((ad X)^(2n)) with s in {p, k, g}; the key of a term is the sorted
tuple of its (space, power) factors, so the empty key is the constant term.
It is a `util.Series` whose degree is the total order (the sum of all powers
in a term); that base class supplies its sums, scaling and equality.
`TraceSeries.as_polynomial` compiles a series on a pair: it carries the
adjoint orbit of each basis vector to half the top power only and reads
every word tr_s((ad X)^k) off one contraction of the powers ceil(k/2) and
floor(k/2), so no orbit is ever carried to the full power k.

The densities are J(X) = det_p(sinh ad X / ad X), the Riemannian volume
of G/K in exponential coordinates, and Duflo's q(X) =
det_g(sinh(ad X / 2) / (ad X / 2)).  With a_n the Taylor coefficients of
log(sinh z / z), generated exactly at every order as
a_n = 2^(2n) B_(2n) / (2n (2n)!) from the Bernoulli numbers,

    log J(X) = sum_n a_n tr_p (ad X)^(2n)
    log q(X) = sum_n 4^(-n) a_n tr_g (ad X)^(2n)

which gives J^(1/2) = 1 + (1/12) tr_p(ad X)^2 + (1/1440) tr_p(ad X)^4 + ...
on sl(2), the identity q^(1/2)(X) = J(X/2) for X in p, and the standard
(1/48) tr_g(ad X)^2 leading term of q^(1/2).  The oracles of
`tests/test_oracles.py` (Duflo's theorem, the group-type pairs, the
Laplace-Beltrami operator) fix these normalizations from order 4 on.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import util
from .errors import OrderTooHigh
from .liealg import SymmetricPair
from .poly import Poly
from .util import frac


def bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n, by the recurrence sum_{k <= m} C(m+1, k) B_k = 0 (so B_1 = -1/2)."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum((math.comb(m + 1, k) * B[k] for k in range(m)), Fraction(0)) / (m + 1))
    return B


def log_sinhc(n: int) -> list[Fraction]:
    """a_1 .. a_n of log(sinh z / z) = sum_k a_k z^(2k): a_k = 2^(2k) B_(2k) / (2k (2k)!)."""
    B = bernoulli(2 * n)
    return [4 ** k * B[2 * k] / (2 * k * math.factorial(2 * k)) for k in range(1, n + 1)]


class TraceSeries(util.Series):
    """Combination of products of block-trace words, truncated by total power."""

    @staticmethod
    def degree(key) -> int:
        return sum(p for _, p in key)

    @staticmethod
    def key(k) -> tuple:
        return tuple(sorted(k))

    @property
    def truncation_order(self) -> int:
        return self.order

    @classmethod
    def constant(cls, order: int, c=1) -> "TraceSeries":
        return cls(order, {(): frac(c)})

    @classmethod
    def word(cls, order: int, space: str, power: int, c=1) -> "TraceSeries":
        return cls(order, {((space, power),): frac(c)})

    def __mul__(self, other: "TraceSeries") -> "TraceSeries":
        order = min(self.order, other.order)
        return TraceSeries._of(order, util.graded_product(self.terms, other.terms, self.degree, order, _merge_keys))

    def exp(self) -> "TraceSeries":
        if self.terms.get((), Fraction(0)) != 0:
            raise ValueError("exp needs zero constant term")
        return TraceSeries._of(self.order, util.exp(self.terms, (), self.degree, self.order, _merge_keys))

    def log(self) -> "TraceSeries":
        if self.terms.get((), Fraction(0)) != 1:
            raise ValueError("log needs constant term 1")
        return TraceSeries._of(self.order, util.log(self.terms, (), self.degree, self.order, _merge_keys))

    def inverse(self) -> "TraceSeries":
        """Multiplicative inverse of a series with constant term 1."""
        return self.log().scale(-1).exp()

    def sqrt(self) -> "TraceSeries":
        return self.log().scale(Fraction(1, 2)).exp()

    def coefficient(self, key) -> Fraction:
        return self.terms.get(self.key(key), Fraction(0))

    def as_polynomial(self, pair: SymmetricPair, over: str) -> Poly:
        """Polynomial in the coordinates of X over the `over` block.

        With K the top power of a word in the series, the orbit
        e_j, [X, e_j], [X, [X, e_j]], ... of every basis vector is carried
        to (ad X)^h e_j, h = ceil(K/2), only.  Each word is then one
        contraction of two half powers, a = ceil(k/2) and b = floor(k/2):

            tr_s((ad X)^k) = sum_{i in s} sum_j [(ad X)^a e_j]_i [(ad X)^b e_i]_j

        with zero factors skipped (for X in p, ad X swaps p and k, so about
        half of them are zero).  The term products are then multiplied out.
        """
        nv = len(pair.block_indices(over))
        sym = pair.symbolic_vector(over, nv)
        used = {word for key in self.terms for word in key}
        vecs = [[Poly.const(nv, 1 if t == j else 0) for t in range(pair.dim)] for j in range(pair.dim)]
        orbits = [vecs]  # orbits[t][j] = (ad X)^t e_j
        for _ in range(max(((power + 1) // 2 for _, power in used), default=0)):
            vecs = [pair.bracket_poly(sym, v) for v in vecs]
            orbits.append(vecs)
        words = {}
        for space, power in used:
            up, down = orbits[(power + 1) // 2], orbits[power // 2]
            trace: dict = {}
            for i in pair.block_indices(space):
                for j in range(pair.dim):
                    if up[j][i] and down[i][j]:
                        util.add_into(trace, up[j][i].mul(down[i][j]).terms)
            words[(space, power)] = Poly(nv, trace)
        out = Poly.zero(nv)
        for key, c in self.terms.items():
            term = Poly.const(nv, c)
            for word in key:
                term = term.mul(words[word])
            out = out + term
        return out


def _merge_keys(k1: tuple, k2: tuple) -> tuple:
    return tuple(sorted(k1 + k2))


def log_density(kind: str, order: int) -> TraceSeries:
    """log of q, J, q_half, or J_half as an abstract trace series."""
    if kind in ("J", "J_half"):
        space, shift = "p", 0
    elif kind in ("q", "q_half"):
        space, shift = "g", 1
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    terms = {((space, 2 * n),): a_n / 4 ** (shift * n) for n, a_n in enumerate(log_sinhc(order // 2), 1)}
    series = TraceSeries(order, terms)
    if kind.endswith("_half"):
        series = series.scale(Fraction(1, 2))
    return series


def density_series(kind: str, order: int) -> TraceSeries:
    """The density series, as a formal trace series through an even order.

    The series is universal; `TraceSeries.as_polynomial` expands it on a
    pair.  Abelian pairs get the constant 1 since every trace word vanishes.
    """
    if order < 0 or order % 2 != 0:
        raise OrderTooHigh("density order must be even and >= 0")
    return log_density(kind, order).exp()
