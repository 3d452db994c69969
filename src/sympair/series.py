"""Formal trace series and the density series q, J, and their square roots.

A TraceSeries is a finite rational combination of products of block-trace
words tr_s((ad X)^(2n)) with s in {p, k, g}; the key of a term is the sorted
tuple of its (space, power) factors, so the empty key is the constant term.
It is a `util.Series` whose degree is the total order (the sum of all powers
in a term); that base class supplies its sums, scaling and equality.

The density family is pinned by the exact order-4 calculus on sl(2): with
a_n the Taylor coefficients of log(sinh z / z), generated exactly at every
order as a_n = 2^(2n) B_(2n) / (2n (2n)!) from the Bernoulli numbers,

    log J(X) = sum_n 4^(1-n) a_n tr_p (ad X)^(2n)
    log q(X) = sum_n 4^(1-2n) a_n tr_g (ad X)^(2n)

which gives J^(1/2) = 1 + (1/12) tr_p(ad X)^2 + (1/360) tr_p(ad X)^4 + ...
on sl(2), the identity q^(1/2)(X) = J(X/2) for X in p, and the standard
(1/48) tr_g(ad X)^2 leading term of q^(1/2).
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
        return util.exp(self, TraceSeries.constant(self.order, 1), TraceSeries.__mul__)

    def log(self) -> "TraceSeries":
        if self.terms.get((), Fraction(0)) != 1:
            raise ValueError("log needs constant term 1")
        return util.log(self, TraceSeries.constant(self.order, 1), TraceSeries.__mul__)

    def inverse(self) -> "TraceSeries":
        """Multiplicative inverse of a series with constant term 1."""
        return self.log().scale(-1).exp()

    def sqrt(self) -> "TraceSeries":
        return self.log().scale(Fraction(1, 2)).exp()

    def coefficient(self, key) -> Fraction:
        return self.terms.get(self.key(key), Fraction(0))

    def as_polynomial(self, pair: SymmetricPair, over: str) -> Poly:
        """Polynomial in the coordinates of X over the `over` block.

        Every trace word is expanded on a symbolic X through exact
        polynomial-matrix powers, then the term products are multiplied out.
        """
        nv = len(pair.block_indices(over))
        word_cache: dict[tuple[str, int], Poly] = {}
        sym = pair.symbolic_vector(over, nv)
        admat = pair.ad_poly(sym)

        def word_poly(space: str, power: int) -> Poly:
            if (space, power) not in word_cache:
                M = admat
                for _ in range(power - 1):
                    M = _poly_mat_mul(M, admat)
                tr = Poly.zero(nv)
                for i in pair.block_indices(space):
                    tr = tr + M[i][i]
                word_cache[(space, power)] = tr
            return word_cache[(space, power)]

        out = Poly.zero(nv)
        for key, c in self.terms.items():
            term = Poly.const(nv, c)
            for space, power in key:
                term = term.mul(word_poly(space, power))
            out = out + term
        return out


def _merge_keys(k1: tuple, k2: tuple) -> tuple:
    return tuple(sorted(k1 + k2))


def _poly_mat_mul(A, B):
    n = len(A)
    nv = A[0][0].nvars
    out = [[Poly.zero(nv) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for t in range(n):
            a = A[i][t]
            if a.is_zero():
                continue
            for j in range(n):
                if not B[t][j].is_zero():
                    out[i][j] = out[i][j] + a.mul(B[t][j])
    return out


def log_density(kind: str, order: int) -> TraceSeries:
    """log of q, J, q_half, or J_half as an abstract trace series."""
    if kind in ("J", "J_half"):
        space, step = "p", 1
    elif kind in ("q", "q_half"):
        space, step = "g", 2
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    terms = {((space, 2 * n),): a_n * Fraction(4) ** (1 - step * n)
             for n, a_n in enumerate(log_sinhc(order // 2), 1)}
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
