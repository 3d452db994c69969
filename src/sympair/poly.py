"""Sparse multivariate polynomials over exact rationals.

A Poly is a mapping {exponent tuple: Fraction} together with the number of
variables.  Exponent tuples are dense (length == nvars) which keeps hashing
and arithmetic simple.  Rings have up to a few dozen variables (sl(4)/so(4)
has dimension 15 and dim p = 9, and the exponential-coordinate symbols use
three copies of p) and degrees stay small, so dense exponents cost little.
A product truncated by total degree never forms a monomial above the
bound (`util.graded_product`); it and `poly_exp` (`util.exp`) multiply
integer numerators over a common denominator and return Fractions.
Sums, substitution and derivatives stay on Fraction.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from . import util
from .util import frac


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = frac(c)
                if c:
                    self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        c = frac(c)
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int, c=1) -> "Poly":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: frac(c)})

    @classmethod
    def monomial(cls, nvars: int, exps, c=1) -> "Poly":
        return cls(nvars, {tuple(exps): frac(c)})

    @classmethod
    def linear(cls, coeffs) -> "Poly":
        """The linear form sum_t coeffs[t] x_t, in len(coeffs) variables."""
        n = len(coeffs)
        return cls(n, {tuple(1 if j == t else 0 for j in range(n)): c for t, c in enumerate(coeffs) if c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        p = Poly(self.nvars)
        p.terms = util.add_into(dict(self.terms), other.terms)
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly(self.nvars)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def scale(self, c) -> "Poly":
        c = frac(c)
        p = Poly(self.nvars)
        if c:
            p.terms = {m: c * v for m, v in self.terms.items()}
        return p

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "Poly", max_degree: int | None = None) -> "Poly":
        """The product, truncated by total degree when max_degree is given."""
        assert self.nvars == other.nvars
        p = Poly(self.nvars)
        p.terms = util.graded_product(self.terms, other.terms, sum, max_degree, _mono_mul)
        return p

    def diff(self, i: int) -> "Poly":
        return self.diff_mono(tuple(1 if t == i else 0 for t in range(self.nvars)))

    def diff_mono(self, exps) -> "Poly":
        """d^alpha in one pass: x^m -> m!/(m-alpha)! x^(m-alpha), zero unless m >= alpha."""
        support = [(i, a) for i, a in enumerate(exps) if a]
        if not support:
            return self
        out: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms.items():
            if all(m[i] >= a for i, a in support):
                m2 = list(m)
                for i, a in support:
                    c *= math.perm(m[i], a)
                    m2[i] -= a
                out[tuple(m2)] = c
        p = Poly(self.nvars)
        p.terms = out
        return p

    def diff_by(self, op: "Poly") -> "Poly":
        """The constant-coefficient operator with symbol `op`: x^alpha acts as d^alpha."""
        out: dict[tuple[int, ...], Fraction] = {}
        for alpha, c in op.terms.items():
            util.add_into(out, self.diff_mono(alpha).terms, c)
        p = Poly(self.nvars)
        p.terms = out
        return p

    def derivation(self, images: list["Poly"]) -> "Poly":
        """Image under the derivation sending variable i to images[i]."""
        out = Poly.zero(self.nvars)
        for i, image in enumerate(images):
            d = self.diff(i)
            if d and image:
                out = out + image.mul(d)
        return out

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def truncate(self, max_degree: int) -> "Poly":
        p = Poly(self.nvars)
        p.terms = {m: c for m, c in self.terms.items() if sum(m) <= max_degree}
        return p

    def evaluate(self, values) -> Fraction:
        """Evaluate at a point given by one Fraction per variable."""
        total = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for i, k in enumerate(m):
                for _ in range(k):
                    term *= values[i]
            total += term
        return total

    def subs(self, images: list["Poly"], max_degree: int | None = None) -> "Poly":
        """Substitute variable i -> images[i] (all in a common target ring).

        Each power images[i]^k is formed once per call, truncated at
        max_degree like every product here.
        """
        tgt = images[0].nvars if images else 0
        one = Poly.const(tgt, 1)
        powers = [[one] for _ in images]
        out: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms.items():
            term = one
            for i, k in enumerate(m):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(pw[-1].mul(images[i], max_degree))
                    term = pw[k] if term is one else term.mul(pw[k], max_degree)
            util.add_into(out, term.terms, c)
        p = Poly(tgt)
        p.terms = out
        return p

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def homogeneous_part(self, d: int) -> "Poly":
        p = Poly(self.nvars)
        p.terms = {m: c for m, c in self.terms.items() if sum(m) == d}
        return p

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"


def _mono_mul(m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, m1, m2))


def poly_exp(a: Poly, max_degree: int) -> Poly:
    """exp of a polynomial with zero constant term, truncated by total degree."""
    if a.constant() != 0:
        raise ValueError("poly_exp needs a zero constant term")
    p = Poly(a.nvars)
    p.terms = util.exp(a.terms, (0,) * a.nvars, sum, max_degree, _mono_mul)
    return p


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree exactly d, lexicographic order."""
    if nvars == 0:
        if d == 0:
            yield ()
        return
    for c in itertools.combinations_with_replacement(range(nvars), d):
        m = [0] * nvars
        for i in c:
            m[i] += 1
        yield tuple(m)
