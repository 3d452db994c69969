"""Sparse multivariate polynomials over exact rationals.

A Poly is a mapping {exponent tuple: Fraction} together with the number of
variables.  Exponent tuples are dense (length == nvars) which keeps hashing
and arithmetic simple.  Rings have up to a few dozen variables (sl(4)/so(4)
has dimension 15 and dim p = 9, and the exponential-coordinate symbols use
three copies of p) and degrees stay small, so dense exponents cost little.
Arithmetic is closed in the type: `+`, `-`, `*` take a Poly of the same
ring (ValueError otherwise), `==` a Poly; scalars go through `scale`/`const`.
The product, the substitution and `poly_exp` take the grading of the
`util` kernels: an order, an int or a tuple, under a `degree` of a
monomial, by default its total degree, so (x-degree, y-degree) cuts them
as one bound.  A truncated product never forms a monomial above the
bound (`util.graded_product`); it and `poly_exp` (`util.exp`) multiply
integer numerators over a common denominator and return Fractions.
Sums and derivatives stay on Fraction.
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
    def _of(cls, nvars: int, terms: dict) -> "Poly":
        """A Poly on terms that are already normalized (nvars-tuple keys, nonzero Fractions)."""
        p = cls.__new__(cls)
        p.nvars, p.terms = nvars, terms
        return p

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
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError(f"cannot add polynomials in {self.nvars} and {other.nvars} variables")
        return Poly._of(self.nvars, util.add_into(dict(self.terms), other.terms))

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = frac(c)
        return Poly._of(self.nvars, {m: c * v for m, v in self.terms.items()} if c else {})

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul(other)

    def mul(self, other: "Poly", order=None, degree=sum) -> "Poly":
        """The product, truncated at `order` (an int or a tuple) under `degree`
        when an order is given (`util.graded_product`)."""
        if self.nvars != other.nvars:
            raise ValueError(f"cannot multiply polynomials in {self.nvars} and {other.nvars} variables")
        return Poly._of(self.nvars, util.graded_product(self.terms, other.terms, degree, order, _mono_mul))

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
        return Poly._of(self.nvars, out)

    def diff_by(self, op: "Poly") -> "Poly":
        """The constant-coefficient operator with symbol `op`: x^alpha acts as d^alpha."""
        out: dict[tuple[int, ...], Fraction] = {}
        for alpha, c in op.terms.items():
            util.add_into(out, self.diff_mono(alpha).terms, c)
        return Poly._of(self.nvars, out)

    def derivation(self, images: list["Poly"]) -> "Poly":
        """Image under the derivation sending variable i to images[i]."""
        used = {i for m in self.terms for i, e in enumerate(m) if e}
        out: dict[tuple[int, ...], Fraction] = {}
        for i in sorted(used):
            if images[i]:
                util.add_into(out, images[i].mul(self.diff(i)).terms)
        return Poly._of(self.nvars, out)

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def truncate(self, max_degree: int) -> "Poly":
        return Poly._of(self.nvars, {m: c for m, c in self.terms.items() if sum(m) <= max_degree})

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

    def subs(self, images: list["Poly"], order=None, degree=sum) -> "Poly":
        """Substitute variable i -> images[i] (all in a common target ring).

        Each power images[i]^k is formed once per call.  Every product,
        the first power included, is truncated at `order` under `degree`
        like `mul`, so the result is the full substitution cut by that grading.
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
                        pw.append(pw[-1].mul(images[i], order, degree))
                    term = pw[k] if term is one else term.mul(pw[k], order, degree)
            util.add_into(out, term.terms, c)
        return Poly._of(tgt, out)

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly._of(self.nvars, {m: c for m, c in self.terms.items() if sum(m) == d})

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"


def _mono_mul(m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, m1, m2))


def poly_exp(a: Poly, order, degree=sum) -> Poly:
    """exp of a polynomial with zero constant term, truncated at `order` (an
    int or a tuple) under `degree` (`util.exp`)."""
    if a.constant() != 0:
        raise ValueError("poly_exp needs a zero constant term")
    return Poly._of(a.nvars, util.exp(a.terms, (0,) * a.nvars, degree, order, _mono_mul))


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
