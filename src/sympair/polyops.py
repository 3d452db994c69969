"""Polynomial algebras on the blocks of a symmetric pair.

Elements of S(p) or S(g) are polynomials in the adapted basis symbols of
the chosen block, i.e. functions on the dual of that block.  The action of
k on S(p) is the derivation extending the adjoint action through
[k, p] <= p; invariants are solved degree by degree as the common kernel
of that action on the monomials (`util.common_kernel`).
"""

from __future__ import annotations

import bisect
import itertools

from . import util
from .errors import NotInvariant
from .liealg import SymmetricPair
from .poly import Poly, monomials_of_degree
from .series import TraceSeries


class BlockPolynomial:
    """A polynomial over the adapted symbols of one block ('p' or 'g')."""

    def __init__(self, pair: SymmetricPair, space: str, poly: Poly):
        self.pair = pair
        self.space = space
        nv = len(pair.block_indices(space))
        if poly.nvars != nv:
            raise ValueError(f"polynomial has {poly.nvars} variables, block has {nv}")
        self.poly = poly

    @classmethod
    def zero(cls, pair, space):
        return cls(pair, space, Poly.zero(len(pair.block_indices(space))))

    @classmethod
    def constant(cls, pair, space, c):
        return cls(pair, space, Poly.const(len(pair.block_indices(space)), c))

    @classmethod
    def symbol(cls, pair, space, i, c=1):
        return cls(pair, space, Poly.var(len(pair.block_indices(space)), i, c))

    def _wrap(self, poly):
        return BlockPolynomial(self.pair, self.space, poly)

    def __add__(self, other):
        other = other.poly if isinstance(other, BlockPolynomial) else other
        return self._wrap(self.poly + other)

    def __sub__(self, other):
        other = other.poly if isinstance(other, BlockPolynomial) else other
        return self._wrap(self.poly - other)

    def __mul__(self, other):
        other = other.poly if isinstance(other, BlockPolynomial) else other
        return self._wrap(self.poly * other)

    def scale(self, c):
        return self._wrap(self.poly.scale(c))

    def __eq__(self, other):
        if isinstance(other, BlockPolynomial):
            return self.space == other.space and self.poly == other.poly
        return self.poly == other

    def degree(self):
        return self.poly.degree()

    def evaluate(self, coords):
        return self.poly.evaluate(coords)

    def to_g(self) -> "BlockPolynomial":
        """Reinterpret a p-polynomial inside S(g): the p symbols come first, so
        each exponent gains dim_k zero exponents of the k symbols."""
        if self.space == "g":
            return self
        pad = (0,) * self.pair.dim_k
        terms = {m + pad: c for m, c in self.poly.terms.items()}
        return BlockPolynomial(self.pair, "g", Poly._of(self.pair.dim, terms))

    def restrict_to_p(self) -> "BlockPolynomial":
        """Set every k symbol to 0 (restriction to the k-annihilator): the terms
        free of k symbols, their exponents cut to the leading p symbols."""
        if self.space == "p":
            return self
        dp = self.pair.dim_p
        terms = {m[:dp]: c for m, c in self.poly.terms.items() if not any(m[dp:])}
        return BlockPolynomial(self.pair, "p", Poly._of(dp, terms))

    def __repr__(self):
        return f"BlockPolynomial({self.space}, {self.poly.terms!r})"


def _k_images(pair: SymmetricPair, k_index: int, space: str) -> list[Poly]:
    """The linear forms [K, e_j] for the k-basis vector K and the symbols e_j of a block ('p' or 'g')."""
    n = len(pair.block_indices(space))  # both blocks start at index 0
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    return [Poly(n, {units[i]: c for i, c in pair.adapted.bracket_terms(pair.dim_p + k_index, j)}) for j in range(n)]


def k_derivation(pair: SymmetricPair, k_index: int, f: BlockPolynomial) -> BlockPolynomial:
    """Action of the k-basis vector on S(p) (or S(g)) by the adjoint derivation.

    The symbol e_j transforms to [K, e_j] (`_k_images`); the derivation
    extends this to products.  For space 'p' the bracket stays in p: [k, p]
    lies in p for every SymmetricPair, whose constructor checks that sigma
    is an automorphism.
    """
    return BlockPolynomial(f.pair, f.space, f.poly.derivation(_k_images(pair, k_index, f.space)))


def is_invariant(pair: SymmetricPair, f: BlockPolynomial) -> bool:
    return all(k_derivation(pair, a, f).poly.is_zero() for a in range(pair.dim_k))


def require_invariant(pair: SymmetricPair, f: BlockPolynomial, label="argument"):
    if not is_invariant(pair, f):
        raise NotInvariant(f"{label} is not k-invariant")


def invariant_subspace(pair: SymmetricPair, degree: int) -> list[BlockPolynomial]:
    """Exact basis of the k-invariants of S(p) in one homogeneous degree."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    nv = pair.dim_p
    monos = list(monomials_of_degree(nv, degree))
    maps = [lambda m, images=_k_images(pair, a, "p"): Poly.monomial(nv, m).derivation(images).terms
            for a in range(pair.dim_k)]
    return [BlockPolynomial(pair, "p", Poly(nv, dict(zip(monos, v)))) for v in util.common_kernel(monos, maps)]


def apply_series_operator(pair: SymmetricPair, series: TraceSeries, f: BlockPolynomial) -> BlockPolynomial:
    """Apply the constant-coefficient operator of a trace series to f.

    The series is first expanded into a polynomial in the coordinates of X
    over f's block; the monomial x^alpha then acts as the derivative
    d^alpha on f.  Exact whenever the series truncation covers deg f.
    """
    return BlockPolynomial(pair, f.space, f.poly.diff_by(series.as_polynomial(pair, f.space)))


# -- Cartan-Eilenberg complex -----------------------------------------------

class CEChain:
    """Element of S(p) tensor Lambda^q k*, with sorted-subset antisymmetry keys."""

    def __init__(self, pair: SymmetricPair, degree: int, components: dict | None = None):
        self.pair = pair
        self.degree = degree
        self.components: dict[tuple[int, ...], Poly] = {}
        if components:
            for subset, poly in components.items():
                subset = tuple(subset)
                assert len(subset) == degree and list(subset) == sorted(set(subset))
                if not poly.is_zero():
                    cur = self.components.get(subset)
                    self.components[subset] = poly if cur is None else cur + poly
            self.components = {s: q for s, q in self.components.items() if not q.is_zero()}

    def is_zero(self):
        return not self.components

    def __eq__(self, other):
        return (
            isinstance(other, CEChain)
            and self.degree == other.degree
            and self.components == other.components
        )


def cartan_eilenberg_diff(pair: SymmetricPair, chain: CEChain) -> CEChain:
    """Chevalley-Eilenberg differential of k acting on S(p), degree +1.

    On each sorted subset T of q + 1 indices of the k basis,
    (d phi)(K_T0,...,K_Tq) = sum_i (-1)^i K_Ti . phi(T without Ti)
      + sum_{i<j} (-1)^(i+j) phi([K_Ti, K_Tj], T without Ti, Tj),
    where [K_Ti, K_Tj] = sum_b c_b K_b and phi(K_b, rest) is (-1)^(position
    of b) times the component at the sorted insertion of b into rest, or 0
    when b is in rest.
    """
    dp = pair.dim_p
    phi = chain.components
    zero = Poly.zero(dp)

    def first_slot(b, rest):
        pos = bisect.bisect_left(rest, b)
        if pos < len(rest) and rest[pos] == b:
            return zero
        return phi.get(rest[:pos] + (b,) + rest[pos:], zero).scale((-1) ** pos)

    out = {}
    for T in itertools.combinations(range(pair.dim_k), chain.degree + 1):
        total = zero
        for i, a in enumerate(T):
            rest = T[:i] + T[i + 1:]
            if rest in phi:
                total = total + k_derivation(pair, a, BlockPolynomial(pair, "p", phi[rest])).poly.scale((-1) ** i)
            for j in range(i + 1, len(T)):
                for t, c in pair.adapted.bracket_terms(dp + a, dp + T[j]):  # t >= dp: [k,k] lies in k
                    total = total + first_slot(t - dp, rest[:j - 1] + rest[j:]).scale((-1) ** (i + j) * c)
        out[T] = total
    return CEChain(pair, chain.degree + 1, out)
