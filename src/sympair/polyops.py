"""Polynomial algebras on the blocks of a symmetric pair.

Elements of S(p) or S(g) are polynomials in the adapted basis symbols of
the chosen block, i.e. functions on the dual of that block.  The action of
k on S(p) is the derivation extending the adjoint action through
[k, p] <= p; invariants are solved degree by degree with exact Gaussian
elimination.
"""

from __future__ import annotations

from fractions import Fraction

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
        """Reinterpret a p-polynomial inside S(g)."""
        if self.space == "g":
            return self
        mapping = {t: i for t, i in enumerate(self.pair.block_indices("p"))}
        return BlockPolynomial(self.pair, "g", self.poly.map_vars(self.pair.dim, mapping))

    def restrict_to_p(self) -> "BlockPolynomial":
        """Kill every monomial containing a k symbol (restriction to the k-annihilator)."""
        if self.space == "p":
            return self
        dp = self.pair.dim_p
        kept = {}
        for m, c in self.poly.terms.items():
            if all(m[i] == 0 for i in range(dp, self.pair.dim)):
                kept[m[:dp]] = c
        return BlockPolynomial(self.pair, "p", Poly(dp, kept))

    def __repr__(self):
        return f"BlockPolynomial({self.space}, {self.poly.terms!r})"


def k_derivation(pair: SymmetricPair, k_index: int, f: BlockPolynomial) -> BlockPolynomial:
    """Action of the k-basis vector on S(p) (or S(g)) by the adjoint derivation.

    The symbol e_j transforms to [K, e_j]; the derivation extends this to
    products.  For space 'p' the bracket stays in p by the Cartan split.
    """
    pair_idx = list(f.pair.block_indices(f.space))
    images = []
    for j in pair_idx:
        w = pair.adapted.bracket_basis(pair.dim_p + k_index, j)
        if f.space == "p" and any(w[i] for i in pair.block_indices("k")):
            raise RuntimeError("Cartan split violated")  # pragma: no cover
        images.append(Poly.linear([w[i] for i in pair_idx]))
    return BlockPolynomial(f.pair, f.space, f.poly.derivation(images))


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
    index = {m: t for t, m in enumerate(monos)}
    rows = []
    for a in range(pair.dim_k):
        # matrix of the derivation in the monomial basis
        cols = []
        for m in monos:
            img = k_derivation(pair, a, BlockPolynomial(pair, "p", Poly.monomial(nv, m)))
            col = [Fraction(0)] * len(monos)
            for m2, c in img.poly.terms.items():
                col[index[m2]] = c
            cols.append(col)
        M = util.mat_from_cols([tuple(c) for c in cols])
        rows.extend(M)
    if not rows:
        coeffs = [util.unit_vec(len(monos), t) for t in range(len(monos))]
    else:
        coeffs = util.nullspace(rows, len(monos))
    out = []
    for v in coeffs:
        terms = {monos[t]: v[t] for t in range(len(monos)) if v[t]}
        out.append(BlockPolynomial(pair, "p", Poly(nv, terms)))
    return out


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

    def __add__(self, other):
        out = dict(self.components)
        for s, q in other.components.items():
            out[s] = out.get(s, Poly.zero(q.nvars)) + q
        return CEChain(self.pair, self.degree, out)

    def scale(self, c):
        return CEChain(self.pair, self.degree, {s: q.scale(c) for s, q in self.components.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def is_zero(self):
        return not self.components

    def __eq__(self, other):
        return (
            isinstance(other, CEChain)
            and self.degree == other.degree
            and self.components == other.components
        )


def _insert_sorted(subset: tuple[int, ...], a: int):
    """Insert index a into a sorted subset; returns (sign, new subset) or None."""
    if a in subset:
        return None
    pos = sum(1 for b in subset if b < a)
    return (-1) ** pos, subset[:pos] + (a,) + subset[pos:]


def cartan_eilenberg_diff(pair: SymmetricPair, chain: CEChain) -> CEChain:
    """Chevalley-Eilenberg differential of k acting on S(p), degree +1.

    (d phi)(K_{i0},...,K_{iq}) = sum_i (-1)^i K_i . phi(... no K_i ...)
      + sum_{i<j} (-1)^{i+j} phi([K_i,K_j], ... no K_i, K_j ...).
    In sorted-subset coordinates both sums become signed insertions.
    """
    dk = pair.dim_k
    nv = pair.dim_p
    out: dict[tuple[int, ...], Poly] = {}

    def add(subset, poly):
        if poly.is_zero():
            return
        cur = out.get(subset)
        out[subset] = poly if cur is None else cur + poly

    for subset, poly in chain.components.items():
        f = BlockPolynomial(pair, "p", poly)
        # action term: sum over a not in subset of sign * (K_a . f) on subset+{a}
        for a in range(dk):
            ins = _insert_sorted(subset, a)
            if ins is None:
                continue
            sign, new_subset = ins
            acted = k_derivation(pair, a, f)
            add(new_subset, acted.poly.scale(sign))
        # bracket term: replace one slot value K_b by its expansion via [K_a, K_c]
        for a in range(dk):
            for c in range(a + 1, dk):
                w = pair.adapted.bracket_basis(pair.dim_p + a, pair.dim_p + c)
                for b in range(dk):
                    coef = w[pair.dim_p + b]
                    if not coef or b not in subset:
                        continue
                    pos_b = subset.index(b)
                    reduced = subset[:pos_b] + subset[pos_b + 1 :]
                    ins_a = _insert_sorted(reduced, a)
                    if ins_a is None:
                        continue
                    s1, with_a = ins_a
                    ins_c = _insert_sorted(with_a, c)
                    if ins_c is None:
                        continue
                    s2, full = ins_c
                    # phi([K_a,K_c], rest) contributes with the sign moving
                    # [K_a,K_c] out of slot 0 into sorted position.
                    sign = ((-1) ** pos_b) * s1 * s2
                    add(full, poly.scale(sign * coef))
    return CEChain(pair, chain.degree + 1, {s: q for s, q in out.items() if not q.is_zero()})

