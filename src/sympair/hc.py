"""Generalized Iwasawa data and the Harish-Chandra restriction.

Iwasawa data is user supplied and only validated here: the package checks
that k0 + r is a basis of k, the direct sum g = k + p0 + n+, the subalgebra
and stability conditions of the little pair g0 = k0 + p0, and that
sigma(n+) closes the triangular decomposition.  The projection itself is
the substitution sending every p symbol to its p0 component along
g = (k + n+) + p0.
"""

from __future__ import annotations

from . import util
from .errors import InvalidIwasawa, NotInvariant, NotNormalizing
from .liealg import SymmetricPair
from .poly import Poly
from .polyops import BlockPolynomial, is_invariant


class IwasawaData:
    """Ordered Iwasawa blocks, all vectors in adapted coordinates."""

    def __init__(self, pair: SymmetricPair, p0, n_plus, k0, r):
        self.pair = pair
        self.p0 = [util.vec(v) for v in p0]
        self.n_plus = [util.vec(v) for v in n_plus]
        self.k0 = [util.vec(v) for v in k0]
        self.r = [util.vec(v) for v in r]
        report = validate_iwasawa(self)
        if report:
            raise InvalidIwasawa("; ".join(report))

    @property
    def n_minus(self):
        dp = self.pair.dim_p
        return [tuple(-v[i] if i < dp else v[i] for i in range(self.pair.dim)) for v in self.n_plus]


def validate_iwasawa(data: IwasawaData) -> list[str]:
    """All violations of the Iwasawa axioms, as human-readable witnesses."""
    pair = data.pair
    problems = []
    dp = pair.dim_p

    def in_block(v, lo, hi):
        return all(v[i] == 0 for i in range(pair.dim) if not (lo <= i < hi))

    for v in data.p0:
        if not in_block(v, 0, dp):
            problems.append(f"p0 vector {util.fmt_vec(v)} is not in p")
    for v in data.k0 + data.r:
        if not in_block(v, dp, pair.dim):
            problems.append(f"k0/r vector {util.fmt_vec(v)} is not in k")

    k_basis = [util.unit_vec(pair.dim, i) for i in range(dp, pair.dim)]
    if not util.direct_sum_check([k_basis, data.p0, data.n_plus], pair.dim):
        problems.append("g != k + p0 + n+ as a direct sum")
    if len(data.k0 + data.r) != pair.dim_k or not util.span_eq(data.k0 + data.r, k_basis):
        problems.append("k0 + r is not a basis of k")

    g0 = data.k0 + data.p0
    g0_span = util.span_rref(list(g0))
    for a in range(len(g0)):
        for b in range(a + 1, len(g0)):
            w = pair.adapted.bracket(g0[a], g0[b])
            if not util.span_contains(g0_span, w):
                problems.append(f"g0 is not a subalgebra: [{a},{b}] escapes")
    # sigma stability of g0 is automatic for blocks chosen inside p and k

    n_span = util.span_rref(list(data.n_plus))
    for label, block in (("p0", data.p0), ("k0", data.k0)):
        for u in block:
            for v in data.n_plus:
                w = pair.adapted.bracket(u, v)
                if not util.span_contains(n_span, w):
                    problems.append(f"[{label}, n+] escapes n+ (witness {util.fmt_vec(u)} x {util.fmt_vec(v)})")
    if not util.direct_sum_check([data.n_minus, g0, data.n_plus], pair.dim):
        problems.append("g != n- + g0 + n+ with n- = sigma(n+)")
    return problems


def hc_restrict(data: IwasawaData, f: BlockPolynomial, require_invariant_flag: bool = False) -> Poly:
    """Substitute each p symbol by its p0 component along g = (k + n+) + p0.

    validate_iwasawa has checked that k + n+ + p0 is a basis of g, so each
    p symbol has exactly one such decomposition.  Returns a polynomial in
    the p0-basis coordinates.  With the flag set,
    f must be k-invariant and the image is checked to be k0-invariant.
    """
    pair = data.pair
    if f.space != "p":
        raise ValueError("hc_restrict needs a p-polynomial")
    if require_invariant_flag and not is_invariant(pair, f):
        raise NotInvariant("f is not k-invariant")

    # decomposition matrix: columns are (k, n+, p0) basis vectors
    k_basis = [util.unit_vec(pair.dim, i) for i in range(pair.dim_p, pair.dim)]
    cols = util.mat_from_cols(list(k_basis) + list(data.n_plus) + list(data.p0))
    xs = util.solve_each(cols, [util.unit_vec(pair.dim, i) for i in pair.block_indices("p")])
    skip = len(k_basis) + len(data.n_plus)
    out = f.poly.subs([Poly.linear(x[skip:]) for x in xs])
    if require_invariant_flag and not _is_k0_invariant(data, out):
        raise NotInvariant("image is not k0-invariant")
    return out


def _is_k0_invariant(data: IwasawaData, poly: Poly) -> bool:
    """Whether every K in k0 kills `poly` as a derivation of S(p0).

    validate_iwasawa makes g0 = k0 + p0 a subalgebra, so [k0, p0] lies in
    g0 and in p, that is in p0: each [K, v] has p0 coordinates.
    """
    pair = data.pair
    cols = util.mat_from_cols(list(data.p0))
    for K in data.k0:
        xs = util.solve_each(cols, [pair.adapted.bracket(K, v) for v in data.p0])
        if not poly.derivation([Poly.linear(x) for x in xs]).is_zero():
            return False
    return True


def weyl_invariance_check(data: IwasawaData, images: list[Poly], weyl_matrices) -> bool:
    """True iff every image polynomial is fixed by each induced Weyl action.

    Matrices act on g in the original basis coordinates and must map the
    span of p0 to itself (validated, NotNormalizing otherwise).
    """
    pair = data.pair
    p0_orig = [pair.from_adapted(v) for v in data.p0]
    cols = util.mat_from_cols(p0_orig)
    for W in weyl_matrices:
        W = [[util.frac(c) for c in row] for row in W]
        xs = util.solve_each(cols, [util.mat_apply(W, v) for v in p0_orig])
        if xs is None:
            raise NotNormalizing("matrix does not normalize p0")
        subs_images = [Poly.linear(x) for x in xs]
        for f in images:
            if f.subs(subs_images) != f:
                return False
    return True
