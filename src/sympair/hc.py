"""Generalized Iwasawa data and the Harish-Chandra restriction.

Iwasawa data is user supplied and only validated here: the package checks
that k0 + r is a basis of k, the direct sum g = k + p0 + n+, that n+ and
the little pair g0 = k0 + p0 are subalgebras and that p0 and k0 normalize
n+, and that sigma(n+) closes the triangular decomposition.  Valid data
carries the Iwasawa basis `basis` = (n+, p0, k0, r), the coordinates
`coords` of every adapted basis vector in it (one elimination, read by
`hc_restrict` and `uea.hc_projection_uea`), and, when g0 != 0, the little
pair `little`: g0 as a SymmetricPair on the basis (p0, k0), sigma = -1 on
p0 and +1 on k0.  The restriction is the substitution sending every p
symbol to its p0 component along g = (k + n+) + p0; its image is checked
for k0-invariance by `polyops.is_invariant` on the little pair.
"""

from __future__ import annotations

from . import util
from .errors import InvalidIwasawa, NotInvariant, NotNormalizing
from .liealg import SymmetricPair, escaping_brackets
from .poly import Poly
from .polyops import BlockPolynomial, is_invariant, require_invariant


class IwasawaData:
    """Ordered Iwasawa blocks, all vectors in adapted coordinates; once they
    validate, also `basis`, `coords` and `little` (see the module docstring)."""

    def __init__(self, pair: SymmetricPair, p0, n_plus, k0, r):
        self.pair = pair
        self.p0 = [util.vec(v) for v in p0]
        self.n_plus = [util.vec(v) for v in n_plus]
        self.k0 = [util.vec(v) for v in k0]
        self.r = [util.vec(v) for v in r]
        report = validate_iwasawa(self)
        if report:
            raise InvalidIwasawa("; ".join(report))
        self.basis = self.n_plus + self.p0 + self.k0 + self.r
        self.coords = util.solve_each(util.mat_from_cols(self.basis),
                                      [util.unit_vec(pair.dim, i) for i in range(pair.dim)])
        g0 = self.p0 + self.k0
        units = [util.unit_vec(len(g0), i) for i in range(len(g0))]
        p_units, k_units = units[:len(self.p0)], units[len(self.p0):]
        sigma = util.mat_from_cols([util.vec_scale(-1, u) for u in p_units] + k_units)
        # there is no algebra of dimension 0, so g0 = 0 has no little pair
        self.little = SymmetricPair(pair.adapted.rebased(g0), sigma, adapted=(p_units, k_units)) if g0 else None

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
    for a, b in escaping_brackets(pair.adapted, g0, g0, g0):
        problems.append(f"g0 is not a subalgebra: [{a},{b}] escapes")
    # sigma stability of g0 is automatic for blocks chosen inside p and k

    nplus = data.n_plus
    for label, block in (("n+", nplus), ("p0", data.p0), ("k0", data.k0)):
        for a, b in escaping_brackets(pair.adapted, block, nplus, nplus):
            problems.append(f"[{label}, n+] escapes n+ (witness {util.fmt_vec(block[a])} x {util.fmt_vec(nplus[b])})")
    if not util.direct_sum_check([data.n_minus, g0, data.n_plus], pair.dim):
        problems.append("g != n- + g0 + n+ with n- = sigma(n+)")
    return problems


def hc_restrict(data: IwasawaData, f: BlockPolynomial, require_invariant_flag: bool = False) -> Poly:
    """Substitute each p symbol by its p0 component along g = (k + n+) + p0.

    validate_iwasawa has checked that k + n+ + p0 is a basis of g, so each
    p symbol has exactly one such decomposition: the p0 block of its
    coordinates in `data.basis`, as k0 + r spans k.  Returns a polynomial in
    the p0-basis coordinates.  With the flag set, f must be k-invariant and
    the image is checked to be k0-invariant on the little pair.
    """
    pair = data.pair
    if require_invariant_flag:
        require_invariant(pair, f, "f")
    elif f.space != "p":
        raise ValueError("hc_restrict needs a p-polynomial")

    lo, hi = len(data.n_plus), len(data.n_plus) + len(data.p0)
    out = f.poly.subs([Poly.linear(x[lo:hi]) for x in data.coords[:pair.dim_p]])
    # with g0 = 0 there is no k0 whose action could move the image
    if require_invariant_flag and data.little is not None:
        if not is_invariant(data.little, BlockPolynomial(data.little, "p", out)):
            raise NotInvariant("image is not k0-invariant")
    return out


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
