import random
from fractions import Fraction

import pytest

from sympair import util
from sympair.errors import NotInvariant
from sympair.liealg import Character, sl_so
from sympair.poly import Poly
from sympair.polyops import BlockPolynomial, apply_series_operator, invariant_subspace
from sympair.series import density_series
from sympair.uea import (
    PBWContext,
    _symmetrized,
    UEAElement,
    ad_action,
    beta,
    beta_inverse,
    duflo_relation_check,
    hc_projection_uea,
    pbw_multiply,
    project_mod_k_lambda,
    reduce_mod_k_lambda,
    rouviere_sharp,
    star_dk,
)

from conftest import random_block_poly, straighten_random, symmetrized_by_permutations


@pytest.fixture(scope="module")
def sl2_ctx(sl2_pair):
    return PBWContext(sl2_pair)


@pytest.fixture(scope="module")
def solv_ctx(solvable_pair):
    return PBWContext(solvable_pair)


def adapted(pair, original):
    return pair.to_adapted(util.vec(original))


# -- straightening --------------------------------------------------------------

def test_defining_relation(sl2_pair, sl2_ctx):
    ux = UEAElement.from_vector(sl2_ctx, adapted(sl2_pair, [0, 1, 0]))
    uy = UEAElement.from_vector(sl2_ctx, adapted(sl2_pair, [0, 0, 1]))
    uh = UEAElement.from_vector(sl2_ctx, adapted(sl2_pair, [1, 0, 0]))
    assert pbw_multiply(ux, uy) - pbw_multiply(uy, ux) == uh


def test_abelian_product_is_symmetric(abelian_pair):
    ctx = PBWContext(abelian_pair)
    a = UEAElement.generator(ctx, 0)
    b = UEAElement.generator(ctx, 1)
    assert pbw_multiply(a, b) == pbw_multiply(b, a) == UEAElement(ctx, {(0, 1): 1})


def test_associativity_witness(sl2_pair, sl2_ctx):
    uh = UEAElement.from_vector(sl2_ctx, adapted(sl2_pair, [1, 0, 0]))
    ux = UEAElement.from_vector(sl2_ctx, adapted(sl2_pair, [0, 1, 0]))
    uy = UEAElement.from_vector(sl2_ctx, adapted(sl2_pair, [0, 0, 1]))
    assert pbw_multiply(pbw_multiply(uh, ux), uy) == pbw_multiply(uh, pbw_multiply(ux, uy))


def test_pbw_confluence_random_strategies(sl2_pair, solvable_pair):
    # straightening along any admissible swap order gives the same normal form
    rng = random.Random(37)
    for pair in (sl2_pair, solvable_pair):
        ctx = PBWContext(pair)
        for _ in range(500):
            word = tuple(rng.randrange(pair.dim) for _ in range(rng.randint(2, 5)))
            assert straighten_random(ctx, word, rng) == ctx.straighten(word)


def test_degree_filtration(sl2_pair, sl2_ctx):
    rng = random.Random(8)
    for _ in range(10):
        w1 = tuple(sorted(rng.randrange(3) for _ in range(2)))
        w2 = tuple(sorted(rng.randrange(3) for _ in range(2)))
        prod = pbw_multiply(UEAElement(sl2_ctx, {w1: 1}), UEAElement(sl2_ctx, {w2: 1}))
        top = prod.top_part()
        assert set(top) == {tuple(sorted(w1 + w2))}


# -- symmetrization --------------------------------------------------------------

def test_beta_degree_one_identity(sl2_pair, sl2_ctx):
    v = BlockPolynomial(sl2_pair, "p", Poly(2, {(1, 0): 3, (0, 1): -2}))
    u = beta(sl2_ctx, v)
    assert u == UEAElement(sl2_ctx, {(0,): 3, (1,): -2})


def test_beta_inverse_roundtrip(sl2_pair, sl2_ctx):
    rng = random.Random(21)
    for _ in range(8):
        f = random_block_poly(sl2_pair, "g", 4, rng)
        assert beta_inverse(sl2_ctx, beta(sl2_ctx, f)) == f


def test_beta_equivariance(sl2_pair, sl2_ctx, solvable_pair, solv_ctx):
    # beta(K . f) = [K, beta(f)] for K in k, f in S(p)
    from sympair.polyops import k_derivation
    rng = random.Random(29)
    for pair, ctx in ((sl2_pair, sl2_ctx), (solvable_pair, solv_ctx)):
        for _ in range(5):
            f = random_block_poly(pair, "p", 4, rng)
            for a in range(pair.dim_k):
                lhs = beta(ctx, k_derivation(pair, a, f).to_g())
                rhs = ad_action(ctx, pair.dim_p + a, beta(ctx, f.to_g()))
                assert lhs == rhs


def test_beta_omega_squared_class(sl2_pair, sl2_ctx, omega):
    lam0 = sl2_pair.zero_character()
    b = beta(sl2_ctx, omega * omega)
    Om = beta(sl2_ctx, omega)
    claim = pbw_multiply(Om, Om) - Om.scale(Fraction(8, 3))
    assert project_mod_k_lambda(sl2_ctx, b - claim, lam0).poly.is_zero()
    # and the projection itself recovers omega^2 coordinates
    assert project_mod_k_lambda(sl2_ctx, b, lam0) == omega * omega


# -- quotient projection ----------------------------------------------------------

def test_project_kills_right_ideal(sl2_pair, sl2_ctx):
    rng = random.Random(31)
    lam = Character(sl2_pair, [Fraction(3, 2)])
    for _ in range(6):
        v = random_block_poly(sl2_pair, "g", 3, rng)
        u = beta(sl2_ctx, v)
        K = UEAElement.generator(sl2_ctx, 2) + UEAElement.unit(sl2_ctx, lam.values[0])
        assert project_mod_k_lambda(sl2_ctx, pbw_multiply(u, K), lam).poly.is_zero()


def test_project_generator_example(sl2_pair, sl2_ctx):
    lam = Character(sl2_pair, [Fraction(5)])
    K_elt = UEAElement.generator(sl2_ctx, 2) + UEAElement.unit(sl2_ctx, 5)
    assert project_mod_k_lambda(sl2_ctx, K_elt, lam).poly.is_zero()


def test_project_kernel_shift_invariance(sl2_pair, sl2_ctx):
    rng = random.Random(41)
    lam = Character(sl2_pair, [Fraction(-2)])
    u = beta(sl2_ctx, random_block_poly(sl2_pair, "g", 3, rng))
    base = project_mod_k_lambda(sl2_ctx, u, lam)
    for _ in range(5):
        v = beta(sl2_ctx, random_block_poly(sl2_pair, "g", 2, rng))
        K = UEAElement.generator(sl2_ctx, 2) + UEAElement.unit(sl2_ctx, lam.values[0])
        shifted = u + pbw_multiply(v, K)
        assert project_mod_k_lambda(sl2_ctx, shifted, lam) == base


def test_reduce_mod_handles_nested_tails(solvable_pair, solv_ctx):
    lam = Character(solvable_pair, [Fraction(2)])
    u = UEAElement(solv_ctx, {(0, 3, 3): 1})  # t . K . K
    red = reduce_mod_k_lambda(u, lam)
    assert red == UEAElement(solv_ctx, {(0,): 4})


# -- transported products -----------------------------------------------------------

def test_star_dk_abelian_is_product(abelian_pair):
    rng = random.Random(43)
    f = random_block_poly(abelian_pair, "p", 2, rng).to_g()
    g = random_block_poly(abelian_pair, "p", 2, rng).to_g()
    assert star_dk(abelian_pair, f, g) == f * g


def test_star_dk_degree_one_commutator(sl2_pair):
    for i in range(3):
        for j in range(3):
            f = BlockPolynomial(sl2_pair, "g", Poly.var(3, i))
            g = BlockPolynomial(sl2_pair, "g", Poly.var(3, j))
            w = sl2_pair.adapted.bracket_basis(i, j)
            expect = BlockPolynomial(
                sl2_pair, "g", sum((Poly.var(3, t, w[t]) for t in range(3) if w[t]), Poly.zero(3))
            )
            assert star_dk(sl2_pair, f, g) - star_dk(sl2_pair, g, f) == expect


def test_star_dk_associativity_random(sl2_pair):
    rng = random.Random(47)
    for _ in range(12):
        f = random_block_poly(sl2_pair, "g", 2, rng, density=0.4)
        g = random_block_poly(sl2_pair, "g", 2, rng, density=0.4)
        h = random_block_poly(sl2_pair, "g", 2, rng, density=0.4)
        lhs = star_dk(sl2_pair, star_dk(sl2_pair, f, g), h)
        rhs = star_dk(sl2_pair, f, star_dk(sl2_pair, g, h))
        assert lhs == rhs


def test_star_dk_scaled_brackets_to_zero(sl2_pair):
    # zero out the brackets: the product must collapse to the symmetric one
    from sympair.liealg import LieAlgebraDef, build_symmetric_pair
    flat = build_symmetric_pair(LieAlgebraDef("flat3", ["H", "X", "Y"], {}),
                                [[-1, 0, 0], [0, 0, -1], [0, -1, 0]])
    rng = random.Random(53)
    f = random_block_poly(flat, "g", 2, rng)
    g = random_block_poly(flat, "g", 2, rng)
    assert star_dk(flat, f, g) == f * g


def test_rouviere_unit(sl2_pair, omega):
    one = BlockPolynomial.constant(sl2_pair, "p", 1)
    assert rouviere_sharp(sl2_pair, one, omega) == omega
    assert rouviere_sharp(sl2_pair, omega, one) == omega


def test_rouviere_sl2_value(sl2_pair, omega):
    assert rouviere_sharp(sl2_pair, omega, omega) == omega * omega - BlockPolynomial.constant(sl2_pair, "p", Fraction(16, 15))


def test_rouviere_requires_invariance(sl2_pair):
    bad = BlockPolynomial(sl2_pair, "p", Poly(2, {(1, 0): 1}))
    with pytest.raises(NotInvariant):
        rouviere_sharp(sl2_pair, bad, bad)


def test_rouviere_solvable_pointwise(solvable_pair):
    z = BlockPolynomial(solvable_pair, "p", Poly(3, {(0, 0, 1): 1}))
    u = BlockPolynomial(solvable_pair, "p", Poly(3, {(1, 0, 1): 4, (0, 2, 0): 1}))
    assert rouviere_sharp(solvable_pair, z, u) == z * u
    assert rouviere_sharp(solvable_pair, u, u) == u * u
    assert rouviere_sharp(solvable_pair, z, z) == z * z


def invariant_pairs(pair, max_degree):
    basis = []
    for d in range(max_degree + 1):
        basis.extend(invariant_subspace(pair, d))
    return [(P, Q) for P in basis for Q in basis if P.degree() >= Q.degree()]


@pytest.mark.parametrize("fixture", ["sl2_pair", "solvable_pair"])
def test_rouviere_commutativity_across_lambda(fixture, request):
    pair = request.getfixturevalue(fixture)
    trk = pair.trk_character()
    lams = [pair.zero_character(), trk, trk.scale(Fraction(1, 2))]
    for P, Q in invariant_pairs(pair, 3):
        for lam in lams:
            assert rouviere_sharp(pair, P, Q, lam) == rouviere_sharp(pair, Q, P, lam)


def test_duflo_relation(sl2_pair, solvable_pair, abelian_pair):
    assert duflo_relation_check(abelian_pair, abelian_pair.zero_character(), 2)
    assert duflo_relation_check(sl2_pair, sl2_pair.zero_character(), 3)
    for d in (2, 3):
        assert duflo_relation_check(solvable_pair, solvable_pair.zero_character(), d)


def test_duflo_relation_nonzero_lambda(solvable_pair):
    # k = <x+y> is abelian, so any value defines a character; the relation
    # k^{-lam} U âˆ© U^k = U^k âˆ© U k^{-lam+trk} is nontrivial here
    lam = Character(solvable_pair, [Fraction(1)])
    assert duflo_relation_check(solvable_pair, lam, 2)


# -- HC projection through U(g) -------------------------------------------------------

def _manual_straighten_sl2(word, coeff=Fraction(1)):
    """Independent straightening oracle in the (X, H, K) order.

    Basis order X < H < K with X = X-hat, H = H-hat, K = X-hat - Y-hat;
    hand-derived relations [H,X] = 2X, [K,X] = H, and
    [K,H] = -2(X+Y) = -4X + 2K.  Words are tuples over {0,1,2}.
    """
    out = {}

    def rec(w, c):
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                rec(swapped, c)
                a, b = w[i], w[i + 1]
                # bracket table for (X, H, K) pairs (b < a)
                table = {
                    (1, 0): {0: Fraction(2)},          # [H, X] = 2X
                    (2, 0): {1: Fraction(1)},          # [K, X] = H
                    (2, 1): {0: Fraction(-4), 2: Fraction(2)},  # [K, H] = -4X + 2K
                }[(a, b)]
                for t, cc in table.items():
                    rec(w[:i] + (t,) + w[i + 2:], c * cc)
                return
        out[w] = out.get(w, Fraction(0)) + c

    rec(tuple(word), coeff)
    return {w: c for w, c in out.items() if c}


def test_manual_oracle_brackets_match(sl2_pair):
    # the hand-derived bracket table agrees with the library's brackets
    X = sl2_pair.to_adapted(util.vec([0, 1, 0]))
    H = sl2_pair.to_adapted(util.vec([1, 0, 0]))
    K = sl2_pair.to_adapted(util.vec([0, 1, -1]))
    assert sl2_pair.adapted.bracket(H, X) == util.vec_scale(2, X)
    assert sl2_pair.adapted.bracket(K, X) == H
    assert sl2_pair.adapted.bracket(K, H) == util.vec_add(util.vec_scale(-4, X), util.vec_scale(2, K))


def test_hc_projection_uea_omega(sl2_pair, omega):
    from sympair.hc import IwasawaData
    iw = IwasawaData(
        sl2_pair,
        p0=[adapted(sl2_pair, [1, 0, 0])],
        n_plus=[adapted(sl2_pair, [0, 1, 0])],
        k0=[],
        r=[adapted(sl2_pair, [0, 1, -1])],
    )
    res = hc_projection_uea(sl2_pair, omega, iw)
    # independent oracle: Omega = H^2 + (X+Y)^2 = H^2 - 2H + 4X^2 - 4XK + K^2
    # in the (X, H, K) order; this is checked by straightening the word
    # expansion of Omega with the manual rewriter and dropping K and X parts.
    # beta(omega) words over (X,H,K): H.H + (2X - K).(2X - K)
    expansion = {}
    for w, c in [((1, 1), Fraction(1))]:
        expansion[w] = c
    for w, c in _manual_straighten_sl2((0, 0), Fraction(4)).items():
        expansion[w] = expansion.get(w, Fraction(0)) + c
    for w, c in _manual_straighten_sl2((0, 2), Fraction(-2)).items():
        expansion[w] = expansion.get(w, Fraction(0)) + c
    for w, c in _manual_straighten_sl2((2, 0), Fraction(-2)).items():
        expansion[w] = expansion.get(w, Fraction(0)) + c
    for w, c in _manual_straighten_sl2((2, 2), Fraction(1)).items():
        expansion[w] = expansion.get(w, Fraction(0)) + c
    # drop words containing K (index 2), keep empty-X (no index 0) part
    kept = {w: c for w, c in expansion.items() if 2 not in w and 0 not in w and c}
    # remaining pure-H words give the class coordinates (H is abelian in g0)
    oracle = {}
    for w, c in kept.items():
        oracle[(len(w),)] = oracle.get((len(w),), Fraction(0)) + c
    oracle = {m: c for m, c in oracle.items() if c}
    assert res.terms == oracle
    assert res.terms == {(2,): 1, (1,): -2}


def test_hc_projection_of_unit(sl2_pair):
    from sympair.hc import IwasawaData
    iw = IwasawaData(
        sl2_pair,
        p0=[adapted(sl2_pair, [1, 0, 0])],
        n_plus=[adapted(sl2_pair, [0, 1, 0])],
        k0=[],
        r=[adapted(sl2_pair, [0, 1, -1])],
    )
    one = BlockPolynomial.constant(sl2_pair, "p", 1)
    assert hc_projection_uea(sl2_pair, one, iw).terms == {(0,): 1}


def test_hc_projection_multiplicative_on_classes(sl2_pair, omega):
    """Projection of the class product equals the product of projections.

    The invariant-class product takes representatives beta(S), multiplies
    in U(g), and reduces; the image algebra U(g0)/U(g0)k0 here is the
    polynomial algebra in H.
    """
    from sympair.hc import IwasawaData
    from sympair.uea import PBWContext
    iw = IwasawaData(
        sl2_pair,
        p0=[adapted(sl2_pair, [1, 0, 0])],
        n_plus=[adapted(sl2_pair, [0, 1, 0])],
        k0=[],
        r=[adapted(sl2_pair, [0, 1, -1])],
    )
    ctx = PBWContext(sl2_pair)
    lam0 = sl2_pair.zero_character()
    for P, Q in [(omega, omega), (omega, omega * omega)]:
        prod_class = project_mod_k_lambda(ctx, pbw_multiply(beta(ctx, P.to_g()), beta(ctx, Q.to_g())), lam0)
        lhs = hc_projection_uea(sl2_pair, prod_class, iw)
        a = hc_projection_uea(sl2_pair, P, iw)
        b = hc_projection_uea(sl2_pair, Q, iw)
        assert lhs == a.mul(b)


def test_hc_projection_with_nonzero_k0(diagonal_pair):
    """sl2 + sl2 with the swap: g0 = k0 + p0 is spanned by H1 + H2 and H1 - H2.

    The only pair here whose little pair has k0 != 0, so the projection
    must also drop U(g0).k0.
    """
    from sympair.hc import IwasawaData, hc_restrict
    pair = diagonal_pair
    iw = IwasawaData(
        pair,
        p0=[adapted(pair, [1, 0, 0, -1, 0, 0])],
        n_plus=[adapted(pair, [0, 1, 0, 0, 0, 0]), adapted(pair, [0, 0, 0, 0, 0, 1])],
        k0=[adapted(pair, [1, 0, 0, 1, 0, 0])],
        r=[adapted(pair, [0, 1, 0, 0, 1, 0]), adapted(pair, [0, 0, 1, 0, 0, 1])],
    )
    C = invariant_subspace(pair, 2)[0]
    for f in [C, C * C] + invariant_subspace(pair, 4):
        d = f.degree()
        top = hc_projection_uea(pair, f, iw).homogeneous_part(d)
        assert top == hc_restrict(iw, f, True).homogeneous_part(d)
    ctx = PBWContext(pair)
    lam0 = pair.zero_character()
    for P, Q in [(C, C), (C, C * C)]:
        prod_class = project_mod_k_lambda(ctx, pbw_multiply(beta(ctx, P.to_g()), beta(ctx, Q.to_g())), lam0)
        lhs = hc_projection_uea(pair, prod_class, iw)
        assert lhs == hc_projection_uea(pair, P, iw).mul(hc_projection_uea(pair, Q, iw))
    assert hc_projection_uea(pair, C, iw).terms == {(2,): Fraction(1, 4), (1,): -1}
    assert hc_projection_uea(pair, C * C, iw).terms == {
        (4,): Fraction(1, 16), (3,): Fraction(-1, 2), (2,): Fraction(2, 3), (1,): Fraction(4, 3)}


def test_dressed_projection_differs_below_top_degree(sl2_pair, sl2_ctx, omega):
    """Splitting along the series-dressed copy of beta(S(p)) instead of beta(S(p))."""
    lam0 = sl2_pair.zero_character()
    jh = density_series("J_half", 4)
    u = beta(sl2_ctx, omega * omega)
    plain = project_mod_k_lambda(sl2_ctx, u, lam0)
    dressed = apply_series_operator(sl2_pair, jh.inverse(), plain)
    assert plain == omega * omega
    assert dressed != plain
    assert dressed.poly.homogeneous_part(4) == plain.poly.homogeneous_part(4)
    # consistency: beta(d_series dressed) == u mod U(g).k
    redone = beta(sl2_ctx, apply_series_operator(sl2_pair, jh, dressed).to_g())
    assert project_mod_k_lambda(sl2_ctx, u - redone, lam0).poly.is_zero()


def test_project_beta_times_k_at_zero_lambda(sl2_pair, sl2_ctx):
    rng = random.Random(59)
    lam0 = sl2_pair.zero_character()
    for _ in range(4):
        f = random_block_poly(sl2_pair, "p", 3, rng)
        u = pbw_multiply(beta(sl2_ctx, f.to_g()), UEAElement.generator(sl2_ctx, 2))
        assert project_mod_k_lambda(sl2_ctx, u, lam0).poly.is_zero()


# -- recursive symmetrization and products beyond order 8 ------------------------------

@pytest.mark.parametrize("which", ["sl2diag", "sl3", "sl4"])
def test_symmetrized_matches_permutation_average(which, diagonal_pair):
    pair = diagonal_pair if which == "sl2diag" else sl_so(int(which[2]))
    ctx = PBWContext(pair)
    rng = random.Random(f"symmetrize/{which}")
    for _ in range(60):
        word = tuple(rng.randrange(pair.dim) for _ in range(rng.randint(0, 5)))
        assert _symmetrized(ctx, word) == symmetrized_by_permutations(ctx, word)


def test_rouviere_associative_beyond_order_eight(sl2_pair, omega):
    w2, w3 = omega * omega, omega * omega * omega
    lhs = rouviere_sharp(sl2_pair, rouviere_sharp(sl2_pair, omega, w2), w3)
    rhs = rouviere_sharp(sl2_pair, omega, rouviere_sharp(sl2_pair, w2, w3))
    assert lhs == rhs and lhs.degree() == 12


def test_star_dk_associative_on_degree_three(sl2_pair):
    rng = random.Random(5)
    f, g, h = (random_block_poly(sl2_pair, "g", 3, rng, density=0.3) for _ in range(3))
    assert f.degree() == g.degree() == h.degree() == 3
    lhs = star_dk(sl2_pair, star_dk(sl2_pair, f, g), h)
    assert lhs == star_dk(sl2_pair, f, star_dk(sl2_pair, g, h))
