import itertools
import random
from fractions import Fraction

import pytest

from sympair import util
from sympair.liealg import build_symmetric_pair, sl_so
from sympair.poly import Poly, poly_exp
from sympair.polyops import (
    BlockPolynomial,
    CEChain,
    apply_series_operator,
    cartan_eilenberg_diff,
    invariant_subspace,
    is_invariant,
    k_derivation,
)
from sympair.series import TraceSeries, density_series

from conftest import ce_diff_reference, monomials_up_to_degree, random_block_poly, sl2_algebra


def poly_coords(polys, monos):
    return [tuple(p.poly.terms.get(m, Fraction(0)) for m in monos) for p in polys]


def span_of(polys, extra=()):
    monos = sorted(set(m for p in polys for m in p.poly.terms) | set(m for p in extra for m in p.terms))
    return util.span_rref(poly_coords(polys, monos)), monos


# -- series operators ----------------------------------------------------------

def test_density_action_on_omega_squared(sl2_pair, omega):
    jh = density_series("J_half", 4)
    res = apply_series_operator(sl2_pair, jh, omega * omega)
    expected = omega * omega + omega.scale(Fraction(16, 3)) + BlockPolynomial.constant(sl2_pair, "p", Fraction(32, 45))
    assert res == expected


def test_identity_series_acts_trivially(sl2_pair, omega):
    one = TraceSeries.constant(4, 1)
    assert apply_series_operator(sl2_pair, one, omega) == omega


def test_abelian_density_action_trivial(abelian_pair):
    rng = random.Random(2)
    f = random_block_poly(abelian_pair, "p", 3, rng)
    for kind in ("J_half", "q_half"):
        s = density_series(kind, 4)
        assert apply_series_operator(abelian_pair, s, f) == f


def test_operator_linearity(sl2_pair, omega):
    jh = density_series("J_half", 4)
    f = omega * omega
    g = omega.scale(3)
    lhs = apply_series_operator(sl2_pair, jh, f + g)
    assert lhs == apply_series_operator(sl2_pair, jh, f) + apply_series_operator(sl2_pair, jh, g)


def test_inverse_series_roundtrip(sl2_pair, omega):
    qh = density_series("q_half", 6)
    f = (omega * omega).to_g()
    there = apply_series_operator(sl2_pair, qh, f)
    back = apply_series_operator(sl2_pair, qh.inverse(), there)
    assert back == f


def test_to_g_and_restrict_to_p(solvable_pair):
    rng = random.Random(5)
    f = random_block_poly(solvable_pair, "p", 3, rng)
    g = f.to_g()
    dp = solvable_pair.dim_p
    assert g.poly.terms == {m + (0,) * solvable_pair.dim_k: c for m, c in f.poly.terms.items()}
    assert g.restrict_to_p() == f
    k_part = BlockPolynomial.symbol(solvable_pair, "g", dp) * g
    assert (g + k_part).restrict_to_p() == f
    # with p = 0 (sigma = identity) a p-polynomial is a constant
    trivial = build_symmetric_pair(sl2_algebra(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert BlockPolynomial.constant(trivial, "p", 3).to_g() == BlockPolynomial.constant(trivial, "g", 3)


@pytest.mark.parametrize("fixture", ["sl2_pair", "solvable_pair", "diagonal_pair"])
def test_to_g_and_restrict_to_p_are_substitutions(fixture, request):
    """Padding and slicing exponents give the substitutions p -> g and (p, k) -> (p, 0), in the same term order."""
    pair = request.getfixturevalue(fixture)
    dp, n = pair.dim_p, pair.dim
    into_g = [Poly.var(n, i) for i in range(dp)]
    onto_p = [Poly.var(dp, t) for t in range(dp)] + [Poly.zero(dp)] * pair.dim_k
    rng = random.Random(41)
    for _ in range(10):
        f, g = random_block_poly(pair, "p", 4, rng), random_block_poly(pair, "g", 3, rng)
        assert list(f.to_g().poly.terms.items()) == list(f.poly.subs(into_g).terms.items())
        assert list(g.restrict_to_p().poly.terms.items()) == list(g.poly.subs(onto_p).terms.items())


# -- invariants ------------------------------------------------------------------

def test_sl2_invariants(sl2_pair, omega):
    assert [b.poly for b in invariant_subspace(sl2_pair, 0)] == [Poly.const(2, 1)]
    assert invariant_subspace(sl2_pair, 1) == []
    inv2 = invariant_subspace(sl2_pair, 2)
    assert len(inv2) == 1
    span, monos = span_of(inv2, [omega.poly])
    assert util.span_contains(span, tuple(omega.poly.terms.get(m, Fraction(0)) for m in monos))


def test_sl2_invariants_beyond_degree_eight(sl2_pair, omega):
    assert invariant_subspace(sl2_pair, 9) == []
    (f,) = invariant_subspace(sl2_pair, 10)
    assert f.scale(1 / f.poly.terms[(10, 0)]) == omega * omega * omega * omega * omega


def test_solvable_invariants(solvable_pair):
    inv1 = invariant_subspace(solvable_pair, 1)
    assert len(inv1) == 1 and inv1[0].poly.terms == {(0, 0, 1): 1}  # z
    inv2 = invariant_subspace(solvable_pair, 2)
    assert len(inv2) == 2
    z2 = Poly(3, {(0, 0, 2): 1})
    u = Poly(3, {(1, 0, 1): 4, (0, 2, 0): 1})  # 4 t z + (x-y)^2
    span, monos = span_of(inv2, [z2, u])
    for target in (z2, u):
        assert util.span_contains(span, tuple(target.terms.get(m, Fraction(0)) for m in monos))


def test_invariant_monotonicity_solvable(solvable_pair):
    # z * S(p)^k_d lands in S(p)^k_{d+1}
    z = BlockPolynomial(solvable_pair, "p", Poly(3, {(0, 0, 1): 1}))
    for d in (1, 2, 3):
        inv_d = invariant_subspace(solvable_pair, d)
        inv_d1 = invariant_subspace(solvable_pair, d + 1)
        span, monos = span_of(inv_d1)
        for f in inv_d:
            prod = (z * f).poly
            assert util.span_contains(span, tuple(prod.terms.get(m, Fraction(0)) for m in monos))


def test_is_invariant_flags(solvable_pair):
    z_sym = BlockPolynomial(solvable_pair, "p", Poly(3, {(0, 0, 1): 1}))
    assert is_invariant(solvable_pair, z_sym)
    t_sym = BlockPolynomial(solvable_pair, "p", Poly(3, {(1, 0, 0): 1}))
    assert not is_invariant(solvable_pair, t_sym)  # [x+y, t] = x - y


def test_k_derivation_is_a_derivation(sl2_pair):
    rng = random.Random(4)
    f = random_block_poly(sl2_pair, "p", 2, rng)
    g = random_block_poly(sl2_pair, "p", 2, rng)
    lhs = k_derivation(sl2_pair, 0, f * g)
    rhs = k_derivation(sl2_pair, 0, f) * g + f * k_derivation(sl2_pair, 0, g)
    assert lhs == rhs


def test_poly_derivation_matches_leibniz_reference():
    rng = random.Random(29)
    nv = 3

    def rand_poly(degree):
        return Poly(nv, {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for m in monomials_up_to_degree(nv, degree) if rng.random() < 0.5})

    for _ in range(10):
        f = rand_poly(3)
        images = [rand_poly(2) for _ in range(nv)]
        # reference: expand each monomial into its factors and replace one at a time
        expected = Poly.zero(nv)
        for m, c in f.terms.items():
            factors = [i for i, e in enumerate(m) for _ in range(e)]
            for p, i in enumerate(factors):
                term = images[i].scale(c)
                for q, j in enumerate(factors):
                    if q != p:
                        term = term * Poly.var(nv, j)
                expected = expected + term
        assert f.derivation(images) == expected
    coeffs = [Fraction(2), Fraction(0), Fraction(-1, 3)]
    assert Poly.linear(coeffs) == Poly.var(3, 0, 2) + Poly.var(3, 2, Fraction(-1, 3))


def test_poly_exp_is_truncated_power_sum():
    a = Poly(2, {(1, 0): Fraction(1, 2), (0, 2): -3, (1, 1): Fraction(2, 5)})
    for max_degree in range(7):
        expected, power, factorial = Poly.zero(2), Poly.const(2, 1), 1
        for k in range(max_degree + 1):
            expected = expected + power.scale(Fraction(1, factorial))
            power, factorial = power * a, factorial * (k + 1)
        assert poly_exp(a, max_degree) == expected.truncate(max_degree)


# -- Cartan-Eilenberg complex ------------------------------------------------------

def random_chain(pair, deg, rng, polydeg=2):
    comps = {}
    for subset in itertools.combinations(range(pair.dim_k), deg):
        terms = {}
        for m in monomials_up_to_degree(pair.dim_p, polydeg):
            if rng.random() < 0.4:
                terms[m] = Fraction(rng.randint(-3, 3))
        comps[subset] = Poly(pair.dim_p, terms)
    return CEChain(pair, deg, comps)


def test_d_of_invariant_vanishes(sl2_pair, solvable_pair):
    for pair in (sl2_pair, solvable_pair):
        for d in range(3):
            for f in invariant_subspace(pair, d):
                chain = CEChain(pair, 0, {(): f.poly})
                assert cartan_eilenberg_diff(pair, chain).is_zero()


@pytest.mark.parametrize("fixture", ["sl2_pair", "solvable_pair", "diagonal_pair"])
def test_d_squared_zero(fixture, request):
    pair = request.getfixturevalue(fixture)
    rng = random.Random(19)
    for deg in range(min(pair.dim_k, 3) + 1):
        for _ in range(4):
            c = random_chain(pair, deg, rng)
            assert cartan_eilenberg_diff(pair, cartan_eilenberg_diff(pair, c)).is_zero()


@pytest.mark.parametrize("fixture", ["sl2_pair", "solvable_pair", "diagonal_pair", "sl3_so3"])
def test_d_matches_insertion_reference(fixture, request):
    # d^2 = 0 holds for the zero map too; the reference pins the differential itself
    pair = sl_so(3) if fixture == "sl3_so3" else request.getfixturevalue(fixture)
    rng = random.Random(23)
    for deg in range(min(pair.dim_k, 4) + 1):
        for _ in range(3):
            c = random_chain(pair, deg, rng)
            assert cartan_eilenberg_diff(pair, c) == ce_diff_reference(pair, c)


def test_kernel_degree0_equals_invariants(sl2_pair, solvable_pair):
    # closed 0-forms of each polynomial degree <= 4 are exactly the invariants
    for pair in (sl2_pair, solvable_pair):
        for d in range(5):
            inv, monos = span_of(invariant_subspace(pair, d))
            closed = []
            for m in monomials_up_to_degree(pair.dim_p, d):
                if sum(m) != d:
                    continue
                chain = CEChain(pair, 0, {(): Poly(pair.dim_p, {m: 1})})
                closed.append((m, cartan_eilenberg_diff(pair, chain)))
            # solve for combinations with vanishing differential
            keys = sorted({(s, mm) for _, dc in closed for s, q in dc.components.items() for mm in q.terms})
            rows = []
            for key in keys:
                s, mm = key
                rows.append([dc.components.get(s, Poly(pair.dim_p)).terms.get(mm, Fraction(0)) for _, dc in closed])
            coeffs = util.nullspace(rows, len(closed)) if rows else [util.unit_vec(len(closed), i) for i in range(len(closed))]
            kernel = []
            for v in coeffs:
                terms = {}
                for t, (m, _) in enumerate(closed):
                    if v[t]:
                        terms[m] = v[t]
                kernel.append(Poly(pair.dim_p, terms))
            kernel_span = util.span_rref([tuple(p.terms.get(m, Fraction(0)) for m in monos) for p in kernel]) if monos else []
            assert kernel_span == inv


def random_poly(rng, nv, degree, density=0.5):
    return Poly(nv, {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for m in monomials_up_to_degree(nv, degree) if rng.random() < density})


def test_poly_truncated_mul_is_truncated_full_product():
    rng = random.Random(31)
    for _ in range(10):
        a, b = random_poly(rng, 3, 4), random_poly(rng, 3, 3)
        full = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                full[m] = full.get(m, 0) + c1 * c2
        assert a.mul(b) == Poly(3, full)
        for d in range(9):
            assert a.mul(b, d) == a.mul(b).truncate(d)


def _single_term_image(rng, unit):
    """Zero, or c x^a in 4 variables with deg a <= 2 and c = 1 when `unit`."""
    if rng.random() < 0.15:
        return Poly.zero(4)
    exps = rng.choice(list(monomials_up_to_degree(4, 2)))
    return Poly.monomial(4, exps, 1 if unit else Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3)))


def test_poly_subs_matches_repeated_truncated_multiplication():
    rng = random.Random(37)
    families = [lambda: random_poly(rng, 4, 2, density=0.3),  # general images
                lambda: _single_term_image(rng, unit=True),  # renamings and zeros
                lambda: _single_term_image(rng, unit=False)]  # rescaled monomials
    for image in families * 6:
        f = random_poly(rng, 3, 4)
        images = [image() for _ in range(3)]
        for d in (None, 0, 1, 2, 3, 5, 8):
            expected = Poly.zero(4)
            for m, c in f.terms.items():
                term = Poly.const(4, c)
                for i, k in enumerate(m):
                    for _ in range(k):
                        term = term.mul(images[i], d)
                expected = expected + term
            assert f.subs(images, d) == expected
    # two variables onto one monomial: their terms merge, and cancel
    z = Poly.var(4, 1)
    assert Poly(2, {(1, 0): 1, (0, 1): 1}).subs([z, z.scale(-1)]).is_zero()
    assert Poly(2, {(2, 0): 1, (0, 1): 1}).subs([z, Poly.monomial(4, (0, 2, 0, 0), 3)]) == Poly.monomial(4, (0, 2, 0, 0), 4)
