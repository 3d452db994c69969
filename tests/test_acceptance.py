"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and
runtime budget, and prints a single pass line (visible with pytest -s).
Every exact value asserted here was either computed by an independent
oracle inside the test or verified against the closed-form sources the
package is built on; nothing is tuned to the implementation under test.
"""

import itertools
import math
import random
import time
import warnings
from fractions import Fraction

from sympair import util
from sympair.errors import TruncationWarning
from sympair.freelie import FreeAssocSeries, bch, sym_factorize, z_sym
from sympair.graphs import ColoredGraph, mirror_orientation_sign, weight_mc, zero_weight_predicate
from sympair.hc import IwasawaData, hc_restrict, weyl_invariance_check
from sympair.poly import Poly, monomials_up_to_degree
from sympair.polyops import (
    BlockPolynomial,
    CEChain,
    apply_series_operator,
    cartan_eilenberg_diff,
    invariant_subspace,
)
from sympair.series import density_series
from sympair.starprod import ln_e_scalar, star_cf, wheel_factor_A, wheel_factor_B
from sympair.uea import (
    PBWContext,
    UEAElement,
    beta,
    duflo_relation_check,
    pbw_multiply,
    project_mod_k_lambda,
    rouviere_sharp,
    star_dk,
)

from conftest import ln_e_symbol_reference, random_block_poly, straighten_random


class budget:
    """Context manager asserting the wall-clock budget of one criterion."""

    def __init__(self, number, seconds):
        self.number = number
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"criterion {self.number}: PASS ({elapsed:.2f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, f"criterion {self.number} exceeded its runtime budget"
        else:
            print(f"criterion {self.number}: FAIL after {elapsed:.2f}s")
        return False


def invariant_basis(pair, max_degree):
    out = []
    for d in range(max_degree + 1):
        out.extend(invariant_subspace(pair, d))
    return out


def test_criterion_1_density_action(sl2_pair, omega):
    with budget(1, 1.0):
        jh = density_series("J_half", 4)
        res = apply_series_operator(sl2_pair, jh, omega * omega)
        expected = (omega * omega
                    + omega.scale(Fraction(16, 3))
                    + BlockPolynomial.constant(sl2_pair, "p", Fraction(128, 45)))
        assert res == expected


def test_criterion_2_symmetrization_class(sl2_pair, omega):
    with budget(2, 1.0):
        ctx = PBWContext(sl2_pair)
        lam0 = sl2_pair.zero_character()
        lhs = beta(ctx, omega * omega)
        Om = beta(ctx, omega)
        rhs = pbw_multiply(Om, Om) - Om.scale(Fraction(8, 3))
        assert project_mod_k_lambda(ctx, lhs - rhs, lam0).poly.is_zero()


def test_criterion_3_rouviere_product(sl2_pair, omega):
    with budget(3, 5.0):
        sharp = rouviere_sharp(sl2_pair, omega, omega)
        assert sharp == omega * omega - BlockPolynomial.constant(sl2_pair, "p", Fraction(16, 15))

        ctx = PBWContext(sl2_pair)
        lam0 = sl2_pair.zero_character()
        jh = density_series("J_half", 4)
        u = beta(ctx, apply_series_operator(sl2_pair, jh, omega).to_g())
        prod = pbw_multiply(u, u)
        # the product equals Om^2 + 8/3 Om + 16/9 mod U(g)k; the constant is
        # forced by (Om + 4/3)^2 since d_{J^(1/2)} omega = omega + 4/3, and
        # the class coincides with beta(d_{J^(1/2)}(omega^2 - 16/15))
        Om = beta(ctx, omega)
        claim = pbw_multiply(Om, Om) + Om.scale(Fraction(8, 3)) + UEAElement.unit(ctx, Fraction(16, 9))
        assert project_mod_k_lambda(ctx, prod - claim, lam0).poly.is_zero()
        closed = beta(ctx, apply_series_operator(
            sl2_pair, jh, omega * omega - BlockPolynomial.constant(sl2_pair, "p", Fraction(16, 15))).to_g())
        assert project_mod_k_lambda(ctx, prod - closed, lam0).poly.is_zero()


def test_criterion_4_e_calibration(sl2_pair, omega):
    with budget(4, 5.0):
        # order-4 bidifferential (tr_p - tr_k)(ad[X,Y])^2 on omega x omega
        dp = sl2_pair.dim_p
        tr = ln_e_symbol_reference(sl2_pair).scale(240)
        value = Fraction(0)
        for mono, c in tr.terms.items():
            df = omega.poly.diff_mono(mono[:dp])
            dg = omega.poly.diff_mono(mono[dp:])
            if not df.is_zero() and not dg.is_zero():
                value += c * df.mul(dg).constant()
        assert value == -256

        # two independent code paths agree exactly
        cf = star_cf(sl2_pair, omega, omega)
        sharp = rouviere_sharp(sl2_pair, omega, omega)
        expected = omega * omega - BlockPolynomial.constant(sl2_pair, "p", Fraction(16, 15))
        assert cf == sharp == expected
        assert cf.poly.constant() == Fraction(-256, 240) == Fraction(-16, 15)


def test_criterion_5_solvable_pair(solvable_pair):
    with budget(5, 5.0):
        inv1 = invariant_subspace(solvable_pair, 1)
        assert len(inv1) == 1 and inv1[0].poly == Poly(3, {(0, 0, 1): 1})  # z
        inv2 = invariant_subspace(solvable_pair, 2)
        monos = sorted(set(m for b in inv2 for m in b.poly.terms) | {(0, 0, 2), (1, 0, 1), (0, 2, 0)})
        span = util.span_rref([tuple(b.poly.terms.get(m, Fraction(0)) for m in monos) for b in inv2])
        z2 = Poly(3, {(0, 0, 2): 1})
        u = Poly(3, {(1, 0, 1): 4, (0, 2, 0): 1})
        for target in (z2, u):
            assert util.span_contains(span, tuple(target.terms.get(m, Fraction(0)) for m in monos))

        basis = invariant_basis(solvable_pair, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for P in basis:
                for Q in basis:
                    assert star_cf(solvable_pair, P, Q) == P * Q


def test_criterion_6_commutativity_and_duflo(sl2_pair, solvable_pair):
    with budget(6, 30.0):
        for pair in (sl2_pair, solvable_pair):
            trk = pair.trk_character()
            lams = [pair.zero_character(), trk, trk.scale(Fraction(1, 2))]
            basis = invariant_basis(pair, 4)
            for lam in lams:
                for P, Q in itertools.combinations(basis, 2):
                    assert rouviere_sharp(pair, P, Q, lam) == rouviere_sharp(pair, Q, P, lam)
            for d in (2, 3):
                assert duflo_relation_check(pair, pair.zero_character(), d)


def test_criterion_7_density_identities(sl2_pair, solvable_pair, diagonal_pair):
    with budget(7, 5.0):
        for pair in (sl2_pair, solvable_pair, diagonal_pair):
            qh = density_series("q_half", 6).as_polynomial(pair, "p")
            J = density_series("J", 6).as_polynomial(pair, "p")
            half = [Poly.var(pair.dim_p, i, Fraction(1, 2)) for i in range(pair.dim_p)]
            assert qh == J.subs(half)
            A = wheel_factor_A(6)
            B = wheel_factor_B(6)
            assert B.as_polynomial(pair, "p") == Poly.const(pair.dim_p, 1)
            lhs = (A * density_series("J_half", 6)).as_polynomial(pair, "p")
            assert lhs == qh


def test_criterion_8_free_lie(sl2_pair):
    with budget(8, 10.0):
        z = bch(6)
        ex = FreeAssocSeries.letter(6, 0).exp()
        ey = FreeAssocSeries.letter(6, 1).exp()
        assert z.to_assoc().exp() == ex * ey
        zs = z_sym(6)
        assert all(len(w) % 2 == 1 for w in zs.terms)
        _, K = sym_factorize(6)
        assert K.swap_letters() == K.scale(-1)


def test_criterion_9_graph_weights():
    with budget(9, 300.0):
        wedge = ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])
        est = weight_mc(wedge, 1000000, 2026)
        assert abs(est.value - 0.5) <= 0.01

        # every top-dimensional n=2, m=2 graph rejected by the color rules
        # integrates to ~0 when forced through the integrator
        from sympair.graphs import UNKNOWN, enumerate_graphs
        flagged = [g for g in enumerate_graphs(2, 2, [2, 2])
                   if len(g.finite_edges) == 2 * g.n + g.m - 2
                   and zero_weight_predicate(g) is not UNKNOWN]
        assert len(flagged) >= 5
        for g in flagged:
            forced = weight_mc(g, 1000000, 9)
            assert abs(forced.value) <= 0.01, (g, forced)

        corpus = [
            wedge,
            ColoredGraph(2, 2, [(0, 1, "+"), (0, 2, "+"), (1, 2, "+"), (1, 3, "+")]),
            ColoredGraph(2, 2, [(0, 1, "+"), (0, 3, "+"), (1, 2, "+"), (1, 3, "+")]),
            ColoredGraph(2, 2, [(0, 2, "+"), (0, 3, "+"), (1, 2, "+"), (1, 3, "+")]),
            ColoredGraph(2, 1, [(0, 1, "-"), (0, 2, "+"), (1, 2, "+"), (1, "inf", "-")]),
            ColoredGraph(2, 2, [(0, 1, "-"), (0, 2, "+"), (1, 2, "+"), (1, 3, "+")]),
        ]
        assert len(corpus) >= 5
        for g in corpus:
            s = mirror_orientation_sign(g)
            w = weight_mc(g, 400000, 31)
            wm = weight_mc(g.mirror(), 400000, 37)
            tol = 3.0 * math.sqrt(w.std_error ** 2 + wm.std_error ** 2) + 1e-9
            assert abs(wm.value - s * w.value) <= tol


def test_criterion_10_harish_chandra(sl2_pair, omega):
    with budget(10, 1.0):
        iw = IwasawaData(
            sl2_pair,
            p0=[sl2_pair.to_adapted(util.vec([1, 0, 0]))],
            n_plus=[sl2_pair.to_adapted(util.vec([0, 1, 0]))],
            k0=[],
            r=[sl2_pair.to_adapted(util.vec([0, 1, -1]))],
        )
        res = hc_restrict(iw, omega, True)
        assert res == Poly(1, {(2,): 1})  # H^2

        # restriction is an algebra map on invariants of degree <= 2
        one = BlockPolynomial.constant(sl2_pair, "p", 1)
        for P, Q in [(one, one), (one, omega), (omega, one), (omega, omega)]:
            lhs = hc_restrict(iw, P * Q, False)
            assert lhs == hc_restrict(iw, P, False).mul(hc_restrict(iw, Q, False))
        # and through the star product whenever the total degree stays <= 2
        for P, Q in [(one, one), (one, omega), (omega, one)]:
            lhs = hc_restrict(iw, rouviere_sharp(sl2_pair, P, Q), False)
            assert lhs == hc_restrict(iw, P, False).mul(hc_restrict(iw, Q, False))

        W = [[-1, 0, 0], [0, 0, -1], [0, -1, 0]]
        assert weyl_invariance_check(iw, [res], [W])


def test_criterion_11_property_suites(sl2_pair, solvable_pair, diagonal_pair):
    with budget(11, 120.0):
        # PBW confluence: 1000 random straightenings, degree <= 5
        rng = random.Random(97)
        for pair in (sl2_pair, solvable_pair):
            ctx = PBWContext(pair)
            for _ in range(500):
                word = tuple(rng.randrange(pair.dim) for _ in range(rng.randint(2, 5)))
                assert straighten_random(ctx, word, rng) == ctx.straighten(word)

        # star_dk associativity on 100 random degree <= 2 triples
        for _ in range(100):
            f = random_block_poly(sl2_pair, "g", 2, rng, density=0.4)
            g = random_block_poly(sl2_pair, "g", 2, rng, density=0.4)
            h = random_block_poly(sl2_pair, "g", 2, rng, density=0.4)
            assert star_dk(sl2_pair, star_dk(sl2_pair, f, g), h) == star_dk(sl2_pair, f, star_dk(sl2_pair, g, h))

        # d_CE squared vanishes in all chain degrees <= 3
        for pair in (sl2_pair, solvable_pair, diagonal_pair):
            for deg in range(min(pair.dim_k, 3) + 1):
                for _ in range(3):
                    comps = {}
                    for subset in itertools.combinations(range(pair.dim_k), deg):
                        terms = {}
                        for m in monomials_up_to_degree(pair.dim_p, 2):
                            if rng.random() < 0.4:
                                terms[m] = Fraction(rng.randint(-3, 3))
                        comps[subset] = Poly(pair.dim_p, terms)
                    chain = CEChain(pair, deg, comps)
                    assert cartan_eilenberg_diff(pair, cartan_eilenberg_diff(pair, chain)).is_zero()

        # order-4 scalar vanishes at Y = +-X on every pair
        for pair in (sl2_pair, solvable_pair, diagonal_pair):
            for _ in range(10):
                X = tuple(Fraction(rng.randint(-3, 3)) if i < pair.dim_p else Fraction(0)
                          for i in range(pair.dim))
                assert ln_e_scalar(pair, X, X) == 0
                assert ln_e_scalar(pair, X, util.vec_scale(-1, X)) == 0
