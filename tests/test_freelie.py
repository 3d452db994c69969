import random
from fractions import Fraction

import pytest

from sympair.errors import OrderTooHigh
from sympair.freelie import (
    FreeAssocSeries,
    FreeLieSeries,
    bch,
    is_lyndon,
    lie_from_assoc,
    standard_factorization,
    sym_factorize,
    z_sym,
)
from sympair.poly import Poly

from conftest import bch_dynkin, dynkin_map, lyndon_words, substitute_letter, swap_letters, sym_factorize_reference

X, Y = 0, 1


def exp_letter(order, letter, c=1):
    return FreeAssocSeries.letter(order, letter, c).exp()


def test_lyndon_words_small():
    words = lyndon_words(4)
    assert (0,) in words and (1,) in words and (0, 1) in words
    assert (0, 0, 1, 1) in words and (1, 0) not in words
    assert all(is_lyndon(w) for w in words)


def test_standard_factorization():
    assert standard_factorization((0, 1)) == ((0,), (1,))
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))


def test_bch_low_orders():
    b1 = bch(1)
    assert b1.terms == {(0,): 1, (1,): 1}
    b2 = bch(2)
    assert b2.terms == {(0,): 1, (1,): 1, (0, 1): Fraction(1, 2)}
    b3 = bch(3)
    # degree 3: 1/12 [X,[X,Y]] + 1/12 [Y,[Y,X]] = 1/12 s(XXY) + 1/12 s(XYY)
    assert b3.homogeneous_part(3).terms == {(0, 0, 1): Fraction(1, 12), (0, 1, 1): Fraction(1, 12)}


def test_bch_against_dynkin_oracle():
    # Dynkin's explicit formula expands to the same associative series
    for order in (3, 4, 5):
        oracle = bch_dynkin(order)
        direct = (exp_letter(order, X) * exp_letter(order, Y)).log()
        assert oracle == direct
        assert bch(order).to_assoc() == oracle


def test_exp_bch_equals_product_of_exponentials():
    for order in (4, 6):
        z = bch(order)
        assert z.to_assoc().exp() == exp_letter(order, X) * exp_letter(order, Y)


def test_exp_log_roundtrip():
    x = FreeAssocSeries(5, {(): 1, (X,): Fraction(1, 2), (X, Y): -3, (Y, Y, X): Fraction(2, 7)})
    assert x.log().exp() == x
    y = x - FreeAssocSeries.unit(5)
    assert y.exp().log() == y


def test_order_cap():
    with pytest.raises(OrderTooHigh):
        z_sym(0)


def test_series_beyond_order_eight():
    assert bch(9).to_assoc() == (exp_letter(9, X) * exp_letter(9, Y)).log()
    # even components of the symmetric-space series vanish
    assert all(len(w) % 2 == 1 for w in z_sym(9).terms)
    assert z_sym(9).homogeneous_part(9).terms


def test_dynkin_idempotent_property():
    z = bch(5)
    for n in z.degrees():
        comp = z.homogeneous_part(n).to_assoc()
        assert dynkin_map(comp) == comp.scale(n)
    # also on the symmetric-space series
    for n in z_sym(5).degrees():
        comp = z_sym(5).homogeneous_part(n).to_assoc()
        assert dynkin_map(comp) == comp.scale(n)


def test_non_lie_input_rejected():
    s = FreeAssocSeries(3, {(0, 0): 1})
    with pytest.raises(ValueError):
        lie_from_assoc(s)


def test_sym_factorize_low_orders():
    P, K = sym_factorize(2)
    assert P.terms == {(0,): 1, (1,): 1}
    assert K.terms == {(0, 1): Fraction(1, 2)}
    P1, K1 = sym_factorize(1)
    assert P1.terms == {(0,): 1, (1,): 1} and K1.is_zero()


def test_sym_factorize_parity_and_roundtrip():
    for order in (4, 6):
        P, K = sym_factorize(order)
        assert all(len(w) % 2 == 1 for w in P.terms)
        assert all(len(w) % 2 == 0 for w in K.terms)
        assert P.to_assoc().exp() * K.to_assoc().exp() == exp_letter(order, X) * exp_letter(order, Y)


def test_K_antisymmetry_under_swap():
    for order in (4, 6):
        _, K = sym_factorize(order)
        assert swap_letters(K) == K.scale(-1)


def test_z_sym_low_orders():
    zs = z_sym(2)
    assert zs.terms == {(0,): 1, (1,): 1}


def test_z_sym_even_parts_vanish():
    zs = z_sym(6)
    assert all(len(w) % 2 == 1 for w in zs.terms)


def test_z_sym_group_identities():
    for order in (3, 5):
        zs = z_sym(order)
        atX = substitute_letter(zs.to_assoc(), Y, FreeAssocSeries(order))
        assert atX == FreeAssocSeries.letter(order, X)
        atY = substitute_letter(zs.to_assoc(), X, FreeAssocSeries(order))
        assert atY == FreeAssocSeries.letter(order, Y)


def test_z_sym_defining_equation():
    for order in (4, 5):
        zs = z_sym(order)
        lhs = zs.scale(2).to_assoc().exp()
        rhs = exp_letter(order, X) * exp_letter(order, Y, 2) * exp_letter(order, X)
        assert lhs == rhs


def test_z_sym_equals_factorization_p_part():
    assert z_sym(6) == sym_factorize(6)[0]


def test_evaluate_into_pair(sl2_pair):
    from sympair import util
    X_v = sl2_pair.to_adapted(util.vec([1, 0, 0]))
    Y_v = sl2_pair.to_adapted(util.vec([0, 1, 1]))

    def evaluate(series):  # constant polynomial vectors: the value at the vectors
        const = lambda v: [Poly.const(0, c) for c in v]
        return tuple(q.constant() for q in series.evaluate_poly(sl2_pair, const(X_v), const(Y_v)))

    val = evaluate(bch(1))
    assert val == util.vec_add(X_v, Y_v)
    # degree-2 term contributes half the bracket
    val2 = evaluate(bch(2))
    half_brk = util.vec_scale(Fraction(1, 2), sl2_pair.adapted.bracket(X_v, Y_v))
    assert val2 == util.vec_add(util.vec_add(X_v, Y_v), half_brk)


def test_sym_factorize_matches_full_recompute_reference():
    for order in range(1, 8):
        assert sym_factorize(order) == sym_factorize_reference(order)


def random_words(rng, max_len, count):
    return {tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_len))) for _ in range(count)}


def test_assoc_product_matches_all_pairs_product():
    rng = random.Random(41)
    for _ in range(20):
        order_a, order_b = rng.randint(2, 7), rng.randint(2, 7)
        a = FreeAssocSeries(order_a, {w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                      for w in random_words(rng, order_a, 12)})
        b = FreeAssocSeries(order_b, {w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                      for w in random_words(rng, order_b, 12)})
        order = min(order_a, order_b)
        expected = {}
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                if len(w1) + len(w2) <= order:
                    expected[w1 + w2] = expected.get(w1 + w2, 0) + c1 * c2
        product = a * b
        assert product.order == order
        assert product.terms == {w: c for w, c in expected.items() if c}
        total = {w: a.terms.get(w, 0) + b.terms.get(w, 0) for w in set(a.terms) | set(b.terms) if len(w) <= order}
        assert (a + b).terms == {w: c for w, c in total.items() if c}


def test_lie_from_assoc_inverts_to_assoc_on_random_series():
    rng = random.Random(43)
    words = lyndon_words(7)
    for order in range(1, 8):
        for _ in range(3):
            L = FreeLieSeries(order, {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                      for w in words if len(w) <= order and rng.random() < 0.4})
            assert lie_from_assoc(L.to_assoc()) == L
