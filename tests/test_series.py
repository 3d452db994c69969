import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sympair.errors import OrderTooHigh
from sympair.freelie import FreeAssocSeries, FreeLieSeries
from sympair.io import load_algebra_file
from sympair.liealg import sl_so
from sympair.poly import Poly
from sympair.series import TraceSeries, density_series, log_density, log_sinhc
from sympair.starprod import LN_E_SERIES

from conftest import trace_words_orbit_reference

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"
PAIR_NAMES = sorted(path.stem for path in ALGEBRAS.glob("*.json")) + ["sl3", "sl4"]


def test_constant_and_arithmetic():
    one = TraceSeries.constant(4, 1)
    t = TraceSeries.word(4, "p", 2, Fraction(1, 3))
    s = one + t
    assert s.coefficient(()) == 1
    assert (s * s).coefficient((("p", 2),)) == Fraction(2, 3)
    assert s.log().exp() == s


def test_exp_log_roundtrip():
    s = TraceSeries(8, {(("p", 2),): Fraction(1, 5), (("k", 4),): Fraction(-2, 7)})
    assert s.exp().log() == s
    e = s.exp()
    assert e.log().exp() == e
    assert (e * e.inverse()) == TraceSeries.constant(8, 1)
    assert (e.sqrt() * e.sqrt()) == e


def test_density_order_validation():
    for order in (3, -2):
        with pytest.raises(OrderTooHigh):
            density_series("J_half", order)


#: each series type with keys of increasing degree: low, mid (degree d_mid) and high (degree d_high)
SERIES_KEYS = [
    pytest.param(FreeAssocSeries, [(0,), (1, 0), (1, 0, 1)], 2, 3, id="assoc"),
    pytest.param(FreeLieSeries, [(0,), (0, 1), (0, 0, 1)], 2, 3, id="lie"),
    pytest.param(TraceSeries, [(("p", 2),), (("p", 2), ("g", 2)), (("p", 2), ("k", 4))], 4, 6, id="trace"),
]


@pytest.mark.parametrize("cls, keys, d_mid, d_high", SERIES_KEYS)
def test_series_linear_arithmetic(cls, keys, d_mid, d_high):
    low, mid, high = keys
    a = cls(d_high, {low: 1, mid: Fraction(1, 2), high: 3})
    b = cls(d_mid, {low: -1, mid: Fraction(1, 2)})
    # mixed orders: a sum or difference is known only through the smaller order
    assert a + b == cls(d_mid, {mid: 1})
    assert a - b == cls(d_mid, {low: 2})
    assert b - a == cls(d_mid, {low: -2})
    assert a.scale(0).is_zero() and a.scale(0) == cls(d_high)
    assert a.homogeneous_part(d_high) == cls(d_high, {high: 3})
    assert a.homogeneous_part(d_mid) == cls(d_high, {mid: Fraction(1, 2)})
    # the order decides which terms a product keeps, so equality compares it
    assert cls(d_mid, {low: 1}) == cls(d_mid, {low: 1})
    assert cls(d_mid, {low: 1}) != cls(d_high, {low: 1})


def test_log_sinhc_matches_power_series_log():
    # sinh(z)/z = sum_k u^k / (2k+1)! in u = z^2; log(1 + v) = sum_j (-1)^(j+1) v^j / j
    n = 8
    v = [Fraction(0)] + [Fraction(1, math.factorial(2 * k + 1)) for k in range(1, n + 1)]
    log, power = [Fraction(0)] * (n + 1), [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        power = [sum((power[i] * v[d - i] for i in range(d + 1)), Fraction(0)) for d in range(n + 1)]
        log = [a + Fraction((-1) ** (j + 1), j) * b for a, b in zip(log, power)]
    assert log_sinhc(n) == log[1:]
    assert log_sinhc(6)[4:] == [Fraction(1, 467775), Fraction(-691, 3831077250)]


def test_density_beyond_order_eight():
    for kind, space in (("q", "g"), ("J", "p")):
        full, half = density_series(kind, 12), density_series(kind + "_half", 12)
        assert half * half == full
        assert full.coefficient(((space, 12),)) != 0


def test_j_half_leading_coefficients(sl2_pair):
    jh = density_series("J_half", 4)
    assert jh.coefficient(()) == 1
    assert jh.coefficient((("p", 2),)) == Fraction(1, 12)
    # on sl(2) the order-4 part collapses to (1/1440) tr_p(ad X)^4 since the
    # quartic trace and the squared quadratic trace agree there
    poly = jh.as_polynomial(sl2_pair, "p")
    tr4 = TraceSeries.word(4, "p", 4).as_polynomial(sl2_pair, "p")
    assert poly.homogeneous_part(4) == tr4.scale(Fraction(1, 1440))


def test_q_half_leading_coefficient():
    qh = density_series("q_half", 2)
    assert qh.coefficient((("g", 2),)) == Fraction(1, 48)


def test_half_kinds_are_square_roots():
    for kind in ("q", "J"):
        assert log_density(kind + "_half", 8).scale(2) == log_density(kind, 8)


def test_abelian_density_is_one(abelian_pair):
    for kind in ("q", "J", "q_half", "J_half"):
        poly = density_series(kind, 6).as_polynomial(abelian_pair, "p")
        assert poly == Poly.const(2, 1)


@pytest.mark.parametrize("fixture", ["sl2_pair", "solvable_pair", "diagonal_pair"])
def test_q_half_equals_J_at_half_argument(fixture, request):
    pair = request.getfixturevalue(fixture)
    for order in (4, 6):
        qh = density_series("q_half", order).as_polynomial(pair, "p")
        J = density_series("J", order).as_polynomial(pair, "p")
        half = [Poly.var(pair.dim_p, i, Fraction(1, 2)) for i in range(pair.dim_p)]
        assert qh == J.subs(half)


def test_series_inverse_is_exact(sl2_pair):
    jh = density_series("J_half", 6)
    assert jh * jh.inverse() == TraceSeries.constant(6, 1)


def test_trace_product_matches_all_pairs_product():
    rng = random.Random(53)
    words = [(s, p) for s in "pkg" for p in (2, 4, 6)]
    for _ in range(10):
        a, b = ({tuple(rng.sample(words, rng.randint(0, 2))): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(6)} for _ in range(2))
        order = rng.choice((4, 6, 8))
        expected = {}
        for k1, c1 in TraceSeries(order, a).terms.items():
            for k2, c2 in TraceSeries(order, b).terms.items():
                key = tuple(sorted(k1 + k2))
                if sum(p for _, p in key) <= order:
                    expected[key] = expected.get(key, 0) + c1 * c2
        assert (TraceSeries(order, a) * TraceSeries(order, b)).terms == {k: c for k, c in expected.items() if c}


@functools.cache
def _named_pair(name):
    if name.startswith("sl") and name[2:].isdigit():
        return sl_so(int(name[2:]))
    return load_algebra_file(str(ALGEBRAS / f"{name}.json"))[0]


@pytest.mark.parametrize("over", ["p", "g"])
@pytest.mark.parametrize("name", PAIR_NAMES)
def test_as_polynomial_matches_full_power_orbits(name, over):
    """Half powers and one contraction give the full-power orbit compiler's polynomial,
    for every density kind through order 8 (order 4 on sl4/so(4))."""
    pair = _named_pair(name)
    top = 4 if name == "sl4" else 8
    for kind in ("q", "J", "q_half", "J_half"):
        for order in range(top, -1, -2):
            series = density_series(kind, order)
            assert series.as_polynomial(pair, over) == trace_words_orbit_reference(series, pair, over)


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_as_polynomial_matches_full_power_orbits_off_the_densities(name):
    """ln E over k, products of two words, odd powers (where the two half
    powers differ) and the power 0 (tr_s of the identity, dim s); on sl4/so(4)
    the series are cut at order 4."""
    pair = _named_pair(name)
    top = 4 if name == "sl4" else 6

    def w(space, power, c=1):
        return TraceSeries.word(top, space, power, c)

    products = w("p", 2) * w("p", 4) + w("k", 2) * w("g", 3) - w("g", 1) * w("k", 5) + w("p", 2) * w("g", 2)
    odd = w("g", 0, 3) + w("p", 1) + w("g", 3, -2) + w("k", 5) + w("p", 0) * w("g", 5) + w("k", 1) * w("p", 3)
    cases = [(LN_E_SERIES, "k"), (products, "p"), (products, "g"), (odd, "g"), (odd, "k")]
    for series, over in cases:
        assert series.as_polynomial(pair, over) == trace_words_orbit_reference(series, pair, over)
    assert w("g", 0).as_polynomial(pair, "p") == Poly.const(pair.dim_p, pair.dim)
