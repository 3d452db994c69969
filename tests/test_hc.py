import random
from fractions import Fraction

import pytest

from sympair import util
from sympair.errors import InvalidIwasawa, NotInvariant, NotNormalizing
from sympair.hc import IwasawaData, hc_restrict, validate_iwasawa, weyl_invariance_check
from sympair.poly import Poly
from sympair.polyops import BlockPolynomial, invariant_subspace
from sympair.uea import hc_projection_uea, rouviere_sharp


def adapted(pair, original):
    return pair.to_adapted(util.vec(original))


@pytest.fixture(scope="module")
def sl2_iwasawa(sl2_pair):
    return IwasawaData(
        sl2_pair,
        p0=[adapted(sl2_pair, [1, 0, 0])],
        n_plus=[adapted(sl2_pair, [0, 1, 0])],
        k0=[],
        r=[adapted(sl2_pair, [0, 1, -1])],
    )


def test_validate_sl2(sl2_iwasawa):
    assert validate_iwasawa(sl2_iwasawa) == []


def test_validate_degenerate_abelian(abelian_pair):
    data = IwasawaData(abelian_pair, p0=[util.unit_vec(2, 0), util.unit_vec(2, 1)], n_plus=[], k0=[], r=[])
    assert validate_iwasawa(data) == []


def test_validate_negative_witness(sl2_pair):
    with pytest.raises(InvalidIwasawa) as exc:
        IwasawaData(
            sl2_pair,
            p0=[adapted(sl2_pair, [0, 1, 1])],
            n_plus=[adapted(sl2_pair, [1, 0, 0])],
            k0=[],
            r=[adapted(sl2_pair, [0, 1, -1])],
        )
    assert "n+" in str(exc.value)


def test_validate_rejects_dependent_r_with_empty_k0(sl2_pair):
    r = adapted(sl2_pair, [0, 1, -1])
    with pytest.raises(InvalidIwasawa, match=r"k0 \+ r is not a basis of k"):
        IwasawaData(sl2_pair, p0=[adapted(sl2_pair, [1, 0, 0])], n_plus=[adapted(sl2_pair, [0, 1, 0])],
                    k0=[], r=[r, r])


def test_hc_restrict_omega(sl2_iwasawa, omega):
    assert hc_restrict(sl2_iwasawa, omega, True) == Poly(1, {(2,): 1})


def test_hc_restrict_p0_supported_unchanged(sl2_iwasawa, sl2_pair):
    f = BlockPolynomial(sl2_pair, "p", Poly(2, {(3, 0): 2, (1, 0): -1}))  # powers of H only
    assert hc_restrict(sl2_iwasawa, f, False) == Poly(1, {(3,): 2, (1,): -1})


def test_hc_restrict_requires_invariance(sl2_iwasawa, sl2_pair):
    f = BlockPolynomial(sl2_pair, "p", Poly(2, {(0, 1): 1}))
    with pytest.raises(NotInvariant):
        hc_restrict(sl2_iwasawa, f, True)
    # without the flag the substitution is still defined
    assert hc_restrict(sl2_iwasawa, f, False).is_zero()


def test_hc_restrict_plain_multiplicativity(sl2_iwasawa, sl2_pair):
    rng = random.Random(3)
    from conftest import random_block_poly
    for _ in range(8):
        f = random_block_poly(sl2_pair, "p", 3, rng)
        g = random_block_poly(sl2_pair, "p", 3, rng)
        lhs = hc_restrict(sl2_iwasawa, f * g, False)
        rhs = hc_restrict(sl2_iwasawa, f, False).mul(hc_restrict(sl2_iwasawa, g, False))
        assert lhs == rhs


def test_hc_restrict_star_products_low_degree(sl2_iwasawa, sl2_pair, omega):
    """Through total degree 2 the star product restricts multiplicatively;
    at (omega, omega) the discrepancy is exactly the constant 16/15 the
    missing gauge intertwiner would absorb."""
    one = BlockPolynomial.constant(sl2_pair, "p", 1)
    for P, Q in [(one, one), (one, omega), (omega, one)]:
        lhs = hc_restrict(sl2_iwasawa, rouviere_sharp(sl2_pair, P, Q), False)
        rhs = hc_restrict(sl2_iwasawa, P, False).mul(hc_restrict(sl2_iwasawa, Q, False))
        assert lhs == rhs
    lhs = hc_restrict(sl2_iwasawa, rouviere_sharp(sl2_pair, omega, omega), False)
    rhs = hc_restrict(sl2_iwasawa, omega, False).mul(hc_restrict(sl2_iwasawa, omega, False))
    assert lhs == rhs + Poly.const(1, Fraction(16, 15))


def test_image_is_k0_invariant_degrees_up_to_4(sl2_iwasawa, sl2_pair):
    for d in range(5):
        for f in invariant_subspace(sl2_pair, d):
            hc_restrict(sl2_iwasawa, f, True)  # raises if the image escapes


def test_two_routes_top_symbol_agreement(sl2_iwasawa, sl2_pair, omega):
    targets = [omega, omega * omega]
    for f in targets:
        d = f.degree()
        restricted = hc_restrict(sl2_iwasawa, f, False)
        through_uea = hc_projection_uea(sl2_pair, f, sl2_iwasawa)
        assert through_uea.homogeneous_part(d) == restricted.homogeneous_part(d)


def test_weyl_checks(sl2_iwasawa):
    W = [[-1, 0, 0], [0, 0, -1], [0, -1, 0]]
    assert weyl_invariance_check(sl2_iwasawa, [Poly(1, {(2,): 1})], [W])
    assert weyl_invariance_check(sl2_iwasawa, [Poly(1, {(2,): 1})], [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert not weyl_invariance_check(sl2_iwasawa, [Poly(1, {(3,): 1})], [W])


def test_weyl_rejects_non_normalizing(sl2_iwasawa):
    # a matrix moving H out of p0's span
    bad = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    with pytest.raises(NotNormalizing):
        weyl_invariance_check(sl2_iwasawa, [Poly(1, {(2,): 1})], [bad])
