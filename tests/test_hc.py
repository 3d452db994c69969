import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import hc_gamma, shifted

from sympair import util
from sympair.errors import InvalidIwasawa, NotInvariant, NotNormalizing
from sympair.hc import IwasawaData, hc_restrict, validate_iwasawa, weyl_invariance_check
from sympair.io import load_algebra_file, load_iwasawa, load_weyl, resolve_definition
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


def test_empty_little_pair_restricts_to_zero(diagonal_pair):
    """g0 = 0 on sl2diag: n+ is the first sl2 factor and r = k.  There is no
    little pair, and every invariant restricts to 0 in no variables."""
    pair = diagonal_pair
    first_factor = [pair.to_adapted(util.unit_vec(pair.dim, i)) for i in range(3)]
    iw = IwasawaData(pair, p0=[], n_plus=first_factor, k0=[],
                     r=[pair.to_adapted(v) for v in pair.adapted_vectors[pair.dim_p:]])
    assert iw.little is None
    for d in (2, 4):
        for f in invariant_subspace(pair, d):
            assert hc_restrict(iw, f, True) == Poly.zero(0)


def test_gamma_is_multiplicative_and_weyl_invariant_after_the_rho_shift():
    """On algebras/sl2.json gamma (conftest.hc_gamma) turns the Rouviere
    product into the pointwise one, and its images are fixed by the file's
    Weyl block after H -> H + 1, but not after H -> H - 1 or unshifted."""
    pair, data = load_algebra_file(Path(__file__).resolve().parent.parent / "algebras" / "sl2.json")
    iw, weyl = load_iwasawa(pair, data), load_weyl(pair, data)
    w = resolve_definition(pair, data, "omega")
    assert hc_gamma(iw, w) == Poly(1, {(2,): 1, (1,): -2, (0,): Fraction(4, 3)})
    for P, Q in [(w, w), (w * w, w), (w * w, w * w)]:
        assert hc_gamma(iw, rouviere_sharp(pair, P, Q)) == hc_gamma(iw, P).mul(hc_gamma(iw, Q))
    images = [hc_gamma(iw, f) for f in (w, w * w, rouviere_sharp(pair, w, w))]
    assert weyl_invariance_check(iw, [shifted(f, 1) for f in images], weyl)
    for c in (-1, 0):
        assert not any(weyl_invariance_check(iw, [shifted(f, c)], weyl) for f in images)


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
