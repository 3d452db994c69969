"""Independent oracles for the density normalization.

Each check states a theorem the products must satisfy and shares no code
path with the constants pinned by the acceptance criteria.  The ones the
current normalization of `q`, `J` and `ln E` fails are strict xfails whose
reason records the measured value; fixing the normalization flips them.
"""

from fractions import Fraction

import pytest
from conftest import laplace_beltrami_symbol

from sympair import util
from sympair.liealg import sl_so
from sympair.poly import Poly
from sympair.polyops import BlockPolynomial, invariant_subspace
from sympair.starprod import exp_coord_operator, star_cf
from sympair.uea import rouviere_sharp, star_dk


def killing_casimir(pair, space="g"):
    """sum_ij B^ij e_i e_j over one block, with B^ij the inverse of the Killing form on it:
    in S(g)^g for g, and in S(p)^k for p, which is Killing-orthogonal to k."""
    idx = pair.block_indices(space)
    units = [util.unit_vec(pair.dim, i) for i in idx]
    B = [[pair.adapted.killing(u, v) for v in units] for u in units]
    m = len(idx)
    inv_cols = util.solve_each(B, [util.unit_vec(m, i) for i in range(m)])
    terms = {}
    for i in range(m):
        for j in range(m):
            if inv_cols[j][i]:
                mono = tuple((t == i) + (t == j) for t in range(m))
                terms[mono] = terms.get(mono, 0) + inv_cols[j][i]
    return BlockPolynomial(pair, space, Poly(m, terms))


def _pair(name, request):
    fixture = {"sl2": "sl2_pair", "sl2diag": "diagonal_pair"}
    return sl_so(3) if name == "sl3" else request.getfixturevalue(fixture[name])


def _fails(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.mark.parametrize("name", [
    pytest.param("sl2", marks=_fails("star_dk(C, C) - C*C = -1/128 on sl2 (Duflo: 0)")),
    pytest.param("sl3", marks=_fails("star_dk(C, C) - C*C = -1/48 on sl3/so(3) (Duflo: 0)")),
])
def test_duflo_multiplicative_on_casimir(name, request):
    # Duflo: beta o d_{q^(1/2)} is an algebra isomorphism on S(g)^g, so the
    # transported product of two invariants is their plain product
    pair = _pair(name, request)
    C = killing_casimir(pair)
    assert star_dk(pair, C, C) == C * C


@pytest.mark.parametrize("name", [
    "sl2",  # both give C^2 - 16/15
    pytest.param("sl2diag", marks=_fails("constant of (.) - C^2: rouviere_sharp -1/2, star_cf 0 on sl2diag")),
    pytest.param("sl3", marks=_fails("constant of (.) - C^2: rouviere_sharp -13/2, star_cf -4 on sl3/so(3)")),
])
def test_star_cf_matches_rouviere_sharp(name, request):
    pair = _pair(name, request)
    C = invariant_subspace(pair, 2)[0]
    assert star_cf(pair, C, C) == rouviere_sharp(pair, C, C)


# -- Duflo's problem against Riemannian geometry ---------------------------------

JET = 6


def code_j(n, a):
    """log J = sum_n 4^(1-n) a_n tr_p (ad X)^(2n), the normalization of `series.log_density`."""
    return a * Fraction(4) ** (1 - n)


def standard_j(n, a):
    """log J_g = sum_n a_n tr_p (ad X)^(2n): J_g = det_p(sinh ad X / ad X), the Riemannian volume."""
    return a


@pytest.fixture(scope="module")
def casimir_operators(sl2_pair, omega):
    """name -> (pair, R, exp_coord_operator(pair, R, JET)) for a quadratic Casimir R."""
    sl3 = sl_so(3)
    cases = {"sl2": (sl2_pair, omega), "sl3": (sl3, killing_casimir(sl3, "p"))}
    return {name: (pair, R, exp_coord_operator(pair, R, JET)) for name, (pair, R) in cases.items()}


@pytest.mark.parametrize("name, density", [
    ("sl2", code_j),
    ("sl3", code_j),
    pytest.param("sl2", standard_j, marks=_fails(
        "x_i^2 coefficients of the zero-order part: exp_coord_operator minus J_g^(1/2) o (Delta + c) o J_g^(-1/2)"
        " = -8/15 (x_0^2 + x_1^2) on sl2")),
    pytest.param("sl3", standard_j, marks=_fails(
        "x_i^2 coefficients of the zero-order part: exp_coord_operator minus J_g^(1/2) o (Delta + c) o J_g^(-1/2)"
        " = -7/80 (x_0^2 - x_0 x_1 + x_1^2 + x_2^2 + x_3^2 + x_4^2) on sl3/so(3)")),
], ids=["sl2-code-J", "sl3-code-J", "sl2-standard-J", "sl3-standard-J"])
def test_exp_coord_casimir_is_the_laplace_beltrami_operator(casimir_operators, name, density):
    # The invariant operator of the Casimir is the Laplace-Beltrami operator
    # plus a constant; exp_coord_operator writes it conjugated by J^(1/2).
    # With the code's own J the construction is checked apart from the
    # normalization; only J = J_g makes the operator act on half-densities.
    pair, R, operator = casimir_operators[name]
    dp = pair.dim_p

    def through_jet(symbol):  # x-degree <= JET - 2, where the jet truncation does not reach
        return {m: c for m, c in symbol.terms.items() if sum(m[:dp]) <= JET - 2}

    expected = through_jet(laplace_beltrami_symbol(pair, R, JET, density))
    assert any(sum(m[:dp]) == JET - 2 for m in expected)  # the oracle reaches the compared degree
    assert through_jet(operator) == expected
