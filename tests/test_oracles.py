"""Independent oracles for the density normalization.

Each check states a theorem the products must satisfy and shares no code
path with the constants pinned by the acceptance criteria.  The ones the
current normalization of `q`, `J` and `ln E` fails are strict xfails whose
reason records the measured value; fixing the normalization flips them.
"""

import pytest

from sympair import util
from sympair.poly import Poly
from sympair.polyops import BlockPolynomial, invariant_subspace
from sympair.starprod import star_cf
from sympair.uea import rouviere_sharp, star_dk

from conftest import sl_so_pair


def killing_casimir(pair):
    """sum_ij B^ij e_i e_j in S(g)^g, with B^ij the inverse of the Killing form."""
    n = pair.dim
    units = [util.unit_vec(n, i) for i in range(n)]
    B = [[pair.adapted.killing(u, v) for v in units] for u in units]
    inv_cols = util.solve_each(B, units)
    terms = {}
    for i in range(n):
        for j in range(n):
            if inv_cols[j][i]:
                m = tuple((t == i) + (t == j) for t in range(n))
                terms[m] = terms.get(m, 0) + inv_cols[j][i]
    return BlockPolynomial(pair, "g", Poly(n, terms))


def _pair(name, request):
    fixture = {"sl2": "sl2_pair", "sl2diag": "diagonal_pair"}
    return sl_so_pair(3) if name == "sl3" else request.getfixturevalue(fixture[name])


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
