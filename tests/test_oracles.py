"""Independent oracles for the density normalization.

Each check states a theorem the products must satisfy and shares no code
path with the constants pinned by the acceptance criteria.  Together they
fix the normalization of `q`, `J` and `ln E`: Duflo's theorem on the
Casimir of S(g)^g and on the group-type pairs G x G / G, the agreement of
`star_cf` with `rouviere_sharp` on sl2diag and sl3/so(3), and the
Laplace-Beltrami operator, which holds only for the Riemannian volume
J = det_p(sinh ad X / ad X).
"""

import pytest
from conftest import laplace_beltrami_symbol

from sympair import util
from sympair.liealg import group_type, sl_so
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


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_duflo_multiplicative_on_casimir(name, request):
    # Duflo: beta o d_{q^(1/2)} is an algebra isomorphism on S(g)^g, so the
    # transported product of two invariants is their plain product
    pair = _pair(name, request)
    C = killing_casimir(pair)
    assert star_dk(pair, C, C) == C * C


@pytest.mark.parametrize("name", ["sl2", "sl2diag", "sl3"])
def test_star_cf_matches_rouviere_sharp(name, request):
    pair = _pair(name, request)
    C = invariant_subspace(pair, 2)[0]
    assert star_cf(pair, C, C) == rouviere_sharp(pair, C, C)


# -- the group-type pair G x G / G ------------------------------------------------

#: sl3 on H1 = E11 - E22, H2 = E22 - E33, then E12, E13, E23, E21, E31, E32
SL3_NAMES = ["H1", "H2", "E12", "E13", "E23", "E21", "E31", "E32"]
SL3_MATRICES = [
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
]


@pytest.fixture(scope="module")
def group_type_invariants(diagonal_pair):
    """name -> (pair, {C2, C2^2, C3}) with Ck = invariant_subspace(pair, k)[0]."""
    out = {}
    for name, pair, degrees in (("sl2x2", diagonal_pair, (2,)),
                                ("sl3x2", group_type("sl3", SL3_NAMES, SL3_MATRICES), (2, 3))):
        inv = {f"C{d}": invariant_subspace(pair, d)[0] for d in degrees}
        inv["C2^2"] = inv["C2"] * inv["C2"]
        out[name] = pair, inv
    return out


@pytest.mark.parametrize("name, p, q", [
    ("sl2x2", "C2", "C2"),
    ("sl2x2", "C2", "C2^2"),
    ("sl3x2", "C2", "C2"),
    ("sl3x2", "C2", "C2^2"),
    ("sl3x2", "C2", "C3"),
    ("sl3x2", "C3", "C3"),
])
def test_group_type_rouviere_is_the_plain_product(group_type_invariants, name, p, q):
    # On G x G / G, p is g and S(p)^k is S(g)^g; Duflo's theorem makes the
    # Rouviere product of two invariants their plain product
    pair, inv = group_type_invariants[name]
    assert rouviere_sharp(pair, inv[p], inv[q]) == inv[p] * inv[q]


# -- Duflo's problem against Riemannian geometry ---------------------------------

JET = 6


def standard_j(n, a):
    """log J_g = sum_n a_n tr_p (ad X)^(2n): J_g = det_p(sinh ad X / ad X), the Riemannian volume."""
    return a


@pytest.fixture(scope="module")
def casimir_operators(sl2_pair, omega):
    """name -> (pair, R, exp_coord_operator(pair, R, JET)) for a quadratic Casimir R."""
    sl3 = sl_so(3)
    cases = {"sl2": (sl2_pair, omega), "sl3": (sl3, killing_casimir(sl3, "p"))}
    return {name: (pair, R, exp_coord_operator(pair, R, JET)) for name, (pair, R) in cases.items()}


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_exp_coord_casimir_is_the_laplace_beltrami_operator(casimir_operators, name):
    # The invariant operator of the Casimir is the Laplace-Beltrami operator
    # plus a constant; exp_coord_operator writes it conjugated by J^(1/2),
    # and it acts on half-densities only when J = J_g.
    pair, R, operator = casimir_operators[name]
    dp = pair.dim_p

    def through_jet(symbol):  # x-degree <= JET - 2, where the jet truncation does not reach
        return {m: c for m, c in symbol.terms.items() if sum(m[:dp]) <= JET - 2}

    expected = through_jet(laplace_beltrami_symbol(pair, R, JET, standard_j))
    assert any(sum(m[:dp]) == JET - 2 for m in expected)  # the oracle reaches the compared degree
    assert through_jet(operator) == expected
