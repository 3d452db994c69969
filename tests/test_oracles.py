"""Independent oracles for the density normalization.

Each check states a theorem the products must satisfy and shares no code
path with the constants pinned by the acceptance criteria.  Together they
fix the normalization of `q`, `J` and `ln E`: Duflo's theorem on the
Casimir of S(g)^g and on the group-type pairs G x G / G, the agreement of
`star_cf` with `rouviere_sharp` on sl2diag and sl3/so(3), and the
Laplace-Beltrami operator, which holds only for the Riemannian volume
J = det_p(sinh ad X / ad X).  Beyond the normalization: the composition of
invariant operators in exponential coordinates, the Moyal product on the
Heisenberg pair h3 and on n3D, the plain product on the solvable pairs
solvable4, aff1's coadjoint pair and the gradings of the filiform n4 (E = 1),
and the order-6 gaps of `star_cf`.
"""

import itertools
from fractions import Fraction

import pytest
from conftest import composition_symbol_at_origin, laplace_beltrami_symbol, moyal

from sympair import util
from sympair.errors import TruncationWarning
from sympair.liealg import (
    Character,
    LieAlgebraDef,
    SymmetricPair,
    coadjoint_semidirect,
    group_type,
    pair_from_matrices,
    sl_so,
)
from sympair.poly import Poly, monomials_of_degree
from sympair.polyops import BlockPolynomial, invariant_subspace
from sympair.starprod import exp_coord_operator, star_cf
from sympair.uea import duflo_relation_check, rouviere_sharp, star_dk


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


# -- star_cf where unknown order-6 terms enter -----------------------------------

def _casimir_and_square(name, request):
    pair = _pair(name, request)
    C = invariant_subspace(pair, 2)[0]
    return pair, C, C * C


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_star_cf_warns_at_degrees_2_and_4(name, request):
    # an order-6 term of slot bidegree (2, 4) or (4, 2) reaches the product
    pair, C, C2 = _casimir_and_square(name, request)
    for f, g in ((C, C2), (C2, C)):
        with pytest.warns(TruncationWarning, match=f"degrees {f.degree()} and {g.degree()}"):
            star_cf(pair, f, g)


@pytest.mark.parametrize("name", [
    pytest.param("sl2", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "star_cf drops the unknown order-6 terms: rouviere_sharp - star_cf = -2048/189 "
        "at omega # omega^2 and at omega^2 # omega"))),
    pytest.param("sl3", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "star_cf drops the unknown order-6 terms: rouviere_sharp - star_cf = -160/3 "
        "at C2 # C2^2 and at C2^2 # C2"))),
])
def test_star_cf_matches_rouviere_sharp_at_degrees_2_and_4(name, request):
    pair, C, C2 = _casimir_and_square(name, request)
    with pytest.warns(TruncationWarning):
        product = star_cf(pair, C, C2)
    assert product == rouviere_sharp(pair, C, C2)


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

#: name -> jet of the Casimir operator; sl4/so(4), the ladder's largest pair, at jet 4
JETS = {"sl2": 6, "sl3": 6, "sl4": 4}


def standard_j(n, a):
    """log J_g = sum_n a_n tr_p (ad X)^(2n): J_g = det_p(sinh ad X / ad X), the Riemannian volume."""
    return a


@pytest.fixture(scope="module")
def casimir_operators(sl2_pair, omega):
    """name -> (pair, R, exp_coord_operator(pair, R, JETS[name])) for a quadratic Casimir R."""
    cases = {"sl2": (sl2_pair, omega)}
    for n in (3, 4):
        pair = sl_so(n)
        cases[f"sl{n}"] = (pair, killing_casimir(pair, "p"))
    return {name: (pair, R, exp_coord_operator(pair, R, JETS[name])) for name, (pair, R) in cases.items()}


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4"])
def test_exp_coord_casimir_is_the_laplace_beltrami_operator(casimir_operators, name):
    # The invariant operator of the Casimir is the Laplace-Beltrami operator
    # plus a constant; exp_coord_operator writes it conjugated by J^(1/2),
    # and it acts on half-densities only when J = J_g.
    pair, R, operator = casimir_operators[name]
    dp, jet = pair.dim_p, JETS[name]

    def through_jet(symbol):  # x-degree <= jet - 2, where the jet truncation does not reach
        return {m: c for m, c in symbol.terms.items() if sum(m[:dp]) <= jet - 2}

    expected = through_jet(laplace_beltrami_symbol(pair, R, jet, standard_j))
    assert any(sum(m[:dp]) == jet - 2 for m in expected)  # the oracle reaches the compared degree
    assert operator.terms == expected


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_composition_with_the_casimir_operator_is_rouviere_sharp(casimir_operators, name):
    # R -> D_R is an algebra isomorphism, so D_(P # R) = D_P o D_R; its symbol at
    # x = 0 is P # R.  D_R is exact through x-degree 6 - 2 = 4 = deg P.
    pair, R, operator = casimir_operators[name]
    P = R * R
    assert composition_symbol_at_origin(P, operator) == rouviere_sharp(pair, P, R).poly


# -- closed-form pairs: the Weyl algebra -------------------------------------------

def _unit(i, j):
    return [[int((a, b) == (i, j)) for b in range(3)] for a in range(3)]


def _ad_diag(m):  # sigma = Ad diag(1, -1, 1): E12 and E23 span p
    s = (1, -1, 1)
    return [[s[a] * m[a][b] * s[b] for b in range(3)] for a in range(3)]


@pytest.fixture(scope="module")
def h3():
    """The Heisenberg pair: p = span(u, v) = span(E12, E23), k = span(E13), central."""
    return pair_from_matrices("h3", ["u", "v", "z"], [_unit(0, 1), _unit(1, 2), _unit(0, 2)], _ad_diag)


@pytest.fixture(scope="module")
def n3d():
    """h3 with D = diag(1, -1, 1) adjoined to k: its invariants are the powers of uv."""
    D = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    return pair_from_matrices("n3D", ["D", "u", "v", "z"], [D, _unit(0, 1), _unit(1, 2), _unit(0, 2)], _ad_diag)


@pytest.mark.parametrize("c", [0, 1, Fraction(1, 3), -2])
def test_heisenberg_rouviere_is_the_moyal_product(h3, c):
    # k is central, so S(p)^k = S(p) and the product at lambda(E13) = c is Weyl's
    assert h3.adapted_names == ["u", "v", "z"]
    lam = Character(h3, [c])
    monomials = [BlockPolynomial(h3, "p", Poly.monomial(2, m)) for d in range(5) for m in monomials_of_degree(2, d)]
    for f, g in itertools.product(monomials, repeat=2):
        assert rouviere_sharp(h3, f, g, lam).poly == moyal(f.poly, g.poly, c)


@pytest.mark.parametrize("c", [1, Fraction(1, 3)])
def test_heisenberg_rouviere_values(h3, c):
    lam = Character(h3, [c])

    def mono(a, b, coeff=1):
        return BlockPolynomial(h3, "p", Poly.monomial(2, (a, b), coeff))

    u, v = mono(1, 0), mono(0, 1)
    assert rouviere_sharp(h3, u, v, lam) - rouviere_sharp(h3, v, u, lam) == BlockPolynomial.constant(h3, "p", c)
    expected = (mono(3, 3) + mono(2, 2, Fraction(3, 2) * c) + mono(1, 1, Fraction(-1, 2) * c ** 2)
                + mono(0, 0, Fraction(-1, 4) * c ** 3))
    assert rouviere_sharp(h3, mono(2, 1), mono(1, 2), lam) == expected


@pytest.mark.parametrize("c", [0, 1, Fraction(1, 3)])
def test_n3d_rouviere_is_the_moyal_product(n3d, c):
    # a solvable pair; at c = 0 this is E = 1, the plain product
    assert n3d.adapted_names == ["u", "v", "D", "z"]
    lam = Character(n3d, [0, c])
    powers = [BlockPolynomial(n3d, "p", Poly.monomial(2, (a, a))) for a in range(5)]
    assert [f.poly for f in invariant_subspace(n3d, 2)] == [powers[1].poly]
    for f, g in itertools.product(powers, repeat=2):
        assert rouviere_sharp(n3d, f, g, lam).poly == moyal(f.poly, g.poly, c)


def test_non_unimodular_rouviere_is_the_moyal_product():
    """n3D with w adjoined to k, [D, w] = w: tr_k = (1, 0, 0) is not 0, yet
    at every lambda(D), with lambda(w) = 0, the product of the powers of uv
    is Moyal's at c = lambda(z), and Duflo's relation holds at degree 3."""
    alg = LieAlgebraDef("n3Dw", ["u", "v", "D", "z", "w"],
                        {(0, 1): {3: 1}, (0, 2): {0: -1}, (1, 2): {1: 1}, (2, 4): {4: 1}})
    pair = SymmetricPair(alg, [[(-1 if i < 2 else 1) * (i == j) for j in range(5)] for i in range(5)])
    assert pair.adapted_names == ["u", "v", "D", "z", "w"]
    assert pair.trk_character().values == (1, 0, 0)
    powers = [BlockPolynomial(pair, "p", Poly.monomial(2, (a, a))) for a in range(3)]
    assert [f.poly for f in invariant_subspace(pair, 2)] == [powers[1].poly]
    for d, c in itertools.product([0, Fraction(1, 2), 1, 3], [0, 1, Fraction(1, 3)]):
        lam = Character(pair, [d, c, 0])
        for f, g in itertools.product(powers, repeat=2):
            assert rouviere_sharp(pair, f, g, lam).poly == moyal(f.poly, g.poly, c)
        assert duflo_relation_check(pair, lam, 3)


# -- closed-form pairs: E = 1 on solvable pairs --------------------------------------

@pytest.mark.parametrize("name", ["solvable4", "aff1_coad"])
def test_solvable_rouviere_is_the_plain_product(name, request):
    """Rouviere's E = 1 on solvable pairs: at lambda = 0, tr_k / 2 and tr_k the
    product of invariants of degree 1 to 4 is the pointwise one."""
    if name == "aff1_coad":
        pair = coadjoint_semidirect(LieAlgebraDef("aff1", ["a", "b"], {(0, 1): {1: 1}}))
    else:
        pair = request.getfixturevalue("solvable_pair")
    invariants = [f for d in range(1, 5) for f in invariant_subspace(pair, d)]
    trk = pair.trk_character()
    for lam in (pair.zero_character(), trk.scale(Fraction(1, 2)), trk):
        for f, g in itertools.product(invariants, repeat=2):
            assert rouviere_sharp(pair, f, g, lam) == f * g


# the three non-trivial diagonal involutions of n4 = span(x1..x4), [x1, x2] = x3, [x1, x3] = x4,
# each with its number of invariants of degree 1 to 4
N4_GRADINGS = [((1, -1, -1, -1), 8), ((-1, 1, -1, 1), 4), ((-1, -1, 1, -1), 14)]


@pytest.mark.parametrize("signs, count", N4_GRADINGS,
                         ids=["".join("+-"[s < 0] for s in g) for g, _ in N4_GRADINGS])
def test_n4_gradings_rouviere_is_the_plain_product(signs, count):
    """E = 1 on the filiform n4 under each grading: at lambda = 0 and at each
    unit character, `rouviere_sharp` of invariants of degree 1 to 4 is f * g
    for degree sums <= 6, `star_cf` is for sums <= 5, and Duflo's relation holds."""
    alg = LieAlgebraDef("n4", ["x1", "x2", "x3", "x4"], {(0, 1): {2: 1}, (0, 2): {3: 1}})
    pair = SymmetricPair(alg, [[s * (i == j) for j in range(4)] for i, s in enumerate(signs)])
    assert pair.trk_character().is_zero()
    invariants = [f for d in range(1, 5) for f in invariant_subspace(pair, d)]
    assert len(invariants) == count
    units = [util.unit_vec(pair.dim_k, a) for a in range(pair.dim_k)]
    for lam in [pair.zero_character()] + [Character(pair, u) for u in units]:
        for f, g in itertools.product(invariants, repeat=2):
            if f.degree() + g.degree() <= 6:
                assert rouviere_sharp(pair, f, g, lam) == f * g
            if f.degree() + g.degree() <= 5:
                assert star_cf(pair, f, g, lam) == f * g
        assert duflo_relation_check(pair, lam, 3)
