import contextlib
import itertools
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from sympair import util
from sympair.errors import NotPolarization, NotSigmaStable, OrderTooHigh, TruncationWarning
from sympair.io import load_algebra_file
from sympair.liealg import Character, LieAlgebraDef, PolarizationCandidate, coadjoint_semidirect, sl_so
from sympair.poly import Poly, poly_exp
from sympair.polyops import BlockPolynomial, apply_series_operator, invariant_subspace
from sympair.series import TraceSeries, density_series, log_density
from sympair.starprod import (
    character_sigma_stable,
    exp_coord_operator,
    h_component,
    ln_e_scalar,
    star_cf,
    wheel_factor_A,
    wheel_factor_B,
)
from sympair.uea import PBWContext, beta, pbw_multiply, project_mod_k_lambda, rouviere_sharp, star_dk

from conftest import (
    coadjoint_orbit_point,
    ln_e_symbol_reference,
    random_block_poly,
    random_p_vector,
    swap_letters,
    sym_factorize_reference,
)

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


# -- the k-valued component ---------------------------------------------------

def test_h_component_order2():
    h = h_component(2)
    assert h.terms == {(0, 1): Fraction(1, 2)}


def test_h_component_order4_matches_bracket_data():
    from sympair.freelie import FreeAssocSeries, expand_bracket
    from sympair.starprod import H_TERMS
    expected = FreeAssocSeries(4)
    for c, b in H_TERMS:
        expected = expected + expand_bracket(b, 4).scale(c)
    assert h_component(4).to_assoc() == expected


def test_h_component_swap_antisymmetry():
    h = h_component(4)
    assert swap_letters(h) == h.scale(-1)


def test_h_component_order_cap():
    with pytest.raises(OrderTooHigh):
        h_component(6)


# -- the scalar logarithm -----------------------------------------------------

def test_ln_e_solvable_zero(solvable_pair):
    rng = random.Random(3)
    for _ in range(6):
        X = random_p_vector(solvable_pair, rng)
        Y = random_p_vector(solvable_pair, rng)
        assert ln_e_scalar(solvable_pair, X, Y) == 0


def test_ln_e_heisenberg_zero(heisenberg_pair):
    rng = random.Random(5)
    for _ in range(4):
        X = random_p_vector(heisenberg_pair, rng)
        Y = random_p_vector(heisenberg_pair, rng)
        assert ln_e_scalar(heisenberg_pair, X, Y) == 0


def test_ln_e_diagonal_zero(diagonal_pair):
    rng = random.Random(7)
    for _ in range(6):
        X = random_p_vector(diagonal_pair, rng)
        Y = random_p_vector(diagonal_pair, rng)
        assert ln_e_scalar(diagonal_pair, X, Y) == 0


def test_ln_e_at_proportional_arguments(sl2_pair):
    rng = random.Random(9)
    for _ in range(5):
        X = random_p_vector(sl2_pair, rng)
        assert ln_e_scalar(sl2_pair, X, X) == 0
        assert ln_e_scalar(sl2_pair, X, util.vec_scale(-1, X)) == 0


def test_ln_e_sl2_value(sl2_pair):
    X = sl2_pair.to_adapted(util.vec([1, 0, 0]))
    Y = sl2_pair.to_adapted(util.vec([0, 1, 1]))
    assert ln_e_scalar(sl2_pair, X, Y) == Fraction(32, 240)


def test_ln_e_nilpotent_brackets(solvable_pair, heisenberg_pair):
    # vanishes whenever ad[X,Y] is nilpotent for all X, Y in p
    for pair in (solvable_pair, heisenberg_pair):
        rng = random.Random(11)
        for _ in range(5):
            assert ln_e_scalar(pair, random_p_vector(pair, rng), random_p_vector(pair, rng)) == 0


# -- the product ----------------------------------------------------------------

def test_star_cf_unit(sl2_pair, omega):
    one = BlockPolynomial.constant(sl2_pair, "p", 1)
    assert star_cf(sl2_pair, one, omega) == omega
    assert star_cf(sl2_pair, omega, one) == omega


def test_star_cf_sl2_omega(sl2_pair, omega):
    res = star_cf(sl2_pair, omega, omega)
    assert res == omega * omega + BlockPolynomial.constant(sl2_pair, "p", Fraction(16, 15))


def test_star_cf_matches_rouviere_independent_paths(sl2_pair, omega):
    assert star_cf(sl2_pair, omega, omega) == rouviere_sharp(sl2_pair, omega, omega)


def test_star_cf_solvable_pointwise(solvable_pair):
    basis = []
    for d in range(5):
        basis.extend(invariant_subspace(solvable_pair, d))
    for P in basis:
        for Q in basis:
            if P.degree() >= 3 and Q.degree() >= 3:
                continue
            truncated = min(P.degree(), Q.degree()) >= 1 and P.degree() + Q.degree() >= 6
            with pytest.warns(TruncationWarning) if truncated else contextlib.nullcontext():
                assert star_cf(solvable_pair, P, Q) == P * Q


def test_star_cf_symmetry_at_zero(sl2_pair, solvable_pair):
    for pair in (sl2_pair, solvable_pair):
        basis = []
        for d in range(3):
            basis.extend(invariant_subspace(pair, d))
        for P in basis:
            for Q in basis:
                assert star_cf(pair, P, Q) == star_cf(pair, Q, P)


def test_star_cf_lambda_shift_invariance(sl2_pair, solvable_pair):
    for pair in (sl2_pair, solvable_pair):
        trk = pair.trk_character()
        basis = []
        for d in range(3):
            basis.extend(invariant_subspace(pair, d))
        for z in (Fraction(1), Fraction(1, 2)):
            lam = trk.scale(z)
            for P in basis:
                for Q in basis:
                    assert star_cf(pair, P, Q, lam) == star_cf(pair, P, Q)


def test_bidiff_symbol_lambda_twist_and_swap(solvable_pair, sl2_pair):
    """E_lambda(X, Y) = E_{-lambda}(Y, X) at the symbol level, twist nonzero."""
    from sympair.starprod import _bidiff_symbol
    for pair, lam in ((solvable_pair, Character(solvable_pair, [Fraction(1)])),
                      (sl2_pair, Character(sl2_pair, [Fraction(2)]))):
        sym = _bidiff_symbol(pair, lam)
        assert sym != _bidiff_symbol(pair, pair.zero_character())
        swapped = _bidiff_symbol(pair, lam.scale(-1))
        dp = pair.dim_p
        assert sym.subs([Poly.var(2 * dp, (t + dp) % (2 * dp)) for t in range(2 * dp)]) == swapped


def _nonzero_character(pair):
    """A nonzero character (a form on k vanishing on [k, k]), or None if k = [k, k]."""
    k = pair.block_indices("k")
    rows = [list(pair.adapted.bracket_basis(a, b)[pair.dim_p:]) for a in k for b in k if a < b]
    null = util.nullspace(rows, pair.dim_k)
    return Character(pair, null[0]) if null else None


@pytest.mark.parametrize("name", sorted(path.stem for path in ALGEBRAS.glob("*.json")) + ["sl3", "sl4"])
def test_bidiff_symbol_matches_ln_e_reference(name):
    """exp(lambda(H) + ln E) with ln E from the dense-loop oracle, every character kind."""
    from sympair.starprod import _bidiff_symbol
    if name in ("sl3", "sl4"):
        pair = sl_so(int(name[2]))
    else:
        pair = load_algebra_file(str(ALGEBRAS / f"{name}.json"))[0]
    dp = pair.dim_p
    Xs = pair.symbolic_vector("p", 2 * dp, 0)
    Ys = pair.symbolic_vector("p", 2 * dp, dp)
    hval = h_component(4).evaluate_poly(pair, Xs, Ys)
    ln_e = ln_e_symbol_reference(pair)
    lams = [pair.zero_character(), pair.trk_character(), _nonzero_character(pair)]
    for lam in filter(None, lams):
        log_sym = sum((hval[i].scale(lam.values[i - dp]) for i in pair.block_indices("k")), ln_e)
        assert _bidiff_symbol(pair, lam) == poly_exp(log_sym.truncate(4), 4)


def test_star_cf_truncation_warning(sl2_pair, omega):
    cube = omega * omega * omega
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        star_cf(sl2_pair, cube, cube)
    assert any(issubclass(w.category, TruncationWarning) for w in rec)


def test_bridge_identity_to_uea(sl2_pair, omega):
    """The product transported by beta(d_J f) agrees with the E-route."""
    ctx = PBWContext(sl2_pair)
    lam0 = sl2_pair.zero_character()
    jh = density_series("J_half", 4)
    basis = [BlockPolynomial.constant(sl2_pair, "p", 1), omega]
    for f in basis:
        for g in basis:
            prod = star_cf(sl2_pair, f, g)
            lhs = beta(ctx, apply_series_operator(sl2_pair, jh, prod).to_g())
            u = beta(ctx, apply_series_operator(sl2_pair, jh, f).to_g())
            v = beta(ctx, apply_series_operator(sl2_pair, jh, g).to_g())
            rhs = pbw_multiply(u, v)
            assert project_mod_k_lambda(ctx, lhs - rhs, lam0).poly.is_zero()


# -- wheel factors ----------------------------------------------------------------

def test_wheel_factor_B_is_one(sl2_pair):
    assert wheel_factor_B(6) == TraceSeries.constant(6, 1)


def test_wheel_factor_A_abelian(abelian_pair):
    A = wheel_factor_A(6)
    assert A.as_polynomial(abelian_pair, "p") == Poly.const(2, 1)


@pytest.mark.parametrize("fixture", ["sl2_pair", "solvable_pair", "diagonal_pair"])
def test_AJ_equals_q_identity(fixture, request):
    pair = request.getfixturevalue(fixture)
    A = wheel_factor_A(6)
    lhs = (A * density_series("J_half", 6)).as_polynomial(pair, "p")
    rhs = density_series("q_half", 6).as_polynomial(pair, "p")
    assert lhs == rhs


def test_wheel_factor_A_division_oracle(sl2_pair):
    # independent route: divide the compiled polynomials on p
    A = wheel_factor_A(6).as_polynomial(sl2_pair, "p")
    qh = density_series("q_half", 6).as_polynomial(sl2_pair, "p")
    jh_inv = density_series("J_half", 6).inverse().as_polynomial(sl2_pair, "p")
    assert A == qh.mul(jh_inv, 6).truncate(6)


def test_log_A_order2_coefficient(sl2_pair):
    # log A = log q_half - log J_half; on p the order-2 part is -(1/24) tr_p
    logA = log_density("q_half", 2) - log_density("J_half", 2)
    poly = logA.as_polynomial(sl2_pair, "p")
    tr2 = TraceSeries.word(2, "p", 2).as_polynomial(sl2_pair, "p")
    assert poly == tr2.scale(Fraction(-1, 24))


# -- exponential-coordinate operators ---------------------------------------------

def test_exp_coord_unit(sl2_pair, abelian_pair):
    for pair in (sl2_pair, abelian_pair):
        one = BlockPolynomial.constant(pair, "p", 1)
        sym = exp_coord_operator(pair, one, 3)
        assert sym == Poly.const(2 * pair.dim_p, 1)


def test_exp_coord_abelian_translation(abelian_pair):
    rng = random.Random(13)
    R = random_block_poly(abelian_pair, "p", 3, rng)
    sym = exp_coord_operator(abelian_pair, R, 4)
    # constant-coefficient operator: symbol is R in the xi block, no x dependence
    dp = abelian_pair.dim_p
    expected = R.poly.subs([Poly.var(2 * dp, dp + t) for t in range(dp)])
    assert sym == expected


def test_exp_coord_truncation_guard(sl2_pair, omega):
    from sympair.errors import TruncationTooLow
    with pytest.raises(TruncationTooLow):
        exp_coord_operator(sl2_pair, omega * omega, 3)


def test_exp_coord_concrete_point(sl2_pair, omega):
    sym = exp_coord_operator(sl2_pair, omega, 4)
    at = exp_coord_operator(sl2_pair, omega, 4, X=(Fraction(1), Fraction(0)))
    dp = sl2_pair.dim_p
    images = [Poly.const(dp, Fraction(1)), Poly.const(dp, Fraction(0))]
    images += [Poly.var(dp, t) for t in range(dp)]
    assert at == sym.subs(images)
    # the same X as an adapted vector of g, with k-part 0
    assert exp_coord_operator(sl2_pair, omega, 4, X=(1, 0, 0)) == at


@pytest.mark.parametrize("X", [(1, 0, 5), (1,)], ids=["k-component", "too-short"])
def test_exp_coord_rejects_an_X_outside_p(sl2_pair, omega, X):
    with pytest.raises(ValueError, match=r"X = \(1"):
        exp_coord_operator(sl2_pair, omega, 4, X=X)


def test_exp_coord_at_origin_beyond_order_eight(sl2_pair, omega):
    # the exponential at jet 7 runs through total order jet + deg R = 9
    at = exp_coord_operator(sl2_pair, omega, 7, X=(Fraction(0), Fraction(0)))
    assert at == omega.poly


@pytest.mark.parametrize("call, count", [
    (lambda pair, omega: exp_coord_operator(pair, omega, 5), 1),
    (lambda pair, omega: rouviere_sharp(pair, omega, omega), 2),
    (lambda pair, omega: star_dk(pair, omega, omega), 2),
], ids=["exp_coord_operator", "rouviere_sharp", "star_dk"])
def test_exp_coord_compiles_two_series(sl2_pair, omega, monkeypatch, call, count):
    """exp_coord_operator compiles one series, the logarithm of J^(1/2); each
    product compiles a density series and its inverse, each once per call."""
    compiled = []
    original = TraceSeries.as_polynomial

    def counting(series, pair, over):
        compiled.append(series)
        return original(series, pair, over)

    monkeypatch.setattr(TraceSeries, "as_polynomial", counting)
    call(sl2_pair, omega)
    assert len(compiled) == count and all(a != b for a, b in itertools.combinations(compiled, 2))


def _exp_coord_cases(pair, seed):
    """(R, jet): R a random combination of the invariants of every degree <= d, the
    constant included, for each d in 0..4 where invariants exist, at jets d (at least 1)
    and d + 1."""
    rng = random.Random(seed)
    R = BlockPolynomial.zero(pair, "p")
    for d in range(5):
        basis = invariant_subspace(pair, d)
        if basis:
            R = sum((b.scale(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))) for b in basis), R)
            for jet in sorted({max(d, 1), d + 1}):
                yield R, jet


EXP_COORD_PAIRS = ["aff1_coad", "diagonal_pair", "sl2_pair", "solvable_pair"]


def _exp_coord_pair(name, request):
    if name == "aff1_coad":
        return coadjoint_semidirect(LieAlgebraDef("aff1", ["a", "b"], {(0, 1): {1: 1}}))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", EXP_COORD_PAIRS)
def test_exp_coord_returns_only_its_exact_jet(name, request):
    pair = _exp_coord_pair(name, request)
    for R, jet in _exp_coord_cases(pair, 5):
        sym = exp_coord_operator(pair, R, jet)
        assert sym and all(sum(m[:pair.dim_p]) <= jet - R.degree() for m in sym.terms)


@pytest.mark.parametrize("name", EXP_COORD_PAIRS)
def test_exp_coord_jet_is_unchanged_by_a_higher_jet(name, request):
    """The terms returned at a jet are exact: two more orders of Z leave them alone."""
    pair = _exp_coord_pair(name, request)
    for R, jet in _exp_coord_cases(pair, 6):
        higher = exp_coord_operator(pair, R, jet + 2)
        kept = {m: c for m, c in higher.terms.items() if sum(m[:pair.dim_p]) <= jet - R.degree()}
        assert exp_coord_operator(pair, R, jet).terms == kept


@pytest.mark.parametrize("name", ["diagonal_pair", "solvable_pair"])
def test_exp_coord_forms_only_its_exact_jet(name, request, monkeypatch):
    """Its exponential forms no term of x-degree above jet - deg R or of y-degree above deg R."""
    pair = request.getfixturevalue(name)
    R, jet = next((R, jet) for R, jet in _exp_coord_cases(pair, 7) if 2 <= R.degree() < jet)
    dp = pair.dim_p
    formed = []
    original = util.power_sum

    def recording(u, weight, unit, *rest):
        out = original(u, weight, unit, *rest)
        if unit == (0,) * (3 * dp):  # the exponential, not a density series
            formed.extend(out)
        return out

    monkeypatch.setattr(util, "power_sum", recording)
    exp_coord_operator(pair, R, jet)
    assert formed and all(sum(m[:dp]) <= jet - R.degree() and sum(m[2 * dp:]) <= R.degree() for m in formed)


def test_exp_coord_sl2_against_uea_factorization_oracle(sl2_pair, omega):
    """Independent oracle: move J^(1/2)(Y) onto R by adjunction and use the
    group-factorization series of the per-degree solver instead of z_sym."""
    from sympair.poly import poly_exp

    jet = 4
    main = exp_coord_operator(sl2_pair, omega, jet)

    dp = sl2_pair.dim_p
    nv = 3 * dp
    xs = sl2_pair.symbolic_vector("p", nv, 0)
    ys = sl2_pair.symbolic_vector("p", nv, 2 * dp)
    P, _ = sym_factorize_reference(jet)
    Z = P.evaluate_poly(sl2_pair, xs, ys)
    cap = jet + omega.degree()
    jh = density_series("J_half", 6)
    pref = jh.as_polynomial(sl2_pair, "p").subs(xs[:dp], cap)
    pref = pref.mul(jh.inverse().as_polynomial(sl2_pair, "p").subs(Z[:dp], cap), cap)
    pairing = Poly.zero(nv)
    for t, i in enumerate(sl2_pair.block_indices("p")):
        delta = Z[i] - Poly.var(nv, t)
        if not delta.is_zero():
            pairing = pairing + delta.mul(Poly.var(nv, dp + t))
    total = pref.mul(poly_exp(pairing.truncate(cap), cap), cap)
    DR = apply_series_operator(sl2_pair, jh, omega)
    oracle = Poly.zero(2 * dp)
    for mono, c in DR.poly.terms.items():
        d = total.diff_mono((0,) * (2 * dp) + mono)
        for m, cc in d.terms.items():
            if any(m[2 * dp + t] for t in range(dp)):
                continue
            oracle = oracle + Poly(2 * dp, {m[: 2 * dp]: c * cc})

    keep = lambda p: {m: c for m, c in p.terms.items() if sum(m[:dp]) <= 2}
    assert keep(main) == keep(oracle)


# -- characters -------------------------------------------------------------------

def heis_data(pair):
    z_idx = pair.adapted_names.index("z")
    f = [Fraction(0)] * 3
    f[z_idx] = Fraction(1)
    b = PolarizationCandidate(tuple(f), [
        pair.to_adapted(util.vec([1, 1, 0])),   # x + y
        pair.to_adapted(util.vec([0, 0, 1])),   # z
    ])
    Pz = BlockPolynomial(pair, "p", Poly.var(2, z_idx))
    return tuple(f), b, Pz


def test_character_unit(heisenberg_pair):
    _, b, _ = heis_data(heisenberg_pair)
    one = BlockPolynomial.constant(heisenberg_pair, "p", 1)
    assert character_sigma_stable(heisenberg_pair, one, b) == 1


def test_character_values_and_multiplicativity(heisenberg_pair):
    _, b, Pz = heis_data(heisenberg_pair)
    chi_z = character_sigma_stable(heisenberg_pair, Pz, b)
    assert chi_z == 1
    prod = star_cf(heisenberg_pair, Pz, Pz)
    assert prod == Pz * Pz  # nilpotent pair: product is pointwise
    chi_prod = character_sigma_stable(heisenberg_pair, prod, b)
    assert chi_prod == chi_z * chi_z


def test_character_rejects_non_sigma_stable(heisenberg_pair):
    f, _, Pz = heis_data(heisenberg_pair)
    bad = PolarizationCandidate(f, [
        heisenberg_pair.to_adapted(util.vec([1, 0, 0])),  # x alone: swapped by sigma
        heisenberg_pair.to_adapted(util.vec([0, 0, 1])),
    ])
    with pytest.raises(NotSigmaStable):
        character_sigma_stable(heisenberg_pair, Pz, bad)


def test_character_rejects_non_polarization(heisenberg_pair):
    f, _, Pz = heis_data(heisenberg_pair)
    small = PolarizationCandidate(f, [heisenberg_pair.to_adapted(util.vec([0, 0, 1]))])
    with pytest.raises(NotPolarization):
        character_sigma_stable(heisenberg_pair, Pz, small)


def test_character_rejects_forms_of_the_wrong_length(heisenberg_pair):
    _, _, Pz = heis_data(heisenberg_pair)
    with pytest.raises(ValueError, match=r"f = \(0, 1\) and each b vector need 3 coordinates"):
        character_sigma_stable(heisenberg_pair, Pz, PolarizationCandidate([0, 1], [[0, 0, 1]]))
    with pytest.raises(ValueError, match="need 3 coordinates"):
        character_sigma_stable(heisenberg_pair, Pz, PolarizationCandidate([0, 0, 1], [[0, 1]]))


def test_character_constant_on_orbit(heisenberg_pair, solvable_pair):
    # evaluation of an invariant agrees at f and at exp(ad K)* f
    rng = random.Random(17)
    for pair in (heisenberg_pair, solvable_pair):
        basis = []
        for d in range(4):
            basis.extend(invariant_subspace(pair, d))
        for _ in range(4):
            f = [Fraction(0)] * pair.dim
            for i in range(pair.dim_p):
                f[i] = Fraction(rng.randint(-2, 2))
            K = [Fraction(0)] * pair.dim
            for i in range(pair.dim_p, pair.dim):
                K[i] = Fraction(rng.randint(-2, 2))
            moved = coadjoint_orbit_point(pair, tuple(K), tuple(f))
            for P in basis:
                before = P.evaluate([f[i] for i in pair.block_indices("p")])
                after = P.evaluate([moved[i] for i in pair.block_indices("p")])
                assert before == after


def test_solvable_pair_has_no_sigma_stable_polarization(solvable_pair):
    """Exhaustive check at f = z*: sigma-stable subspaces split as
    (b & k) + (b & p), and neither split admits an isotropic subalgebra of
    the polarization dimension 3."""
    from sympair.liealg import polarization_check as check
    import itertools as it
    alg = solvable_pair.adapted
    z_idx = solvable_pair.adapted_names.index("z")
    f = tuple(Fraction(1 if i == z_idx else 0) for i in range(4))
    found = []
    vecs_p = [util.vec(v + (0,)) for v in it.product((-1, 0, 1), repeat=3) if any(v)]
    k_vec = util.vec([0, 0, 0, 1])
    # case b = (2-dim of p) + k
    for a, b in it.combinations(vecs_p, 2):
        if util.rank([list(a), list(b)]) != 2:
            continue
        rep = check(alg, PolarizationCandidate(f, [a, b, k_vec]))
        if rep.is_polarization:
            found.append((a, b, "with-k"))
    # case b = 3-dim inside p
    rep = check(alg, PolarizationCandidate(f, vecs_p[:1] + [util.vec([0,1,0,0]), util.vec([0,0,1,0])]))
    assert not rep.is_subalgebra and not rep.is_polarization  # p itself is not a subalgebra
    assert found == []


def test_star_cf_requires_invariance(sl2_pair):
    from sympair.errors import NotInvariant
    bad = BlockPolynomial(sl2_pair, "p", Poly(2, {(1, 0): 1}))
    with pytest.raises(NotInvariant):
        star_cf(sl2_pair, bad, bad)
