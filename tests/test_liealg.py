import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sympair import util
from sympair.errors import JacobiViolation, NotAutomorphism, NotCartanSplit, NotInvolution
from sympair.freelie import evaluate_bracket
from sympair.io import load_algebra_file
from sympair.liealg import (
    LieAlgebraDef,
    PolarizationCandidate,
    build_symmetric_pair,
    nilradical_solvable,
    polarization_check,
    sl_so,
    stabilizer,
    trace_alternation,
    trace_word,
)

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def file_pairs():
    return [load_algebra_file(str(path))[0] for path in sorted(ALGEBRAS.glob("*.json"))]


def test_jacobi_violation_reports_witness():
    with pytest.raises(JacobiViolation) as exc:
        LieAlgebraDef("bad", ["a", "b", "c"], {(0, 1): {0: 1}, (0, 2): {2: 1}, (1, 2): {2: 1}})
    assert len(exc.value.triple) == 3


def test_sigma_must_be_involution(sl2_pair):
    alg = sl2_pair.algebra
    with pytest.raises(NotInvolution) as exc:
        build_symmetric_pair(alg, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (exc.value.vector, exc.value.defect) == ("H", (3, 0, 0))


def test_sigma_must_be_automorphism(sl2_pair):
    alg = sl2_pair.algebra
    # diag(-1, 1, 1) squares to 1 but breaks [H, X] = 2X
    with pytest.raises(NotAutomorphism) as exc:
        build_symmetric_pair(alg, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (exc.value.pair, exc.value.defect) == (("H", "X"), (0, 4, 0))


def test_sigma_must_be_automorphism_with_adapted_basis(sl2_pair):
    alg = sl2_pair.algebra
    sigma = [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # eigenvectors of sigma forming a basis, so only the automorphism check can fail:
    # [H, X+Y] = 2(X-Y) lies in k, where sigma would need it in p
    with pytest.raises(NotAutomorphism) as exc:
        build_symmetric_pair(alg, sigma, adapted=([[1, 0, 0]], [[0, 1, 1], [0, 1, -1]]))
    assert (exc.value.pair, exc.value.defect) == (("H", "X+Y"), (0, 0, 4))
    # a basis that is not made of eigenvectors is reported first
    with pytest.raises(NotCartanSplit):
        build_symmetric_pair(alg, sigma, adapted=([[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]))


def test_sl2_split(sl2_pair):
    assert sl2_pair.adapted_names == ["H", "X+Y", "X-Y"]
    assert sl2_pair.dim_p == 2 and sl2_pair.dim_k == 1


def test_solvable_split(solvable_pair):
    assert sl2_names(solvable_pair) == (["t", "x-y", "z"], ["x+y"])


def sl2_names(pair):
    return (pair.adapted_names[: pair.dim_p], pair.adapted_names[pair.dim_p :])


def test_abelian_minus_identity_split():
    alg = LieAlgebraDef("ab5", list("abcde"), {})
    sigma = [[-1 if i == j else 0 for j in range(5)] for i in range(5)]
    pair = build_symmetric_pair(alg, sigma)
    assert pair.dim_k == 0 and pair.dim_p == 5


def test_user_adapted_basis_validated(sl2_pair):
    alg = sl2_pair.algebra
    sigma = [[-1, 0, 0], [0, 0, -1], [0, -1, 0]]
    pair = build_symmetric_pair(alg, sigma, adapted=([[1, 0, 0], [0, 1, 1]], [[0, 1, -1]]))
    assert pair.dim_p == 2
    with pytest.raises(NotCartanSplit):
        build_symmetric_pair(alg, sigma, adapted=([[1, 0, 0], [0, 1, -1]], [[0, 1, 1]]))


# -- rebased structure constants ------------------------------------------------

def test_rebased_random_basis_is_a_lie_algebra():
    rng = random.Random(23)
    for pair in file_pairs():
        alg = pair.algebra
        n = alg.dim
        vectors = []
        while util.rank(vectors or [[0] * n]) < n:
            vectors = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        new = alg.rebased(vectors)
        for i, j in itertools.product(range(n), repeat=2):
            w = new.bracket_basis(i, j)
            combo = [sum((w[t] * vectors[t][s] for t in range(n)), Fraction(0)) for s in range(n)]
            assert tuple(combo) == alg.bracket(util.vec(vectors[i]), util.vec(vectors[j]))
        # validation on: the rebased constants pass the Jacobi check
        LieAlgebraDef(new.name, new.basis,
                      {key: dict(new.bracket_terms(*key)) for key in itertools.combinations(range(n), 2)})


def _bracket_tables():
    """Every fixture's table and its adapted one, sl3/so(3), sl4/so(4), and a random rebasing."""
    pairs = file_pairs() + [sl_so(3), sl_so(4)]
    tables = [t for pair in pairs for t in (pair.algebra, pair.adapted)]
    alg = pairs[-2].algebra
    rng = random.Random(5)
    vectors = [[0]]
    while util.rank(vectors) < alg.dim:
        vectors = [[Fraction(rng.randint(-1, 1)) for _ in range(alg.dim)] for _ in range(alg.dim)]
    return pairs, tables + [alg.rebased(vectors)]


def test_bracket_terms_is_one_sparse_antisymmetric_table():
    pairs, tables = _bracket_tables()
    for alg in tables:
        n = alg.dim
        for i, j in itertools.product(range(n), repeat=2):
            terms = alg.bracket_terms(i, j)
            assert [t for t, _ in terms] == sorted({t for t, _ in terms}) and all(c for _, c in terms)
            assert alg.bracket_terms(j, i) == tuple((t, -c) for t, c in terms)
            dense = [Fraction(0)] * n
            for t, c in terms:
                dense[t] = c
            assert tuple(dense) == alg.bracket_basis(i, j) == alg.bracket(util.unit_vec(n, i), util.unit_vec(n, j))
    for pair in pairs:
        for i, j in itertools.product(range(pair.dim), repeat=2):
            w = pair.bracket_adapted(i, j)
            assert isinstance(w, tuple) and len(w) == pair.dim and w == pair.adapted.bracket_basis(i, j)


def test_rebased_rejects_dependent_and_non_closed_bases(sl2_pair):
    alg = sl2_pair.algebra
    with pytest.raises(ValueError):
        alg.rebased([[1, 0, 0], [2, 0, 0]])
    with pytest.raises(ValueError):
        alg.rebased([[0, 1, 0], [0, 0, 1]])  # [X, Y] = H escapes
    assert alg.rebased([[1, 0, 0], [0, 1, 0]]).bracket_basis(0, 1) == (0, 2)


def test_adapted_algebra_matches_adapted_brackets(sl2_pair, diagonal_pair, am_pair):
    for pair in file_pairs() + [sl2_pair, diagonal_pair, am_pair, sl_so(3)]:
        assert pair.adapted.basis == pair.adapted_names
        for i, j in itertools.product(range(pair.dim), repeat=2):
            w = pair.algebra.bracket(pair.adapted_vectors[i], pair.adapted_vectors[j])
            assert pair.adapted.bracket_basis(i, j) == pair.to_adapted(w)
            assert pair.adapted.bracket_basis(i, j) == pair.to_adapted(w)


# -- trace words --------------------------------------------------------------

def test_trace_word_sl2(sl2_pair):
    H = sl2_pair.to_adapted(util.vec([1, 0, 0]))
    # hand matrix oracle: ad H swaps the blocks; (ad H)^2 is diag(0, 4) on
    # the p basis (H, X+Y) and diag(4) on X-Y, so the block traces are
    # tr_p = 4, tr_k = 4, tr_g = 8.
    assert trace_word(sl2_pair, "p", [H, H]) == 4
    assert trace_word(sl2_pair, "k", [H, H]) == 4
    assert trace_word(sl2_pair, "g", [H, H]) == 8


def test_trace_word_brute_force_product(sl2_pair):
    rng = random.Random(5)
    for _ in range(10):
        word = []
        for _ in range(rng.randint(1, 4)):
            word.append(tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)))
        M = util.mat_identity(3)
        for w in word:
            M = util.mat_mul(M, sl2_pair.adapted.ad(w))
        for space in ("p", "k", "g"):
            assert trace_word(sl2_pair, space, word) == sl2_pair.block_trace(M, space)


def test_trace_empty_word_is_dimension(sl2_pair, solvable_pair):
    assert trace_word(sl2_pair, "p", []) == 2
    assert trace_word(solvable_pair, "g", []) == 4


def test_trace_nilpotent_zero(solvable_pair):
    z = solvable_pair.to_adapted(util.vec([0, 0, 0, 1]))
    assert trace_word(solvable_pair, "p", [z, z]) == 0
    assert trace_word(solvable_pair, "g", [z]) == 0


def test_block_trace_additivity_on_k(sl2_pair, diagonal_pair):
    for pair in (sl2_pair, diagonal_pair):
        for a in range(pair.dim_k):
            K = util.unit_vec(pair.dim, pair.dim_p + a)
            M = pair.adapted.ad(K)
            assert pair.block_trace(M, "g") == pair.block_trace(M, "p") + pair.block_trace(M, "k")
            # ad K preserves both blocks
            for i in pair.block_indices("p"):
                assert all(M[j][i] == 0 for j in pair.block_indices("k"))
            for i in pair.block_indices("k"):
                assert all(M[j][i] == 0 for j in pair.block_indices("p"))


def test_killing_invariance(sl2_pair, solvable_pair, diagonal_pair):
    for pair in (sl2_pair, solvable_pair, diagonal_pair):
        n = pair.dim
        for i, j, k in itertools.product(range(n), repeat=3):
            x, y, z = (util.unit_vec(n, t) for t in (i, j, k))
            lhs = pair.adapted.killing(pair.adapted.bracket(x, y), z)
            rhs = pair.adapted.killing(y, pair.adapted.bracket(x, z))
            assert lhs + rhs == 0


# -- alternation sums ----------------------------------------------------------

def test_alternation_solvable_vanishes(solvable_pair):
    rng = random.Random(11)
    for _ in range(8):
        X = tuple(Fraction(rng.randint(-2, 2)) if i < 3 else Fraction(0) for i in range(4))
        Y = tuple(Fraction(rng.randint(-2, 2)) if i < 3 else Fraction(0) for i in range(4))
        words = [rng.choice(["X", "Y", ("X", "Y")]) for _ in range(rng.randint(2, 4))]
        assert trace_alternation(solvable_pair, words, X, Y) == 0


def test_alternation_diagonal_length4(diagonal_pair):
    rng = random.Random(13)
    for _ in range(6):
        X = tuple(Fraction(rng.randint(-2, 2)) if i < 3 else Fraction(0) for i in range(6))
        Y = tuple(Fraction(rng.randint(-2, 2)) if i < 3 else Fraction(0) for i in range(6))
        assert trace_alternation(diagonal_pair, ["X", "Y", "X", "Y"], X, Y) == 0
        assert trace_alternation(diagonal_pair, [("X", "Y"), ("X", "Y")], X, Y) == 0


def test_alternation_sl2_killing_oracle(sl2_pair):
    # words ([X,Y],[X,Y]) equals b(W, W) with b = K_g - 2 K_k and W = [X,Y]
    X = sl2_pair.to_adapted(util.vec([1, 0, 0]))
    Y = sl2_pair.to_adapted(util.vec([0, 1, 1]))
    W = sl2_pair.adapted.bracket(X, Y)
    expected = sl2_pair.adapted.killing(W, W) - 2 * sl2_pair.killing_k(W, W)
    assert trace_alternation(sl2_pair, [("X", "Y"), ("X", "Y")], X, Y) == expected
    assert expected == -32


def test_alternation_am_pair_cycles(am_pair):
    # single 2n-cycles vanish in the anti-invariant quadratic pair
    rng = random.Random(17)
    for _ in range(5):
        X = tuple(Fraction(rng.randint(-2, 2)) if i < am_pair.dim_p else Fraction(0) for i in range(am_pair.dim))
        Y = tuple(Fraction(rng.randint(-2, 2)) if i < am_pair.dim_p else Fraction(0) for i in range(am_pair.dim))
        for n in (2, 4):
            words = ["X", "Y"] * (n // 2)
            assert trace_alternation(am_pair, words, X, Y) == 0


def test_alternation_order2_always_zero(sl2_pair, solvable_pair, diagonal_pair, am_pair):
    rng = random.Random(23)
    for pair in (sl2_pair, solvable_pair, diagonal_pair, am_pair):
        for _ in range(4):
            X = tuple(Fraction(rng.randint(-2, 2)) if i < pair.dim_p else Fraction(0) for i in range(pair.dim))
            Y = tuple(Fraction(rng.randint(-2, 2)) if i < pair.dim_p else Fraction(0) for i in range(pair.dim))
            assert trace_alternation(pair, ["X", "Y"], X, Y) == 0


# -- polarizations -------------------------------------------------------------

def heisenberg():
    return LieAlgebraDef("heis", ["x", "y", "z"], {(0, 1): {2: 1}})


def test_polarization_heisenberg_all_flags():
    rep = polarization_check(heisenberg(), PolarizationCandidate([0, 0, 1], [[0, 1, 0], [0, 0, 1]]))
    assert rep.is_subalgebra and rep.is_isotropic and rep.is_maximal_isotropic
    assert rep.pukanszky is True


def test_polarization_heisenberg_brute_force_maximality():
    # enumerate small-integer 2-planes: none beats the isotropic dimension
    alg = heisenberg()
    f = util.vec([0, 0, 1])
    target = Fraction(alg.dim + len(stabilizer(alg, f)), 2)
    assert target == 2
    vecs = [util.vec(v) for v in itertools.product((-1, 0, 1), repeat=3) if any(v)]
    for a, b in itertools.combinations(vecs, 2):
        if util.rank([list(a), list(b)]) != 2:
            continue
        rep = polarization_check(alg, PolarizationCandidate(f, [a, b]))
        assert not (rep.is_isotropic and rep.is_subalgebra and Fraction(2) > target)


def test_polarization_zero_form_full_algebra():
    alg = heisenberg()
    rep = polarization_check(alg, PolarizationCandidate([0, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert rep.is_polarization and rep.pukanszky is True


def test_polarization_sl2_borel():
    alg = LieAlgebraDef("sl2", ["H", "X", "Y"], {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    f = util.vec([1, 0, 0])  # H*
    rep = polarization_check(alg, PolarizationCandidate(f, [[1, 0, 0], [0, 1, 0]]))
    assert rep.is_subalgebra and rep.is_isotropic and rep.is_maximal_isotropic
    assert len(stabilizer(alg, f)) == 1  # g(f) = <H>, so (3+1)/2 = 2


def test_polarization_nonsolvable_pukanszky_unknown():
    alg = LieAlgebraDef("sl2", ["H", "X", "Y"], {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    rep = polarization_check(alg, PolarizationCandidate([0, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert rep.pukanszky is None


def test_nilradical_affine_pair():
    alg = LieAlgebraDef("aff2", ["t", "s", "x"], {(0, 2): {2: 1}, (1, 2): {2: 1}})
    basis = [util.unit_vec(3, 0), util.unit_vec(3, 1), util.unit_vec(3, 2)]
    nil = nilradical_solvable(alg, basis)
    # nilradical is <t - s, x>: t and s are separately non-nilpotent
    assert util.span_eq(nil, [util.vec([1, -1, 0]), util.vec([0, 0, 1])])


def test_nilradical_rotation_algebra():
    alg = LieAlgebraDef("e2", ["t", "x", "y"], {(0, 1): {2: 1}, (0, 2): {1: -1}})
    nil = nilradical_solvable(alg, [util.unit_vec(3, i) for i in range(3)])
    assert util.span_eq(nil, [util.unit_vec(3, 1), util.unit_vec(3, 2)])


def test_derived_words_are_nilpotent_solvable(solvable_pair):
    # any bracket word in p-elements lands in the derived part, where every
    # adjoint power is traceless on each block
    rng = random.Random(61)
    for _ in range(6):
        X = tuple(Fraction(rng.randint(-2, 2)) if i < 3 else Fraction(0) for i in range(4))
        Y = tuple(Fraction(rng.randint(-2, 2)) if i < 3 else Fraction(0) for i in range(4))
        w = evaluate_bracket(("X", ("X", "Y")), X, Y, solvable_pair.adapted.bracket, {})
        for n in range(1, 5):
            for space in ("p", "k", "g"):
                assert trace_word(solvable_pair, space, [w] * n) == 0
