"""Symmetric pairs built from matrices: `pair_from_matrices`, `sl_so`,
`group_type` and `coadjoint_semidirect`.

The generated pairs are compared with the copies they replace: the
benchmark's own sl(n)/so(n) generator (`perfbench/pairs.py`, read, not
changed) and the committed `algebras/sl2diag.json`.  The semidirect pairs
are compared with their definition, bracket by bracket.  The Iwasawa data
of sl(n)/so(n) is written out here, as only tests use it.
"""

import contextlib
import importlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import sl2_algebra

from sympair import LieAlgebraDef, coadjoint_semidirect, group_type, pair_from_matrices, sl_so, util
from sympair.errors import NotInvolution, TruncationWarning
from sympair.hc import IwasawaData, hc_restrict, validate_iwasawa, weyl_invariance_check
from sympair.io import load_algebra_file
from sympair.poly import Poly
from sympair.polyops import invariant_subspace
from sympair.starprod import star_cf
from sympair.uea import duflo_relation_check, rouviere_sharp

ROOT = Path(__file__).resolve().parent.parent
SL2 = [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]  # H, X = E12, Y = E21


def neg_transpose(m):
    return [[-c for c in col] for col in zip(*m)]


def pair_data(pair):
    """Everything a pair is built from: basis, structure constants, sigma and the adapted split."""
    alg = pair.algebra
    table = [[alg.bracket_terms(i, j) for j in range(alg.dim)] for i in range(alg.dim)]
    return alg.basis, table, pair.sigma, pair.adapted_names, pair.adapted_vectors, pair.dim_p


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_so_equals_the_benchmark_generator(monkeypatch, n):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench = importlib.import_module("pairs").sl_so_pair(n)
    pair = sl_so(n)
    assert pair.algebra.name == bench.algebra.name == f"sl{n}"
    assert pair_data(pair) == pair_data(bench)
    assert (pair.dim_p, pair.dim_k) == (n * (n + 1) // 2 - 1, n * (n - 1) // 2)


def test_group_type_of_sl2_equals_the_sl2diag_file():
    pair = group_type("sl2", ["H", "X", "Y"], SL2)
    from_file, _ = load_algebra_file(str(ROOT / "algebras" / "sl2diag.json"))
    assert pair_data(pair) == pair_data(from_file)
    assert (pair.algebra.name, from_file.algebra.name) == ("sl2x2", "sl2diag")


def test_pair_from_matrices_rejects_dependent_matrices():
    with pytest.raises(ValueError, match="twice: the matrices are linearly dependent"):
        pair_from_matrices("twice", ["X", "X2"], [SL2[1], [[0, 2], [0, 0]]], neg_transpose)


def test_pair_from_matrices_rejects_commutators_outside_the_span():
    # [E12, E21] = H is not in span{E12, E21}
    with pytest.raises(ValueError, match="no-H: a commutator or sigma-image leaves the span of the matrices"):
        pair_from_matrices("no-H", ["X", "Y"], SL2[1:], neg_transpose)


def test_pair_from_matrices_rejects_sigma_images_outside_the_span():
    # the Borel subalgebra span{H, E12} is closed, but -E12^T = -E21 is not in it
    with pytest.raises(ValueError, match="borel: a commutator or sigma-image leaves the span of the matrices"):
        pair_from_matrices("borel", ["H", "X"], SL2[:2], neg_transpose)


def test_pair_from_matrices_rejects_a_non_involution():
    with pytest.raises(NotInvolution, match="basis vector 'H': defect"):
        pair_from_matrices("sl2", ["H", "X", "Y"], SL2, lambda m: [[2 * c for c in row] for row in m])


# -- the coadjoint semidirect pair g + g* -------------------------------------

AFF1 = LieAlgebraDef("aff1", ["a", "b"], {(0, 1): {1: 1}})  # [a, b] = b
R3 = LieAlgebraDef("r3", ["a", "b", "c"], {(0, 1): {1: 1}, (0, 2): {2: 2}})  # [a, b] = b, [a, c] = 2c


@pytest.mark.parametrize("base", [sl2_algebra(), AFF1, R3], ids=lambda base: base.name)
def test_coadjoint_semidirect_follows_its_definition(base):
    """[e_i, e_j] is g's bracket, [e_i, f_j] = -sum_t c_it^j f_t, [f_i, f_j] = 0, sigma = (+1, -1)."""
    pair, n = coadjoint_semidirect(base), base.dim
    alg = pair.algebra
    assert (alg.name, alg.basis) == (base.name + "_coad", base.basis + [s + "*" for s in base.basis])
    for i, j in itertools.product(range(n), repeat=2):
        assert alg.bracket_terms(i, j) == base.bracket_terms(i, j)
        coad = {n + t: -c for t in range(n) for k, c in base.bracket_terms(i, t) if k == j}
        assert dict(alg.bracket_terms(i, n + j)) == coad
        assert alg.bracket_terms(n + i, n + j) == ()
    assert pair.sigma == [[(a == b) * (1 if a < n else -1) for b in range(2 * n)] for a in range(2 * n)]
    assert (pair.dim_p, pair.dim_k) == (n, n)


def test_coadjoint_semidirect_needs_a_trivial_centre():
    # z spans the centre of solvable4, so ad z = 0 and its matrix vanishes
    solvable4 = LieAlgebraDef("solvable4", ["t", "x", "y", "z"], {(0, 1): {1: -1}, (0, 2): {2: 1}, (1, 2): {3: 1}})
    with pytest.raises(ValueError, match="solvable4_coad: the matrices are linearly dependent"):
        coadjoint_semidirect(solvable4)


@pytest.mark.parametrize("base, trk", [(AFF1, (1, 0)), (R3, (3, 0, 0))], ids=["aff1", "r3"])
def test_non_unimodular_semidirect_pairs_at_every_character(base, trk):
    """The first pairs with tr_k != 0, so the `trk` and `half-trk` characters are nonzero.

    g* is abelian and g acts on it by the coadjoint action, so both
    products of invariants are pointwise here: at lambda = 0, tr_k / 2 and
    tr_k, `star_cf` and `rouviere_sharp` agree with f * g on every ordered
    pair of invariants of degree 1 to 3 (degree 3 x 3 warns of the order-4
    truncation, which drops nothing), and the Duflo relation holds.
    """
    pair = coadjoint_semidirect(base)
    assert pair.trk_character().values == trk
    invariants = [f for d in (1, 2, 3) for f in invariant_subspace(pair, d)]
    assert [f.degree() for f in invariants] == [1, 2, 3]
    for lam in (pair.zero_character(), pair.trk_character().scale(Fraction(1, 2)), pair.trk_character()):
        for f, g in itertools.product(invariants, repeat=2):
            truncated = f.degree() >= 3 and g.degree() >= 3
            with pytest.warns(TruncationWarning) if truncated else contextlib.nullcontext():
                product = star_cf(pair, f, g, lam)
            assert product == rouviere_sharp(pair, f, g, lam) == f * g
        assert all(duflo_relation_check(pair, lam, d) for d in (1, 2, 3))


# -- Iwasawa data of sl(n)/so(n) ----------------------------------------------

def sl_so_iwasawa(n):
    """p0 = the H_i, n+ = the E_ij with i < j, k0 = 0 and r = k, all converted through `to_adapted`."""
    pair = sl_so(n)

    def unit(name):
        return pair.to_adapted(util.unit_vec(pair.dim, pair.algebra.basis.index(name)))

    return IwasawaData(pair, p0=[unit(f"H{i + 1}") for i in range(n - 1)],
                       n_plus=[unit(f"E{i + 1}{j + 1}") for i, j in itertools.combinations(range(n), 2)],
                       k0=[], r=[pair.to_adapted(v) for v in pair.adapted_vectors[pair.dim_p:]])


def basis_matrix(name, n):
    """The n x n matrix a basis name of `sl_so(n)` (n < 10) stands for."""
    m = [[0] * n for _ in range(n)]
    if name[0] == "H":  # H_i = E_ii - E_(i+1)(i+1)
        i = int(name[1:]) - 1
        m[i][i], m[i + 1][i + 1] = 1, -1
    else:
        m[int(name[1]) - 1][int(name[2]) - 1] = 1
    return m


def weyl_matrices(pair, n):
    """Ad of each n x n permutation matrix, in the original coordinates of `sl_so(n)`."""
    mats = [basis_matrix(name, n) for name in pair.algebra.basis]
    cols = util.mat_from_cols([util.vec(itertools.chain(*m)) for m in mats])
    out = []
    for p in itertools.permutations(range(n)):  # m -> P m P^-1 with P e_p[j] = e_j
        moved = [util.vec(m[p[i]][p[j]] for i in range(n) for j in range(n)) for m in mats]
        out.append(util.mat_from_cols(util.solve_each(cols, moved)))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_so_iwasawa_data_validates(n):
    assert validate_iwasawa(sl_so_iwasawa(n)) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_restricted_invariants_are_weyl_invariant(n):
    iw = sl_so_iwasawa(n)
    weyl = weyl_matrices(iw.pair, n)
    assert len(weyl) == len(set(map(str, weyl)))  # S_n acts faithfully on sl(n)
    for d in (2, 3):
        images = [hc_restrict(iw, f, True) for f in invariant_subspace(iw.pair, d)]
        assert len(images) == (1 if d == 2 or n > 2 else 0)  # tr X^2, and tr X^3 from n = 3 on
        assert weyl_invariance_check(iw, images, weyl)
        assert all(not image.is_zero() for image in images)
    # not vacuous: the first p0 coordinate is moved by the Weyl group
    assert not weyl_invariance_check(iw, [Poly.linear([1] + [0] * (n - 2))], weyl)
