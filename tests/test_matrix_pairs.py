"""Symmetric pairs built from matrices: `pair_from_matrices`, `sl_so`, `group_type`.

The generated pairs are compared with the copies they replace: the
benchmark's own sl(n)/so(n) generator (`perfbench/pairs.py`, read, not
changed) and the committed `algebras/sl2diag.json`.  The Iwasawa data of
sl(n)/so(n) is written out here, as only tests use it.
"""

import importlib
import itertools
from pathlib import Path

import pytest

from sympair import group_type, pair_from_matrices, sl_so, util
from sympair.errors import NotInvolution
from sympair.hc import IwasawaData, hc_restrict, validate_iwasawa, weyl_invariance_check
from sympair.io import load_algebra_file
from sympair.poly import Poly
from sympair.polyops import invariant_subspace

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
