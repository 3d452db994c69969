"""The symmetric pairs sl(n)/so(n), generated from matrix units.

The basis of sl(n) is H_i = E_ii - E_(i+1)(i+1) for i < n, then E_ij for
i != j.  Brackets are matrix commutators written back in that basis, and
the involution is sigma(X) = -X^T, whose fixed points are so(n).
"""

from __future__ import annotations

from fractions import Fraction


def _sl_basis(n: int):
    """Basis names and matrices (dicts {(row, col): int}) of sl(n)."""
    names, mats = [], []
    for i in range(n - 1):
        names.append(f"H{i + 1}")
        mats.append({(i, i): 1, (i + 1, i + 1): -1})
    for i in range(n):
        for j in range(n):
            if i != j:
                names.append(f"E{i + 1}{j + 1}")
                mats.append({(i, j): 1})
    return names, mats


def _coords(n: int, names, mat) -> list[Fraction]:
    """Coordinates of a traceless matrix in the sl(n) basis."""
    out = [Fraction(0)] * len(names)
    # diagonal d = sum_i h_i (e_i - e_(i+1)) gives h_i = d_1 + ... + d_i
    running = Fraction(0)
    for i in range(n - 1):
        running += mat.get((i, i), 0)
        out[i] = running
    if running + mat.get((n - 1, n - 1), 0) != 0:
        raise ValueError("matrix is not traceless")
    for (r, c), v in mat.items():
        if r != c and v:
            out[names.index(f"E{r + 1}{c + 1}")] = Fraction(v)
    return out


def _commutator(a, b):
    out: dict = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    for (i, k), x in b.items():
        for (k2, j), y in a.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) - x * y
    return {key: v for key, v in out.items() if v}


def sl_so_pair(n: int):
    """Build the pair (sl(n), so(n)) with sigma(X) = -X^T."""
    from sympair import LieAlgebraDef, build_symmetric_pair

    names, mats = _sl_basis(n)
    brackets = {}
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            w = _coords(n, names, _commutator(mats[a], mats[b]))
            entries = {t: c for t, c in enumerate(w) if c}
            if entries:
                brackets[(a, b)] = entries
    algebra = LieAlgebraDef(f"sl{n}", names, brackets)  # validates Jacobi
    sigma_cols = []
    for m in mats:
        sigma_cols.append(_coords(n, names, {(c, r): -v for (r, c), v in m.items()}))
    dim = len(names)
    sigma = [[sigma_cols[j][i] for j in range(dim)] for i in range(dim)]
    return build_symmetric_pair(algebra, sigma)
