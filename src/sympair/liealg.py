"""Lie algebras with exact-rational structure constants and symmetric pairs.

A LieAlgebraDef is given brackets for ordered basis pairs i < j only and
stores them once, as a sparse antisymmetric table read through
`bracket_terms` (the nonzero entries) or `bracket_basis` (a dense vector).
A SymmetricPair adds an involutive automorphism sigma and derives an
adapted basis (the -1 eigenvectors first, then the +1 ones) in which every
higher module of the package works.  The bracket table in that basis is
the LieAlgebraDef `pair.adapted`, built by `LieAlgebraDef.rebased`, which
is also how the PBW contexts and restricted adjoint actions get their
structure constants.  `SymmetricPair.bracket_poly` is the one bracket of
polynomial-coefficient vectors (`TraceSeries.as_polynomial` carries
adjoint orbits with it to half the top power of a trace word, then
contracts two half powers).  `LieAlgebraDef.trace` is the one adjoint
trace: the trace of ad(w_1) ... ad(w_n) on a span of basis vectors, read
off the bracket table.  `killing` and `nilradical_solvable` take it over
the whole algebra, and `trace_word` over one block of `adapted`, for
`trace_alternation`, `trk_character` and `killing_k`; `trace_alternation`
evaluates its nested brackets with `freelie.evaluate_bracket` over the
numeric bracket of `adapted`.
`pair_from_matrices` is the one builder of pairs of matrix Lie algebras,
with commutators as brackets; the classical pairs
`sl_so(n)`, `group_type` (the diagonal pair of g + g) and
`coadjoint_semidirect` (g + g* with the coadjoint action) are built on it.

Each axiom is checked once, by the constructor of its object, and
nothing downstream checks it again.  `LieAlgebraDef` checks the bracket
keys and the Jacobi identity (`JacobiViolation`); `rebased` and
`pair_from_matrices` skip it: a change of basis keeps it, and matrix
commutators satisfy it.  `SymmetricPair` checks sigma^2 = I
(`NotInvolution`), that a user-given adapted basis is a basis of sigma
eigenvectors (`NotCartanSplit`), and last, in the adapted basis, that
sigma is a bracket automorphism, i.e. [p,p] and [k,k] lie in k and
[k,p] in p (`NotAutomorphism`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import util
from .errors import (
    JacobiViolation,
    NilradicalUndecidable,
    NotAutomorphism,
    NotCartanSplit,
    NotInvolution,
)
from .freelie import evaluate_bracket
from .poly import Poly
from .util import Vec, frac, is_zero_vec, vec_scale, zero_vec


class LieAlgebraDef:
    """Basis names plus exact bracket structure constants (given for i < j only)."""

    def __init__(self, name: str, basis: list[str], brackets: dict, validate: bool = True):
        self.name = name
        self.basis = list(basis)
        self.dim = len(self.basis)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        repeated = next((b for t, b in enumerate(self.basis) if b in self.basis[:t]), None)
        if repeated is not None:
            raise ValueError(f"basis name {repeated!r} is repeated")
        self._terms = [[()] * self.dim for _ in range(self.dim)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket key {(i, j)} must satisfy 0 <= i < j < dim")
            v = {}
            for k, c in coeffs.items():
                if not 0 <= int(k) < self.dim:
                    raise ValueError(f"bracket {(i, j)} has target index {k} outside 0..{self.dim - 1}")
                v[int(k)] = frac(c)
            terms = tuple((k, c) for k, c in sorted(v.items()) if c)
            self._terms[i][j] = terms
            self._terms[j][i] = tuple((k, -c) for k, c in terms)
        if validate:
            self._check_jacobi()

    def bracket_terms(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """The nonzero (index, coefficient) pairs of [e_i, e_j], in index order."""
        return self._terms[i][j]

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a dense tuple."""
        out = list(zero_vec(self.dim))
        for k, c in self._terms[i][j]:
            out[k] = c
        return tuple(out)

    def rebased(self, vectors) -> "LieAlgebraDef":
        """The subalgebra spanned by `vectors`, with its brackets in that basis.

        Basis symbols are named by `combo_name`.  Raises ValueError when the
        vectors are dependent or their brackets leave their span.
        """
        vectors = [util.vec(v) for v in vectors]
        if util.rank([list(v) for v in vectors]) != len(vectors):
            raise ValueError("basis vectors are linearly dependent")
        keys = list(itertools.combinations(range(len(vectors)), 2))
        coords = util.solve_each(util.mat_from_cols(vectors),
                                 [self.bracket(vectors[i], vectors[j]) for i, j in keys])
        if coords is None:
            raise ValueError("brackets leave the span of the basis")
        brackets = {key: {t: c for t, c in enumerate(x) if c} for key, x in zip(keys, coords)}
        names = [combo_name(self.basis, v) for v in vectors]
        return LieAlgebraDef(self.name, names, brackets, validate=False)

    def bracket(self, u: Vec, v: Vec) -> Vec:
        out = list(zero_vec(self.dim))
        v_terms = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            row = self._terms[i]
            for j, b in v_terms:
                terms = row[j]
                if terms:
                    ab = frac(a * b)
                    for k, c in terms:
                        out[k] += ab * c
        return tuple(out)

    def trace(self, word: list[Vec], indices) -> Fraction:
        """Trace of ad(w_1) o ... o ad(w_n) on the span of the basis vectors
        e_i, i in `indices`: the sum of the e_i-coordinates of
        [w_1, [w_2, ... [w_n, e_i]]].  The empty word gives len(indices)."""
        total = Fraction(0)
        for i in indices:
            v = util.unit_vec(self.dim, i)
            for w in reversed(word):
                v = self.bracket(w, v)
            total += v[i]
        return total

    def ad(self, u: Vec) -> list[list[Fraction]]:
        """Matrix of ad(u) acting on column coordinate vectors."""
        cols = [self.bracket(u, util.unit_vec(self.dim, j)) for j in range(self.dim)]
        return util.mat_from_cols(cols)

    def _check_jacobi(self):
        """Raise on the first triple i < j < k with [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] != 0."""
        T = self._terms
        for i, j, k in itertools.combinations(range(self.dim), 3):
            d = list(zero_vec(self.dim))
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for t, x in T[b][c]:
                    for s, y in T[a][t]:
                        d[s] += x * y
            if any(d):
                raise JacobiViolation(self.basis[i], self.basis[j], self.basis[k], tuple(d))

    def killing(self, u: Vec, v: Vec) -> Fraction:
        return self.trace([u, v], range(self.dim))

    def __repr__(self):
        return f"LieAlgebraDef({self.name!r}, dim={self.dim})"


def combo_name(basis: list[str], v: Vec) -> str:
    """Readable name for a linear combination of basis symbols."""
    parts = []
    for i, c in enumerate(v):
        if not c:
            continue
        sym = basis[i]
        if c == 1:
            term = sym
        elif c == -1:
            term = f"-{sym}"
        else:
            term = f"{util.fmt(c)}*{sym}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"


class Character:
    """Linear form on the k block of an adapted basis, vanishing on [k,k]."""

    def __init__(self, pair: "SymmetricPair", values_on_k) -> None:
        self.pair = pair
        self.values = tuple(frac(c) for c in values_on_k)
        if len(self.values) != pair.dim_k:
            raise ValueError("character needs one value per k-basis vector")
        for a in range(pair.dim_k):
            for b in range(a + 1, pair.dim_k):
                terms = pair.adapted.bracket_terms(pair.dim_p + a, pair.dim_p + b)
                # [k,k] lies in k: SymmetricPair checks that sigma is an automorphism
                if sum((self.values[t - pair.dim_p] * c for t, c in terms), Fraction(0)) != 0:
                    raise ValueError("character does not vanish on [k,k]")

    def of_k_vector(self, kv: Vec) -> Fraction:
        """Value on a vector given in adapted coordinates (p part must be 0)."""
        if any(kv[i] for i in range(self.pair.dim_p)):
            raise ValueError("character applied to a non-k vector")
        return sum(
            (self.values[i - self.pair.dim_p] * kv[i] for i in range(self.pair.dim_p, self.pair.dim)),
            Fraction(0),
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.values)

    def scale(self, c) -> "Character":
        c = frac(c)
        return Character(self.pair, [c * v for v in self.values])


def _sign_normalize(v: Vec) -> Vec:
    first = next((c for c in v if c), None)
    if first is not None and first < 0:
        return vec_scale(-1, v)
    return v


class SymmetricPair:
    """A Lie algebra with involution sigma and its Cartan split g = k + p.

    Adapted coordinates put the p eigenvectors first (indices 0..dim_p-1)
    and the k eigenvectors after them.  All bracket/trace computations of
    the higher modules run in these coordinates.
    """

    def __init__(self, algebra: LieAlgebraDef, sigma: list[list], adapted=None):
        self.algebra = algebra
        self.dim = algebra.dim
        self.sigma = [[frac(c) for c in row] for row in sigma]
        if len(self.sigma) != self.dim or any(len(r) != self.dim for r in self.sigma):
            raise ValueError("sigma has wrong dimensions")
        self._check_involution()
        if adapted is None:
            p_vecs, k_vecs = self._eigen_split()
        else:
            p_vecs, k_vecs = adapted
            p_vecs = [util.vec(v) for v in p_vecs]
            k_vecs = [util.vec(v) for v in k_vecs]
            self._validate_adapted(p_vecs, k_vecs)
        self.dim_p = len(p_vecs)
        self.dim_k = len(k_vecs)
        self.adapted_vectors = list(p_vecs) + list(k_vecs)
        # the adapted vectors are a basis: sigma^2 = I, or _validate_adapted
        self._to_adapted_matrix = util.mat_from_cols(util.solve_each(
            util.mat_from_cols(self.adapted_vectors), [util.unit_vec(self.dim, i) for i in range(self.dim)]))
        self.adapted = algebra.rebased(self.adapted_vectors)
        self.adapted_names = self.adapted.basis
        self._check_automorphism()

    # -- construction internals -------------------------------------------

    def _check_involution(self):
        sq = util.mat_mul(self.sigma, self.sigma)
        for j, name in enumerate(self.algebra.basis):
            defect = util.vec_sub(tuple(row[j] for row in sq), util.unit_vec(self.dim, j))
            if not is_zero_vec(defect):
                raise NotInvolution(name, defect)

    def _eigen_split(self):
        n = self.dim
        plus = [[self.sigma[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
        minus = [[self.sigma[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        p_vecs = [_sign_normalize(v) for v in util.nullspace(plus, n)]   # sigma v = -v
        k_vecs = [_sign_normalize(v) for v in util.nullspace(minus, n)]  # sigma v = +v
        return p_vecs, k_vecs  # they span g, as sigma^2 = I

    def _validate_adapted(self, p_vecs, k_vecs):
        n = self.dim
        for v in p_vecs:
            if util.mat_apply(self.sigma, v) != vec_scale(-1, v):
                raise NotCartanSplit(f"not a -1 eigenvector: {util.fmt_vec(v)}")
        for v in k_vecs:
            if util.mat_apply(self.sigma, v) != v:
                raise NotCartanSplit(f"not a +1 eigenvector: {util.fmt_vec(v)}")
        if not util.direct_sum_check([list(p_vecs), list(k_vecs)], n):
            raise NotCartanSplit("adapted basis is not a basis")

    def _check_automorphism(self):
        """sigma acts on the adapted basis by signs s (-1 on p, +1 on k), so it
        is a bracket automorphism exactly when each [e_i, e_j] lies in the
        s_i s_j eigenspace: [p,p] and [k,k] in k, [k,p] in p."""
        s = [-1] * self.dim_p + [1] * self.dim_k
        for i, j in itertools.combinations(range(self.dim), 2):
            if any(s[t] != s[i] * s[j] for t, _ in self.adapted.bracket_terms(i, j)):
                w = self.adapted.bracket_basis(i, j)
                defect = tuple((s[t] - s[i] * s[j]) * c for t, c in enumerate(w))  # sigma w - s_i s_j w
                raise NotAutomorphism(self.adapted_names[i], self.adapted_names[j], defect)

    def to_adapted(self, v: Vec) -> Vec:
        """Original coordinates -> adapted coordinates."""
        return util.mat_apply(self._to_adapted_matrix, util.vec(v))

    def from_adapted(self, v: Vec) -> Vec:
        return util.lin_comb(v, self.adapted_vectors)

    # -- adapted-coordinate operations -------------------------------------

    def bracket_adapted(self, i: int, j: int) -> Vec:
        """[e_i, e_j] of two adapted basis vectors, as a dense tuple.

        The package reads `adapted.bracket_basis` directly; this name stays
        for the benchmark's output checks (`perfbench/oracles.py`).
        """
        return self.adapted.bracket_basis(i, j)

    def block_indices(self, space: str) -> range:
        if space == "p":
            return range(self.dim_p)
        if space == "k":
            return range(self.dim_p, self.dim)
        if space == "g":
            return range(self.dim)
        raise ValueError(f"unknown space {space!r}")

    def killing_k(self, u: Vec, v: Vec) -> Fraction:
        """Killing form of the subalgebra k (adjoint action restricted to k)."""
        if any(u[i] for i in range(self.dim_p)) or any(v[i] for i in range(self.dim_p)):
            raise ValueError("killing_k needs k-vectors")
        return trace_word(self, "k", [u, v])

    def trk_character(self) -> Character:
        """The character K |-> tr_k(ad K restricted to k)."""
        return Character(self, [trace_word(self, "k", [util.unit_vec(self.dim, i)])
                                for i in self.block_indices("k")])

    def zero_character(self) -> Character:
        return Character(self, [0] * self.dim_k)

    def symbolic_vector(self, space: str, poly_nvars: int, var_offset: int = 0) -> list[Poly]:
        """Adapted-coordinate vector whose `space` block holds fresh variables.

        Entry i is a Poly in poly_nvars variables; block coordinate t gets
        variable var_offset + t.
        """
        idx = list(self.block_indices(space))
        out = [Poly.zero(poly_nvars) for _ in range(self.dim)]
        for t, i in enumerate(idx):
            out[i] = Poly.var(poly_nvars, var_offset + t)
        return out

    def bracket_poly(self, u: list[Poly], v: list[Poly]) -> list[Poly]:
        """Bracket of vectors with polynomial coefficients.

        Sums over the nonzero structure constants of `adapted` only; every
        polynomial bracket of the package is built here.
        """
        nv = u[0].nvars
        out: list[dict] = [{} for _ in range(self.dim)]
        v_terms = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in v_terms:
                terms = self.adapted.bracket_terms(i, j)
                if terms:
                    ab = a.mul(b)
                    for t, c in terms:
                        util.add_into(out[t], ab.terms, c)
        return [Poly(nv, terms) for terms in out]

    def __repr__(self):
        return (
            f"SymmetricPair({self.algebra.name!r}, p={self.adapted_names[:self.dim_p]}, "
            f"k={self.adapted_names[self.dim_p:]})"
        )


def build_symmetric_pair(algebra: LieAlgebraDef, sigma, adapted=None) -> SymmetricPair:
    return SymmetricPair(algebra, sigma, adapted=adapted)


# -- symmetric pairs of matrix Lie algebras ---------------------------------

def pair_from_matrices(name: str, names: list[str], matrices, sigma) -> SymmetricPair:
    """The pair spanned by square `matrices`, with commutators as brackets and
    `sigma`, a map of matrices, as involution.  The coordinates of every
    commutator and sigma-image come from one elimination against the
    flattened basis; Jacobi is not re-checked, as commutators satisfy it.
    Raises ValueError, naming the pair, if the matrices are dependent or an
    image leaves their span."""
    def flat(m):
        return util.vec(itertools.chain(*m))

    basis = [flat(m) for m in matrices]
    if util.rank(basis) != len(basis):
        raise ValueError(f"{name}: the matrices are linearly dependent")
    keys = list(itertools.combinations(range(len(basis)), 2))
    images = [util.vec_sub(flat(util.mat_mul(a, b)), flat(util.mat_mul(b, a)))
              for a, b in itertools.combinations(matrices, 2)]
    coords = util.solve_each(util.mat_from_cols(basis), images + [flat(sigma(m)) for m in matrices])
    if coords is None:
        raise ValueError(f"{name}: a commutator or sigma-image leaves the span of the matrices")
    brackets = {key: {t: c for t, c in enumerate(x) if c} for key, x in zip(keys, coords)}
    algebra = LieAlgebraDef(name, names, brackets, validate=False)
    return SymmetricPair(algebra, util.mat_from_cols(coords[len(keys):]))


def sl_so(n: int) -> SymmetricPair:
    """(sl(n), so(n)) with sigma(X) = -X^T, on H_i = E_ii - E_(i+1)(i+1), then E_ij (i != j)."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    names = [f"H{i + 1}" for i in range(n - 1)] + [f"E{i + 1}{j + 1}" for i, j in offdiag]
    mats = [[[(a == b == i) - (a == b == i + 1) for b in range(n)] for a in range(n)] for i in range(n - 1)]
    mats += [[[int((a, b) == key) for b in range(n)] for a in range(n)] for key in offdiag]
    return pair_from_matrices(f"sl{n}", names, mats, lambda m: [[-c for c in col] for col in zip(*m)])


def group_type(name: str, names: list[str], matrices) -> SymmetricPair:
    """The diagonal pair `name`x2 of the matrix algebra g: g + g as block-diagonal
    matrices, sigma swapping the blocks; its basis is `names` with suffix 1, then 2."""
    n = len(matrices[0])
    zero = [[0] * n] * n
    blocks = [(m, zero) for m in matrices] + [(zero, m) for m in matrices]
    mats = [[list(r) + [0] * n for r in a] + [[0] * n + list(r) for r in b] for a, b in blocks]
    return pair_from_matrices(f"{name}x2", [s + "1" for s in names] + [s + "2" for s in names], mats,
                              lambda m: [row[n:] + row[:n] for row in m[n:] + m[:n]])


def coadjoint_semidirect(algebra: LieAlgebraDef) -> SymmetricPair:
    """The pair `name`_coad, g + g* with the coadjoint action, sigma = +1 on g and -1 on g*.

    As affine matrices x -> [[-ad(x)^T, 0], [0, 0]] and f_j -> [[0, e_j], [0, 0]],
    so [e_i, f_j] = -sum_t c_it^j f_t; sigma negates the last column.  The
    basis is g's names, then each with a `*`.  The matrices are independent
    only when g has trivial centre; otherwise ValueError is raised."""
    n = algebra.dim
    mats = [[[-c for c in col] + [0] for col in zip(*algebra.ad(util.unit_vec(n, i)))] + [[0] * (n + 1)]
            for i in range(n)]
    mats += [[[0] * n + [int(r == j)] for r in range(n + 1)] for j in range(n)]
    return pair_from_matrices(f"{algebra.name}_coad", algebra.basis + [s + "*" for s in algebra.basis], mats,
                              lambda m: [row[:n] + [-row[n]] for row in m])


# -- trace words and alternation sums --------------------------------------

def trace_word(pair: SymmetricPair, space: str, word: list[Vec]) -> Fraction:
    """Block trace of ad(w_1) o ... o ad(w_n) on p, k, or all of g.

    Vectors are in adapted coordinates.  The empty word gives the block
    dimension (trace of the identity).
    """
    return pair.adapted.trace(word, pair.block_indices(space))


def trace_alternation(pair: SymmetricPair, words, X: Vec, Y: Vec) -> Fraction:
    """tr_p(x_1...x_n) + (-1)^(n-1) tr_k(x_n...x_1) with x_i = ad(word_i(X,Y))."""
    if any(X[i] for i in range(pair.dim_p, pair.dim)) or any(Y[i] for i in range(pair.dim_p, pair.dim)):
        raise ValueError("trace_alternation arguments must lie in p")
    memo: dict = {}
    vecs = [evaluate_bracket(w, X, Y, pair.adapted.bracket, memo) for w in words]
    sign = 1 if len(vecs) % 2 else -1
    return trace_word(pair, "p", vecs) + sign * trace_word(pair, "k", vecs[::-1])


# -- polarizations ----------------------------------------------------------

class PolarizationCandidate:
    """A linear form f on g and a candidate subspace b, in the coordinates of
    the algebra they are checked against (adapted ones for `pair.adapted`)."""

    def __init__(self, f, b_basis):
        self.f = util.vec(f)
        self.b_basis = [util.vec(v) for v in b_basis]


class PolarizationReport:
    def __init__(self, is_subalgebra, is_isotropic, is_maximal_isotropic, pukanszky, detail=""):
        self.is_subalgebra = is_subalgebra
        self.is_isotropic = is_isotropic
        self.is_maximal_isotropic = is_maximal_isotropic
        self.pukanszky = pukanszky  # True / False / None (undecidable)
        self.detail = detail

    @property
    def is_polarization(self):
        return self.is_subalgebra and self.is_isotropic and self.is_maximal_isotropic

    def __repr__(self):
        return (
            f"PolarizationReport(subalgebra={self.is_subalgebra}, isotropic={self.is_isotropic}, "
            f"maximal={self.is_maximal_isotropic}, pukanszky={self.pukanszky})"
        )


def form_on_bracket(algebra: LieAlgebraDef, f: Vec, u: Vec, v: Vec) -> Fraction:
    return util.vec_dot(f, algebra.bracket(u, v))


def stabilizer(algebra: LieAlgebraDef, f: Vec) -> list[Vec]:
    """g(f) = radical of the form B_f(u, v) = f([u, v])."""
    n = algebra.dim
    rows = []
    for j in range(n):
        rows.append([form_on_bracket(algebra, f, util.unit_vec(n, i), util.unit_vec(n, j)) for i in range(n)])
    return util.nullspace(rows, n)


def escaping_brackets(algebra: LieAlgebraDef, us: list[Vec], vs: list[Vec], into: list[Vec]):
    """Yield, in order, each index pair (a, b) whose bracket [us[a], vs[b]]
    leaves span(into); when vs is us, only the pairs a < b, so each
    unordered pair is witnessed once."""
    span = util.span_rref(list(into))
    for a, u in enumerate(us):
        for b in range(a + 1 if vs is us else 0, len(vs)):
            if not util.span_contains(span, algebra.bracket(u, vs[b])):
                yield a, b


def subalgebra_closed(algebra: LieAlgebraDef, basis: list[Vec]) -> bool:
    return next(escaping_brackets(algebra, basis, basis, basis), None) is None


def _is_solvable(algebra: LieAlgebraDef, basis: list[Vec]) -> bool:
    current = util.span_rref(list(basis))
    for _ in range(len(basis) + 1):
        if not current:
            return True
        derived = []
        for a in range(len(current)):
            for b in range(a + 1, len(current)):
                derived.append(algebra.bracket(current[a], current[b]))
        nxt = util.span_rref(derived)
        if len(nxt) == len(current):
            return False
        current = nxt
    return not current


def nilradical_solvable(algebra: LieAlgebraDef, basis: list[Vec]) -> list[Vec]:
    """Nilradical of a solvable subalgebra, by the weight-trace criterion.

    For solvable b in characteristic zero the nilradical equals
    {v : tr(ad e_{i_1} ... ad e_{i_a} ad v) = 0 for every word of length
    a <= dim b - 1}: in a simultaneous triangularization the trace of any
    such product is the corresponding symmetric function of weights, and v
    is ad-nilpotent exactly when every weight vanishes on it.
    """
    if not _is_solvable(algebra, basis):
        raise NilradicalUndecidable("candidate subalgebra is not solvable")
    m = len(basis)
    if m == 0:
        return []
    sub = algebra.rebased(basis)
    units = [util.unit_vec(m, i) for i in range(m)]
    rows = [[sub.trace([units[t] for t in word] + [units[v]], range(m)) for v in range(m)]
            for a in range(m) for word in itertools.product(range(m), repeat=a)]
    return util.span_rref([util.lin_comb(c, basis) for c in util.nullspace(rows, m)])


def polarization_check(algebra: LieAlgebraDef, cand: PolarizationCandidate) -> PolarizationReport:
    f = cand.f
    basis = [v for v in cand.b_basis if not is_zero_vec(v)]
    span = util.span_rref(list(basis))
    dim_b = len(span)

    is_sub = subalgebra_closed(algebra, span)
    is_iso = all(
        form_on_bracket(algebra, f, span[a], span[b]) == 0
        for a in range(dim_b)
        for b in range(a + 1, dim_b)
    )
    gf = stabilizer(algebra, f)
    target = Fraction(algebra.dim + len(gf), 2)
    is_max = is_iso and Fraction(dim_b) == target

    pukanszky = None
    detail = ""
    if is_sub:
        try:
            nil = nilradical_solvable(algebra, span)
            summed = util.span_rref(list(gf) + list(nil))
            pukanszky = util.span_eq(summed, span)
        except NilradicalUndecidable as e:
            pukanszky = None
            detail = str(e)
    return PolarizationReport(is_sub, is_iso, is_max, pukanszky, detail)
