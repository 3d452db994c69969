"""Exact-rational helpers: parsing, formatting, linear algebra, and the
truncated series shared by every series type: the linear arithmetic of
`Series`, the graded truncated product, exponential and logarithm.

Matrices are lists of lists of Fraction; vectors are tuples of Fraction.
One sparse Gauss-Jordan, `rref` on rows {column: Fraction}, serves all
of the linear algebra: the dense routines convert their rows to it, and
`common_kernel` builds its mostly-zero rows sparse from the start.

The two series kernels, `graded_product` and `power_sum` (behind `exp`
and `log`), are graded by an int or by a tuple of ints, bounded in each
component.  They take and return {key: Fraction} dicts but compute on
integer numerators over one common denominator: a Fraction multiply-add
costs two gcds and an allocation, an integer one neither.  Each output
coefficient is divided once.  `add_into` stays on Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Parse an exact rational from int (not bool), Fraction, or a 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def fmt(x: Fraction) -> str:
    """Canonical 'p/q' (or 'p') rendering of a rational."""
    x = Fraction(x)
    return str(x)


def fmt_vec(v) -> str:
    """'(p/q, ...)' rendering of an exact vector."""
    return "(" + ", ".join(fmt(c) for c in v) + ")"


def vec(entries) -> Vec:
    return tuple(frac(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def lin_comb(coeffs, vectors) -> Vec:
    """sum_i coeffs[i] * vectors[i] over a non-empty list of equal-length
    vectors; coefficients beyond the last vector are ignored."""
    out = [Fraction(0)] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            for t, a in enumerate(v):
                if a:
                    out[t] += c * a
    return tuple(out)


def vec_dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def mat_from_cols(cols: list[Vec]) -> list[list[Fraction]]:
    n = len(cols[0]) if cols else 0
    return [[cols[j][i] for j in range(len(cols))] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                if Bt[j]:
                    row[j] += a * Bt[j]
    return out


def mat_apply(A, v: Vec) -> Vec:
    return tuple(sum((A[i][j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for i in range(len(A)))


def rref(rows) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows {column: coefficient}: (nonzero rows, pivot columns).

    Each row in turn is reduced by the pivot rows so far, which are kept
    without their pivot entry; a nonzero remainder is scaled to 1 at its
    least column, a new pivot that is then cleared from the earlier rows.
    The RREF of a row space is unique, so the row order does not matter.
    """
    tails: dict[int, dict] = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for c in [c for c in r if c in tails]:  # a pivot row is zero on the other pivots
            add_into(r, tails[c], -r.pop(c))
        if r:
            p = min(r)
            inv = 1 / Fraction(r.pop(p))
            tail = {t: x * inv for t, x in r.items()}
            for other in tails.values():
                if p in other:
                    add_into(other, tail, -other.pop(p))
            tails[p] = tail
    pivots = sorted(tails)
    return [{p: Fraction(1), **tails[p]} for p in pivots], pivots


def _sparse(rows) -> list[dict]:
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def rank(rows) -> int:
    return len(rref(_sparse(rows))[0])


def nullspace(rows: list[list[Fraction]], ncols: int | None = None) -> list[Vec]:
    """Canonical basis of {v : M v = 0}, from the RREF free columns."""
    if not rows and ncols is None:
        raise ValueError("ncols required for an empty matrix")
    return _kernel(_sparse(rows), len(rows[0]) if rows else ncols)


def _kernel(rows: list[dict], ncols: int) -> list[Vec]:
    """`nullspace` of sparse rows over `ncols` columns."""
    R, pivots = rref(rows)
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(R, pivots):
            v[pc] = -row.get(fc, Fraction(0))
        basis.append(tuple(v))
    return basis


def common_kernel(keys, maps) -> list[Vec]:
    """Canonical basis of the v over `keys` with sum_t v_t f(keys[t]) = 0 for every f in maps.

    Each f(key) is a {image key: coefficient} dict.  The system has one row
    per map and image key that occurs: leaving out zero rows and reordering
    rows keeps the row space, so the basis is the canonical one of `nullspace`.
    """
    rows = []
    for f in maps:
        by_image: dict = {}
        for t, key in enumerate(keys):
            for image, c in f(key).items():
                row = by_image.get(image)
                if row is None:
                    by_image[image] = {t: c}
                else:
                    row[t] = c
        rows.extend(by_image.values())
    return _kernel(rows, len(keys))


def solve(A: list[list[Fraction]], b: Vec) -> Vec | None:
    """One solution of A x = b, or None if inconsistent."""
    xs = solve_each(A, [b])
    return None if xs is None else xs[0]


def solve_each(A: list[list[Fraction]], bs: list[Vec]) -> list[Vec] | None:
    """One solution of A x = b for every b in bs, by a single elimination.

    None if any of the systems is inconsistent.
    """
    n = len(A)
    ncols = len(A[0]) if n else 0
    R, pivots = rref(_sparse([list(A[i]) + [b[i] for b in bs] for i in range(n)]))
    if pivots and pivots[-1] >= ncols:
        return None
    out = []
    for k in range(ncols, ncols + len(bs)):
        x = [Fraction(0)] * ncols
        for row, pc in zip(R, pivots):
            x[pc] = row.get(k, Fraction(0))
        out.append(tuple(x))
    return out


def span_rref(vectors: list[Vec]) -> list[Vec]:
    """Canonical (RREF) basis of the span; empty list for the zero space."""
    if not vectors:
        return []
    R, _ = rref(_sparse(vectors))
    return [tuple(row.get(c, Fraction(0)) for c in range(len(vectors[0]))) for row in R]


def span_contains(span_basis: list[Vec], v: Vec) -> bool:
    if is_zero_vec(v):
        return True
    if not span_basis:
        return False
    before = len(span_rref(list(span_basis)))
    after = len(span_rref(list(span_basis) + [v]))
    return before == after


def span_eq(a: list[Vec], b: list[Vec]) -> bool:
    return span_rref(list(a)) == span_rref(list(b))


def span_intersect(a: list[Vec], b: list[Vec]) -> list[Vec]:
    """Basis of span(a) & span(b) via the kernel of [A | -B]."""
    if not a or not b:
        return []
    n = len(a[0])
    rows = [[a[j][i] for j in range(len(a))] + [-b[j][i] for j in range(len(b))] for i in range(n)]
    ker = nullspace(rows, len(a) + len(b))
    return span_rref([lin_comb(coeffs, a) for coeffs in ker])


def direct_sum_check(blocks: list[list[Vec]], dim: int) -> bool:
    """True iff the given families are independent and together span Q^dim."""
    allv = [v for blk in blocks for v in blk]
    return len(allv) == dim and rank([list(v) for v in allv]) == dim


# -- graded truncated products ----------------------------------------------

def by_degree(terms: dict, degree) -> dict:
    """The items of `terms` grouped by degree: {d: [(key, coeff), ...]}."""
    out: dict = {}
    for key, c in terms.items():
        d = degree(key)
        if d in out:
            out[d].append((key, c))
        else:
            out[d] = [(key, c)]
    return out


def add_into(out: dict, terms: dict, c=None) -> dict:
    """out += c * terms in place (c None: 1), dropping keys whose sum is zero."""
    for k, v in terms.items():
        if c is not None:
            v = c * v
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s += v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _graded_numerators(terms: dict, degree) -> tuple[dict, int]:
    """`by_degree` of `terms` with integer coefficients over their common denominator d: (groups, d).

    One pass instead of a numerator dict handed to `by_degree`: most
    products of the package have a one-term factor, where that pass costs
    as much as the multiplication.
    """
    d = math.lcm(*[c.denominator for c in terms.values()])
    out: dict = {}
    for key, c in terms.items():
        n = c.numerator if d == 1 else c.numerator * (d // c.denominator)
        g = degree(key)
        if g in out:
            out[g].append((key, n))
        else:
            out[g] = [(key, n)]
    return out, d


def _fits(d1, d2, order) -> bool:
    """d1 + d2 within `order`: None bounds nothing, a tuple each component."""
    if type(order) is tuple:
        return all(a + b <= o for a, b, o in zip(d1, d2, order))
    return order is None or d1 + d2 <= order


def _graded_ints(lefts: dict, rights: dict, order, combine) -> dict:
    """The truncated product of two `by_degree` groupings of {key: int};
    keys whose sum cancels stay, at 0."""
    out: dict = {}
    get = out.get
    for d1, terms in lefts.items():
        kept = [t for d2, ts in rights.items() if _fits(d1, d2, order) for t in ts]
        for k1, c1 in terms:
            for k2, c2 in kept:
                k = combine(k1, k2)
                out[k] = get(k, 0) + c1 * c2
    return out


def graded_product(left: dict, right: dict, degree, order, combine) -> dict:
    """The truncated product of two {key: coeff} dicts, zero coefficients dropped.

    The product of the terms at k1 and k2 lands on combine(k1, k2), whose
    degree is degree(k1) + degree(k2).  Terms are bucketed by degree and
    only bucket pairs whose degrees add up to at most `order` (`_fits`)
    are visited, so no key is built that the truncation drops.
    Each factor is scaled to integers by its common denominator, the
    products are summed as integers, and every key is divided once.
    """
    lefts, dl = _graded_numerators(left, degree)
    rights, dr = _graded_numerators(right, degree)
    return _fractions(_graded_ints(lefts, rights, order, combine), dl * dr)


def _fractions(numerators: dict, d: int) -> dict:
    """{key: n / d} for the nonzero n; d == 1, the usual case over integer
    structure constants, takes Fraction's cheaper one-argument form."""
    if d == 1:
        return {k: Fraction(n) for k, n in numerators.items() if n}
    return {k: Fraction(n, d) for k, n in numerators.items() if n}


# -- truncated series -------------------------------------------------------

class Series:
    """An exact combination {key: Fraction} truncated by degree.

    No coefficient is zero and no key has degree above `order`.  Two
    class-level hooks set the grading: `degree(key)` (default: the key's
    length) and `key(k)`, the normal form of a key given to the
    constructor (default: a tuple).  Series of different orders add at the
    smaller one, where both are known.  Equal series have the same class,
    order and terms: the order decides which terms a product keeps.
    """

    degree = staticmethod(len)
    key = staticmethod(tuple)

    def __init__(self, order: int, terms: dict | None = None):
        self.order = order
        self.terms: dict = {}
        if terms:
            for k, c in terms.items():
                c = frac(c)
                k = self.key(k)
                if c and self.degree(k) <= order:
                    self.terms[k] = self.terms.get(k, Fraction(0)) + c
            self.terms = {k: c for k, c in self.terms.items() if c}

    @classmethod
    def _of(cls, order: int, terms: dict):
        """A series on terms that are already normalized (normal keys, nonzero, within order)."""
        out = cls.__new__(cls)
        out.order, out.terms = order, terms
        return out

    def __add__(self, other):
        order = min(self.order, other.order)
        out = add_into(dict(self.terms), other.terms)
        if self.order != other.order:
            out = {k: c for k, c in out.items() if self.degree(k) <= order}
        return self._of(order, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = frac(c)
        if not c:
            return self._of(self.order, {})
        return self._of(self.order, {k: c * v for k, v in self.terms.items()})

    def homogeneous_part(self, n: int):
        return self._of(self.order, {k: c for k, c in self.terms.items() if self.degree(k) == n})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.order == other.order and self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order}, {self.terms!r})"


# -- truncated exp and log --------------------------------------------------

def power_sum(u: dict, weight, unit, degree, order, combine) -> dict:
    """sum_k weight(k) u^k truncated at `order`, for u without terms of degree 0.

    u^0 is {unit: 1} and u^k is the graded product u^(k-1) u.  The powers
    are integer dicts over d^k, d the common denominator of u, and each
    is added into the sum as soon as it is formed: the sum is an integer
    dict over L d^K, where k <= K = order // (lowest degree in u) and L is
    the common denominator of the weights (Fractions).  A key whose
    partial sum cancels is dropped by `add_into`.
    """
    if not _fits(degree(unit), degree(unit), order):  # the truncation drops even the unit
        return {}
    size = sum if type(order) is tuple else int  # a tuple grading counts powers by its sum
    low = min(map(size, map(degree, u)), default=size(order) + 1)
    if low < 1:
        raise ValueError("power_sum needs terms of positive degree")
    top = size(order) // low
    weights = [weight(k) for k in range(top + 1)]
    L = math.lcm(*[w.denominator for w in weights])
    rights, d = _graded_numerators(u, degree)
    total: dict = {}
    power = {unit: 1}
    for k, w in enumerate(weights):
        if k:
            power = {key: n for key, n in _graded_ints(by_degree(power, degree), rights, order, combine).items() if n}
            if not power:
                break
        if w:
            add_into(total, power, w.numerator * (L // w.denominator) * d ** (top - k))
    return _fractions(total, L * d ** top)


def _exp_weight(k: int) -> Fraction:
    return Fraction(1, math.factorial(k))


def _log_weight(k: int) -> Fraction:
    return Fraction((-1) ** (k + 1), k) if k else Fraction(0)


def exp(x: dict, unit, degree, order: int, combine) -> dict:
    """sum_k x^k / k! for x without constant term (`power_sum`)."""
    return power_sum(x, _exp_weight, unit, degree, order, combine)


def log(x: dict, unit, degree, order: int, combine) -> dict:
    """sum_k (-1)^(k+1) u^k / k with u = x - 1, for x with constant term 1 (`power_sum`)."""
    return power_sum({k: c for k, c in x.items() if k != unit}, _log_weight, unit, degree, order, combine)
