"""The exact series kernels against the Fraction loops they replace.

`util.graded_product`, `util.exp` and `util.log` work on integer
numerators over a common denominator.  They must return the coefficients
of `graded_product_reference`, `exp_reference` and `log_reference`
(conftest), in the same key order, on the three key types of the package:
words (free associative series), trace keys (`TraceSeries`) and monomials
(`Poly`).  Under a grading by a tuple, such as (x-degree, y-degree), they
must return the results under total degree, cut to the order componentwise.

The sparse eliminator `util.rref`, and `nullspace`, `solve_each` and
`common_kernel` on it, must return what the dense Gauss-Jordan
`rref_dense_reference` (conftest) gives, on dense and mostly-zero
rational matrices of every shape.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympair import util
from sympair.poly import _mono_mul
from sympair.series import TraceSeries, _merge_keys

from conftest import exp_reference, graded_product_reference, log_reference, rref_dense_reference

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

#: name -> (key strategy, degree, combine, unit)
KINDS = {
    "words": (st.lists(st.integers(0, 1), max_size=4).map(tuple), len, operator.add, ()),
    "trace": (st.lists(st.tuples(st.sampled_from("pkg"), st.integers(1, 4)), max_size=3).map(lambda k: tuple(sorted(k))),
              TraceSeries.degree, _merge_keys, ()),
    "monomials": (st.tuples(st.integers(0, 3), st.integers(0, 3)), sum, _mono_mul, (0, 0)),
}

#: small coefficients make cancellations likely; coprime and large denominators stress the scaling
COEFFS = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool), st.sampled_from([3, 7, 11, 13, 101, 2 ** 31 - 1])),
    st.builds(Fraction, st.integers(-10 ** 18, 10 ** 18).filter(bool), st.integers(1, 10 ** 15)),
)

ORDERS = st.integers(0, 6)


class Element:
    """A {key: Fraction} dict with the operations the reference loops use."""

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other):
        return Element(util.add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Element({k: c * v for k, v in self.terms.items()} if c else {})

    def is_zero(self):
        return not self.terms


def terms(kind, positive=False):
    keys, degree, _, _ = KINDS[kind]
    if positive:
        keys = keys.filter(lambda k: degree(k) > 0)
    return st.dictionaries(keys, COEFFS, max_size=5)


def reference_exp_log(kind, order):
    """(exp, log) by the reference loops, on dicts."""
    _, degree, combine, unit = KINDS[kind]
    one = Element({unit: Fraction(1)})

    def mul(a, b):
        return Element(graded_product_reference(a.terms, b.terms, degree, order, combine))

    return (lambda x: exp_reference(Element(x), one, mul).terms,
            lambda x: log_reference(Element(x), one, mul).terms)


def same(out: dict, expected: dict) -> bool:
    """Equal coefficients in equal key order, every one a nonzero Fraction."""
    return list(out.items()) == list(expected.items()) and all(type(c) is Fraction and c for c in out.values())


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_graded_product_matches_reference(kind, data):
    _, degree, combine, _ = KINDS[kind]
    left, right = data.draw(terms(kind)), data.draw(terms(kind))
    order = data.draw(st.none() | ORDERS)
    expected = graded_product_reference(left, right, degree, order, combine)
    assert same(util.graded_product(left, right, degree, order, combine), expected)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_exp_matches_reference(kind, data):
    _, degree, combine, unit = KINDS[kind]
    x, order = data.draw(terms(kind, positive=True)), data.draw(ORDERS)
    exp, _ = reference_exp_log(kind, order)
    assert same(util.exp(x, unit, degree, order, combine), exp(x))


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_log_matches_reference(kind, data):
    _, degree, combine, unit = KINDS[kind]
    u, order = data.draw(terms(kind, positive=True)), data.draw(ORDERS)
    x = {unit: Fraction(1), **u} if data.draw(st.booleans()) else {**u, unit: Fraction(1)}
    _, log = reference_exp_log(kind, order)
    assert same(util.log(x, unit, degree, order, combine), log(x))


@pytest.mark.parametrize("kind", KINDS)
def test_empty_factors_and_order_zero(kind):
    _, degree, combine, unit = KINDS[kind]
    x = {unit: Fraction(3, 7)}
    for order in (None, 0, 3):
        assert util.graded_product({}, x, degree, order, combine) == {}
        assert util.graded_product(x, {}, degree, order, combine) == {}
    assert util.graded_product(x, x, degree, 0, combine) == {unit: Fraction(9, 49)}
    assert util.exp({}, unit, degree, 4, combine) == {unit: 1}
    assert util.log({unit: Fraction(1)}, unit, degree, 4, combine) == {}


def test_cancelled_keys_are_dropped():
    # (x + y)(x - y) = x^2 - y^2: the two xy products cancel
    left = {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 5)}
    right = {(1, 0): Fraction(1, 3), (0, 1): Fraction(-1, 5)}
    assert util.graded_product(left, right, sum, None, _mono_mul) == {(2, 0): Fraction(1, 9), (0, 2): Fraction(-1, 25)}
    # log(exp(u)) = u: every power of u above the first cancels
    for kind, u in (("words", {(0,): Fraction(2, 3), (1, 0): Fraction(-5, 7)}),
                    ("trace", {(("p", 2),): Fraction(1, 12), (("g", 4),): Fraction(-1, 2 ** 31 - 1)}),
                    ("monomials", {(1, 0): Fraction(1, 3), (0, 2): Fraction(-7, 10 ** 12 + 39)})):
        _, degree, combine, unit = KINDS[kind]
        e = util.exp(u, unit, degree, 6, combine)
        assert same(util.log(e, unit, degree, 6, combine), u)


@pytest.mark.parametrize("u", [
    # x^3 cancels in the partial sum through u^2 and comes back with u^3
    {(1, 0): Fraction(1), (2, 0): Fraction(1), (3, 0): Fraction(-1)},
    # x^2 y cancels inside u^2, which then multiplies into u^3
    {(1, 0): Fraction(1), (0, 1): Fraction(-1), (2, 0): Fraction(1), (1, 1): Fraction(1)},
], ids=["in-sum", "in-power"])
def test_key_order_after_cancellation(u):
    """A cancelled key leaves the sum and re-enters at its end, as in the reference loops."""
    _, degree, combine, unit = KINDS["monomials"]
    exp, log = reference_exp_log("monomials", 6)
    assert same(util.exp(u, unit, degree, 6, combine), exp(u))
    x = {unit: Fraction(1), **u}
    assert same(util.log(x, unit, degree, 6, combine), log(x))


def test_power_sum_needs_positive_degrees():
    with pytest.raises(ValueError):
        util.exp({(("p", 0),): Fraction(1)}, (), TraceSeries.degree, 4, _merge_keys)


# -- gradings by a tuple -------------------------------------------------------------

def bidegree(m):
    """(x-degree, y-degree) of a monomial in x0, x1, y0, y1, w: w has weight 0."""
    return m[0] + m[1], m[2] + m[3]


BI_UNIT = (0,) * 5
BI_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 1)).filter(lambda m: sum(bidegree(m)) > 0),
    COEFFS, max_size=5)
BI_ORDERS = st.tuples(st.integers(0, 2), st.integers(0, 2))


def within(terms: dict, order) -> dict:
    return {m: c for m, c in terms.items() if all(d <= o for d, o in zip(bidegree(m), order))}


def nonzero_fractions(terms: dict) -> bool:
    return all(type(c) is Fraction and c for c in terms.values())


@PROPERTY
@given(left=BI_TERMS, right=BI_TERMS, order=BI_ORDERS)
def test_graded_product_under_a_tuple_order_filters_the_full_product(left, right, order):
    out = util.graded_product(left, right, bidegree, order, _mono_mul)
    assert out == within(util.graded_product(left, right, sum, None, _mono_mul), order)
    assert nonzero_fractions(out)


@PROPERTY
@given(u=BI_TERMS, order=BI_ORDERS)
def test_exp_under_a_tuple_order_filters_the_total_degree_exp(u, order):
    # a term within (a, r) is a product of at most a + r factors of u, each of
    # total degree at most its (x + y)-degree plus the largest w-degree in u
    a, r = order
    w = max((m[4] for m in u), default=0)
    out = util.exp(u, BI_UNIT, bidegree, order, _mono_mul)
    assert out == within(util.exp(u, BI_UNIT, sum, (a + r) * (1 + w), _mono_mul), order)
    assert nonzero_fractions(out)


@PROPERTY
@given(u=BI_TERMS, v=BI_TERMS, n=st.integers(-1, 4))
def test_a_one_component_tuple_order_is_the_int_order(u, v, n):
    """The int path is pinned to the reference loops above; a 1-tuple grading gives its dicts."""
    def total(m):
        return (sum(m),)

    assert same(util.graded_product(u, v, total, (n,), _mono_mul), util.graded_product(u, v, sum, n, _mono_mul))
    assert same(util.exp(u, BI_UNIT, total, (n,), _mono_mul), util.exp(u, BI_UNIT, sum, n, _mono_mul))


def test_power_sum_under_a_tuple_order():
    with pytest.raises(ValueError):  # every term needs a positive component sum
        util.exp({(0, 0, 0, 0, 1): Fraction(1)}, BI_UNIT, bidegree, (2, 2), _mono_mul)
    assert util.exp({(1, 0, 0, 0, 0): Fraction(1)}, BI_UNIT, bidegree, (2, -1), _mono_mul) == {}
    assert util.exp({(1, 0, 0, 0, 1): Fraction(1)}, BI_UNIT, bidegree, (2, 0), _mono_mul) == \
        {BI_UNIT: 1, (1, 0, 0, 0, 1): 1, (2, 0, 0, 0, 2): Fraction(1, 2)}


# -- sparse elimination -------------------------------------------------------

@st.composite
def rational_matrices(draw):
    """(rows, ncols): dense or >= 80% zero, wide or tall, with zero rows and duplicate rows."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    if draw(st.booleans()):
        filled = cells
    else:
        filled = draw(st.lists(st.sampled_from(cells), max_size=len(cells) // 5)) if len(cells) >= 5 else []
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for i, j in filled:
        rows[i][j] = draw(st.fractions(-4, 4, max_denominator=5))
    rows += [[Fraction(0)] * ncols for _ in range(draw(st.integers(0, 2)))]
    if nrows:
        rows += [list(rows[draw(st.integers(0, nrows - 1))]) for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows)), ncols


def nullspace_reference(rows, ncols):
    R, pivots = rref_dense_reference(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


@PROPERTY
@given(rational_matrices())
@example(([], 3))
def test_rref_matches_dense_reference(matrix):
    rows, ncols = matrix
    R, pivots = util.rref([dict(enumerate(row)) for row in rows])  # zero entries included
    expected_rows, expected_pivots = rref_dense_reference(rows)
    assert pivots == expected_pivots
    assert [[row.get(c, 0) for c in range(ncols)] for row in R] == expected_rows
    assert all(type(x) is Fraction and x for row in R for x in row.values())


@PROPERTY
@given(rational_matrices())
@example(([], 3))
def test_nullspace_and_common_kernel_match_dense_reference(matrix):
    rows, ncols = matrix
    expected = nullspace_reference(rows, ncols)
    assert util.nullspace(rows, ncols) == expected
    # the rows split over two maps, each reading the column of a key
    halves = [rows[:len(rows) // 2], rows[len(rows) // 2:]]
    maps = [lambda key, half=half: {i: row[key[1]] for i, row in enumerate(half) if row[key[1]]} for half in halves]
    assert util.common_kernel([("x", c) for c in range(ncols)], maps) == expected


@st.composite
def linear_systems(draw):
    """(rows, ncols, bs): images A x, which are consistent, and arbitrary vectors, which may not be."""
    rows, ncols = draw(rational_matrices())
    entries = st.fractions(-3, 3, max_denominator=3)
    xs = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=2))
    bs = [tuple(util.vec_dot(row, x) for row in rows) for x in xs]
    return rows, ncols, bs + draw(st.lists(st.tuples(*[entries] * len(rows)), max_size=1))


@PROPERTY
@given(linear_systems())
@example(([], 3, [()]))
def test_solve_each_matches_dense_reference(system):
    rows, ncols, bs = system
    width = ncols if rows else 0  # `solve_each` reads the width off the first row
    R, pivots = rref_dense_reference([list(row) + [b[i] for b in bs] for i, row in enumerate(rows)])
    expected = None
    if not (pivots and pivots[-1] >= width):
        expected = []
        for k in range(width, width + len(bs)):
            x = [Fraction(0)] * width
            for row, pc in zip(R, pivots):
                x[pc] = row[k]
            expected.append(tuple(x))
    assert util.solve_each(rows, bs) == expected
