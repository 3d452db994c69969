"""The benchmark workloads: set-up, the calls of one pass, their checks.

A pass is a fixed list of calls; only the coefficients of its inputs (and
the Monte-Carlo seeds) are drawn from the workload seed, so every seed
does the same kind of work.  Library functions are looked up on the
`sympair` package at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import oracles

ROOT = Path(__file__).resolve().parent.parent

#: Monte-Carlo samples per weight_mc call: one of the library's sampling
#: chunks, so a call is short enough to be timed many times in a run
SAMPLES = 1 << 15

#: the wedge's weight, which fixes the normalization of all weights
WEDGE_WEIGHT = 0.5


class Op(NamedTuple):
    family: str                       # rouviere, star_dk, star_cf, exp_coord, free_lie, weight
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    memo: Callable[[object], object]  # output -> key of a reusable verdict


class SetupError(Exception):
    pass


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9)), rng.randint(1, 5))


def _load(name: str):
    import sympair.io

    return sympair.io.load_algebra_file(str(ROOT / "algebras" / f"{name}.json"))[0]


def _invariants(pair, max_degree: int) -> dict:
    import sympair

    return {d: sympair.invariant_subspace(pair, d) for d in range(1, max_degree + 1)}


def _combo(sp, pair, bases: dict, degree: int, rng):
    """A random constant plus a random combination of all invariants of degree <= `degree`."""
    terms = {(0,) * pair.dim_p: _coeff(rng)}
    for d in range(1, degree + 1):
        for b in bases[d]:
            c = _coeff(rng)
            for m, v in b.poly.terms.items():
                terms[m] = terms.get(m, 0) + c * v
    return sp.BlockPolynomial(pair, "p", sp.Poly(pair.dim_p, terms))


def _g_poly(sp, pair, degree: int, shape: random.Random, rng):
    """An S(g) polynomial: two monomials of the top degree, one of each lower degree.

    The monomials come from `shape`, which does not depend on the workload
    seed, because their choice moves the cost of star_dk several-fold;
    the coefficients come from `rng`.
    """
    from sympair.poly import monomials_of_degree

    terms = {}
    for d in range(degree, -1, -1):
        monos = list(monomials_of_degree(pair.dim, d))
        for m in shape.sample(monos, 2 if d == degree else 1):
            terms[m] = _coeff(rng)
    return sp.BlockPolynomial(pair, "g", sp.Poly(pair.dim, terms))


# -- product checks --------------------------------------------------------


def _terms_key(out):
    return frozenset(out.terms.items())


def _block_key(out):
    return frozenset(out.poly.terms.items())


def _product_check(pair, P, Q, invariant: bool):
    def check(out) -> bool:
        terms = out.poly.terms
        if not oracles.top_degree_matches(P.poly.terms, Q.poly.terms, terms):
            return False
        return not invariant or oracles.is_k_invariant(pair, terms)

    return check


def _rouviere(sp, st, name, a, b, rng):
    pair, bases = st["pairs"][name], st["bases"][name]
    P, Q = _combo(sp, pair, bases, a, rng), _combo(sp, pair, bases, b, rng)
    return Op("rouviere", f"{name} rouviere {a}x{b}",
              lambda: sp.rouviere_sharp(pair, P, Q),
              _product_check(pair, P, Q, invariant=True), _block_key)


def _star_cf(sp, st, name, a, b, rng):
    pair, bases = st["pairs"][name], st["bases"][name]
    P, Q = _combo(sp, pair, bases, a, rng), _combo(sp, pair, bases, b, rng)
    return Op("star_cf", f"{name} star_cf {a}x{b}",
              lambda: sp.star_cf(pair, P, Q),
              _product_check(pair, P, Q, invariant=True), _block_key)


def _star_dk(sp, st, name, a, b, rng):
    pair = st["pairs"][name]
    label = f"{name} star_dk {a}x{b}"
    shape = random.Random(label)
    f, g = _g_poly(sp, pair, a, shape, rng), _g_poly(sp, pair, b, shape, rng)
    return Op("star_dk", label,
              lambda: sp.star_dk(pair, f, g),
              _product_check(pair, f, g, invariant=False), _block_key)


# -- products-wide ---------------------------------------------------------


def setup_products_wide() -> dict:
    import pairs

    st = {"pairs": {"sl2diag": _load("sl2diag"), "sl3": pairs.sl_so_pair(3), "sl4": pairs.sl_so_pair(4)}}
    degrees = {"sl2diag": 3, "sl3": 3, "sl4": 2}
    st["bases"] = {n: _invariants(p, degrees[n]) for n, p in st["pairs"].items()}
    for name, split in (("sl3", (5, 3)), ("sl4", (9, 6))):
        pair = st["pairs"][name]
        if (pair.dim_p, pair.dim_k) != split:
            raise SetupError(f"{name}/so: p + k = {pair.dim_p} + {pair.dim_k}, expected {split}")
        if len(st["bases"][name][2]) != 1:
            raise SetupError(f"{name}/so: {len(st['bases'][name][2])} degree-2 invariants, expected 1")
    return st


def pass_products_wide(sp, st, rng) -> list[Op]:
    # Every call takes under about 0.1 s: a longer call can never run
    # whole within the machine's short fast phases, so its fastest time
    # follows the machine's speed mix.  That left out the 2x2 products on
    # sl4 (0.3-0.5 s) and the 3x2 Rouviere and 2x2 star_dk products on sl3
    # (0.28 and 0.17 s).
    return [
        _rouviere(sp, st, "sl2diag", 2, 2, rng),
        _rouviere(sp, st, "sl2diag", 3, 2, rng),
        _star_cf(sp, st, "sl2diag", 2, 2, rng),
        _star_cf(sp, st, "sl2diag", 3, 2, rng),
        _star_dk(sp, st, "sl2diag", 2, 2, rng),
        _star_dk(sp, st, "sl2diag", 2, 2, rng),
        _rouviere(sp, st, "sl3", 2, 2, rng),
        _rouviere(sp, st, "sl3", 2, 1, rng),
        _star_cf(sp, st, "sl3", 2, 2, rng),
        _star_cf(sp, st, "sl3", 3, 2, rng),
        _star_dk(sp, st, "sl3", 1, 1, rng),
        _rouviere(sp, st, "sl4", 2, 1, rng),
    ]


# -- lie-series ------------------------------------------------------------


def setup_lie_series() -> dict:
    st = {"pairs": {n: _load(n) for n in ("sl2", "solvable4", "sl2diag")}}
    st["bases"] = {n: _invariants(p, 4) for n, p in st["pairs"].items()}
    st["words"] = {order: oracles.WordAlgebra(order) for order in (6, 7, 8)}
    return st


def _exp_coord(sp, st, name, degree, jet, at_zero, rng):
    pair, bases = st["pairs"][name], st["bases"][name]
    R = _combo(sp, pair, bases, degree, rng)
    if at_zero:
        X = (0,) * pair.dim
    else:
        X = tuple(_coeff(rng) for _ in range(pair.dim_p)) + (0,) * pair.dim_k

    def check(out) -> bool:
        if out.nvars != pair.dim_p:
            return False
        if at_zero:  # the normalized symbol at the origin is R itself
            return out.terms == R.poly.terms
        return bool(out.terms) and out.degree() <= R.degree()

    where = "X=0" if at_zero else "X"
    return Op("exp_coord", f"{name} exp_coord R{degree} jet{jet} {where}",
              lambda: sp.exp_coord_operator(pair, R, jet, X=X), check, _terms_key)


def pass_lie_series(sp, st, rng) -> list[Op]:
    words = st["words"]
    ops = []
    for order in (6, 7, 8):
        ops.append(Op("free_lie", f"bch {order}", lambda o=order: sp.bch(o),
                      lambda Z, o=order: oracles.bch_ok(words[o], Z), _terms_key))
    for order in (6, 7, 8):
        ops.append(Op("free_lie", f"z_sym {order}", lambda o=order: sp.z_sym(o),
                      oracles.z_sym_ok, _terms_key))
    # As in products-wide, calls take under about 0.15 s: sym_factorize(7)
    # and (8) (0.4 and 2 s) and exp_coord_operator at jet 6 on sl2 and
    # sl2diag (0.2 and 0.7 s) are left out.
    ops.append(Op("free_lie", "sym_factorize 6", lambda: sp.sym_factorize(6),
                  lambda PK: oracles.sym_factorize_ok(words[6], *PK),
                  lambda PK: (_terms_key(PK[0]), _terms_key(PK[1]))))
    ops.append(Op("free_lie", "h_component 4", lambda: sp.h_component(4),
                  lambda H: oracles.h_component_ok(H, 4), _terms_key))
    ops += [
        _exp_coord(sp, st, "sl2", 2, 5, True, rng),
        _exp_coord(sp, st, "sl2", 4, 4, False, rng),
        _exp_coord(sp, st, "solvable4", 3, 6, False, rng),
        _exp_coord(sp, st, "solvable4", 4, 6, True, rng),
        _exp_coord(sp, st, "solvable4", 2, 4, False, rng),
        _exp_coord(sp, st, "sl2diag", 2, 4, True, rng),
        _exp_coord(sp, st, "sl2diag", 2, 4, False, rng),
    ]
    return ops


# -- graph-weights ---------------------------------------------------------


def setup_graph_weights() -> dict:
    import sympair.io

    graphs = [(f, sympair.io.load_graph_file(str(ROOT / "algebras" / "graphs" / f"{f}.json")))
              for f in ("wedge", "bernoulli", "pattern_zero")]
    graphs.append(("wedge built", sympair.ColoredGraph(1, 2, [(0, 1, "+"), (0, 2, "+")])))
    top = [g for g in sympair.enumerate_graphs(2, 2, [2, 2])
           if len(g.finite_edges) == 2 * g.n + g.m - 2]
    graphs += [(f"n2m2 #{i}", g) for i, g in enumerate(top)]
    index = {g: t for t, (_, g) in enumerate(graphs)}
    flagged, mirror = set(), {}
    for t, (label, g) in enumerate(graphs):
        if sympair.zero_weight_predicate(g) is not sympair.graphs.UNKNOWN:
            flagged.add(t)
        partner = index.get(g.mirror())  # exact: a relabeling can flip the sign
        if partner is not None:
            mirror[t] = (partner, sympair.mirror_orientation_sign(g))
    wedges = {t for t, (label, _) in enumerate(graphs) if label.startswith("wedge")}
    return {"graphs": graphs, "flagged": flagged, "mirror": mirror, "wedges": wedges}


def pass_graph_weights(sp, st, rng) -> list[Op]:
    done: dict[int, object] = {}
    ops = []
    for t, (label, g) in enumerate(st["graphs"]):
        seed = rng.getrandbits(63)

        def check(est, t=t) -> bool:
            done[t] = est
            ok = math.isfinite(est.value) and math.isfinite(est.std_error)
            if t in st["wedges"]:
                ok = ok and oracles.within(est.value, WEDGE_WEIGHT, est.std_error)
            if t in st["flagged"]:
                ok = ok and oracles.within(est.value, 0.0, est.std_error)
            partner, sign = st["mirror"].get(t, (None, 1))
            if partner == t and sign == -1:
                ok = ok and oracles.within(est.value, 0.0, est.std_error)
            elif partner is not None and partner in done and partner != t:
                other = done[partner]
                se = (est.std_error ** 2 + other.std_error ** 2) ** 0.5
                ok = ok and oracles.within(other.value, sign * est.value, se)
            return ok

        ops.append(Op("weight", f"weight_mc {label}",
                      lambda g=g, seed=seed: sp.weight_mc(g, SAMPLES, seed), check,
                      lambda est: (est.value, est.std_error)))
    return ops


WORKLOADS = {
    "products-wide": (setup_products_wide, pass_products_wide),
    "lie-series": (setup_lie_series, pass_lie_series),
    "graph-weights": (setup_graph_weights, pass_graph_weights),
}
