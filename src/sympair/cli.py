"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 validation error (with witness).
Exact results print as p/q rationals; Monte-Carlo estimates carry explicit
error fields.  --json writes the machine-readable run report.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import io as sio
from . import starprod, util
from .errors import SympairError
from .freelie import bch as bch_series
from .freelie import bracket_of_word, evaluate_bracket, z_sym
from .graphs import weight_mc, zero_weight_predicate, UNKNOWN
from .hc import hc_restrict, weyl_invariance_check
from .liealg import Character, PolarizationCandidate, combo_name
from .polyops import invariant_subspace
from .series import density_series
from .starprod import character_sigma_stable, h_component, star_cf
from .uea import duflo_relation_check, rouviere_sharp, star_dk


def _bracket_str(word) -> str:
    return evaluate_bracket(bracket_of_word(word), "X", "Y", lambda u, v: f"[{u},{v}]", {})


def _print_lie_series(series, report):
    for w in sorted(series.terms, key=lambda u: (len(u), u)):
        label = _bracket_str(w)
        report.add(label, series.terms[w])
        print(f"  {util.fmt(series.terms[w])} * {label}")


def _character(pair, name: str, data=None) -> Character:
    if name in (None, "zero"):
        return pair.zero_character()
    if name == "trk":
        return pair.trk_character()
    if name == "half-trk":
        return pair.trk_character().scale(Fraction(1, 2))
    named = sio.load_character(pair, data or {}, name)
    if named is not None:
        return named
    raise SympairError(f"unknown character {name!r} (use zero | trk | half-trk or a file-defined name)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sympair", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def with_common(p, algebra=True):
        if algebra:
            p.add_argument("algebra", help="algebra definition JSON file")
        p.add_argument("--json", help="write the run report to this path")
        return p

    with_common(sub.add_parser("validate", help="validate an algebra file"))
    p = with_common(sub.add_parser("invariants", help="basis of S(p)^k in one degree"))
    p.add_argument("--degree", type=int, required=True)
    p = with_common(sub.add_parser("bch", help="Campbell-Hausdorff series"), algebra=False)
    p.add_argument("--order", type=int, required=True)
    p = with_common(sub.add_parser("zsym", help="symmetric-space BCH series"), algebra=False)
    p.add_argument("--order", type=int, required=True)
    p = with_common(sub.add_parser("star-dk", help="Duflo-Kontsevich product of two definitions"))
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p = with_common(sub.add_parser("star-rou", help="Rouviere product of two invariant definitions"))
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--lambda", dest="lam", default="zero")
    p = with_common(sub.add_parser("star-cf", help="E-function product of two invariant definitions"))
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--lambda", dest="lam", default="zero")
    p = with_common(sub.add_parser("e-series", help="print the two-argument expansion data"), algebra=False)
    p.add_argument("--order", type=int, default=4)
    p = with_common(sub.add_parser("hc-project", help="restrict an invariant to the little pair"))
    p.add_argument("--poly", required=True)
    p = with_common(sub.add_parser("graph-weight", help="Monte-Carlo weight of a colored graph"), algebra=False)
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=0)
    p = with_common(sub.add_parser("duflo-check", help="filtered Duflo-relation subspace equality"))
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--lambda", dest="lam", default="zero")
    p = with_common(sub.add_parser("char", help="character from a sigma-stable polarization"))
    p.add_argument("--poly", required=True)
    p.add_argument("--f", required=True, help="basis symbol name (dual form) or comma-separated coordinates")
    p.add_argument("--pol", required=True, help="JSON file with a 'b' list of basis vectors")
    p = with_common(sub.add_parser("densities", help="density series expanded on the pair"))
    p.add_argument("--kind", default="J_half", choices=["q", "J", "q_half", "J_half"])
    p.add_argument("--order", type=int, default=4)
    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    report = sio.RunReport(["sympair"] + list(argv))
    try:
        code = _dispatch(args, report)
        if args.json:
            report.write_json(args.json)
    except SympairError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


def _dispatch(args, report) -> int:
    cmd = args.cmd
    if cmd in ("bch", "zsym", "e-series", "graph-weight"):
        pair = None
    else:
        pair, data = sio.load_algebra_file(args.algebra)
        report.digest_file(args.algebra)

    if cmd == "validate":
        print(f"{pair.algebra.name}: dim {pair.dim}, dim k = {pair.dim_k}, dim p = {pair.dim_p}")
        print(f"  p basis: {pair.adapted_names[:pair.dim_p]}")
        print(f"  k basis: {pair.adapted_names[pair.dim_p:]}")
        report.add("dim_k", Fraction(pair.dim_k))
        report.add("dim_p", Fraction(pair.dim_p))
        return 0

    if cmd == "invariants":
        basis = invariant_subspace(pair, args.degree)
        print(f"S(p)^k in degree {args.degree}: dimension {len(basis)}")
        for f in basis:
            s = sio.format_poly(sio.block_names(pair, f.space), f.poly)
            print(f"  {s}")
            report.add(f"invariant", s)
        return 0

    if cmd == "bch":
        series = bch_series(args.order)
        print(f"log(e^X e^Y) through order {args.order}:")
        _print_lie_series(series, report)
        return 0

    if cmd == "zsym":
        series = z_sym(args.order)
        print(f"symmetric-space series through order {args.order}:")
        _print_lie_series(series, report)
        return 0

    if cmd == "e-series":
        series = h_component(args.order)
        print(f"k-component H(X,Y) through order {args.order}:")
        _print_lie_series(series, report)
        print("scalar log: order-2 term vanishes identically;")
        coeff = starprod.LN_E_ORDER4_COEFF
        print(f"order-4 term = {coeff} * (tr_p - tr_k)(ad[X,Y])^2")
        report.add("scalar_order4_coefficient", coeff)
        return 0

    if cmd in ("star-dk", "star-rou", "star-cf"):
        space = "g" if cmd == "star-dk" else "p"
        P = sio.resolve_definition(pair, data, args.p, space)
        Q = sio.resolve_definition(pair, data, args.q, space)
        if cmd == "star-dk":
            R = star_dk(pair, P, Q)
        elif cmd == "star-rou":
            R = rouviere_sharp(pair, P, Q, _character(pair, args.lam, data))
        else:
            R = star_cf(pair, P, Q, _character(pair, args.lam, data))
        rendered = sio.pretty_in_definitions(pair, data, R)
        print(rendered)
        report.add("product", rendered)
        return 0

    if cmd == "hc-project":
        iw = sio.load_iwasawa(pair, data)
        P = sio.resolve_definition(pair, data, args.poly, "p")
        res = hc_restrict(iw, P, True)
        out = sio.format_poly([combo_name(pair.adapted_names, v) for v in iw.p0], res)
        print(out)
        report.add("restriction", out)
        if "weyl" in data:
            ok = weyl_invariance_check(iw, [res], sio.load_weyl(pair, data))
            print(f"weyl-invariant: {ok}")
            report.add("weyl_invariant", "true" if ok else "false")
        return 0

    if cmd == "graph-weight":
        g = sio.load_graph_file(args.graph)
        report.digest_file(args.graph)
        pred = zero_weight_predicate(g)
        if pred is not UNKNOWN:
            print(f"predicate: {pred}")
            report.add("predicate", pred.reason)
        est = weight_mc(g, args.samples, args.seed)
        print(f"weight = {est.value:.6f} +- {est.std_error:.6f} ({est.samples} samples, seed {est.seed})")
        if est.nonfinite:
            print(f"non-finite samples left out: {est.nonfinite}")
        report.add("weight", est.value, est.std_error, nonfinite=est.nonfinite)
        return 0

    if cmd == "duflo-check":
        ok = duflo_relation_check(pair, _character(pair, args.lam, data), args.degree)
        print(f"duflo relation at degree {args.degree}: {'holds' if ok else 'FAILS'}")
        report.add("duflo_relation", "holds" if ok else "fails")
        return 0 if ok else 2

    if cmd == "char":
        P = sio.resolve_definition(pair, data, args.poly, "p")
        f = _parse_form(pair, args.f)
        b = sio.load_polarization(pair, args.pol)
        val = character_sigma_stable(pair, P, PolarizationCandidate(f, b))
        print(util.fmt(val))
        report.add("character", val)
        return 0

    if cmd == "densities":
        space = "p" if args.kind.startswith("J") else "g"
        compiled = density_series(args.kind, args.order).as_polynomial(pair, space)
        s = sio.format_poly(sio.block_names(pair, space), compiled)
        print(f"{args.kind} expanded to order {args.order} on {space}-coordinates of X:")
        print(f"  {s}")
        report.add(args.kind, s)
        return 0

    raise SympairError(f"unhandled command {cmd}")  # pragma: no cover


def _parse_form(pair, form: str):
    if "," in form:
        coords = util.vec(form.split(","))
        if len(coords) != pair.dim:
            raise ValueError("form needs one coordinate per basis symbol")
    elif form in pair.algebra.basis:
        coords = util.unit_vec(pair.dim, pair.algebra.basis.index(form))
    else:
        raise ValueError(f"unknown form {form!r}")
    # coordinates over the original dual basis; convert to adapted dual
    return tuple(util.vec_dot(coords, v) for v in pair.adapted_vectors)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
