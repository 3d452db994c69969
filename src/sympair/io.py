"""Algebra-definition files, polynomial serialization, and run reports.

The single ingestion format is a JSON object:

    {
      "name": "sl2",
      "basis": ["H", "X", "Y"],
      "brackets": {"[0,1]": {"1": "2"}, "[0,2]": {"2": "-2"}, "[1,2]": {"0": "1"}},
      "sigma": [["-1","0","0"], ["0","0","-1"], ["0","-1","0"]],
      "definitions": {"omega": {"H^2": "1", "(X+Y)^2": "1"}},
      "iwasawa": {"p0": [...], "n_plus": [...], "k0": [...], "r": [...]},
      "weyl": [[[...], ...]]
    }

Rationals are canonical "p/q" strings and indices are 0-based.  Vectors in
the iwasawa block are over the original basis.  Polynomial definitions use
monomial keys like "H^2*(X+Y)^1" resolved against the adapted basis names.
"""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction

from . import util
from .errors import SympairError, UnknownSymbol
from .liealg import Character, LieAlgebraDef, SymmetricPair, build_symmetric_pair
from .hc import IwasawaData
from .poly import Poly
from .polyops import BlockPolynomial

_BRACKET_KEY = re.compile(r"^\[(\d+),(\d+)\]$")


def load_algebra_file(path: str):
    with open(path) as fh:
        data = json.load(fh)
    return parse_algebra(data)


def _object(data, keys, what: str) -> dict:
    """`data`, checked to be a JSON object holding `keys`; `what` names it in errors."""
    if not isinstance(data, dict):
        raise SympairError(f"{what} must hold a JSON object")
    for key in keys:
        if key not in data:
            raise SympairError(f"missing key {key!r} in {what}")
    return data


def _rational(value, what: str) -> Fraction:
    """`value` read as an exact rational; `what` names it in errors."""
    try:
        return util.frac(value)
    except (TypeError, ValueError) as e:
        raise SympairError(f"{what}: {e}") from None


def _vectors(value, dim: int, what: str) -> list[util.Vec]:
    """`value` read as a list of rational vectors of length dim; `what` names it in errors."""
    if not isinstance(value, list) or not all(isinstance(v, list) and len(v) == dim for v in value):
        raise SympairError(f"{what} must be a list of vectors of length {dim}")
    return [tuple(_rational(c, what) for c in v) for v in value]


def parse_algebra(data: dict):
    _object(data, ("name", "basis", "sigma"), "algebra file")
    name, basis = data["name"], data["basis"]
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise SympairError("key 'basis' in algebra file must be a list of names")
    brackets = {}
    for key, coeffs in _object(data.get("brackets", {}), (), "the 'brackets' block of algebra file").items():
        m = _BRACKET_KEY.match(key.replace(" ", ""))
        if not m:
            raise ValueError(f"bad bracket key {key!r}")
        what = f"bracket {key!r} in algebra file"
        ij = int(m.group(1)), int(m.group(2))
        if ij in brackets:
            raise SympairError(f"{what} repeats the basis pair {ij}")
        brackets[ij] = {}
        for k, v in _object(coeffs, (), what).items():
            t = int(k) if k.strip().isdecimal() else -1
            if not 0 <= t < len(basis):
                raise SympairError(f"{what}: target index {k} outside 0..{len(basis) - 1}")
            if t in brackets[ij]:
                raise SympairError(f"{what}: target index {t} is repeated")
            brackets[ij][t] = _rational(v, what)
    algebra = LieAlgebraDef(name, basis, brackets)
    sigma = _vectors(data["sigma"], algebra.dim, "key 'sigma' in algebra file")
    adapted = None
    if "adapted" in data:
        block = _object(data["adapted"], ("p", "k"), "the 'adapted' block of algebra file")
        adapted = [_vectors(block[key], algebra.dim, f"'adapted' key {key!r} in algebra file")
                   for key in ("p", "k")]
    pair = build_symmetric_pair(algebra, sigma, adapted=adapted)
    return pair, data


def block_names(pair: SymmetricPair, space: str) -> list[str]:
    """Adapted basis names of one block, in block order."""
    return [pair.adapted_names[i] for i in pair.block_indices(space)]


def parse_monomial(pair: SymmetricPair, key: str, space: str = "p"):
    """Monomial string like "H^2*(X+Y)^1" -> exponent tuple over a block.

    A malformed exponent raises SympairError.  An unknown symbol raises
    UnknownSymbol: the key may be over another block.
    """
    names = {sym: t for t, sym in enumerate(block_names(pair, space))}
    exps = [0] * len(names)
    key = key.strip()
    if key in ("", "1"):
        return tuple(exps)
    for factor in key.split("*"):
        factor = factor.strip()
        if "^" in factor:
            sym, power = factor.rsplit("^", 1)
            if not power.strip().isdecimal():
                raise SympairError(f"exponent {power!r} is not a non-negative integer")
            power = int(power)
        else:
            sym, power = factor, 1
        sym = sym.strip()
        if sym.startswith("(") and sym.endswith(")"):
            sym = sym[1:-1]
        if sym not in names:
            raise UnknownSymbol(f"unknown symbol {sym!r}; adapted names are {pair.adapted_names}")
        exps[names[sym]] += power
    return tuple(exps)


def resolve_definition(pair: SymmetricPair, data: dict, name: str, space: str = "p") -> BlockPolynomial:
    defs = _object(data.get("definitions", {}), (), "the 'definitions' block of algebra file")
    if name not in defs:
        raise SympairError(f"no definition named {name!r} under key 'definitions' in algebra file")
    what = f"definition {name!r} in algebra file"
    terms = {}
    for key, c in _object(defs[name], (), what).items():
        where = f"{what}, monomial {key!r}"
        c = _rational(c, where)
        try:
            exps = parse_monomial(pair, key, space)
        except SympairError as e:
            raise type(e)(f"{where}: {e}") from None
        terms[exps] = terms.get(exps, Fraction(0)) + c
    return BlockPolynomial(pair, space, Poly(len(pair.block_indices(space)), terms))


def load_character(pair: SymmetricPair, data: dict, name: str) -> Character | None:
    """The character defined under `name` in the 'characters' block, or None."""
    block = _object(data.get("characters", {}), (), "the 'characters' block of algebra file")
    if name not in block:
        return None
    value, what = block[name], f"'characters' key {name!r} in algebra file"
    if not isinstance(value, list) or len(value) != pair.dim_k:
        raise SympairError(f"{what} must be a list of {pair.dim_k} rationals")
    return Character(pair, [_rational(c, what) for c in value])


def load_weyl(pair: SymmetricPair, data: dict) -> list[list[util.Vec]]:
    """The matrices of the 'weyl' block, each dim x dim over the original basis."""
    value, what = data["weyl"], "key 'weyl' in algebra file"
    if not isinstance(value, list) or not all(isinstance(m, list) and len(m) == pair.dim for m in value):
        raise SympairError(f"{what} must be a list of {pair.dim}x{pair.dim} matrices")
    return [_vectors(m, pair.dim, what) for m in value]


def format_monomial(names: list[str], exps) -> str:
    parts = []
    for t, e in enumerate(exps):
        if not e:
            continue
        sym = names[t]
        if re.search(r"[+\-*/]", sym):
            sym = f"({sym})"
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return "*".join(parts) if parts else "1"


def _signed_sum(terms) -> str:
    """Render (coefficient, label) pairs as "c*label + ... - c*label"; label None is a constant."""
    parts = []
    for coeff, label in terms:
        if label is None:
            term = util.fmt(coeff)
        elif coeff == 1:
            term = label
        elif coeff == -1:
            term = f"-{label}"
        else:
            term = f"{util.fmt(coeff)}*{label}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def format_poly(names: list[str], poly: Poly) -> str:
    """Render a polynomial over the given symbol names, highest degree first."""
    items = sorted(poly.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
    return _signed_sum((c, format_monomial(names, exps) if any(exps) else None) for exps, c in items)


def pretty_in_definitions(pair: SymmetricPair, data: dict, f: BlockPolynomial) -> str:
    """Render f as a polynomial in one named definition when possible.

    Tries, for each definition d, to match f = sum_k c_k d^k by exact
    linear algebra on monomial coordinates; falls back to raw monomials.
    """
    defs = data.get("definitions", {})
    for name in sorted(defs):
        try:
            d = resolve_definition(pair, data, name, f.space)
        except UnknownSymbol:  # a definition over another block
            continue
        if d.poly.is_zero() or d.degree() == 0:
            continue
        max_pow = f.degree() // d.degree() if d.degree() else 0
        powers = [BlockPolynomial.constant(pair, f.space, 1)]
        for _ in range(max_pow):
            powers.append(powers[-1] * d)
        monos = sorted(set(m for q in powers for m in q.poly.terms) | set(f.poly.terms))
        A = [[q.poly.terms.get(m, Fraction(0)) for q in powers] for m in monos]
        b = tuple(f.poly.terms.get(m, Fraction(0)) for m in monos)
        x = util.solve(A, b)
        if x is None:
            continue
        return _signed_sum((x[k], None if k == 0 else name if k == 1 else f"{name}^{k}")
                           for k in range(len(powers) - 1, -1, -1) if x[k])
    return format_poly(block_names(pair, f.space), f.poly)


def load_iwasawa(pair: SymmetricPair, data: dict) -> IwasawaData:
    _object(data, ("iwasawa",), "algebra file")
    block = _object(data["iwasawa"], (), "the 'iwasawa' block of algebra file")
    conv = lambda key: [pair.to_adapted(v) for v in
                        _vectors(block.get(key, []), pair.dim, f"'iwasawa' key {key!r} in algebra file")]
    return IwasawaData(pair, conv("p0"), conv("n_plus"), conv("k0"), conv("r"))


def load_polarization(pair: SymmetricPair, path: str) -> list[util.Vec]:
    """The candidate subspace of a polarization file, in adapted coordinates.

    The file holds {"b": [vector, ...]} with vectors over the original basis.
    """
    with open(path) as fh:
        data = _object(json.load(fh), ("b",), f"polarization file {path}")
    return [pair.to_adapted(v) for v in _vectors(data["b"], pair.dim, f"key 'b' in polarization file {path}")]


def load_graph_file(path: str):
    with open(path) as fh:
        data = json.load(fh)
    return parse_graph(data)


def parse_graph(data: dict):
    from .graphs import ColoredGraph
    _object(data, ("n", "m", "edges"), "graph file")
    if not all(type(data[k]) is int and data[k] >= 0 for k in ("n", "m")):
        raise SympairError("graph 'n' and 'm' must be vertex counts")
    edges = data["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 3 for e in edges):
        raise SympairError("graph edges must be [source, target, color] triples")
    # ColoredGraph checks each edge's endpoints and color, naming the edge
    return ColoredGraph(data["n"], data["m"], [tuple(e) for e in edges])


class RunReport:
    def __init__(self, command):
        self.command = list(command)
        self.inputs_digest = None
        self.results = []
        self._t0 = time.monotonic()

    def digest_file(self, path: str):
        import hashlib  # here, not at the top: it maps libcrypto, a few MB of RSS

        with open(path, "rb") as fh:
            self.inputs_digest = hashlib.sha256(fh.read()).hexdigest()

    def add(self, label: str, value, std_error=None, **fields):
        entry = {"label": label}
        if isinstance(value, Fraction):
            entry["value"] = util.fmt(value)
        elif isinstance(value, float):
            entry["value"] = value
            if std_error is not None:
                entry["std_error"] = std_error
        else:
            entry["value"] = value
        entry.update(fields)
        self.results.append(entry)

    def as_dict(self):
        return {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "results": self.results,
            "elapsed_s": time.monotonic() - self._t0,
        }

    def write_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")
