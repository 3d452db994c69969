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

import hashlib
import json
import re
import time
from fractions import Fraction

from . import util
from .errors import SympairError
from .liealg import LieAlgebraDef, SymmetricPair, build_symmetric_pair
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


def _vectors(value, dim: int, what: str) -> list[util.Vec]:
    """`value` read as a list of rational vectors of length dim; `what` names it in errors."""
    if not isinstance(value, list) or not all(isinstance(v, list) and len(v) == dim for v in value):
        raise SympairError(f"{what} must be a list of vectors of length {dim}")
    try:
        return [util.vec(v) for v in value]
    except (TypeError, ValueError) as e:
        raise SympairError(f"{what}: {e}") from None


def parse_algebra(data: dict):
    _object(data, ("name", "basis", "sigma"), "algebra file")
    name = data["name"]
    basis = list(data["basis"])
    brackets = {}
    for key, coeffs in data.get("brackets", {}).items():
        m = _BRACKET_KEY.match(key.replace(" ", ""))
        if not m:
            raise ValueError(f"bad bracket key {key!r}")
        i, j = int(m.group(1)), int(m.group(2))
        try:
            brackets[(i, j)] = {int(k): util.frac(v) for k, v in coeffs.items()}
        except (TypeError, ValueError) as e:
            raise SympairError(f"bracket {key!r}: {e}") from None
    algebra = LieAlgebraDef(name, basis, brackets)
    try:
        sigma = [[util.frac(c) for c in row] for row in data["sigma"]]
    except (TypeError, ValueError) as e:
        raise SympairError(f"sigma: {e}") from None
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
    """Monomial string like "H^2*(X+Y)^1" -> exponent tuple over a block."""
    names = {sym: t for t, sym in enumerate(block_names(pair, space))}
    exps = [0] * len(names)
    key = key.strip()
    if key in ("", "1"):
        return tuple(exps)
    for factor in key.split("*"):
        factor = factor.strip()
        if "^" in factor:
            sym, power = factor.rsplit("^", 1)
            power = int(power)
        else:
            sym, power = factor, 1
        sym = sym.strip()
        if sym.startswith("(") and sym.endswith(")"):
            sym = sym[1:-1]
        if sym not in names:
            raise ValueError(f"unknown symbol {sym!r}; adapted names are {pair.adapted_names}")
        exps[names[sym]] += power
    return tuple(exps)


def parse_poly(pair: SymmetricPair, mapping: dict, space: str = "p") -> BlockPolynomial:
    nv = len(pair.block_indices(space))
    terms = {}
    for key, coeff in mapping.items():
        exps = parse_monomial(pair, key, space)
        terms[exps] = terms.get(exps, Fraction(0)) + util.frac(coeff)
    return BlockPolynomial(pair, space, Poly(nv, terms))


def resolve_definition(pair: SymmetricPair, data: dict, name: str, space: str = "p") -> BlockPolynomial:
    defs = data.get("definitions", {})
    if name not in defs:
        raise SympairError(f"no definition named {name!r} under key 'definitions' in algebra file")
    return parse_poly(pair, defs[name], space)


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


def format_poly(names: list[str], poly: Poly) -> str:
    """Render a polynomial over the given symbol names, highest degree first."""
    if poly.is_zero():
        return "0"
    items = sorted(poly.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
    parts = []
    for exps, coeff in items:
        mono = format_monomial(names, exps)
        if mono == "1":
            term = util.fmt(coeff)
        elif coeff == 1:
            term = mono
        elif coeff == -1:
            term = f"-{mono}"
        else:
            term = f"{util.fmt(coeff)}*{mono}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts)


def pretty_in_definitions(pair: SymmetricPair, data: dict, f: BlockPolynomial) -> str:
    """Render f as a polynomial in one named definition when possible.

    Tries, for each definition d, to match f = sum_k c_k d^k by exact
    linear algebra on monomial coordinates; falls back to raw monomials.
    """
    defs = data.get("definitions", {})
    for name in sorted(defs):
        try:
            d = resolve_definition(pair, data, name, f.space)
        except ValueError:
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
        parts = []
        for k in range(len(powers) - 1, -1, -1):
            c = x[k]
            if not c:
                continue
            if k == 0:
                term = util.fmt(c)
            else:
                base = name if k == 1 else f"{name}^{k}"
                term = base if c == 1 else (f"-{base}" if c == -1 else f"{util.fmt(c)}*{base}")
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts) if parts else "0"
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
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 3 and isinstance(e[2], str)
                                              for e in edges):
        raise SympairError("graph edges must be [source, target, color] triples")
    palette = "two_color" if all(len(c[2]) == 1 for c in edges) else "four_color"
    return ColoredGraph(data["n"], data["m"], [tuple(e) for e in edges], palette)


class RunReport:
    def __init__(self, command):
        self.command = list(command)
        self.inputs_digest = None
        self.results = []
        self._t0 = time.monotonic()

    def digest_file(self, path: str):
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
