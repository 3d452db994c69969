"""Output checks that share no code path with the library under test.

Polynomials are read as {exponent tuple: Fraction} dicts and free-algebra
series as {word: Fraction} dicts; all arithmetic here is written out
again.  No check pins a product constant: the density normalization may
legitimately move them, so only structural properties are tested.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- polynomials ----------------------------------------------------------


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _top(terms: dict) -> tuple[int, dict]:
    d = max((sum(m) for m in terms), default=0)
    return d, {m: c for m, c in terms.items() if sum(m) == d}


def top_degree_matches(P: dict, Q: dict, out: dict) -> bool:
    """The top-degree part of a product equals that of P.Q, and nothing is above it."""
    dp, tp = _top(P)
    dq, tq = _top(Q)
    d, tout = _top(out)
    return d == dp + dq and tout == _mul(tp, tq)


def is_k_invariant(pair, terms: dict) -> bool:
    """Every k basis vector K kills f under the derivation x_j -> [K, x_j] on S(p)."""
    dp = pair.dim_p
    for a in range(pair.dim_k):
        images = [pair.bracket_adapted(dp + a, j)[:dp] for j in range(dp)]
        acc: dict = {}
        for m, c in terms.items():
            for j, e in enumerate(m):
                if not e:
                    continue
                for i, w in enumerate(images[j]):
                    if w:
                        m2 = list(m)
                        m2[j] -= 1
                        m2[i] += 1
                        m2 = tuple(m2)
                        acc[m2] = acc.get(m2, 0) + c * e * w
        if any(acc.values()):
            return False
    return True


# -- free Lie series ------------------------------------------------------


def _is_lyndon(w) -> bool:
    return len(w) > 0 and all(w < w[i:] for i in range(1, len(w)))


class WordAlgebra:
    """Truncated series in the free associative algebra on letters 0 and 1."""

    def __init__(self, order: int):
        self.order = order
        self._brackets: dict = {}

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                if len(w1) + len(w2) <= self.order:
                    w = w1 + w2
                    out[w] = out.get(w, 0) + c1 * c2
        return {w: c for w, c in out.items() if c}

    def exp(self, a: dict) -> dict:
        out = {(): Fraction(1)}
        term = {(): Fraction(1)}
        for k in range(1, self.order + 1):
            term = {w: c / k for w, c in self.mul(term, a).items()}
            if not term:
                break
            for w, c in term.items():
                out[w] = out.get(w, 0) + c
        return {w: c for w, c in out.items() if c}

    def bracket(self, w: tuple) -> dict:
        """Expansion of the standard bracketing of a Lyndon word."""
        if w not in self._brackets:
            if len(w) == 1:
                self._brackets[w] = {w: Fraction(1)}
            else:
                i = next(i for i in range(1, len(w)) if _is_lyndon(w[i:]))
                u, v = self.bracket(w[:i]), self.bracket(w[i:])
                out = self.mul(u, v)
                for x, c in self.mul(v, u).items():
                    out[x] = out.get(x, 0) - c
                self._brackets[w] = {x: c for x, c in out.items() if c}
        return self._brackets[w]

    def words(self, lie_terms: dict) -> dict:
        out: dict = {}
        for w, c in lie_terms.items():
            for x, b in self.bracket(tuple(w)).items():
                out[x] = out.get(x, 0) + c * b
        return {x: c for x, c in out.items() if c}

    def exp_letters(self, *letters) -> dict:
        """e^(c_1 L_1) e^(c_2 L_2) ... for (letter, coefficient) pairs."""
        out = {(): Fraction(1)}
        for letter, c in letters:
            out = self.mul(out, self.exp({(letter,): Fraction(c)}))
        return out


def bch_ok(alg: WordAlgebra, Z) -> bool:
    """exp(Z) == e^X e^Y through the truncation order."""
    return alg.exp(alg.words(Z.terms)) == alg.exp_letters((0, 1), (1, 1))


def z_sym_ok(Z) -> bool:
    return bool(Z.terms) and all(len(w) % 2 == 1 for w in Z.terms)


def sym_factorize_ok(alg: WordAlgebra, P, K) -> bool:
    """P odd, K even, K(Y, X) == -K(X, Y), and e^P e^K == e^X e^Y."""
    if not all(len(w) % 2 == 1 for w in P.terms) or not all(len(w) % 2 == 0 for w in K.terms):
        return False
    k_words = alg.words(K.terms)
    swapped = {tuple(1 - a for a in w): c for w, c in k_words.items()}
    if swapped != {w: -c for w, c in k_words.items()}:
        return False
    lhs = alg.mul(alg.exp(alg.words(P.terms)), alg.exp(k_words))
    return lhs == alg.exp_letters((0, 1), (1, 1))


def h_component_ok(H, order: int) -> bool:
    """H is k-valued: only even brackets, within the requested order."""
    return bool(H.terms) and all(len(w) % 2 == 0 and len(w) <= order for w in H.terms)


# -- Monte-Carlo estimates ------------------------------------------------

#: estimates must lie within this many standard errors of a known value
MC_SIGMAS = 5.0

#: below this a standard error is float rounding: the integrand vanishes
#: identically (e.g. two equal rows of the edge-form determinant)
ROUNDING = 1e-9


def within(value: float, expected: float, std_error: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= MC_SIGMAS * std_error + ROUNDING
