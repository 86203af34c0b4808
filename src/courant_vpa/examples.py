"""Built-in Courant algebroid instances.

    trivial(d)           A = Q.e, B of dimension d, everything but the
                         module action zero.
    heisenberg           A = Q.e, B = Q.beta with <beta, beta> = e and
                         zero bracket, anchor, partial.
    quadratic_lie(sl2)   A = Q.e, B = sl2 with the Lie bracket and the
                         Killing form as pairing; anchor and partial zero.
    exact(m)             A = Q[x]/(x^m), B = Der(A) (+) Omega1(A) with the
                         Dorfman bracket, for 2 <= m <= 4.

The first three are Courant algebroids over a point (Liu, Weinstein and
Xu, arXiv:dg-ga/9508013): over A = Q.e the anchor lands in Der(Q.e) = 0,
and partial(e) = partial(e.e) = 2 partial(e) forces partial = 0, so the
algebroid is exactly a Lie algebra B with an invariant symmetric form.
_over_a_point builds one from its bracket and pairing entries.

exact(m) is read off one polynomial basis: A has P[i] = x^i, and B has
S[k] = (x^(k+1) d/dx, 0) for the derivations, then (0, x^k dx) for the
Kahler differentials.  Each table is one function of two basis indices,
computed by symbolic differentiation in the truncated ring, and _table
builds the map from it.  Every constructor's output is certified by
check_courant at build time.
"""

from __future__ import annotations

import re

from .courant import CourantAlgebroid, UnitalCommAlgebra, check_courant
from .linalg import BasedSpace, BilinearMap, LinearMap, Scalar, Vector

# a kind, then optionally a decimal size without leading zeros or a
# lower-case word in parentheses; a size like "01" reads as a word, unknown
_NAME_RE = re.compile(r"([a-z_]+)(?:\((?:(0|[1-9][0-9]*)|([a-z0-9]+))\))?")

# sl2 in the basis E, F, H, and its Killing form K(x, y) = tr(ad x ad y)
_SL2_BRACKET = {
    ("E", "F"): {"H": 1},
    ("F", "E"): {"H": -1},
    ("H", "E"): {"E": 2},
    ("E", "H"): {"E": -2},
    ("H", "F"): {"F": -2},
    ("F", "H"): {"F": 2},
}
_SL2_KILLING = {("E", "F"): {"e": 4}, ("F", "E"): {"e": 4}, ("H", "H"): {"e": 8}}


def example_names() -> list[str]:
    return [
        "trivial(1)",
        "trivial(2)",
        "trivial(3)",
        "heisenberg",
        "quadratic_lie(sl2)",
        "exact(2)",
        "exact(3)",
        "exact(4)",
    ]


def example(name: str) -> CourantAlgebroid:
    m = _NAME_RE.fullmatch(name)
    kind, size, word = m.groups() if m else (None, None, None)
    if kind == "trivial" and word is None:
        d = int(size) if size else 2
        if not 1 <= d <= 6:
            raise KeyError("trivial(d) supports 1 <= d <= 6")
        X = _over_a_point(["u%d" % (i + 1) for i in range(d)], {}, {})
    elif kind == "heisenberg" and size is None and word is None:
        X = _over_a_point(["beta"], {}, {("beta", "beta"): {"e": 1}})
    elif kind == "quadratic_lie" and word == "sl2":
        X = _over_a_point(["E", "F", "H"], _SL2_BRACKET, _SL2_KILLING)
    elif kind == "exact" and word is None:
        mm = int(size) if size else 2
        if not 2 <= mm <= 4:
            raise KeyError("exact(m) supports 2 <= m <= 4")
        X = _exact(mm)
    else:
        raise KeyError("unknown example %r" % name)
    rep = check_courant(X)
    if not rep.passed:
        raise AssertionError("built-in example %r fails certification:\n%s" % (name, rep.summary()))
    return X


def _over_a_point(labels: list[str], bracket: dict, pairing: dict) -> CourantAlgebroid:
    """The Courant algebroid over A = Q.e on B = span(labels): e acts as
    the identity, anchor and partial are zero, and the bracket and pairing
    come from {(label, label): {label: coeff}} entries."""
    A = BasedSpace("A", ["e"])
    B = BasedSpace("B", labels)
    mult = BilinearMap.from_entries(A, A, A, {("e", "e"): {"e": 1}}, symmetric=True)
    return CourantAlgebroid(
        A=UnitalCommAlgebra(A, mult, A.unit_vector("e")),
        B=B,
        action=BilinearMap(A, B, B, [B.basis_vectors()]),
        bracket=BilinearMap.from_entries(B, B, B, bracket, antisymmetric=bool(bracket)),
        anchor=BilinearMap.zero(B, A, A),
        pairing=BilinearMap.from_entries(B, B, A, pairing, symmetric=bool(pairing)),
        partial=LinearMap.zero(A, B),
    )


def _table(left: BasedSpace, right: BasedSpace, codomain: BasedSpace, entry, **flags) -> BilinearMap:
    """The bilinear map whose value on basis indices (i, j) is entry(i, j)."""
    rows = [[entry(i, j) for j in range(right.dim)] for i in range(left.dim)]
    return BilinearMap(left, right, codomain, rows, **flags)


# --- exact(m): truncated polynomial helpers -------------------------------
#
# Elements of Q[x]/(x^m) are coefficient lists of length m.  A derivation
# X = p(x) d/dx needs p in the ideal (x) so that X kills the relation x^m;
# a 1-form q(x) dx lives modulo x^(m-1) dx because d(x^m) = 0.


def _pmul(p: list[Scalar], q: list[Scalar], m: int) -> list[Scalar]:
    out = [0] * m
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b == 0 or i + j >= m:
                continue
            out[i + j] += a * b
    return out


def _pdiff(p: list[Scalar]) -> list[Scalar]:
    return [(k + 1) * c for k, c in enumerate(p[1:])] + [0]


def _exact(m: int) -> CourantAlgebroid:
    a_labels = ["e"] + ["x" if k == 1 else "x%d" % k for k in range(1, m)]
    A = BasedSpace("A", a_labels)
    der_labels = ["xD" if k == 1 else "x%dD" % k for k in range(1, m)]
    om_labels = ["dx"] + ["xdx" if k == 1 else "x%ddx" % k for k in range(1, m - 1)]
    B = BasedSpace("B", der_labels + om_labels)
    nd = m - 1  # number of derivation generators; om generators follow

    def monomial(k: int) -> list[Scalar]:
        return [1 if i == k else 0 for i in range(m)]

    zero = [0] * m
    P = [monomial(i) for i in range(m)]
    S = [(monomial(k + 1), zero) for k in range(nd)] + [(zero, monomial(k)) for k in range(m - 1)]

    def a_vec(p: list[Scalar]) -> Vector:
        return Vector(A, {i: c for i, c in enumerate(p) if c})

    def b_vec(der: list[Scalar], om: list[Scalar]) -> Vector:
        """der = coefficient poly of d/dx (must lie in (x)); om = q(x) for
        q dx, truncated at x^(m-1) dx = 0."""
        coeffs = {k - 1: der[k] for k in range(1, m) if der[k]}
        coeffs.update((nd + k, om[k]) for k in range(m - 1) if om[k])
        return Vector(B, coeffs)

    def mult(i: int, j: int) -> Vector:
        return a_vec(_pmul(P[i], P[j], m))

    def action(i: int, k: int) -> Vector:
        der, om = S[k]
        return b_vec(_pmul(P[i], der, m), _pmul(P[i], om, m))

    def bracket(k: int, l: int) -> Vector:
        # Dorfman: [X + w, Y + n] = [X, Y] + d(i_X n); the i_Y dw term
        # vanishes because 2-forms vanish in one variable.
        (p, _), (q, n) = S[k], S[l]
        lie = [a - b for a, b in zip(_pmul(p, _pdiff(q), m), _pmul(q, _pdiff(p), m))]
        return b_vec(lie, _pdiff(_pmul(p, n, m)))  # d(i_X n) = (p n)' dx

    def anchor(k: int, i: int) -> Vector:
        return a_vec(_pmul(S[k][0], _pdiff(P[i]), m))

    def pairing(k: int, l: int) -> Vector:
        (p, w), (q, n) = S[k], S[l]
        return a_vec([a + b for a, b in zip(_pmul(p, n, m), _pmul(q, w, m))])

    alg = UnitalCommAlgebra(A, _table(A, A, A, mult, symmetric=True), A.unit_vector("e"))
    return CourantAlgebroid(
        A=alg,
        B=B,
        action=_table(A, B, B, action),
        bracket=_table(B, B, B, bracket),
        anchor=_table(B, A, A, anchor),
        pairing=_table(B, B, A, pairing, symmetric=True),
        partial=LinearMap(A, B, [b_vec(zero, _pdiff(p)) for p in P]),
    )
