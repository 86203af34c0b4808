"""Built-in Courant algebroid instances.

    trivial(d)           A = Q.e, B of dimension d, everything but the
                         module action zero.
    heisenberg           A = Q.e, B = Q.beta with <beta, beta> = e and
                         zero bracket, anchor, partial.
    quadratic_lie(sl2)   A = Q.e, B = sl2 with the Lie bracket and the
                         Killing form as pairing; anchor and partial zero.
    exact(m)             A = Q[x]/(x^m), B = Der(A) (+) Omega1(A) with the
                         Dorfman bracket, for 2 <= m <= 4.

The exact(m) tables are computed here by symbolic differentiation in the
truncated polynomial ring: derivations are p(x) d/dx with p in (x), and
Kahler differentials are A dx modulo x^(m-1) dx.  Every constructor's
output is certified by check_courant at build time.
"""

from __future__ import annotations

import re

from .courant import CourantAlgebroid, UnitalCommAlgebra, check_courant
from .linalg import BasedSpace, BilinearMap, LinearMap, Scalar, Vector

_NAME_RE = re.compile(r"^([a-z_]+)(?:\((\w+)\))?$")


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
    m = _NAME_RE.match(name.strip())
    if not m:
        raise KeyError("unknown example %r" % name)
    kind, arg = m.group(1), m.group(2)
    if kind == "trivial":
        d = int(arg) if arg is not None else 2
        if not 1 <= d <= 6:
            raise KeyError("trivial(d) supports 1 <= d <= 6")
        X = _trivial(d)
    elif kind == "heisenberg" and arg is None:
        X = _heisenberg()
    elif kind == "quadratic_lie" and arg == "sl2":
        X = _sl2()
    elif kind == "exact":
        mm = int(arg) if arg is not None else 2
        if not 2 <= mm <= 4:
            raise KeyError("exact(m) supports 2 <= m <= 4")
        X = _exact(mm)
    else:
        raise KeyError("unknown example %r" % name)
    rep = check_courant(X)
    if not rep.passed:
        raise AssertionError("built-in example %r fails certification:\n%s" % (name, rep.summary()))
    return X


def _line_algebra() -> UnitalCommAlgebra:
    A = BasedSpace("A", ["e"])
    mult = BilinearMap.from_entries(A, A, A, {("e", "e"): {"e": 1}}, symmetric=True)
    return UnitalCommAlgebra(A, mult, A.unit_vector("e"))


def _scalar_action(A: BasedSpace, B: BasedSpace) -> BilinearMap:
    # e acts as the identity; the only sensible module structure over Q.e
    return BilinearMap(
        A, B, B, [[B.unit_vector(l) for l in B.basis]]
    )


def _trivial(d: int) -> CourantAlgebroid:
    alg = _line_algebra()
    B = BasedSpace("B", ["u%d" % (i + 1) for i in range(d)])
    return CourantAlgebroid(
        A=alg,
        B=B,
        action=_scalar_action(alg.space, B),
        bracket=BilinearMap.zero(B, B, B),
        anchor=BilinearMap.zero(B, alg.space, alg.space),
        pairing=BilinearMap.zero(B, B, alg.space),
        partial=LinearMap.zero(alg.space, B),
    )


def _heisenberg() -> CourantAlgebroid:
    alg = _line_algebra()
    B = BasedSpace("B", ["beta"])
    pairing = BilinearMap.from_entries(
        B, B, alg.space, {("beta", "beta"): {"e": 1}}, symmetric=True
    )
    return CourantAlgebroid(
        A=alg,
        B=B,
        action=_scalar_action(alg.space, B),
        bracket=BilinearMap.zero(B, B, B),
        anchor=BilinearMap.zero(B, alg.space, alg.space),
        pairing=pairing,
        partial=LinearMap.zero(alg.space, B),
    )


def _sl2() -> CourantAlgebroid:
    """sl2 with the Killing form: a quadratic Lie algebra viewed as a
    Courant algebroid over Q.e (anchor and partial zero)."""
    alg = _line_algebra()
    B = BasedSpace("B", ["E", "F", "H"])
    bracket = BilinearMap.from_entries(
        B,
        B,
        B,
        {
            ("E", "F"): {"H": 1},
            ("F", "E"): {"H": -1},
            ("H", "E"): {"E": 2},
            ("E", "H"): {"E": -2},
            ("H", "F"): {"F": -2},
            ("F", "H"): {"F": 2},
        },
        antisymmetric=True,
    )
    # Killing form K(x, y) = tr(ad x ad y): K(E,F) = 4, K(H,H) = 8.
    pairing = BilinearMap.from_entries(
        B,
        B,
        alg.space,
        {("E", "F"): {"e": 4}, ("F", "E"): {"e": 4}, ("H", "H"): {"e": 8}},
        symmetric=True,
    )
    return CourantAlgebroid(
        A=alg,
        B=B,
        action=_scalar_action(alg.space, B),
        bracket=bracket,
        anchor=BilinearMap.zero(B, alg.space, alg.space),
        pairing=pairing,
        partial=LinearMap.zero(alg.space, B),
    )


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

    def poly(vecA: Vector) -> list[Scalar]:
        out = [0] * m
        for i, c in vecA.items:
            out[i] = c
        return out

    def a_vec(p: list[Scalar]) -> Vector:
        return Vector(A, {i: c for i, c in enumerate(p) if i < m})

    def b_vec(der: list[Scalar], om: list[Scalar]) -> Vector:
        """der = coefficient poly of d/dx (must lie in (x)); om = q(x) for
        q dx, truncated at x^(m-1) dx = 0."""
        coeffs = {}
        for k in range(1, m):
            if der[k]:
                coeffs[k - 1] = der[k]
        for k in range(m - 1):
            if om[k]:
                coeffs[nd + k] = om[k]
        return Vector(B, coeffs)

    def split(u: Vector) -> tuple[list[Scalar], list[Scalar]]:
        der = [0] * m
        om = [0] * m
        for i, c in u.items:
            if i < nd:
                der[i + 1] = c
            else:
                om[i - nd] = c
        return der, om

    zero = [0] * m

    def build_action():
        entries = {}
        for la in a_labels:
            p = poly(A.unit_vector(la))
            for lb in B.basis:
                der, om = split(B.unit_vector(lb))
                entries[(la, lb)] = b_vec(_pmul(p, der, m), _pmul(p, om, m))
        return BilinearMap(A, B, B, [[entries[(la, lb)] for lb in B.basis] for la in a_labels])

    def build_bracket():
        # Dorfman: [X + w, Y + n] = [X, Y] + d(i_X n); the i_Y dw term
        # vanishes because 2-forms vanish in one variable.
        rows = []
        for lu in B.basis:
            p, w = split(B.unit_vector(lu))
            row = []
            for lv in B.basis:
                q, n = split(B.unit_vector(lv))
                lie = [
                    a - b
                    for a, b in zip(_pmul(p, _pdiff(q), m), _pmul(q, _pdiff(p), m))
                ]
                lx = _pdiff(_pmul(p, n, m))  # d(i_X n) = (p n)' dx
                row.append(b_vec(lie, lx))
            rows.append(row)
        return BilinearMap(B, B, B, rows)

    def build_anchor():
        rows = []
        for lu in B.basis:
            p, _ = split(B.unit_vector(lu))
            row = []
            for la in a_labels:
                f = poly(A.unit_vector(la))
                row.append(a_vec(_pmul(p, _pdiff(f), m)))
            rows.append(row)
        return BilinearMap(B, A, A, rows)

    def build_pairing():
        rows = []
        for lu in B.basis:
            p, w = split(B.unit_vector(lu))
            row = []
            for lv in B.basis:
                q, n = split(B.unit_vector(lv))
                row.append(a_vec([a + b for a, b in zip(_pmul(p, n, m), _pmul(q, w, m))]))
            rows.append(row)
        return BilinearMap(B, B, A, rows, symmetric=True)

    def build_partial():
        cols = []
        for la in a_labels:
            f = poly(A.unit_vector(la))
            cols.append(b_vec(zero, _pdiff(f)))
        return LinearMap(A, B, cols)

    mult_rows = []
    for la in a_labels:
        p = poly(A.unit_vector(la))
        mult_rows.append([a_vec(_pmul(p, poly(A.unit_vector(lb)), m)) for lb in a_labels])
    alg = UnitalCommAlgebra(A, BilinearMap(A, A, A, mult_rows, symmetric=True), A.unit_vector("e"))

    return CourantAlgebroid(
        A=alg,
        B=B,
        action=build_action(),
        bracket=build_bracket(),
        anchor=build_anchor(),
        pairing=build_pairing(),
        partial=build_partial(),
    )
