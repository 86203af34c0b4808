"""The identities shared by the vertex Lie and vertex Poisson checkers,
each stated once:

    hs        u_n v = sum_i (-1)^(n+i+1) (1/i!) D^i (v_(n+i) u)
    hp        (D u)_n v = -n u_(n-1) v
    dcomm     D(u_n v) - u_n (D v) = -n u_(n-1) v
    ha        u_m (v_n w) - v_n (u_m w) = sum_i C(m,i) (u_i v)_(m+n-i) w
    grading   u_n v is homogeneous of degree p + q - n - 1;
              D raises degree by exactly 1

Here p, q, r are the degrees of u, v, w.  An algebra backend supplies
``product(n, u, v)``, ``d(u)``, ``zero()`` and ``combine([(coef, elem),
...])``; its elements compare by value, list their ``degrees()`` and
answer ``is_zero()``.  The caller supplies the tuples as data: labelled
elements ``(label, elem, degree)``, and the degree ``top`` that bounds the
index windows and up to which D may be applied to an argument.  Index
windows run one past the grading support, so vanishing outside the
support is asserted too, and start where the product would leave the
degrees ``top`` allows.  Each product is evaluated once per pair (or per
triple) however many laws read it.

A product with a zero argument is zero by bilinearity, so a sum leaves
it out without evaluating it: dropping it changes no value.  This is not
a grading skip, so every window, sample and tuple stays as stated and
every law is still compared on each of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .linalg import rational
from .reports import Violation


def check_pair_laws(alg, module: str, fmt, top: int, pairs) -> list[Violation]:
    """hs with the grading of u_n v, then hp and dcomm on each pair
    ``((lu, u, p), (lv, v, q))``, and grading.d once per element ``u``
    (D u is computed once); hp and grading.d need p + 1 <= top and dcomm
    q + 1 <= top."""
    out = []
    d_of = {}  # u -> D u, keyed by value: distinct elements may share a label
    for (lu, u, p), (lv, v, q) in pairs:
        lo = max(0, p + q - top - 1)
        puv = {k: alg.product(k, u, v) for k in range(lo, p + q + 2)}
        # D-power chains of v_k u, each D applied once
        chains = {k: [alg.product(k, v, u)] for k in range(lo, p + q)}
        for n in range(lo, p + q + 1):
            lhs = puv[n]
            want = p + q - n - 1
            if any(dd != want for dd in lhs.degrees()):
                out.append(Violation(module, "grading", (lu, lv, "n=%d" % n), fmt(lhs), "degree %d" % want))
            terms = []
            for i in range(0, p + q - n):
                chain = chains[n + i]
                while len(chain) <= i:
                    chain.append(alg.d(chain[-1]))
                terms.append((rational(Fraction((-1) ** (n + i + 1), factorial(i))), chain[i]))
            rhs = alg.combine(terms)
            if lhs != rhs:
                out.append(Violation(module, "hs", (lu, lv, "n=%d" % n), fmt(lhs), fmt(rhs)))
        window = range(max(0, p + q - top), p + q + 2)
        # -n u_(n-1) v, the right side of hp and dcomm
        below = {n: alg.combine([(-n, puv[n - 1])]) if n else alg.zero() for n in window}
        if p + 1 <= top:
            du = d_of.get(u)
            if du is None:
                du = d_of[u] = alg.d(u)
                if any(dd != p + 1 for dd in du.degrees()):
                    out.append(Violation(module, "grading.d", (lu,), fmt(du), "degree %d" % (p + 1)))
            for n in window:
                lhs = alg.product(n, du, v)
                rhs = below[n]
                if lhs != rhs:
                    out.append(Violation(module, "hp", (lu, lv, "n=%d" % n), fmt(lhs), fmt(rhs)))
        if q + 1 <= top:
            dv = alg.d(v)
            for n in window:
                lhs = alg.combine([(1, alg.d(puv[n])), (-1, alg.product(n, u, dv))])
                rhs = below[n]
                if lhs != rhs:
                    out.append(Violation(module, "dcomm", (lu, lv, "n=%d" % n), fmt(lhs), fmt(rhs)))
    return out


def _sum_products(alg, terms):
    """sum of coef * x_k y over ``(coef, k, x, y)``, leaving out each
    product with a zero argument."""
    return alg.combine(
        [(c, alg.product(k, x, y)) for c, k, x, y in terms if not (x.is_zero() or y.is_zero())]
    )


def check_ha(alg, module: str, fmt, top: int, triples) -> list[Violation]:
    """ha on each ``((lu, u, p), (lv, v, q), thirds)`` against every
    ``(lw, w, r)`` of ``thirds``, skipping the (m, n) whose inner or outer
    products would leave the degrees ``top`` allows."""
    out = []
    for (lu, u, p), (lv, v, q), thirds in triples:
        uv = {}
        for lw, w, r in thirds:
            vw, uw = {}, {}
            for m in range(0, p + q + r):
                if p + r - m - 1 > top:
                    continue
                for n in range(0, q + r):
                    if q + r - n - 1 > top or p + q + r - m - n - 2 > top:
                        continue
                    if n not in vw:
                        vw[n] = alg.product(n, v, w)
                    if m not in uw:
                        uw[m] = alg.product(m, u, w)
                    lhs = _sum_products(alg, [(1, m, u, vw[n]), (-1, n, v, uw[m])])
                    for i in range(0, m + 1):
                        if i not in uv:
                            uv[i] = alg.product(i, u, v)
                    rhs = _sum_products(alg, [(comb(m, i), m + n - i, uv[i], w) for i in range(0, m + 1)])
                    if lhs != rhs:
                        out.append(
                            Violation(module, "ha", (lu, lv, lw, "m=%d" % m, "n=%d" % n), fmt(lhs), fmt(rhs))
                        )
    return out
