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
degrees ``top`` allows.

Each product is evaluated once however many laws or loop positions read
it, through tables that live inside one call.  ``check_pair_laws`` keeps,
per pair, u_k v and the D-chain of v_k u under k, and for the call D u
under u.  ``check_ha`` keeps, for the call, x_k w for x = u or v under
(k, x, w); per (u, v), u_i v under i; and per triple, (u_i v)_k w under
(i, k).  An element in a key is the object the caller's tuple holds,
by identity: the tables hold the tuples for the call, so no identity is
reused.  A label is never a key, as it is free text that may print like a
product; nor is an element's hash, which costs a pass over its terms on
every lookup.

A product with a zero argument is zero by bilinearity, so a sum leaves
it out without evaluating it: dropping it changes no value.  This is not
a grading skip, so every window and tuple stays as stated and every law
is still compared on each of them.

Lemma (ha on generator thirds).  Let H_mn(u, v, w) be the left side of
ha minus the right.  Where products satisfy hd and x_k 1 = 0, expanding
by hd gives H_mn(u, v, w1.w2) = H_mn(u, v, w1).w2 + w1.H_mn(u, v, w2)
(the cross terms (v_n w1).(u_m w2) and (u_m w1).(v_n w2) cancel) and
H_mn(u, v, 1) = 0, so a monomial third fails at (u, v, m, n) only if a
factor f does.  For generators u, v, f, ``check_ha`` checks f there: its
skips weaken as r falls to s = deg f, and outside f's ranges H is 0, by
grading where m + n >= p + q + s - 1 (``graded.assemble_view``), and
else (n >= q + s, m <= p - 2) by hp: u = D^(p-1)(b), so u_i = 0 for
i <= m.  ``vpa`` meets these hypotheses for any tables (its lemma, ``vlie``).
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
    pairs = list(pairs)  # holds every element for the call, so no id is reused
    d_of = {}  # id(u) -> D u
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
            du = d_of.get(id(u))
            if du is None:
                du = d_of[id(u)] = alg.d(u)
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
    triples = list(triples)  # holds every element for the call, so no id is reused
    on = {}  # (k, id(x), id(w)) -> x_k w: v_n w does not depend on u, nor u_m w on v
    for (lu, u, p), (lv, v, q), thirds in triples:
        uv = {}
        for lw, w, r in thirds:
            uvw = {}  # (i, k) -> (u_i v)_k w, read by every (m, n) with m + n - i = k
            for m in range(0, p + q + r):
                if p + r - m - 1 > top:
                    continue
                for n in range(0, q + r):
                    if q + r - n - 1 > top or p + q + r - m - n - 2 > top:
                        continue
                    vw = on.get((n, id(v), id(w)))
                    if vw is None:
                        vw = on[n, id(v), id(w)] = alg.product(n, v, w)
                    uw = on.get((m, id(u), id(w)))
                    if uw is None:
                        uw = on[m, id(u), id(w)] = alg.product(m, u, w)
                    lhs = _sum_products(alg, [(1, m, u, vw), (-1, n, v, uw)])
                    terms = []
                    for i in range(0, m + 1):
                        x = uv.get(i)
                        if x is None:
                            x = uv[i] = alg.product(i, u, v)
                        if x.is_zero() or w.is_zero():
                            continue
                        k = m + n - i
                        y = uvw.get((i, k))
                        if y is None:
                            y = uvw[i, k] = alg.product(k, x, w)
                        terms.append((comb(m, i), y))
                    rhs = alg.combine(terms)
                    if lhs != rhs:
                        out.append(
                            Violation(module, "ha", (lu, lv, lw, "m=%d" % m, "n=%d" % n), fmt(lhs), fmt(rhs))
                        )
    return out
