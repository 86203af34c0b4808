"""1-truncated conformal algebras: structure and axiom checkers.

A structure is a graded pair C0 (+) C1 with a linear map partial: C0 -> C1
and bilinear i-th products of degree -i-1 for i = 0, 1.  The degree rule
forces most product combinations to land in negative degree, hence vanish;
only the four surviving tables are stored and the checkers substitute 0
for everything else.  Storing nothing for forced-zero products keeps the
data free of redundant, potentially inconsistent tables.

Stored tables (degrees: C0 at 0, C1 at 1):

    p0_10 : C1 x C0 -> C0     u_0 a
    p0_01 : C0 x C1 -> C0     a_0 u
    p0_11 : C1 x C1 -> C1     u_0 v
    p1_11 : C1 x C1 -> C0     u_1 v

Axioms checked by check_all, over all basis tuples (bilinearity extends
each identity from basis tuples to the whole space, which is the soundness
argument for every checker in this package):

    derivation      (pa)_0 = 0,  (pa)_1 = -a_0,  p(u_0 a) = u_0 (pa)
    commutativity   u_0 a = -a_0 u,  u_0 v = -v_0 u + p(v_1 u),  u_1 v = v_1 u
    associativity   x_0 (y_i z) = y_i (x_0 z) + (x_0 y)_i z   for i = 0, 1

Associativity lands in degree deg x + deg y + deg z - i - 2, so only five
shapes are not forced to zero: (u,v,w) at i = 0 and i = 1, and (u,v,a),
(u,a,v) and (a,u,v) at i = 0.  check_all writes each out.

check_all reads the tables by basis index, as courant.check_courant does,
each table and its columns once per call as item tuples
(linalg.item_table): b(e_i, e_j) is rows[i][j], and b(e_i, x) is
comb_items(rows[i], x) (b(x, e_j) the same on the columns).  Shapes were
checked at construction, so this equals bilin_apply exactly, and each
identity compares two canonical tuples.  check_leibniz_form
restates the same structure as Leibniz-algebra data and evaluates every
product through bilin_apply, so it shares no code path with check_all
and each is a check on the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    BasedSpace, BilinearMap, LinearMap, add_items, bilin_apply, comb_items, format_items, format_vector,
    item_table, map_apply, neg_items,
)
from .reports import CheckReport, Violation

MODULE = "tca"


@dataclass(frozen=True)
class OneTruncatedConformalAlgebra:
    C0: BasedSpace
    C1: BasedSpace
    partial: LinearMap
    p0_10: BilinearMap
    p0_01: BilinearMap
    p0_11: BilinearMap
    p1_11: BilinearMap

    def __post_init__(self):
        if self.partial.domain != self.C0 or self.partial.codomain != self.C1:
            raise ValueError("partial must map C0 -> C1")
        shapes = {
            "p0_10": (self.p0_10, self.C1, self.C0, self.C0),
            "p0_01": (self.p0_01, self.C0, self.C1, self.C0),
            "p0_11": (self.p0_11, self.C1, self.C1, self.C1),
            "p1_11": (self.p1_11, self.C1, self.C1, self.C0),
        }
        for name, (m, l, r, c) in shapes.items():
            if (m.left, m.right, m.codomain) != (l, r, c):
                raise ValueError("%s has wrong spaces" % name)


def check_all(T: OneTruncatedConformalAlgebra) -> CheckReport:
    """Derivation, commutativity and the five associativity shapes, over
    basis tuples, each identity stated once."""
    C0, C1 = T.C0, T.C1
    la, lu = ["a=" + l for l in C0.basis], ["u=" + l for l in C1.basis]
    ra, rb = range(len(la)), range(len(lu))
    # u_0 a, a_0 u, u_0 v and u_1 v by basis index, and their columns
    (UA, UAc), (AU, AUc), (UV, UVc), (U1V, U1Vc) = map(item_table, (T.p0_10, T.p0_01, T.p0_11, T.p1_11))
    D = [col.items for col in T.partial.columns]
    comb, add, neg = comb_items, add_items, neg_items
    out = []

    def check(axiom, labels, space, lhs, rhs):
        if lhs != rhs:
            out.append(Violation(MODULE, axiom, labels, format_items(space, lhs), format_items(space, rhs)))

    for i in ra:
        for j in ra:
            check("deriv.pa0", (la[i], "a'=" + C0.basis[j]), C0, comb(UAc[j], D[i]), ())
        for p in rb:
            check("deriv.pa0", (la[i], lu[p]), C1, comb(UVc[p], D[i]), ())
            check("deriv.pa1", (la[i], lu[p]), C0, comb(U1Vc[p], D[i]), neg(AU[i][p]))
            check("deriv.hom", (lu[p], la[i]), C1, comb(D, UA[p][i]), comb(UV[p], D[i]))
    for p in rb:
        for i in ra:
            check("comm.ua", (lu[p], la[i]), C0, UA[p][i], neg(AU[i][p]))
        for q in rb:
            lv = "v=" + C1.basis[q]
            check("comm.uv", (lu[p], lv), C1, UV[p][q], add(neg(UV[q][p]), comb(D, U1V[q][p])))
            check("comm.u1v", (lu[p], lv), C0, U1V[p][q], U1V[q][p])
    # x_0 (y_i z) = y_i (x_0 z) + (x_0 y)_i z, in the five shapes whose
    # target degree deg x + deg y + deg z - i - 2 is not negative
    for p in rb:
        for q in rb:
            for r in rb:
                # u_0 (v_0 w) = v_0 (u_0 w) + (u_0 v)_0 w
                lhs = comb(UV[p], UV[q][r])
                rhs = add(comb(UV[q], UV[p][r]), comb(UVc[r], UV[p][q]))
                check("assoc.i0", (lu[p], lu[q], lu[r]), C1, lhs, rhs)
                # u_0 (v_1 w) = v_1 (u_0 w) + (u_0 v)_1 w
                lhs = comb(UA[p], U1V[q][r])
                rhs = add(comb(U1V[q], UV[p][r]), comb(U1Vc[r], UV[p][q]))
                check("assoc.i1", (lu[p], lu[q], lu[r]), C0, lhs, rhs)
            for i in ra:
                # u_0 (v_0 a) = v_0 (u_0 a) + (u_0 v)_0 a
                lhs = comb(UA[p], UA[q][i])
                rhs = add(comb(UA[q], UA[p][i]), comb(UAc[i], UV[p][q]))
                check("assoc.i0", (lu[p], lu[q], la[i]), C0, lhs, rhs)
                # u_0 (a_0 v) = a_0 (u_0 v) + (u_0 a)_0 v
                lhs = comb(UA[p], AU[i][q])
                rhs = add(comb(AU[i], UV[p][q]), comb(AUc[q], UA[p][i]))
                check("assoc.i0", (lu[p], la[i], lu[q]), C0, lhs, rhs)
                # a_0 (u_0 v) = u_0 (a_0 v) + (a_0 u)_0 v
                lhs = comb(AU[i], UV[p][q])
                rhs = add(comb(UA[p], AU[i][q]), comb(AUc[q], AU[i][p]))
                check("assoc.i0", (la[i], lu[p], lu[q]), C0, lhs, rhs)
    return CheckReport(out)


def check_leibniz_form(T: OneTruncatedConformalAlgebra) -> CheckReport:
    """The equivalent Leibniz-style reformulation, as independent checks.

    1. [u,v] := u_0 v is a Leibniz bracket on C1.
    2. C0 is a module: (u_0 v)_0 a = u_0 (v_0 a) - v_0 (u_0 a).
    3. partial is a module homomorphism.
    4. partial(C0) annihilates the module C0 (+) C1.
    5. <u,v> := u_1 v is a module homomorphism, is symmetric, and satisfies
       u_0 a = -a_0 u,  <pa, u> = -a_0 u,  [u,v] + [v,u] = p<u,v>.
    """
    out = []
    fmt = format_vector
    P = T.partial
    us = list(zip(T.C1.basis, T.C1.basis_vectors()))
    az = list(zip(T.C0.basis, T.C0.basis_vectors()))
    brk = lambda u, v: bilin_apply(T.p0_11, u, v)
    act = lambda u, a: bilin_apply(T.p0_10, u, a)
    pair = lambda u, v: bilin_apply(T.p1_11, u, v)
    for lu, u in us:
        for lv, v in us:
            for lw, w in us:
                lhs = brk(u, brk(v, w))
                rhs = brk(brk(u, v), w) + brk(v, brk(u, w))
                if lhs != rhs:
                    out.append(Violation(MODULE, "leib.bracket", (lu, lv, lw), fmt(lhs), fmt(rhs)))
                lhs = pair(brk(u, v), w) + pair(v, brk(u, w))
                rhs = act(u, pair(v, w))
                if lhs != rhs:
                    out.append(Violation(MODULE, "leib.pairhom", (lu, lv, lw), fmt(lhs), fmt(rhs)))
            for la, a in az:
                lhs = act(brk(u, v), a)
                rhs = act(u, act(v, a)) - act(v, act(u, a))
                if lhs != rhs:
                    out.append(Violation(MODULE, "leib.module", (lu, lv, la), fmt(lhs), fmt(rhs)))
            lhs = pair(u, v)
            rhs = pair(v, u)
            if lhs != rhs:
                out.append(Violation(MODULE, "leib.pairsym", (lu, lv), fmt(lhs), fmt(rhs)))
            lhs = brk(u, v) + brk(v, u)
            rhs = map_apply(P, pair(u, v))
            if lhs != rhs:
                out.append(Violation(MODULE, "leib.c5", (lu, lv), fmt(lhs), fmt(rhs)))
        for la, a in az:
            lhs = map_apply(P, act(u, a))
            rhs = brk(u, map_apply(P, a))
            if lhs != rhs:
                out.append(Violation(MODULE, "leib.phom", (lu, la), fmt(lhs), fmt(rhs)))
            lhs = act(u, a)
            rhs = -bilin_apply(T.p0_01, a, u)
            if lhs != rhs:
                out.append(Violation(MODULE, "leib.flip", (lu, la), fmt(lhs), fmt(rhs)))
    for la, a in az:
        pa = map_apply(P, a)
        for lb, b in az:
            lhs = act(pa, b)
            if not lhs.is_zero():
                out.append(Violation(MODULE, "leib.annih", (la, lb), fmt(lhs), "0"))
        for lu, u in us:
            lhs = brk(pa, u)
            if not lhs.is_zero():
                out.append(Violation(MODULE, "leib.annih", (la, lu), fmt(lhs), "0"))
            lhs = pair(pa, u)
            rhs = -bilin_apply(T.p0_01, a, u)
            if lhs != rhs:
                out.append(Violation(MODULE, "leib.pa1", (la, lu), fmt(lhs), fmt(rhs)))
    return CheckReport(out)
