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

Axioms checked, over all basis tuples (bilinearity extends each identity
from basis tuples to the whole space, which is the soundness argument for
every checker in this package):

    derivation      (pa)_0 = 0,  (pa)_1 = -a_0,  p(u_0 a) = u_0 (pa)
    commutativity   u_0 a = -a_0 u,  u_0 v = -v_0 u + p(v_1 u),  u_1 v = v_1 u
    associativity   x_0 (y_i z) = y_i (x_0 z) + (x_0 y)_i z   for i = 0, 1
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    BasedSpace,
    BilinearMap,
    LinearMap,
    Vector,
    bilin_apply,
    format_vector,
    map_apply,
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


def iprod(T: OneTruncatedConformalAlgebra, i: int, x: tuple[int, Vector], y: tuple[int, Vector]):
    """i-th product of homogeneous elements (degree, vector).

    Returns (degree, vector) or None for combinations forced to zero by
    the degree rule (target degree deg x + deg y - i - 1 < 0, or no stored
    table for the combination).
    """
    dx, vx = x
    dy, vy = y
    target = dx + dy - i - 1
    if target < 0:
        return None
    if i == 0:
        if dx == 1 and dy == 0:
            return (0, bilin_apply(T.p0_10, vx, vy))
        if dx == 0 and dy == 1:
            return (0, bilin_apply(T.p0_01, vx, vy))
        if dx == 1 and dy == 1:
            return (1, bilin_apply(T.p0_11, vx, vy))
        return None  # a_0 a' has target degree -1
    if i == 1:
        if dx == 1 and dy == 1:
            return (0, bilin_apply(T.p1_11, vx, vy))
        return None
    return None


def _value(T, i, x, y, degree):
    """iprod coerced to a vector in the degree-``degree`` space (0 if None)."""
    space = T.C0 if degree == 0 else T.C1
    r = iprod(T, i, x, y)
    if r is None:
        return space.zero()
    if r[0] != degree:
        raise AssertionError("degree bookkeeping error in iprod")
    return r[1]


def check_derivation(T: OneTruncatedConformalAlgebra) -> CheckReport:
    """(pa)_0 annihilates C0 (+) C1; (pa)_1 = -a_0 on C1; p(u_0 a) = u_0 (pa)."""
    out = []
    fmt = format_vector
    for ia, a in enumerate(T.C0.basis_vectors()):
        pa = map_apply(T.partial, a)
        la = T.C0.basis[ia]
        for ib, a2 in enumerate(T.C0.basis_vectors()):
            lhs = bilin_apply(T.p0_10, pa, a2)
            if not lhs.is_zero():
                out.append(Violation(MODULE, "deriv.pa0", ("a=" + la, "a'=" + T.C0.basis[ib]), fmt(lhs), "0"))
        for iu, u in enumerate(T.C1.basis_vectors()):
            lu = T.C1.basis[iu]
            lhs = bilin_apply(T.p0_11, pa, u)
            if not lhs.is_zero():
                out.append(Violation(MODULE, "deriv.pa0", ("a=" + la, "u=" + lu), fmt(lhs), "0"))
            lhs = bilin_apply(T.p1_11, pa, u)
            rhs = -bilin_apply(T.p0_01, a, u)
            if lhs != rhs:
                out.append(Violation(MODULE, "deriv.pa1", ("a=" + la, "u=" + lu), fmt(lhs), fmt(rhs)))
            lhs = map_apply(T.partial, bilin_apply(T.p0_10, u, a))
            rhs = bilin_apply(T.p0_11, u, pa)
            if lhs != rhs:
                out.append(Violation(MODULE, "deriv.hom", ("u=" + lu, "a=" + la), fmt(lhs), fmt(rhs)))
    return CheckReport(out)


def check_commutativity(T: OneTruncatedConformalAlgebra) -> CheckReport:
    out = []
    fmt = format_vector
    for iu, u in enumerate(T.C1.basis_vectors()):
        lu = T.C1.basis[iu]
        for ia, a in enumerate(T.C0.basis_vectors()):
            lhs = bilin_apply(T.p0_10, u, a)
            rhs = -bilin_apply(T.p0_01, a, u)
            if lhs != rhs:
                out.append(Violation(MODULE, "comm.ua", ("u=" + lu, "a=" + T.C0.basis[ia]), fmt(lhs), fmt(rhs)))
        for iv, v in enumerate(T.C1.basis_vectors()):
            lv = T.C1.basis[iv]
            lhs = bilin_apply(T.p0_11, u, v)
            rhs = -bilin_apply(T.p0_11, v, u) + map_apply(T.partial, bilin_apply(T.p1_11, v, u))
            if lhs != rhs:
                out.append(Violation(MODULE, "comm.uv", ("u=" + lu, "v=" + lv), fmt(lhs), fmt(rhs)))
            lhs = bilin_apply(T.p1_11, u, v)
            rhs = bilin_apply(T.p1_11, v, u)
            if lhs != rhs:
                out.append(Violation(MODULE, "comm.u1v", ("u=" + lu, "v=" + lv), fmt(lhs), fmt(rhs)))
    return CheckReport(out)


def _graded_basis(T: OneTruncatedConformalAlgebra) -> list[tuple[str, tuple[int, Vector]]]:
    elems = [("a=" + l, (0, v)) for l, v in zip(T.C0.basis, T.C0.basis_vectors())]
    elems += [("u=" + l, (1, v)) for l, v in zip(T.C1.basis, T.C1.basis_vectors())]
    return elems


def check_associativity(T: OneTruncatedConformalAlgebra) -> CheckReport:
    """x_0 (y_i z) = y_i (x_0 z) + (x_0 y)_i z over all graded basis triples."""
    elems = _graded_basis(T)
    fmt = format_vector
    out = []
    for lx, x in elems:
        for ly, y in elems:
            for lz, z in elems:
                for i in (0, 1):
                    target = x[0] + y[0] + z[0] - i - 2
                    if target < 0:
                        continue
                    yz = iprod(T, i, y, z)
                    lhs = _value(T, 0, x, yz, target) if yz else (T.C0 if target == 0 else T.C1).zero()
                    xz = iprod(T, 0, x, z)
                    t1 = _value(T, i, y, xz, target) if xz else (T.C0 if target == 0 else T.C1).zero()
                    xy = iprod(T, 0, x, y)
                    t2 = _value(T, i, xy, z, target) if xy else (T.C0 if target == 0 else T.C1).zero()
                    rhs = t1 + t2
                    if lhs != rhs:
                        out.append(
                            Violation(MODULE, "assoc.i%d" % i, (lx, ly, lz), fmt(lhs), fmt(rhs))
                        )
    return CheckReport(out)


def check_all(T: OneTruncatedConformalAlgebra) -> CheckReport:
    return check_derivation(T).merge(check_commutativity(T), check_associativity(T))


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
