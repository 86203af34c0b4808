"""Courant algebroids over a unital commutative base, by structure constants.

The anchor is stored curried, as a bilinear map B x A -> A, so that
operator-valued codomains never need representing; that each pi(u) is a
derivation of A is then an explicit checked identity.  All checkers
enumerate basis tuples only; bilinearity extends every verified identity
to the whole space.
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
    solve_linear,
)
from .reports import CheckReport, Violation
from .tca import OneTruncatedConformalAlgebra, check_all as check_tca_all

MODULE = "courant"


@dataclass(frozen=True)
class UnitalCommAlgebra:
    """Commutative associative algebra with identity; axioms are checked
    by check_courant, not at construction."""

    space: BasedSpace
    mult: BilinearMap
    unit: Vector

    def __post_init__(self):
        if (self.mult.left, self.mult.right, self.mult.codomain) != (
            self.space,
            self.space,
            self.space,
        ):
            raise ValueError("mult must be A x A -> A")
        if self.unit.space != self.space:
            raise ValueError("unit must lie in A")

    def product(self, a: Vector, b: Vector) -> Vector:
        return bilin_apply(self.mult, a, b)


@dataclass(frozen=True)
class CourantAlgebroid:
    A: UnitalCommAlgebra
    B: BasedSpace
    action: BilinearMap    # A x B -> B,  (a, u) -> au
    bracket: BilinearMap   # B x B -> B,  (u, v) -> [u, v]
    anchor: BilinearMap    # B x A -> A,  (u, a) -> pi(u)(a)
    pairing: BilinearMap   # B x B -> A,  (u, v) -> <u, v>
    partial: LinearMap     # A -> B

    def __post_init__(self):
        a, b = self.A.space, self.B
        shapes = {
            "action": (self.action, a, b, b),
            "bracket": (self.bracket, b, b, b),
            "anchor": (self.anchor, b, a, a),
            "pairing": (self.pairing, b, b, a),
        }
        for name, (m, l, r, c) in shapes.items():
            if (m.left, m.right, m.codomain) != (l, r, c):
                raise ValueError("%s has wrong spaces" % name)
        if self.partial.domain != a or self.partial.codomain != b:
            raise ValueError("partial must map A -> B")

    # convenience evaluators
    def mul(self, a: Vector, b: Vector) -> Vector:
        return bilin_apply(self.A.mult, a, b)

    def act(self, a: Vector, u: Vector) -> Vector:
        return bilin_apply(self.action, a, u)

    def brk(self, u: Vector, v: Vector) -> Vector:
        return bilin_apply(self.bracket, u, v)

    def anc(self, u: Vector, a: Vector) -> Vector:
        return bilin_apply(self.anchor, u, a)

    def pair(self, u: Vector, v: Vector) -> Vector:
        return bilin_apply(self.pairing, u, v)

    def d(self, a: Vector) -> Vector:
        return map_apply(self.partial, a)


def differing_tables(X: CourantAlgebroid, Y: CourantAlgebroid) -> dict[str, tuple]:
    """The structure tables in which Y differs from X, by name, each as
    the pair (X's table, Y's table)."""
    tables = {
        "mult": (X.A.mult, Y.A.mult), "unit": (X.A.unit, Y.A.unit),
        "action": (X.action, Y.action), "bracket": (X.bracket, Y.bracket),
        "anchor": (X.anchor, Y.anchor), "pairing": (X.pairing, Y.pairing),
        "partial": (X.partial, Y.partial),
    }
    return {name: pair for name, pair in tables.items() if pair[0] != pair[1]}


def _labelled(space: BasedSpace, prefix: str):
    return [(prefix + "=" + l, space.unit_vector(l)) for l in space.basis]


def check_courant(X: CourantAlgebroid, limit: int | None = None) -> CheckReport:
    """All defining axioms over basis tuples.

    Covers the base-algebra laws, the module laws, pairing symmetry and
    A-bilinearity, the Leibniz identity for the bracket, the anchor being
    an A-linear homomorphism into derivations, partial being a derivation
    with pi o partial = 0, and the five coupling identities c1..c5:

        c1   [u, av] = a[u, v] + pi(u)(a) v
        c2   <[u,v], w> + <v, [u,w]> = pi(u)<v, w>
        c3   [u, pa] = p(pi(u) a)
        c4   <u, pa> = pi(u) a
        c5   [u, v] + [v, u] = p<u, v>

    ``limit`` stops enumeration after that many violations (used by the
    mutation-sensitivity scans, where one is enough).
    """
    fmt = format_vector
    A = X.A
    azs = _labelled(A.space, "a")
    bzs = _labelled(X.B, "u")
    e = A.unit
    # products of basis pairs, read by the algebra and module laws
    mul = {(la, lb): X.mul(a, b) for la, a in azs for lb, b in azs}

    def alg_part():
        for la, a in azs:
            lhs = X.mul(e, a)
            if lhs != a:
                yield Violation(MODULE, "A.unit", (la,), fmt(lhs), fmt(a))
            for lb, b in azs:
                ab, ba = mul[la, lb], mul[lb, la]
                if ab != ba:
                    yield Violation(MODULE, "A.comm", (la, lb), fmt(ab), fmt(ba))
                for lc, c in azs:
                    lhs = X.mul(ab, c)
                    rhs = X.mul(a, mul[lb, lc])
                    if lhs != rhs:
                        yield Violation(MODULE, "A.assoc", (la, lb, lc), fmt(lhs), fmt(rhs))
                lhs = X.d(ab)
                rhs = X.act(a, X.d(b)) + X.act(b, X.d(a))
                if lhs != rhs:
                    yield Violation(MODULE, "partial.der", (la, lb), fmt(lhs), fmt(rhs))

    def module_part():
        for lu, u in bzs:
            lhs = X.act(e, u)
            if lhs != u:
                yield Violation(MODULE, "mod.unit", (lu,), fmt(lhs), fmt(u))
            for la, a in azs:
                for lb, b in azs:
                    ab = mul[la, lb]
                    lhs = X.act(ab, u)
                    rhs = X.act(a, X.act(b, u))
                    if lhs != rhs:
                        yield Violation(MODULE, "mod.assoc", (la, lb, lu), fmt(lhs), fmt(rhs))
                    lhs = X.anc(u, ab)
                    rhs = X.mul(a, X.anc(u, b)) + X.mul(X.anc(u, a), b)
                    if lhs != rhs:
                        yield Violation(MODULE, "anchor.der", (lu, la, lb), fmt(lhs), fmt(rhs))

    def pairing_part():
        for lu, u in bzs:
            for lv, v in bzs:
                if X.pair(u, v) != X.pair(v, u):
                    yield Violation(MODULE, "pair.sym", (lu, lv), fmt(X.pair(u, v)), fmt(X.pair(v, u)))
                for la, a in azs:
                    lhs = X.pair(X.act(a, u), v)
                    rhs = X.mul(a, X.pair(u, v))
                    if lhs != rhs:
                        yield Violation(MODULE, "pair.alin", (la, lu, lv), fmt(lhs), fmt(rhs))

    def bracket_part():
        for lu, u in bzs:
            for lv, v in bzs:
                for lw, w in bzs:
                    lhs = X.brk(u, X.brk(v, w))
                    rhs = X.brk(X.brk(u, v), w) + X.brk(v, X.brk(u, w))
                    if lhs != rhs:
                        yield Violation(MODULE, "leibniz", (lu, lv, lw), fmt(lhs), fmt(rhs))
                    lhs = X.pair(X.brk(u, v), w) + X.pair(v, X.brk(u, w))
                    rhs = X.anc(u, X.pair(v, w))
                    if lhs != rhs:
                        yield Violation(MODULE, "c2", (lu, lv, lw), fmt(lhs), fmt(rhs))

    def anchor_part():
        for lu, u in bzs:
            for lv, v in bzs:
                for la, a in azs:
                    lhs = X.anc(X.brk(u, v), a)
                    rhs = X.anc(u, X.anc(v, a)) - X.anc(v, X.anc(u, a))
                    if lhs != rhs:
                        yield Violation(MODULE, "anchor.hom", (lu, lv, la), fmt(lhs), fmt(rhs))
            for la, a in azs:
                for lb, b in azs:
                    lhs = X.anc(X.act(a, u), b)
                    rhs = X.mul(a, X.anc(u, b))
                    if lhs != rhs:
                        yield Violation(MODULE, "anchor.alin", (la, lu, lb), fmt(lhs), fmt(rhs))

    def coupling_part():
        for lu, u in bzs:
            for la, a in azs:
                pa = X.d(a)
                for lv, v in bzs:
                    lhs = X.brk(u, X.act(a, v))
                    rhs = X.act(a, X.brk(u, v)) + X.act(X.anc(u, a), v)
                    if lhs != rhs:
                        yield Violation(MODULE, "c1", (lu, la, lv), fmt(lhs), fmt(rhs))
                lhs = X.brk(u, pa)
                rhs = X.d(X.anc(u, a))
                if lhs != rhs:
                    yield Violation(MODULE, "c3", (lu, la), fmt(lhs), fmt(rhs))
                lhs = X.pair(u, pa)
                rhs = X.anc(u, a)
                if lhs != rhs:
                    yield Violation(MODULE, "c4", (lu, la), fmt(lhs), fmt(rhs))
            for lv, v in bzs:
                lhs = X.brk(u, v) + X.brk(v, u)
                rhs = X.d(X.pair(u, v))
                if lhs != rhs:
                    yield Violation(MODULE, "c5", (lu, lv), fmt(lhs), fmt(rhs))
        for la, a in azs:
            pa = X.d(a)
            for lb, b in azs:
                lhs = X.anc(pa, b)
                if not lhs.is_zero():
                    yield Violation(MODULE, "pi.partial", (la, lb), fmt(lhs), "0")

    found = []
    for part in (alg_part, module_part, pairing_part, bracket_part, anchor_part, coupling_part):
        for v in part():
            found.append(v)
            if limit is not None and len(found) >= limit:
                return CheckReport(found)
    return CheckReport(found)


def check_annihilation(X: CourantAlgebroid) -> CheckReport:
    """Consequence checks: p(A) annihilates A and B; <,> and p are
    B-module homomorphisms.  A failure here on a structure that passes
    check_courant signals an internal error, not bad input."""
    fmt = format_vector
    out = []
    azs = _labelled(X.A.space, "a")
    bzs = _labelled(X.B, "u")
    for la, a in azs:
        pa = X.d(a)
        for lu, u in bzs:
            lhs = X.brk(pa, u)
            if not lhs.is_zero():
                out.append(Violation(MODULE, "annih.bracket", (la, lu), fmt(lhs), "0"))
            lhs = X.d(X.anc(u, a))
            rhs = X.brk(u, pa)
            if lhs != rhs:
                out.append(Violation(MODULE, "annih.phom", (lu, la), fmt(lhs), fmt(rhs)))
        for lb, b in azs:
            lhs = X.anc(pa, b)
            if not lhs.is_zero():
                out.append(Violation(MODULE, "annih.anchor", (la, lb), fmt(lhs), "0"))
    return CheckReport(out)


def check_compat(X: CourantAlgebroid, limit: int | None = None) -> CheckReport:
    """The bridge compatibilities linking the A-module structure with the
    i-th products, plus u_0 e = 0:

        (au)_0 a' = a (u_0 a')
        (au)_1 v = a (u_1 v) = u_1 (av)
        u_0 (av) = a (u_0 v) + (u_0 a) v
        u_0 (aa') = a (u_0 a') + (u_0 a) a'
    """
    fmt = format_vector
    out = []
    azs = _labelled(X.A.space, "a")
    bzs = _labelled(X.B, "u")
    e = X.A.unit
    for lu, u in bzs:
        if limit is not None and len(out) >= limit:
            break
        lhs = X.anc(u, e)
        if not lhs.is_zero():
            out.append(Violation(MODULE, "compat.u0e", (lu,), fmt(lhs), "0"))
        for la, a in azs:
            au = X.act(a, u)
            for lb, b in azs:
                lhs = X.anc(au, b)
                rhs = X.mul(a, X.anc(u, b))
                if lhs != rhs:
                    out.append(Violation(MODULE, "compat.dera1", (la, lu, lb), fmt(lhs), fmt(rhs)))
                lhs = X.anc(u, X.mul(a, b))
                rhs = X.mul(a, X.anc(u, b)) + X.mul(X.anc(u, a), b)
                if lhs != rhs:
                    out.append(Violation(MODULE, "compat.dec", (lu, la, lb), fmt(lhs), fmt(rhs)))
            for lv, v in bzs:
                lhs = X.pair(au, v)
                rhs = X.mul(a, X.pair(u, v))
                if lhs != rhs:
                    out.append(Violation(MODULE, "compat.syma", (la, lu, lv), fmt(lhs), fmt(rhs)))
                lhs = X.pair(u, X.act(a, v))
                if lhs != rhs:
                    out.append(Violation(MODULE, "compat.syma2", (lu, la, lv), fmt(lhs), fmt(rhs)))
                lhs = X.brk(u, X.act(a, v))
                rhs = X.act(a, X.brk(u, v)) + X.act(X.anc(u, a), v)
                if lhs != rhs:
                    out.append(Violation(MODULE, "compat.dera2", (lu, la, lv), fmt(lhs), fmt(rhs)))
    return CheckReport(out)


class StructureError(ValueError):
    """A structural or axiom precondition failed; carries the report."""

    def __init__(self, message: str, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


def to_1tca(X: CourantAlgebroid, certify: bool = True) -> OneTruncatedConformalAlgebra:
    """The equivalent 1-truncated conformal algebra on A (+) B.

    Dictionary: u_0 v = [u,v], u_1 v = <u,v>, u_0 a = pi(u)(a),
    a_0 u = -u_0 a, a_i a' = 0.  With certify=True (the default) the input
    is checked first and a failing input raises StructureError.
    """
    if certify:
        rep = check_courant(X)
        if not rep.passed:
            raise StructureError("input fails check_courant", rep)
    A = X.A.space
    B = X.B
    neg_anchor_swapped = BilinearMap(
        A,
        B,
        A,
        [[-X.anchor.table[j][i] for j in range(B.dim)] for i in range(A.dim)],
    )
    return OneTruncatedConformalAlgebra(
        C0=A,
        C1=B,
        partial=X.partial,
        p0_10=X.anchor,
        p0_01=neg_anchor_swapped,
        p0_11=X.bracket,
        p1_11=X.pairing,
    )


def from_1tca(
    T: OneTruncatedConformalAlgebra,
    mult: BilinearMap,
    action: BilinearMap,
    certify: bool = True,
) -> CourantAlgebroid:
    """Inverse dictionary: rebuild the Courant algebroid from a 1-truncated
    conformal algebra plus the base multiplication and module action.

    The unit of A is solved for exactly from the multiplication table.
    Raises StructureError (with the offending report attached) when T fails
    the conformal-algebra checks or the rebuilt algebroid fails
    ``check_courant``, which covers the base-algebra and module laws and
    implies every ``check_compat`` identity.
    """
    A = T.C0
    if (mult.left, mult.right, mult.codomain) != (A, A, A):
        raise StructureError("mult must be C0 x C0 -> C0")
    if (action.left, action.right, action.codomain) != (A, T.C1, T.C1):
        raise StructureError("action must be C0 x C1 -> C1")
    # Solve sum_i e_i * mult(a_i, a_j) = a_j for the unit coordinates.
    n = A.dim
    rows = []
    rhs = []
    for j in range(n):
        for k in range(n):
            rows.append([mult.table[i][j][k] for i in range(n)])
            rhs.append(1 if j == k else 0)
    sol = solve_linear(rows, rhs) if n else []
    if sol is None:
        raise StructureError("multiplication table has no unit")
    unit = Vector(A, dict(enumerate(sol)))
    X = CourantAlgebroid(
        A=UnitalCommAlgebra(A, mult, unit),
        B=T.C1,
        action=action,
        bracket=T.p0_11,
        anchor=T.p0_10,
        pairing=T.p1_11,
        partial=T.partial,
    )
    if certify:
        rep = check_tca_all(T).merge(check_courant(X))
        if not rep.passed:
            raise StructureError("axiom violations in from_1tca", rep)
    return X
