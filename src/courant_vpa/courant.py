"""Courant algebroids over a unital commutative base, by structure constants.

The anchor is stored curried, as a bilinear map B x A -> A, so that
operator-valued codomains never need representing; that each pi(u) is a
derivation of A is then an explicit checked identity.  All checkers
enumerate basis tuples only; bilinearity extends every verified identity
to the whole space.

They read the tables by basis index.  A bilinear map with one argument a
basis vector is the linear map given by that row (or column) of its
table: b(e_i, e_j) is table[i][j] and b(e_i, x) combines row i by the
coefficients of x.  Each checker reads its tables and their columns once
per call as item tuples (linalg.item_table) and computes b(e_i, x) as
comb_items(rows[i], x) on them; shapes were checked at construction, so
this equals bilin_apply exactly with no space check, and each identity
compares two canonical tuples.  A violation's sides are printed from the
tuples by format_items, which renders them as format_vector renders a
Vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .linalg import (
    BasedSpace,
    BilinearMap,
    LinearMap,
    Vector,
    add_items,
    bilin_apply,
    comb_items,
    format_items,
    item_table,
    map_apply,
    neg_items,
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


def _first(parts, limit: int | None) -> CheckReport:
    """The violations of the generators ``parts`` in turn, up to ``limit``
    (at least 1, or None for all)."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1, got %r" % limit)
    found = []
    for part in parts:
        for v in part:
            found.append(v)
            if limit is not None and len(found) >= limit:
                return CheckReport(found)
    return CheckReport(found)


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
    mutation-sensitivity scans, where one is enough); a ``limit`` below 1
    is a ValueError.
    """
    As, Bs = X.A.space, X.B
    la, lu = ["a=" + l for l in As.basis], ["u=" + l for l in Bs.basis]
    ra, rb = range(len(la)), range(len(lu))
    ea, eb = [((i, 1),) for i in ra], [((p, 1),) for p in rb]
    e = X.A.unit.items
    (M, Mc), (Act, Actc), (Brk, Brkc), (Anc, Ancc), (Pair, Pairc) = map(
        item_table, (X.A.mult, X.action, X.bracket, X.anchor, X.pairing))
    D = [col.items for col in X.partial.columns]
    comb, add = comb_items, add_items
    fa, fb = partial(format_items, As), partial(format_items, Bs)

    def alg_part():
        for i in ra:
            lhs = comb(Mc[i], e)
            if lhs != ea[i]:
                yield Violation(MODULE, "A.unit", (la[i],), fa(lhs), fa(ea[i]))
            for j in ra:
                ab, ba = M[i][j], M[j][i]
                if ab != ba:
                    yield Violation(MODULE, "A.comm", (la[i], la[j]), fa(ab), fa(ba))
                for k in ra:
                    lhs = comb(Mc[k], ab)
                    rhs = comb(M[i], M[j][k])
                    if lhs != rhs:
                        yield Violation(MODULE, "A.assoc", (la[i], la[j], la[k]), fa(lhs), fa(rhs))
                lhs = comb(D, ab)
                rhs = add(comb(Act[i], D[j]), comb(Act[j], D[i]))
                if lhs != rhs:
                    yield Violation(MODULE, "partial.der", (la[i], la[j]), fb(lhs), fb(rhs))

    def module_part():
        for p in rb:
            lhs = comb(Actc[p], e)
            if lhs != eb[p]:
                yield Violation(MODULE, "mod.unit", (lu[p],), fb(lhs), fb(eb[p]))
            for i in ra:
                for j in ra:
                    ab = M[i][j]
                    lhs = comb(Actc[p], ab)
                    rhs = comb(Act[i], Act[j][p])
                    if lhs != rhs:
                        yield Violation(MODULE, "mod.assoc", (la[i], la[j], lu[p]), fb(lhs), fb(rhs))
                    lhs = comb(Anc[p], ab)
                    rhs = add(comb(M[i], Anc[p][j]), comb(Mc[j], Anc[p][i]))
                    if lhs != rhs:
                        yield Violation(MODULE, "anchor.der", (lu[p], la[i], la[j]), fa(lhs), fa(rhs))

    def pairing_part():
        for p in rb:
            for q in rb:
                if Pair[p][q] != Pair[q][p]:
                    yield Violation(MODULE, "pair.sym", (lu[p], lu[q]), fa(Pair[p][q]), fa(Pair[q][p]))
                for i in ra:
                    lhs = comb(Pairc[q], Act[i][p])
                    rhs = comb(M[i], Pair[p][q])
                    if lhs != rhs:
                        yield Violation(MODULE, "pair.alin", (la[i], lu[p], lu[q]), fa(lhs), fa(rhs))

    def bracket_part():
        for p in rb:
            for q in rb:
                for r in rb:
                    lhs = comb(Brk[p], Brk[q][r])
                    rhs = add(comb(Brkc[r], Brk[p][q]), comb(Brk[q], Brk[p][r]))
                    if lhs != rhs:
                        yield Violation(MODULE, "leibniz", (lu[p], lu[q], lu[r]), fb(lhs), fb(rhs))
                    lhs = add(comb(Pairc[r], Brk[p][q]), comb(Pair[q], Brk[p][r]))
                    rhs = comb(Anc[p], Pair[q][r])
                    if lhs != rhs:
                        yield Violation(MODULE, "c2", (lu[p], lu[q], lu[r]), fa(lhs), fa(rhs))

    def anchor_part():
        for p in rb:
            for q in rb:
                for i in ra:
                    lhs = comb(Ancc[i], Brk[p][q])
                    rhs = add(comb(Anc[p], Anc[q][i]), neg_items(comb(Anc[q], Anc[p][i])))
                    if lhs != rhs:
                        yield Violation(MODULE, "anchor.hom", (lu[p], lu[q], la[i]), fa(lhs), fa(rhs))
            for i in ra:
                for j in ra:
                    lhs = comb(Ancc[j], Act[i][p])
                    rhs = comb(M[i], Anc[p][j])
                    if lhs != rhs:
                        yield Violation(MODULE, "anchor.alin", (la[i], lu[p], la[j]), fa(lhs), fa(rhs))

    def coupling_part():
        for p in rb:
            for i in ra:
                for q in rb:
                    lhs = comb(Brk[p], Act[i][q])
                    rhs = add(comb(Act[i], Brk[p][q]), comb(Actc[q], Anc[p][i]))
                    if lhs != rhs:
                        yield Violation(MODULE, "c1", (lu[p], la[i], lu[q]), fb(lhs), fb(rhs))
                lhs = comb(Brk[p], D[i])
                rhs = comb(D, Anc[p][i])
                if lhs != rhs:
                    yield Violation(MODULE, "c3", (lu[p], la[i]), fb(lhs), fb(rhs))
                lhs = comb(Pair[p], D[i])
                rhs = Anc[p][i]
                if lhs != rhs:
                    yield Violation(MODULE, "c4", (lu[p], la[i]), fa(lhs), fa(rhs))
            for q in rb:
                lhs = add(Brk[p][q], Brk[q][p])
                rhs = comb(D, Pair[p][q])
                if lhs != rhs:
                    yield Violation(MODULE, "c5", (lu[p], lu[q]), fb(lhs), fb(rhs))
        for i in ra:
            for j in ra:
                lhs = comb(Ancc[j], D[i])
                if lhs:
                    yield Violation(MODULE, "pi.partial", (la[i], la[j]), fa(lhs), "0")

    parts = (alg_part, module_part, pairing_part, bracket_part, anchor_part, coupling_part)
    return _first((part() for part in parts), limit)


def check_annihilation(X: CourantAlgebroid) -> CheckReport:
    """Consequence checks: p(A) annihilates A and B; <,> and p are
    B-module homomorphisms.  A failure here on a structure that passes
    check_courant signals an internal error, not bad input."""
    out = []
    la, lu = ["a=" + l for l in X.A.space.basis], ["u=" + l for l in X.B.basis]
    (Brk, Brkc), (Anc, Ancc) = item_table(X.bracket), item_table(X.anchor)
    D = [col.items for col in X.partial.columns]
    fa, fb = partial(format_items, X.A.space), partial(format_items, X.B)
    for i in range(len(la)):
        for p in range(len(lu)):
            lhs = comb_items(Brkc[p], D[i])
            if lhs:
                out.append(Violation(MODULE, "annih.bracket", (la[i], lu[p]), fb(lhs), "0"))
            lhs = comb_items(D, Anc[p][i])
            rhs = comb_items(Brk[p], D[i])
            if lhs != rhs:
                out.append(Violation(MODULE, "annih.phom", (lu[p], la[i]), fb(lhs), fb(rhs)))
        for j in range(len(la)):
            lhs = comb_items(Ancc[j], D[i])
            if lhs:
                out.append(Violation(MODULE, "annih.anchor", (la[i], la[j]), fa(lhs), "0"))
    return CheckReport(out)


def check_compat(X: CourantAlgebroid, limit: int | None = None) -> CheckReport:
    """The bridge compatibilities linking the A-module structure with the
    i-th products, plus u_0 e = 0, stopping after ``limit`` violations:

        (au)_0 a' = a (u_0 a')
        (au)_1 v = a (u_1 v) = u_1 (av)
        u_0 (av) = a (u_0 v) + (u_0 a) v
        u_0 (aa') = a (u_0 a') + (u_0 a) a'
    """
    la, lu = ["a=" + l for l in X.A.space.basis], ["u=" + l for l in X.B.basis]
    ra, rb = range(len(la)), range(len(lu))
    e = X.A.unit.items
    (M, Mc), (Act, Actc), (Brk, _), (Anc, Ancc), (Pair, Pairc) = map(
        item_table, (X.A.mult, X.action, X.bracket, X.anchor, X.pairing))
    comb, add = comb_items, add_items
    fa, fb = partial(format_items, X.A.space), partial(format_items, X.B)

    def part():
        for p in rb:
            lhs = comb(Anc[p], e)
            if lhs:
                yield Violation(MODULE, "compat.u0e", (lu[p],), fa(lhs), "0")
            for i in ra:
                au = Act[i][p]
                for j in ra:
                    lhs = comb(Ancc[j], au)
                    rhs = comb(M[i], Anc[p][j])
                    if lhs != rhs:
                        yield Violation(MODULE, "compat.dera1", (la[i], lu[p], la[j]), fa(lhs), fa(rhs))
                    lhs = comb(Anc[p], M[i][j])
                    rhs = add(rhs, comb(Mc[j], Anc[p][i]))
                    if lhs != rhs:
                        yield Violation(MODULE, "compat.dec", (lu[p], la[i], la[j]), fa(lhs), fa(rhs))
                for q in rb:
                    lhs = comb(Pairc[q], au)
                    rhs = comb(M[i], Pair[p][q])
                    if lhs != rhs:
                        yield Violation(MODULE, "compat.syma", (la[i], lu[p], lu[q]), fa(lhs), fa(rhs))
                    lhs = comb(Pair[p], Act[i][q])
                    if lhs != rhs:
                        yield Violation(MODULE, "compat.syma2", (lu[p], la[i], lu[q]), fa(lhs), fa(rhs))
                    lhs = comb(Brk[p], Act[i][q])
                    rhs = add(comb(Act[i], Brk[p][q]), comb(Actc[q], Anc[p][i]))
                    if lhs != rhs:
                        yield Violation(MODULE, "compat.dera2", (lu[p], la[i], lu[q]), fb(lhs), fb(rhs))

    return _first([part()], limit)


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
