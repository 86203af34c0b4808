"""Courant extraction from any graded vertex Poisson algebra presented
through degree-wise structure-constant tables.

The view is a read-only bundle of based spaces per degree with the
translation operator, the commutative products, and the n-th products
between them, so third-party algebras serialized as tables can be
certified without being built by this library.  Extraction reads off the
degree-0 algebra and the degree-1 module with

    bracket = 0-product,  pairing = 1-product,  anchor = 0-product into
    degree 0,  action = commutative product,  derivation = d at degree 0

and returns the candidate Courant algebroid; certifying it is the
caller's job (a view violating the vertex Poisson laws still extracts,
and then fails the Courant axiom checker, which is the point of the
exercise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from .courant import CourantAlgebroid, StructureError, UnitalCommAlgebra
from .linalg import (
    BasedSpace,
    BilinearMap,
    LinearMap,
    Scalar,
    Vector,
    add_scaled,
    canonical,
    comb_items,
    rational,
)
from .vpa import Monomial, SCElement, factor_degree, format_monomial, mono_degree

if TYPE_CHECKING:  # quotient.py reads its degrees 0 and 1 back through this module
    from .quotient import CourantQuotient


@dataclass(frozen=True)
class GradedVpaView:
    spaces: tuple[BasedSpace, ...]          # degree -> space, degrees 0..cutoff
    unit: Vector                            # identity of the degree-0 algebra
    d: tuple[LinearMap, ...]                # d[r]: degree r -> degree r+1
    mult: dict                              # (p, q) -> BilinearMap into degree p+q
    prod: dict                              # (n, p, q) -> BilinearMap into degree p+q-n-1

    @property
    def cutoff(self) -> int:
        return len(self.spaces) - 1

    def __post_init__(self):
        """Structural grading invariants; raises StructureError naming the
        offending map.  Laws are not checked here: the unit, commutativity
        and associativity of degree 0 are ``check_courant``'s A.unit, A.comm
        and A.assoc on the extracted algebroid."""
        cutoff = self.cutoff
        if cutoff < 1:
            raise StructureError("view needs degrees 0 and 1 at least")
        if self.unit.space != self.spaces[0]:
            raise StructureError("unit: not a degree-0 vector")
        if len(self.d) != cutoff:
            raise StructureError("d: expected %d maps, got %d" % (cutoff, len(self.d)))
        for r, m in enumerate(self.d):
            if m.domain != self.spaces[r] or m.codomain != self.spaces[r + 1]:
                raise StructureError("d[%d]: must map degree %d to degree %d" % (r, r, r + 1))
        for (p, q), m in self.mult.items():
            if p + q > cutoff:
                raise StructureError("mult[%d,%d]: lands above the cutoff" % (p, q))
            if (m.left, m.right, m.codomain) != (self.spaces[p], self.spaces[q], self.spaces[p + q]):
                raise StructureError("mult[%d,%d]: wrong spaces" % (p, q))
        for (n, p, q), m in self.prod.items():
            target = p + q - n - 1
            if max(p, q) > cutoff:
                raise StructureError("prod[%d,%d,%d]: degree above the cutoff" % (n, p, q))
            if not 0 <= target <= cutoff:
                raise StructureError("prod[%d,%d,%d]: target degree %d out of range" % (n, p, q, target))
            if (m.left, m.right, m.codomain) != (self.spaces[p], self.spaces[q], self.spaces[target]):
                raise StructureError("prod[%d,%d,%d]: wrong spaces" % (n, p, q))
        for key in ((0, 0), (0, 1)):
            if key not in self.mult:
                raise StructureError("mult[%d,%d]: required for extraction, missing" % key)
        for key in ((0, 1, 1), (1, 1, 1), (0, 1, 0)):
            if key not in self.prod:
                raise StructureError("prod[%d,%d,%d]: required for extraction, missing" % key)


def extract_courant(V: GradedVpaView) -> CourantAlgebroid:
    """Read off the degree-0/1 Courant data, whose shapes the view checked
    when it was built; does not run the axiom checker."""
    alg = UnitalCommAlgebra(V.spaces[0], V.mult[(0, 0)], V.unit)
    return CourantAlgebroid(
        A=alg,
        B=V.spaces[1],
        action=V.mult[(0, 1)],
        bracket=V.prod[(0, 1, 1)],
        anchor=V.prod[(0, 1, 0)],
        pairing=V.prod[(1, 1, 1)],
        partial=V.d[0],
    )


def _top(u: SCElement) -> int:
    """The largest factor degree over the monomials of ``u``: the degree
    of a canonical monomial's last factor, 0 for 1 and an A-monomial."""
    return max((factor_degree(m[-1]) for m in u.terms if m), default=0)


def assemble_view(q: CourantQuotient, cutoff: int | None = None) -> GradedVpaView:
    """Serialize the quotient algebra's graded pieces into a view.

    Degree 0 and 1 use the base spaces themselves; higher degrees use the
    canonical monomial bases of the quotient, and the unit is the normal
    form of 1.  ``d``, ``mult`` and the product entries u_n v with both
    degrees <= 1 are computed in the symmetric algebra on the basis normal
    forms and reduced.  No fusion memo is opened: the monomials reduced
    here are mostly pure B, whose fusion is one step.

    Every other product entry is derived from tables already filled, by
    table operations only.  The quotient is a vertex Poisson algebra, and
    reduction respects the product and D, so its laws hold between normal
    forms.  Every basis monomial of degree >= 2 is a product of D^k(b)
    generators, so the laws reach it from degrees 0 and 1:

    * hd, for v = g.rest of degree >= 2 with two or more factors, g its
      first factor:  u_n v = (u_n g).rest + g.(u_n rest), where g and
      rest stand for their normal forms, of lower degree than v (with
      relations such a form can be a combination of basis vectors);
    * dcomm, for v = D^k(b) with k >= 1:  u_n v = D(u_n w) + n u_(n-1) w,
      where w is the normal form of D^(k-1)(b);
    * hs, for u of degree >= 2 and v of degree <= 1:
      u_n v = sum_i (-1)^(n+i+1) (1/i!) D^i(v_(n+i) u).

    Every divisor of a basis monomial, and D^(k-1)(b) of a basis D^k(b),
    has been a basis monomial on every quotient tested (six built-ins up
    to degree 6), so ``normal_form`` reduces a factor only on a miss.

    The tables fill with left degree <= 1 first and then left degree
    >= 2, each by increasing right degree, so every entry a rule reads is
    already there: hd and dcomm read entries with the same left degree and
    a lower right degree, and hs reads entries with left degree <= 1.

    Until the view is returned, every table is a list of canonical item
    tuples (see ``linalg``): a product with a table row is ``comb_items``,
    and each derived entry sums its terms into one dict by ``add_scaled``.
    The tables become ``LinearMap``s and ``BilinearMap``s once, at the end,
    every zero entry the one zero ``Vector`` of its degree.

    A product entry u_n v is zero and not computed when n >= top(u) +
    top(v) (see ``_top``): it is zero by grading.
    ``VertexLie._gen_product`` gives g_j f = 0 for generators once j >=
    deg g + deg f, from its three cases a_i D^m b (needs i <= m),
    (D^k b)_i a (needs i = k) and (D^k b)_i D^m b' (needs i <= k + m + 1).
    By Leibniz in the right slot and the skew formula u_n g = sum_(j >= n)
    +-D^(j-n)(g_j u)/(j-n)!, with g_j a derivation on u, every term of u_n
    v carries one such g_j f with j >= n, g a factor of v and f one of u,
    and deg g + deg f <= top(u) + top(v) <= j.  On sl2 at cutoff 4, 23,339
    of the 36,359 product entries are zero by grading, 24 are computed in
    the symmetric algebra and the other 12,996 are derived; ``q.stats()``
    counts the three kinds.
    """
    top = q.cutoff if cutoff is None else min(cutoff, q.cutoff)
    A = q.X.A.space
    sym = q.sym
    spaces = [A, q.X.B]
    # each degree's basis monomials: the single factors ("a", i) and
    # ("b", 0, i), then the quotient's basis monomials, each leading no
    # relation, so every basis monomial is its own normal form
    monos = [[(("a", i),) for i in range(A.dim)], q.basis_monomials(1)]
    for n in range(2, top + 1):
        monos.append(q.basis_monomials(n))
        spaces.append(BasedSpace("S%d" % n, [format_monomial(sym, m) for m in monos[n]]))
    elems = [[SCElement({m: 1}) for m in ms] for ms in monos]
    tops = [[_top(u) for u in es] for es in elems]
    indices = [{m: i for i, m in enumerate(ms)} for ms in monos]

    def expand(w, degree: int) -> tuple:
        index = indices[degree]
        try:
            return canonical({index[m]: c for m, c in q.reduce(w).terms.items()})
        except KeyError:
            raise StructureError("non-canonical monomial in expansion") from None

    d_cols = [[expand(sym.d(u), r + 1) for u in elems[r]] for r in range(top)]
    mult = {
        (p, qd): [[expand(sym.multiply(u, v), p + qd) for v in elems[qd]] for u in elems[p]]
        for p in range(top + 1)
        for qd in range(top + 1 - p)
    }

    # normal forms of the factors hd and dcomm split a basis monomial
    # into, as items of their degrees
    normal = {m: ((i, 1),) for index in indices for m, i in index.items()}

    def normal_form(m: Monomial) -> tuple:
        got = normal.get(m)
        if got is None:
            got = normal[m] = expand(SCElement({m: 1}), mono_degree(m))
        return got

    tables: dict[tuple[int, int, int], list[list[tuple]]] = {}

    def times(n: int, p: int, i: int, x: tuple, degree: int) -> tuple | None:
        """(basis vector i of degree p)_n x for x of the given degree,
        from a filled table; None when the product's degree is < 0."""
        if p + degree - n - 1 < 0:
            return None
        return comb_items(tables[(n, p, degree)][i], x)

    def add_mult(acc: dict, rows: list[list[tuple]], x: tuple, y: tuple) -> None:
        """acc += x.y for the commutative product table ``rows``."""
        for a, c in x:
            row = rows[a]
            for b, e in y:
                add_scaled(acc, row[b], c * e)

    def derive(n: int, p: int, i: int, qd: int, j: int) -> tuple:
        """(basis vector i of degree p)_n (basis vector j of degree qd),
        by hs, dcomm or hd."""
        target = p + qd - n - 1
        acc: dict[int, Scalar] = {}
        if qd <= 1:  # hs: p >= 2
            for k in range(0, target + 1):
                w = tables[(n + k, qd, p)][j][i]
                if w:
                    for r in range(target - k, target):
                        w = comb_items(d_cols[r], w)
                    add_scaled(acc, w, rational(Fraction((-1) ** (n + k + 1), factorial(k))))
            return canonical(acc)
        v = monos[qd][j]
        if len(v) == 1:  # dcomm
            _, k, b = v[0]
            w = normal_form((("b", k - 1, b),))
            below = times(n, p, i, w, qd - 1)
            if below is not None:
                add_scaled(acc, comb_items(d_cols[target - 1], below))
            if n:
                add_scaled(acc, times(n - 1, p, i, w, qd - 1), n)
            return canonical(acc)
        g, rest = v[:1], v[1:]  # hd
        dg = factor_degree(g[0])
        dr = qd - dg
        gv, rv = normal_form(g), normal_form(rest)
        x = times(n, p, i, gv, dg)
        if x is not None:
            add_mult(acc, mult[(target - dr, dr)], x, rv)
        y = times(n, p, i, rv, dr)
        if y is not None:
            add_mult(acc, mult[(dg, target - dg)], gv, y)
        return canonical(acc)

    counted = dict.fromkeys(("view_entries_sym", "view_entries_laws", "view_entries_zero"), 0)
    # the key order fills left degrees 0 and 1 before the rest
    for p in range(top + 1):
        for qd in range(top + 1):
            for n in range(max(0, p + qd - 1 - top), p + qd):
                target = p + qd - n - 1
                rows = tables[(n, p, qd)] = []
                for i, (u, tu) in enumerate(zip(elems[p], tops[p])):
                    row = []
                    for j, (v, tv) in enumerate(zip(elems[qd], tops[qd])):
                        if n >= tu + tv:
                            row.append(())
                            counted["view_entries_zero"] += 1
                        elif p <= 1 and qd <= 1:
                            row.append(expand(sym.product(n, u, v), target))
                            counted["view_entries_sym"] += 1
                        else:
                            row.append(derive(n, p, i, qd, j))
                            counted["view_entries_laws"] += 1
                    rows.append(row)
    q.add_counts(**counted)

    # zero entries share their degree's one zero Vector: a Vector per
    # zero entry raised exact(4)'s maxrss at degree 6 by a third
    zeros = [Vector._trusted(s, ()) for s in spaces]

    def vectors(entries: list[tuple], degree: int) -> list[Vector]:
        space, zero = spaces[degree], zeros[degree]
        return [Vector._trusted(space, e) if e else zero for e in entries]

    def bilinear(rows: list[list[tuple]], p: int, qd: int, target: int) -> BilinearMap:
        return BilinearMap(spaces[p], spaces[qd], spaces[target], [vectors(row, target) for row in rows])

    return GradedVpaView(
        spaces=tuple(spaces),
        unit=Vector._trusted(A, expand(sym.one(), 0)),
        d=tuple(LinearMap(spaces[r], spaces[r + 1], vectors(c, r + 1)) for r, c in enumerate(d_cols)),
        mult={(p, qd): bilinear(rows, p, qd, p + qd) for (p, qd), rows in mult.items()},
        prod={(n, p, qd): bilinear(rows, p, qd, p + qd - n - 1) for (n, p, qd), rows in tables.items()},
    )
