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
from typing import TYPE_CHECKING

from .courant import CourantAlgebroid, StructureError, UnitalCommAlgebra
from .linalg import BasedSpace, BilinearMap, LinearMap, Vector, bilin_apply
from .vpa import Monomial, SCElement, format_monomial

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


def validate_view(V: GradedVpaView) -> None:
    """Structural grading invariants; raises StructureError naming the
    offending map."""
    cutoff = V.cutoff
    if cutoff < 1:
        raise StructureError("view needs degrees 0 and 1 at least")
    if V.unit.space != V.spaces[0]:
        raise StructureError("unit: not a degree-0 vector")
    if len(V.d) != cutoff:
        raise StructureError("d: expected %d maps, got %d" % (cutoff, len(V.d)))
    for r, m in enumerate(V.d):
        if m.domain != V.spaces[r] or m.codomain != V.spaces[r + 1]:
            raise StructureError("d[%d]: must map degree %d to degree %d" % (r, r, r + 1))
    for (p, q), m in V.mult.items():
        if p + q > cutoff:
            raise StructureError("mult[%d,%d]: lands above the cutoff" % (p, q))
        if (m.left, m.right, m.codomain) != (V.spaces[p], V.spaces[q], V.spaces[p + q]):
            raise StructureError("mult[%d,%d]: wrong spaces" % (p, q))
    for (n, p, q), m in V.prod.items():
        target = p + q - n - 1
        if not 0 <= target <= cutoff:
            raise StructureError("prod[%d,%d,%d]: target degree %d out of range" % (n, p, q, target))
        if (m.left, m.right, m.codomain) != (V.spaces[p], V.spaces[q], V.spaces[target]):
            raise StructureError("prod[%d,%d,%d]: wrong spaces" % (n, p, q))
    for key in ((0, 0), (0, 1)):
        if key not in V.mult:
            raise StructureError("mult[%d,%d]: required for extraction, missing" % key)
    for key in ((0, 1, 1), (1, 1, 1), (0, 1, 0)):
        if key not in V.prod:
            raise StructureError("prod[%d,%d,%d]: required for extraction, missing" % key)
    # the degree-0 algebra must be unital commutative associative
    m00 = V.mult[(0, 0)]
    A0 = V.spaces[0]
    basis = A0.basis_vectors()
    for i, a in enumerate(basis):
        if bilin_apply(m00, V.unit, a) != a:
            raise StructureError("mult[0,0]: unit fails at %s" % A0.basis[i])
        for j, b in enumerate(basis):
            if bilin_apply(m00, a, b) != bilin_apply(m00, b, a):
                raise StructureError(
                    "mult[0,0]: not commutative at (%s,%s)" % (A0.basis[i], A0.basis[j])
                )
            for c in basis:
                lhs = bilin_apply(m00, bilin_apply(m00, a, b), c)
                rhs = bilin_apply(m00, a, bilin_apply(m00, b, c))
                if lhs != rhs:
                    raise StructureError("mult[0,0]: not associative")


def extract_courant(V: GradedVpaView) -> CourantAlgebroid:
    """Read off the degree-0/1 Courant data.  Validates the grading shape
    first; does not run the axiom checker."""
    validate_view(V)
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


def assemble_view(q: CourantQuotient, cutoff: int | None = None) -> GradedVpaView:
    """Serialize the quotient algebra's graded pieces into a view.

    Degree 0 and 1 use the base spaces themselves; higher degrees use the
    canonical monomial bases of the quotient, and the unit is the normal
    form of 1.  Every table entry is computed in the symmetric algebra on
    the basis normal forms and reduced inside one ``q.memoized()`` block,
    so the products and normal forms of repeated monomials are computed
    once.
    """
    top = q.cutoff if cutoff is None else min(cutoff, q.cutoff)
    with q.memoized():
        A = q.X.A.space
        B = q.X.B
        sym = q.sym
        spaces = [A, B]
        monos: dict[int, list[Monomial]] = {}
        for n in range(2, top + 1):
            ms = q.basis_monomials(n)
            monos[n] = ms
            spaces.append(BasedSpace("S%d" % n, [format_monomial(sym, m) for m in ms]))

        # the normal forms of each degree's basis, reduced once
        elems = [
            [q.embed_a(v) for v in A.basis_vectors()],
            [q.embed_b(v) for v in B.basis_vectors()],
        ] + [
            [q.reduce(SCElement({m: Fraction(1)})) for m in monos[p]] for p in range(2, top + 1)
        ]
        indices = {p: {m: i for i, m in enumerate(ms)} for p, ms in monos.items()}

        def expand(w, degree: int) -> Vector:
            u = q.reduce(w)
            if degree == 0:
                return q.to_a_vector(u)
            if degree == 1:
                return q.to_b_vector(u)
            index = indices[degree]
            coeffs = {}
            for m, c in u.terms.items():
                if m not in index:
                    raise StructureError("non-canonical monomial in expansion")
                coeffs[index[m]] = c
            return Vector(spaces[degree], coeffs)

        d_maps = []
        for r in range(top):
            cols = [expand(sym.d(u), r + 1) for u in elems[r]]
            d_maps.append(LinearMap(spaces[r], spaces[r + 1], cols))
        mult = {}
        for p in range(top + 1):
            for qd in range(top + 1 - p):
                rows = []
                for u in elems[p]:
                    rows.append([expand(sym.multiply(u, v), p + qd) for v in elems[qd]])
                mult[(p, qd)] = BilinearMap(spaces[p], spaces[qd], spaces[p + qd], rows)
        prod = {}
        for p in range(top + 1):
            for qd in range(top + 1):
                for n in range(0, p + qd):
                    target = p + qd - n - 1
                    if not 0 <= target <= top:
                        continue
                    rows = []
                    for u in elems[p]:
                        rows.append([expand(sym.product(n, u, v), target) for v in elems[qd]])
                    prod[(n, p, qd)] = BilinearMap(spaces[p], spaces[qd], spaces[target], rows)
        return GradedVpaView(
            spaces=tuple(spaces),
            unit=expand(sym.one(), 0),
            d=tuple(d_maps),
            mult=mult,
            prod=prod,
        )
