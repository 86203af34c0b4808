"""The quotient vertex Poisson algebra that recovers the Courant algebroid.

The quotient is by the ideal generated (over the algebra and D) by the
degree-0 and degree-1 relators

    E0 = { e - 1,  a.a' - aa' }      E1 = { a.b - ab }

identifying the abstract symmetric-algebra products of degree-0 generators
with the base algebra's own multiplication and module action.

Reduction to normal form has two stages.  Stage one fuses base-algebra
factors into each other and into the D-power factors via

    a . D^n(b) = D^n(ab) - sum_(i=1..n) C(n,i) D^(i-1)(pa) . D^(n-i)(b)

until no degree-0 factor remains; each fusion step removes one A-factor,
which is the termination measure, and a step counter enforces it.  Stage
two is needed because the fused monomials in D^n(b) generators span each
graded piece but are not independent in general: when the module action
has a kernel, distinct fusion orders land on different monomial
combinations that are congruent modulo the ideal (in the exact(2)
instance, x.x.D^2(xD) fuses to 0 one way and to -2 xD.dx.dx the other, so
xD.dx.dx itself lies in the ideal).  For each degree up to the cutoff the
finite subspace of such residual relations is generated by reducing
(pure-B monomial).D^k(relator) products and closing under multiplication
by degree-0 generators, kept as a ``linalg.Echelon``: each row is stored
under its largest monomial with coefficient 1 and holds no other row's
lead, so the basis is unique and stage two eliminates against it in one
pass.  Every eliminated combination is produced from ideal elements
only, so reduction is exact; degrees 0 and 1 never carry relations, which
is the graded splitting that makes the round trip on-the-nose.  The full
ideal is never materialized (it has unbounded A-factor content); only its
pure-B shadow per degree is, and that is finite.

Order-insensitivity of the two fusion extremes is asserted empirically on
randomized corpora, as the quotient's well-definedness licenses.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from .courant import CourantAlgebroid, UnitalCommAlgebra, check_courant, to_1tca
from .linalg import BilinearMap, Echelon, LinearMap, Vector, format_vector, rank
from .reports import CheckReport, Violation
from .vlie import VertexLie
from .vpa import (
    Monomial,
    SCElement,
    SymAlgebra,
    factor_degree,
    make_monomial,
    mono_degree,
)

MODULE = "quotient"

MAX_REDUCE_STEPS = 100_000


class ReduceBoundError(RuntimeError):
    """Stage-one fusion took more than MAX_REDUCE_STEPS rewrite steps."""


class SBElement:
    """Normal form in the quotient: degree-0 part in A plus monomials in
    the D^n(b) generators (no A-factors, no empty monomial)."""

    __slots__ = ("a_part", "monomial_part")

    def __init__(self, a_part: Vector, monomial_part: dict[Monomial, Fraction]):
        self.a_part = a_part
        self.monomial_part = {m: c for m, c in monomial_part.items() if c != 0}
        for m in self.monomial_part:
            if not m or any(f[0] != "b" for f in m):
                raise ValueError("normal form admits only D^n(b) factors")

    def is_zero(self) -> bool:
        return self.a_part.is_zero() and not self.monomial_part

    def degrees(self) -> set[int]:
        out = set() if self.a_part.is_zero() else {0}
        out |= {mono_degree(m) for m in self.monomial_part}
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SBElement)
            and self.a_part == other.a_part
            and self.monomial_part == other.monomial_part
        )

    def __hash__(self) -> int:
        return hash((self.a_part, frozenset(self.monomial_part.items())))

    def __repr__(self) -> str:
        return "SBElement(a=%s, monomials=%s)" % (format_vector(self.a_part), self.monomial_part)


class IdealGenerators:
    """The finite relator lists, as elements of the symmetric algebra."""

    def __init__(self, quotient: "CourantQuotient"):
        sym = quotient.sym
        A = quotient.X.A
        B = quotient.X.B
        e0: list[tuple[str, SCElement]] = []
        unit_elem = SCElement(
            {(("a", i),): c for i, c in A.unit.items}
        ) - sym.one()
        e0.append(("e-1", unit_elem))
        for i, la in enumerate(A.space.basis):
            for j, lb in enumerate(A.space.basis):
                if j < i:
                    continue
                prod = A.product(A.space.unit_vector(la), A.space.unit_vector(lb))
                rel = sym.monomial([("a", i), ("a", j)]) - SCElement(
                    {(("a", k),): c for k, c in prod.items}
                )
                e0.append(("%s.%s-%s%s" % (la, lb, la, lb), rel))
        e1: list[tuple[str, SCElement]] = []
        for i, la in enumerate(A.space.basis):
            for j, lb in enumerate(B.basis):
                ab = quotient.X.act(A.space.unit_vector(la), B.unit_vector(lb))
                rel = sym.monomial([("a", i), ("b", 0, j)]) - SCElement(
                    {(("b", 0, k),): c for k, c in ab.items}
                )
                e1.append(("%s.%s-%s%s" % (la, lb, la, lb), rel))
        self.E0 = e0
        self.E1 = e1

    def all(self) -> list[tuple[str, SCElement]]:
        return self.E0 + self.E1


class CourantQuotient:
    """Pipeline context: Courant algebroid -> conformal pair -> vertex Lie
    algebra -> symmetric algebra -> quotient normal forms."""

    def __init__(self, X: CourantAlgebroid, cutoff: int = 4, certify: bool = True):
        self.X = X
        self.tca = to_1tca(X, certify=certify)
        self.vlie = VertexLie(self.tca, cutoff)
        self.sym = SymAlgebra(self.vlie)
        self.cutoff = cutoff
        self.relators = IdealGenerators(self)
        self._relations = {n: Echelon() for n in range(2, cutoff + 1)}
        self._build_relations()

    # -- stage-one fusion ---------------------------------------------------

    def _fuse(self, u: SCElement, strategy: str = "leftmost"):
        """Fuse away every A-factor; returns (A-coefficients, monomial map)."""
        left = strategy == "leftmost"
        X = self.X
        A = X.A
        a_acc: dict[int, Fraction] = {}
        m_acc: dict[Monomial, Fraction] = {}
        stack = list(u.terms.items())
        steps = 0
        while stack:
            mono, coeff = stack.pop()
            steps += 1
            if steps > MAX_REDUCE_STEPS:
                raise ReduceBoundError(
                    "reduction exceeded its bound of %d fusion steps" % MAX_REDUCE_STEPS
                )
            a_factors = [f for f in mono if f[0] == "a"]
            b_factors = [f for f in mono if f[0] != "a"]
            if not a_factors:
                if not b_factors:
                    for i, c in A.unit.items:  # the class of 1 is e
                        a_acc[i] = a_acc.get(i, Fraction(0)) + coeff * c
                else:
                    m = make_monomial(b_factors)
                    m_acc[m] = m_acc.get(m, Fraction(0)) + coeff
                continue
            if not b_factors:
                vec = A.space.unit_vector(A.space.basis[a_factors[0][1]])
                for f in a_factors[1:]:
                    vec = A.product(vec, A.space.unit_vector(A.space.basis[f[1]]))
                for i, c in vec.items:
                    a_acc[i] = a_acc.get(i, Fraction(0)) + coeff * c
                continue
            af = a_factors[0] if left else a_factors[-1]
            bf = b_factors[0] if left else b_factors[-1]
            rest = list(mono)
            rest.remove(af)
            rest.remove(bf)
            rest = tuple(rest)
            a_vec = A.space.unit_vector(A.space.basis[af[1]])
            _, n, bi = bf
            b_vec = X.B.unit_vector(X.B.basis[bi])
            ab = X.act(a_vec, b_vec)
            for k, c in ab.items:
                stack.append((rest + (("b", n, k),), coeff * c))
            if n >= 1:
                pa = X.d(a_vec)
                for i in range(1, n + 1):
                    ci = Fraction(comb(n, i))
                    for k, c in pa.items:
                        stack.append(
                            (
                                rest + (("b", i - 1, k), ("b", n - i, bi)),
                                -coeff * ci * c,
                            )
                        )
        return a_acc, m_acc

    # -- stage two: residual relations among D-power monomials --------------

    def _pure_b_monomials(self, degree: int) -> list[Monomial]:
        if degree == 0:
            return [()]
        gens = [("b", n, i) for n in range(0, degree) for i in range(self.X.B.dim)]
        out: list[Monomial] = []

        def rec(start: int, remaining: int, acc: list):
            if remaining == 0:
                out.append(make_monomial(acc))
                return
            for gi in range(start, len(gens)):
                d = factor_degree(gens[gi])
                if d <= remaining:
                    rec(gi, remaining - d, acc + [gens[gi]])

        rec(0, degree, [])
        return sorted(set(out))

    def _fuse_only(self, u: SCElement) -> dict[Monomial, Fraction]:
        a_acc, m_acc = self._fuse(u)
        if any(c != 0 for c in a_acc.values()):
            raise AssertionError("relation generator produced a degree-0 part")
        return m_acc

    def _build_relations(self):
        """Generate pure-B shadows of ideal elements per degree and close
        under multiplication by degree-0 generators."""
        sym = self.sym
        for n in range(2, self.cutoff + 1):
            ech = self._relations[n]
            for _, g in self.relators.all():
                gdeg = g.max_degree()
                for k in range(0, n - gdeg + 1):
                    dk = sym.d_pow(g, k)
                    rem = n - gdeg - k
                    for m in self._pure_b_monomials(rem):
                        prod = sym.multiply(SCElement({m: Fraction(1)}), dk)
                        ech.insert(self._fuse_only(prod))
            # closure: a relation times a degree-0 generator is a relation
            changed = True
            while changed:
                changed = False
                for lead in list(ech.rows):
                    row = ech.rows[lead]
                    elem = SCElement(dict(row))
                    for i in range(self.X.A.space.dim):
                        lifted = sym.multiply(SCElement({(("a", i),): Fraction(1)}), elem)
                        shadow = self._fuse_only(lifted)
                        if ech.insert(shadow):
                            changed = True

    def relation_dim(self, degree: int) -> int:
        if degree < 2:
            return 0
        return self._relations[degree].dim

    # -- reduction to canonical normal form ---------------------------------

    def reduce(self, u: SCElement, strategy: str = "leftmost") -> SBElement:
        """Rewrite to the canonical quotient normal form.

        ``strategy`` picks which A-factor fuses into which D-power factor
        first; stage two makes any admissible order land on the same
        normal form, and the confluence check runs both extremes.
        """
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError("unknown strategy %r" % strategy)
        a_acc, m_acc = self._fuse(u, strategy)
        by_degree: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in m_acc.items():
            by_degree.setdefault(mono_degree(m), {})[m] = c
        out: dict[Monomial, Fraction] = {}
        for n, vec in by_degree.items():
            if n >= 2:
                vec = self._relations[n].eliminate(vec)
            out.update(vec)
        return SBElement(Vector(self.X.A.space, a_acc), out)

    # -- quotient operations ----------------------------------------------

    def lift(self, u: SBElement) -> SCElement:
        terms: dict[Monomial, Fraction] = {}
        for i, c in u.a_part.items:
            terms[(("a", i),)] = c
        for m, c in u.monomial_part.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return SCElement(terms)

    def embed_a(self, v: Vector) -> SBElement:
        return SBElement(v, {})

    def embed_b(self, v: Vector) -> SBElement:
        return SBElement(self.X.A.space.zero(), {(("b", 0, i),): c for i, c in v.items})

    def multiply(self, u: SBElement, v: SBElement) -> SBElement:
        return self.reduce(self.sym.multiply(self.lift(u), self.lift(v)))

    def d(self, u: SBElement) -> SBElement:
        return self.reduce(self.sym.d(self.lift(u)))

    def product(self, n: int, u: SBElement, v: SBElement) -> SBElement:
        return self.reduce(self.sym.product(n, self.lift(u), self.lift(v)))

    def to_b_vector(self, u: SBElement) -> Vector:
        """A degree-1 normal form is a combination of single D^0 factors."""
        if not u.a_part.is_zero():
            raise ValueError("degree-1 element with a degree-0 part")
        coeffs: dict[int, Fraction] = {}
        for m, c in u.monomial_part.items():
            if len(m) != 1 or m[0][1] != 0:
                raise ValueError("not a degree-1 normal form: %r" % (m,))
            coeffs[m[0][2]] = coeffs.get(m[0][2], Fraction(0)) + c
        return Vector(self.X.B, coeffs)

    def basis_monomials(self, degree: int) -> list[Monomial]:
        """Canonical monomial basis of the given degree in the quotient:
        the D-power monomials that survive relation elimination."""
        monos = self._pure_b_monomials(degree)
        if degree < 2:
            return monos
        leads = set(self._relations[degree].rows)
        return [m for m in monos if m not in leads]

    # -- extraction ---------------------------------------------------------

    def extract_degree01(self) -> tuple[UnitalCommAlgebra, CourantAlgebroid]:
        """Recover the base algebra from degree 0 and the full Courant
        structure from degrees 0 and 1 of the quotient."""
        X = self.X
        A = X.A.space
        B = X.B
        a_basis = [self.embed_a(A.unit_vector(l)) for l in A.basis]
        b_basis = [self.embed_b(B.unit_vector(l)) for l in B.basis]
        mult = BilinearMap(
            A, A, A,
            [[self.multiply(u, v).a_part for v in a_basis] for u in a_basis],
        )
        unit = self.reduce(self.sym.one()).a_part
        action = BilinearMap(
            A, B, B,
            [[self.to_b_vector(self.multiply(a, u)) for u in b_basis] for a in a_basis],
        )
        bracket = BilinearMap(
            B, B, B,
            [[self.to_b_vector(self.product(0, u, v)) for v in b_basis] for u in b_basis],
        )
        anchor = BilinearMap(
            B, A, A,
            [[self.product(0, u, a).a_part for a in a_basis] for u in b_basis],
        )
        pairing = BilinearMap(
            B, B, A,
            [[self.product(1, u, v).a_part for v in b_basis] for u in b_basis],
        )
        partial = LinearMap(A, B, [self.to_b_vector(self.d(a)) for a in a_basis])
        alg = UnitalCommAlgebra(A, mult, unit)
        return alg, CourantAlgebroid(
            A=alg, B=B, action=action, bracket=bracket,
            anchor=anchor, pairing=pairing, partial=partial,
        )


# -- checks ------------------------------------------------------------------


def check_ideal_stability(q: CourantQuotient) -> CheckReport:
    """Products of generators against relators, and D of relators, all
    reduce to zero in the quotient."""
    out = []
    sym = q.sym
    gens = sym.generators(1)  # the A (+) B generators: a's and D^0(b)'s
    for lg, g in q.relators.all():
        dg = q.reduce(sym.d(g))
        if not dg.is_zero():
            out.append(Violation(MODULE, "ideal.d", (lg,), repr(dg), "0"))
        gdeg = g.max_degree()
        for lu, f in gens:
            u = sym.monomial([f])
            for n in range(0, u.max_degree() + gdeg + 1):
                got = q.reduce(sym.product(n, u, g))
                if not got.is_zero():
                    out.append(
                        Violation(MODULE, "ideal.prod", (lu, lg, "n=%d" % n), repr(got), "0")
                    )
    return CheckReport(out)


def random_corpus(q: CourantQuotient, count: int, seed: int = 20240801):
    """Deterministic random elements of the symmetric algebra, mixing
    degrees and factor counts up to the cutoff."""
    rng = random.Random(seed)
    gens = [f for _, f in q.sym.generators()]
    corpus = []
    for _ in range(count):
        terms: dict[Monomial, Fraction] = {}
        for _ in range(rng.randint(1, 3)):
            nfac = rng.randint(0, 4)
            factors = []
            budget = q.cutoff
            for _ in range(nfac):
                options = [g for g in gens if factor_degree(g) <= budget]
                g = rng.choice(options)
                factors.append(g)
                budget -= factor_degree(g)
            m = make_monomial(factors)
            coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            terms[m] = terms.get(m, Fraction(0)) + coeff
        corpus.append(SCElement(terms))
    return corpus


def check_reduce_properties(q: CourantQuotient, count: int = 500, seed: int = 20240801) -> CheckReport:
    """Confluence evidence (both rewrite orders agree), idempotence of
    reduce, and degree preservation, on a randomized corpus."""
    out = []
    for idx, u in enumerate(random_corpus(q, count, seed)):
        a = q.reduce(u, "leftmost")
        b = q.reduce(u, "rightmost")
        if a != b:
            out.append(Violation(MODULE, "confluence", ("sample=%d" % idx,), repr(a), repr(b)))
        again = q.reduce(q.lift(a))
        if again != a:
            out.append(Violation(MODULE, "idempotent", ("sample=%d" % idx,), repr(again), repr(a)))
        in_degs = {mono_degree(m) for m in u.terms}
        out_degs = a.degrees()
        if not out_degs <= in_degs:
            out.append(
                Violation(MODULE, "degree", ("sample=%d" % idx,), str(sorted(out_degs)), str(sorted(in_degs)))
            )
    return CheckReport(out)


def check_quotient_dimensions(q: CourantQuotient) -> CheckReport:
    """Exact rank computations: reducing a spanning set of degrees 0 and 1
    yields spaces of dimension dim A and dim B."""
    out = []
    sym = q.sym
    A, B = q.X.A.space, q.X.B
    a_monos = [m for m in sym.spanning_monomials(0, 3)]
    deg0 = [q.reduce(SCElement({m: Fraction(1)})) for m in a_monos]
    bad = [r for r in deg0 if r.monomial_part]
    if bad:
        out.append(Violation(MODULE, "dim0.shape", (), repr(bad[0]), "pure degree-0"))
    r0 = rank([r.a_part for r in deg0])
    if r0 != A.dim:
        out.append(Violation(MODULE, "dim0.rank", (), str(r0), str(A.dim)))
    deg1 = []
    for m in a_monos:
        if len(m) > 2:
            continue
        for j in range(B.dim):
            mono = make_monomial(m + (("b", 0, j),))
            deg1.append(q.reduce(SCElement({mono: Fraction(1)})))
    try:
        vecs = [q.to_b_vector(r) for r in deg1]
    except ValueError as err:
        out.append(Violation(MODULE, "dim1.shape", (), str(err), "pure degree-1"))
        vecs = []
    if vecs:
        r1 = rank(vecs)
        if r1 != B.dim:
            out.append(Violation(MODULE, "dim1.rank", (), str(r1), str(B.dim)))
    return CheckReport(out)


def roundtrip_check(X: CourantAlgebroid, cutoff: int = 3) -> CheckReport:
    """Full pipeline round trip: rebuild the Courant algebroid from its
    quotient vertex Poisson algebra and demand structure-constant equality
    table for table, plus the degree-0/1 dimension identities."""
    out = []
    q = CourantQuotient(X, cutoff)
    alg, Y = q.extract_degree01()
    pairs = {
        "mult": (X.A.mult, Y.A.mult),
        "action": (X.action, Y.action),
        "bracket": (X.bracket, Y.bracket),
        "anchor": (X.anchor, Y.anchor),
        "pairing": (X.pairing, Y.pairing),
    }
    for name, (orig, got) in pairs.items():
        if orig != got:
            out.append(Violation(MODULE, "table.%s" % name, (), repr(got), repr(orig)))
    if X.A.unit != Y.A.unit:
        out.append(Violation(MODULE, "table.unit", (), format_vector(Y.A.unit), format_vector(X.A.unit)))
    if X.partial != Y.partial:
        out.append(Violation(MODULE, "table.partial", (), repr(Y.partial), repr(X.partial)))
    rep = CheckReport(out).merge(
        check_quotient_dimensions(q),
        check_courant(Y),
    )
    return rep
