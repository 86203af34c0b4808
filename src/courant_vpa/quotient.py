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
which is the termination measure, and a step counter enforces it.
Fusion works per canonical monomial: one step rewrites its first
(``leftmost``) or last (``rightmost``) A-factor into its first or last
D-power factor, and the fused form of the monomial is the combination of
the fused forms of the monomials that step produces.  Fusion is linear,
so an element fuses term by term.  The base tables are read once, at
construction, as item tuples (``linalg.item_table``): the rows and
columns of the multiplication and the action, and the columns of
``partial``.  A product in A and the premises of ``_build_relations``
are ``linalg.comb_items`` on them, and every sum of fused or normal
forms is ``linalg.add_scaled``.  Stage two is needed because the fused
monomials in D^n(b) generators span each graded piece but are not
independent in general: when the module action has a kernel, distinct
fusion orders land on different monomial combinations that are congruent
modulo the ideal (in the exact(2) instance, x.x.D^2(xD) fuses to 0 one
way and to 3 xD.dx.dx the other, so xD.dx.dx itself lies in the ideal).
For each degree up to the cutoff, in increasing order, the finite
subspace of such residual relations is generated by the fused seeds
m.D^k(relator) whose pure-B multiplier m has at most one factor, the
lower-degree relations times D^j(b) generators, and the closure under
degree-0 generators (``_build_relations``), kept as a
``linalg.Echelon``: each row is stored under its largest monomial
with coefficient 1 and holds no other row's lead, so the basis is unique
and stage two eliminates against it in one pass.  Every eliminated
combination is produced from ideal elements only, so reduction is exact;
degrees 0 and 1 never carry relations, which is the graded splitting
that makes the round trip on-the-nose.  The full ideal is never
materialized (it has unbounded A-factor content); only its pure-B shadow
per degree is, and that is finite.

The build skips four families of shadows that are zero by construction:
exact(4) at cutoff 5 inserts 2,962 seed shadows, 2,646 multiples and
3,534 closure shadows (16,396 shadows when every multiplier was fused),
through 7,300 distinct monomials.  The 1,178 rows kept clear their
leads from the 955 stored rows that hold them, which the ``Echelon``'s
column index names.
The inserted shadows still share monomials, so the build runs inside
``CourantQuotient.memoized``, which keeps the fused form of each
(strategy, monomial) as a tuple of (monomial, coefficient) items, which
``linalg.add_scaled`` reads as stored; ``check_reduce_properties``,
whose corpus repeats monomials, does too.  The memo is scoped to the
block and dropped when the block returns or raises; it never lives as
long as the quotient.  A memo kept for the quotient's lifetime would
hold the build's fused forms for as long as the quotient is used, and
grow with every query asked of it: two rounds of the quotient-build
benchmark peak at 34.5 MB with one and at 30.1 MB with the scoped memo.
``reduce`` has one path, stage two on the fused form, and keeps no
normal form between calls.  The strategy is part of the memo key, so
the two fusion orders stay independent computations; a fusion that
raises stores nothing; and the step bound counts the steps one top-level
fusion performs, memo hits not included.

A normal form is an ``SCElement`` of the symmetric algebra itself: single
("a", i) monomials for its degree-0 part, and for the rest pure-B
monomials that lead no relation.  ``to_a_vector`` and ``to_b_vector``
read degrees 0 and 1 as vectors of A and B, and violation reports print
normal forms through ``vpa.format_element``, which sorts the terms.
Degrees 0 and 1 are read back as from any graded vertex Poisson algebra:
``extract_degree01`` is ``extract_courant`` on the view of degrees 0
and 1.

Order-insensitivity of the two fusion extremes is asserted empirically on
randomized corpora, as the quotient's well-definedness licenses.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import groupby
from math import comb
from operator import itemgetter

from .courant import (
    CourantAlgebroid,
    UnitalCommAlgebra,
    check_courant,
    differing_tables,
    to_1tca,
)
from .graded import assemble_view, extract_courant
from .linalg import (
    BasedSpace, Echelon, LinearMap, Scalar, Vector, add_scaled, comb_items, format_vector, item_table, rank,
)
from .reports import CheckReport, Violation
from .vlie import VertexLie
from .vpa import (
    Monomial,
    SCElement,
    SymAlgebra,
    _nonzero,
    factor_degree,
    format_element,
    make_monomial,
    mono_degree,
)

MODULE = "quotient"

MAX_REDUCE_STEPS = 100_000


class ReduceBoundError(RuntimeError):
    """Stage-one fusion took more than MAX_REDUCE_STEPS rewrite steps."""


class IdealGenerators:
    """The finite relator lists, as elements of the symmetric algebra.
    ``heads`` runs beside ``all()``: the abstract product a.a' or a.b that
    each relator identifies, and () for e - 1."""

    def __init__(self, quotient: "CourantQuotient"):
        sym, vlie = quotient.sym, quotient.vlie
        A = quotient.X.A
        B = quotient.X.B
        e0: list[tuple[str, SCElement]] = [("e-1", vlie.from_a(A.unit) - sym.one())]
        heads: list[Monomial] = [()]
        for i, la in enumerate(A.space.basis):
            for j, lb in enumerate(A.space.basis):
                if j < i:
                    continue
                rel = sym.monomial([("a", i), ("a", j)]) - vlie.from_a(A.mult.table[i][j])
                e0.append(("%s.%s-%s%s" % (la, lb, la, lb), rel))
                heads.append((("a", i), ("a", j)))
        e1: list[tuple[str, SCElement]] = []
        for i, la in enumerate(A.space.basis):
            for j, lb in enumerate(B.basis):
                rel = sym.monomial([("a", i), ("b", 0, j)]) - vlie.from_b(quotient.X.action.table[i][j])
                e1.append(("%s.%s-%s%s" % (la, lb, la, lb), rel))
                heads.append((("a", i), ("b", 0, j)))
        self.E0 = e0
        self.E1 = e1
        self.heads = heads

    def all(self) -> list[tuple[str, SCElement]]:
        return self.E0 + self.E1


def _a_count(m: Monomial) -> int:
    """Number of A-factors; they lead a canonical monomial."""
    k = 0
    for f in m:
        if f[0] != "a":
            break
        k += 1
    return k


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
        # the base tables as item tuples, read by every fusion step
        self._unit = tuple([((("a", i),), c) for i, c in X.A.unit.items])
        self._mult, self._multc = item_table(X.A.mult)
        self._act, self._actc = item_table(X.action)
        self._partial = [v.items for v in X.partial.columns]
        # inside ``memoized``: strategy -> monomial -> its fused items
        self._memo: dict[str, dict[Monomial, tuple]] | None = None
        self._counts = dict.fromkeys(
            ("shadows_inserted", "shadows_skipped", "multiples_inserted", "closure_inserted", "closure_kept",
             "rows_kept", "fusion_steps", "peak_memo_entries",
             "view_entries_sym", "view_entries_laws", "view_entries_zero"),
            0,
        )
        self._relations = {n: Echelon() for n in range(2, cutoff + 1)}
        with self.memoized():
            self._build_relations()

    @contextmanager
    def memoized(self):
        """Memoize stage-one fusion per (strategy, monomial) inside the
        block; the memo is dropped on leaving it."""
        outer = self._memo
        if outer is None:
            self._memo = {"leftmost": {}, "rightmost": {}}
        try:
            yield
        finally:
            if outer is None:
                counts = self._counts
                entries = sum(map(len, self._memo.values()))
                counts["peak_memo_entries"] = max(counts["peak_memo_entries"], entries)
            self._memo = outer

    def stats(self) -> dict:
        """What the quotient has done so far: relation dimensions of
        degrees 2..cutoff, the stored relation rows a new lead was cleared
        from, what the relation build inserted by source (seed shadows,
        multiples of lower-degree rows, closure shadows), the shadows it
        skipped as 0, the rows kept in all and by the closure, stage-one
        rewrite steps, the most entries one fusion memo held, and the
        n-th product entries of the views assembled from it, by how each
        was filled: computed in the symmetric algebra, derived by the
        vertex Poisson laws, or zero by grading."""
        return {"relation_dims": [self.relation_dim(n) for n in range(2, self.cutoff + 1)],
                "rows_cleared": sum(ech.cleared for ech in self._relations.values()),
                **self._counts}

    def add_counts(self, **counts: int) -> None:
        """Add to the counters ``stats`` reports."""
        for name, k in counts.items():
            self._counts[name] += k

    # -- stage-one fusion ---------------------------------------------------

    def _fuse(self, monos, strategy: str) -> dict[Monomial, tuple]:
        """Fused forms of ``monos``: each a tuple of (monomial, coefficient)
        items over pure-B monomials and, for the degree-0 part, single
        ("a", i) factors.  Inside ``memoized`` the forms are read from and
        added to the block's memo under ``strategy``; outside it nothing
        outlives the call."""
        memo = self._memo
        table = memo[strategy] if memo is not None else {}
        left = strategy == "leftmost"
        plans: dict[Monomial, list] = {}
        done: dict[Monomial, tuple] = {}
        todo = [m for m in monos if m not in table]
        if not todo:
            return table
        steps = 0
        while todo:
            m = todo.pop()
            if m in plans or m in done or m in table:
                continue
            steps += 1
            if steps > MAX_REDUCE_STEPS:
                raise ReduceBoundError(
                    "reduction exceeded its bound of %d fusion steps" % MAX_REDUCE_STEPS
                )
            k = _a_count(m)
            if k == 0:
                done[m] = ((m, 1),) if m else self._unit
            elif k == len(m):
                done[m] = self._fuse_a_product(m)
            else:
                kids = plans[m] = self._fusion_step(m, k, left)
                todo.extend(child for child, _ in kids)
        self._counts["fusion_steps"] += steps
        # a step removes one A-factor, so children are summed before parents
        for m in sorted(plans, key=_a_count):
            acc: dict[Monomial, Scalar] = {}
            for child, c in plans[m]:
                got = done.get(child)
                add_scaled(acc, table[child] if got is None else got, c)
            done[m] = tuple(_nonzero(acc).items())
        table.update(done)
        return table

    def _fuse_a_product(self, m: Monomial) -> tuple:
        """A pure A-factor monomial is its product in A."""
        vec = ((m[0][1], 1),)
        for f in m[1:]:
            vec = comb_items(self._multc[f[1]], vec)
        return tuple([((("a", i),), c) for i, c in vec])

    def _fusion_step(self, m: Monomial, k: int, left: bool) -> list:
        """One rewrite a . D^n(b) of the first (or last) A-factor into the
        first (or last) D-power factor, as (monomial, coefficient) pairs."""
        if left:
            af, bf, rest = m[0], m[k], m[1:k] + m[k + 1 :]
        else:
            af, bf, rest = m[k - 1], m[-1], m[: k - 1] + m[k:-1]
        i = af[1]
        _, n, bi = bf
        kids = [(make_monomial(rest + (("b", n, j),)), c) for j, c in self._act[i][bi]]
        for s in range(1, n + 1):
            cs = comb(n, s)
            for j, c in self._partial[i]:
                kids.append((make_monomial(rest + (("b", s - 1, j), ("b", n - s, bi))), -cs * c))
        return kids

    # -- stage two: residual relations among D-power monomials --------------

    def _pure_b_monomials(self, degree: int) -> list[Monomial]:
        """The monomials of ``degree`` in the D^n(b) generators, sorted.
        Each stack entry extends its factors only by generators from
        ``start`` on, so every multiset is produced once."""
        gens = [("b", n, i) for n in range(0, degree) for i in range(self.X.B.dim)]
        out: list[Monomial] = []
        stack = [(0, degree, ())]
        while stack:
            start, remaining, acc = stack.pop()
            if remaining == 0:
                out.append(make_monomial(acc))
                continue
            for gi in range(start, len(gens)):
                d = factor_degree(gens[gi])
                if d <= remaining:
                    stack.append((gi, remaining - d, acc + (gens[gi],)))
        return sorted(out)

    def _insert(self, ech: Echelon, vec: dict, source: str) -> bool:
        """Insert ``vec``, counting it under ``source``."""
        counts = self._counts
        counts[source] += 1
        kept = ech.insert(vec)
        counts["rows_kept"] += kept
        return kept

    def _shadow(self, terms) -> dict[Monomial, Scalar]:
        """The pure-B shadow of sum c.m over (m, c) pairs, an ideal element
        of degree >= 2: its leftmost fused form."""
        shadow = self._fused_terms(terms, "leftmost")
        if any(t[0][0] == "a" and c for t, c in shadow.items()):
            raise AssertionError("relation generator produced a degree-0 part")
        return shadow

    def _build_relations(self):
        """Build R_n for n = 2..cutoff in increasing order from three
        sources, each a pure-B ideal element for any tables: the shadows
        F(m.D^k g) of seeds, F the leftmost fusion; g.row for every
        generator g = D^j(b) and row of R_(n-j-1); and F(a.row) for each
        row of R_n and degree-0 generator a, until no row is added.

        Multiplier lemma: if every term of D^k g has at most one A-factor,
        then F(m.D^k g) = m'.F(m0.D^k g) for m = m0.m' with m0 the least
        factor, since F moves that A-factor into min(m0, its own D-power
        factor) in both, and one step leaves pure-B terms.  So such seeds
        take m of at most one factor and the second source holds the rest.
        E0's seeds at k = 0 take every m: a.a' has two A-factors, and
        m0.(e - 1) has degree 1, where no R_n is kept.

        Four families of shadows are 0 by construction and are skipped.
        Each premise is read off the item tables ``_act``, ``_partial`` and
        ``_mult`` and their columns, so it is tested, not assumed, when the
        algebroid is not certified.

        Lemma: if the unit is a basis vector e_u with e_u.b = b, p(e_u) = 0
        and e_u a = a e_u = a, then F(e_u.M) = F(M).  By induction on the
        A-factors: a step on e_u gives M; any other step acts alike on M
        and e_u.M, so the children of e_u.M are e_u times those of M; with
        no D-power factor both are products in A, and F(e_u) = e_u = F(()).

        1. Unit: D(e_u) = 0, so a relator with an e_u factor gives seeds
           m.e_u.t - m.t, which the lemma sends to 0.  For e - 1 and any
           unit e, e.b = b and p(e) = 0 suffice: D^k(e - 1) = 0 for k >= 1,
           and the one step of m.e is linear in e and gives m.
        2. E1 own factor: if m = () or D^k(b) <= m[0], the step of
           m.a.D^k(b) fuses a into D^k(b) and gives m.D^k(ab) minus
           sum_(p>=1) C(k,p) m.D^(p-1)(pa).D^(k-p)(b), which by Leibniz
           cancels the other terms of m.D^k(a.b - ab).
        3. E0 associativity: if k = 0, m[0] = D^0(b) and every D^0(b_l) in
           a_i b is at most m[1], then F(m.a_i.a_j) = (a_j(a_i b)).m[1:]
           and F(m.(a_i a_j)) = ((a_i a_j) b).m[1:]; the seed is skipped
           only where the rows make the two equal.
        4. Closure: by the lemma e_u.row fuses to the row, already held.
        """
        counts = self._counts
        u = self._identity_unit()
        gens = [("b", j, i) for j in range(self.cutoff - 2) for i in range(self.X.B.dim)]
        # every n in 2..cutoff has a seed, D^n(e - 1)
        for n, seeds in groupby(self._seeds(), itemgetter(0)):
            ech = self._relations[n]
            for _, rule, m, dk in seeds:
                if rule is None:
                    terms = ((make_monomial(m + t), c) for t, c in dk.items())
                    self._insert(ech, self._shadow(terms), "shadows_inserted")
                else:
                    counts["shadows_skipped"] += 1
            for g in gens:
                if n - g[1] - 1 < 2:
                    break
                for row in self._relations[n - g[1] - 1].rows.values():
                    vec = {make_monomial(t + (g,)): c for t, c in row.items()}
                    self._insert(ech, vec, "multiples_inserted")
            changed = True
            while changed:
                changed = False
                for lead in list(ech.rows):
                    row = ech.rows[lead]
                    for i in range(self.X.A.space.dim):
                        if i == u:  # rule 4
                            counts["shadows_skipped"] += 1
                            continue
                        a = (("a", i),)
                        if self._insert(ech, self._shadow([(a + m, c) for m, c in row.items()]),
                                        "closure_inserted"):
                            counts["closure_kept"] += 1
                            changed = True

    def _seeds(self):
        """The seeds m.D^k(g) of the relation build in increasing degree,
        as (degree, rule, m, terms of D^k g): m of at most one factor, and
        every m for E0 at k = 0 (the multiplier lemma of
        ``_build_relations``).  ``rule`` is None, or the rule of
        ``_build_relations`` that makes the shadow 0: "unit",
        "own-factor" or "associativity"."""
        sym = self.sym
        u, fixes_b = self._identity_unit(), self._unit_fixes_b()
        relators = []
        for (_, g), head in zip(self.relators.all(), self.relators.heads):
            gdeg = g.max_degree()
            dks = [g.terms]
            for _ in range(self.cutoff - gdeg):
                dks.append(sym.d(SCElement(dks[-1])).terms)
            unit = fixes_b if not head else ("a", u) in head
            relators.append((gdeg, dks, head, "unit" if unit else None, self._assoc_bounds(head)))
        # the multipliers of at most one factor, by degree
        short = [[()]] + [[(("b", r - 1, i),) for i in range(self.X.B.dim)]
                          for r in range(1, self.cutoff + 1)]
        for n in range(2, self.cutoff + 1):
            every = self._pure_b_monomials(n)
            for gdeg, dks, head, rule, bounds in relators:
                for k in range(0, n - gdeg + 1):
                    dk = dks[k]
                    for m in every if k == gdeg == 0 else short[n - gdeg - k]:
                        yield n, rule or self._seed_rule(head, bounds, k, m), m, dk

    @staticmethod
    def _seed_rule(head: Monomial, bounds: dict, k: int, m: Monomial) -> str | None:
        """Rule 2 or 3 of ``_build_relations`` for the seed m.D^k(g) of the
        relator whose head is ``head``, or None."""
        if not head:
            return None
        if head[1][0] == "b":
            return "own-factor" if not m or ("b", k, head[1][2]) <= m[0] else None
        if k == 0 and m[0][1] == 0:
            low = bounds.get(m[0][2])
            if low is not None and (len(m) == 1 or low <= m[1]):
                return "associativity"
        return None

    def _identity_unit(self) -> int | None:
        """u when the unit is the basis vector e_u and its rows are those of
        an identity: e_u.b = b, p(e_u) = 0, e_u a = a e_u = a."""
        if len(self._unit) != 1 or self._unit[0][1] != 1:
            return None
        u = self._unit[0][0][0][1]
        rows = self._mult[u], self._multc[u], self._act[u]
        if self._partial[u] or any(r != ((i, 1),) for got in rows for i, r in enumerate(got)):
            return None
        return u

    def _unit_fixes_b(self) -> bool:
        """Whether e.b = b for every b and p(e) = 0, for the unit e as a
        combination of basis vectors."""
        unit = self.X.A.unit.items
        if comb_items(self._partial, unit):
            return False
        return all(comb_items(self._actc[b], unit) == ((b, 1),) for b in range(self.X.B.dim))

    def _assoc_bounds(self, head: Monomial) -> dict:
        """For an E0 head a_i.a_j: b -> the largest D^0(b_l) in the support
        of a_i b, for every b with a_j(a_i b) = (a_i a_j) b on the rows
        (rule 3); empty for any other head."""
        if not head or head[1][0] != "a":
            return {}
        i, j = head[0][1], head[1][1]
        out = {}
        for b in range(self.X.B.dim):
            ab = self._act[i][b]
            if comb_items(self._act[j], ab) == comb_items(self._actc[b], self._mult[i][j]):
                out[b] = ("b", 0, max((l for l, _ in ab), default=-1))
        return out

    def relation_dim(self, degree: int) -> int:
        if degree < 2:
            return 0
        return self._relations[degree].dim

    # -- reduction to canonical normal form ---------------------------------

    def reduce(self, u: SCElement, strategy: str = "leftmost") -> SCElement:
        """Rewrite to the canonical quotient normal form: single ("a", i)
        monomials for the degree-0 part, and pure-B monomials that lead no
        relation for the rest.

        ``strategy`` picks which A-factor fuses into which D-power factor
        first; stage two makes any admissible order land on the same
        normal form, and the confluence check runs both extremes.  Stage
        one reads and fills the fusion memo inside ``memoized``; a normal
        form is never kept.
        """
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError("unknown strategy %r" % strategy)
        return SCElement(self._normal_terms(self._fused_terms(u.terms.items(), strategy)))

    def _fused_terms(self, terms, strategy: str) -> dict[Monomial, Scalar]:
        """Fused form of sum c.m over (m, c) pairs."""
        terms = list(terms)
        table = self._fuse([m for m, _ in terms], strategy)
        acc: dict[Monomial, Scalar] = {}
        for m, c in terms:
            add_scaled(acc, table[m], c)
        return acc

    def _normal_terms(self, fused: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
        """Stage two: clear the relation leads of each degree >= 2."""
        out: dict[Monomial, Scalar] = {}
        by_degree: dict[int, dict[Monomial, Scalar]] = {}
        for t, c in fused.items():
            if not c:
                continue
            if t[0][0] == "a":
                out[t] = c
            else:
                by_degree.setdefault(mono_degree(t), {})[t] = c
        for n, vec in by_degree.items():
            out.update(self._relations[n].eliminate(vec) if n >= 2 else vec)
        return out

    # -- quotient operations ----------------------------------------------

    def lift(self, u: SCElement) -> SCElement:
        """The identity: a normal form is already an element of the
        symmetric algebra."""
        return u

    def multiply(self, u: SCElement, v: SCElement) -> SCElement:
        return self.reduce(self.sym.multiply(u, v))

    def d(self, u: SCElement) -> SCElement:
        return self.reduce(self.sym.d(u))

    def product(self, n: int, u: SCElement, v: SCElement) -> SCElement:
        return self.reduce(self.sym.product(n, u, v))

    def to_a_vector(self, u: SCElement) -> Vector:
        """A degree-0 normal form is a combination of single A-factors."""
        return _single_factors(u, ("a",), self.X.A.space, 0)

    def to_b_vector(self, u: SCElement) -> Vector:
        """A degree-1 normal form is a combination of single D^0 factors."""
        return _single_factors(u, ("b", 0), self.X.B, 1)

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
        structure from degrees 0 and 1 of the quotient, read off its view
        of those degrees as off any graded vertex Poisson algebra."""
        Y = extract_courant(assemble_view(self, 1))
        return Y.A, Y


def _single_factors(u: SCElement, head: tuple, space: BasedSpace, degree: int) -> Vector:
    """``u`` as a vector of ``space`` when each of its monomials is one
    factor that begins with ``head``: ("a",) for A, ("b", 0) for B."""
    coeffs: dict[int, Scalar] = {}
    for m, c in u.terms.items():
        if len(m) != 1 or m[0][: len(head)] != head:
            raise ValueError("not a degree-%d normal form: %r" % (degree, m))
        coeffs[m[0][-1]] = c
    return Vector(space, coeffs)


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
            out.append(Violation(MODULE, "ideal.d", (lg,), format_element(sym, dg), "0"))
        gdeg = g.max_degree()
        for lu, f in gens:
            u = sym.monomial([f])
            for n in range(0, u.max_degree() + gdeg + 1):
                got = q.reduce(sym.product(n, u, g))
                if not got.is_zero():
                    out.append(
                        Violation(MODULE, "ideal.prod", (lu, lg, "n=%d" % n), format_element(sym, got), "0")
                    )
    return CheckReport(out)


def random_corpus(q: CourantQuotient, count: int, seed: int = 20240801):
    """Deterministic random elements of the symmetric algebra, mixing
    degrees and factor counts up to the cutoff."""
    rng = random.Random(seed)
    gens = [f for _, f in q.sym.generators()]
    corpus = []
    for _ in range(count):
        terms: dict[Monomial, Scalar] = {}
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
            terms[m] = terms.get(m, 0) + coeff
        corpus.append(SCElement(terms))
    return corpus


def check_reduce_properties(q: CourantQuotient, count: int = 500, seed: int = 20240801) -> CheckReport:
    """Confluence evidence (both rewrite orders agree), idempotence of
    reduce, and degree preservation, on a randomized corpus.  The corpus
    repeats monomials, so it is reduced inside one ``memoized`` block,
    whose strategy-keyed memo keeps the two orders independent."""
    out = []
    fmt = lambda u: format_element(q.sym, u)
    with q.memoized():
        for idx, u in enumerate(random_corpus(q, count, seed)):
            a = q.reduce(u, "leftmost")
            b = q.reduce(u, "rightmost")
            if a != b:
                out.append(Violation(MODULE, "confluence", ("sample=%d" % idx,), fmt(a), fmt(b)))
            again = q.reduce(a)
            if again != a:
                out.append(Violation(MODULE, "idempotent", ("sample=%d" % idx,), fmt(again), fmt(a)))
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
    a_monos = q.sym.spanning_monomials(0, 3)
    b_monos = [
        make_monomial(m + (("b", 0, j),)) for m in a_monos if len(m) <= 2 for j in range(q.X.B.dim)
    ]
    spans = ((0, a_monos, q.to_a_vector, q.X.A.space.dim), (1, b_monos, q.to_b_vector, q.X.B.dim))
    for degree, monos, read, dim in spans:
        try:
            vecs = [read(q.reduce(SCElement({m: 1}))) for m in monos]
        except ValueError as err:
            out.append(Violation(MODULE, "dim%d.shape" % degree, (), str(err), "pure degree-%d" % degree))
            continue
        got = rank(vecs)
        if got != dim:
            out.append(Violation(MODULE, "dim%d.rank" % degree, (), str(got), str(dim)))
    return CheckReport(out)


def _entries(t) -> list[tuple[tuple[str, ...], Vector]]:
    """The entries of a structure table (the unit, a linear or a bilinear
    map), each under the basis labels it sits at."""
    if isinstance(t, Vector):
        return [((), t)]
    if isinstance(t, LinearMap):
        return [((l,), col) for l, col in zip(t.domain.basis, t.columns)]
    return [((l, r), v) for l, row in zip(t.left.basis, t.table) for r, v in zip(t.right.basis, row)]


def roundtrip_check(X: CourantAlgebroid, cutoff: int = 3) -> CheckReport:
    """Full pipeline round trip: rebuild the Courant algebroid from its
    quotient vertex Poisson algebra and demand structure-constant equality
    entry for entry, plus the degree-0/1 dimension identities."""
    q = CourantQuotient(X, cutoff)
    _, Y = q.extract_degree01()
    # Y is read back over X's own spaces, so its tables have X's shapes
    out = [
        Violation(MODULE, "table." + name, at, format_vector(g), format_vector(w))
        for name, (want, got) in differing_tables(X, Y).items()
        for (at, w), (_, g) in zip(_entries(want), _entries(got))
        if w != g
    ]
    return CheckReport(out).merge(check_quotient_dimensions(q), check_courant(Y))
