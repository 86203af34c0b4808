"""Memoized fusion against the stack fusion it replaced, and the scope of
the quotient's memo.

stack_fuse and reference_relations are the stage-one fusion and the
relation build that CourantQuotient used before fusion became
per-monomial and memoized, kept as the reference: one explicit stack of
(tuple, coefficient) pairs per element, and every shadow formed through
SymAlgebra.multiply.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import courant_vpa.quotient as quotient_mod
from courant_vpa.examples import example
from courant_vpa.graded import assemble_view
from courant_vpa.linalg import BilinearMap, Echelon, Vector
from courant_vpa.quotient import (
    CourantQuotient,
    ReduceBoundError,
    check_reduce_properties,
    random_corpus,
)
from courant_vpa.selftest import _mutations
from courant_vpa.vpa import SCElement, factor_degree, make_monomial, mono_degree


def stack_fuse(q, u, strategy="leftmost", canonical=False):
    """Fuse away every A-factor; returns (A-coefficients, monomial map).
    The first (last) factors are taken by position in the rewritten tuple;
    with ``canonical`` each rewritten monomial is put back in canonical
    order first, so they are the smallest (largest), as in the library's
    per-monomial fusion."""
    left = strategy == "leftmost"
    order = make_monomial if canonical else tuple
    X = q.X
    A = X.A
    a_acc, m_acc = {}, {}
    stack = list(u.terms.items())
    while stack:
        mono, coeff = stack.pop()
        a_factors = [f for f in mono if f[0] == "a"]
        b_factors = [f for f in mono if f[0] != "a"]
        if not a_factors:
            if not b_factors:
                for i, c in A.unit.items:
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
        ab = X.act(a_vec, X.B.unit_vector(X.B.basis[bi]))
        for k, c in ab.items:
            stack.append((order(rest + (("b", n, k),)), coeff * c))
        if n >= 1:
            pa = X.d(a_vec)
            for i in range(1, n + 1):
                ci = Fraction(comb(n, i))
                for k, c in pa.items:
                    stack.append((order(rest + (("b", i - 1, k), ("b", n - i, bi))), -coeff * ci * c))
    return a_acc, m_acc


def reference_relations(q):
    """The relation bases per degree, built shadow by shadow through
    SymAlgebra.multiply and stack_fuse."""
    sym = q.sym
    relations = {n: Echelon() for n in range(2, q.cutoff + 1)}

    def fuse_only(u):
        a_acc, m_acc = stack_fuse(q, u)
        assert not any(a_acc.values())
        return m_acc

    for n in range(2, q.cutoff + 1):
        ech = relations[n]
        for _, g in q.relators.all():
            gdeg = g.max_degree()
            for k in range(0, n - gdeg + 1):
                dk = g
                for _ in range(k):
                    dk = sym.d(dk)
                for m in q._pure_b_monomials(n - gdeg - k):
                    ech.insert(fuse_only(sym.multiply(SCElement({m: Fraction(1)}), dk)))
        changed = True
        while changed:
            changed = False
            for lead in list(ech.rows):
                elem = SCElement(dict(ech.rows[lead]))
                for i in range(q.X.A.space.dim):
                    a = SCElement({(("a", i),): Fraction(1)})
                    if ech.insert(fuse_only(sym.multiply(a, elem))):
                        changed = True
    return relations


def reference_reduce(q, relations, u, strategy):
    a_acc, m_acc = stack_fuse(q, u, strategy)
    by_degree = {}
    for m, c in m_acc.items():
        by_degree.setdefault(mono_degree(m), {})[m] = c
    out = {(("a", i),): c for i, c in a_acc.items()}
    for n, vec in by_degree.items():
        out.update(relations[n].eliminate(vec) if n >= 2 else vec)
    return SCElement(out)


# -- relation rows ---------------------------------------------------------------

BUILTINS = ["trivial(%d)" % d for d in range(1, 7)] + [
    "heisenberg", "quadratic_lie(sl2)", "exact(2)", "exact(3)", "exact(4)",
]


@pytest.mark.parametrize("name", BUILTINS)
def test_relation_rows_match_reference(name):
    # Every built-in at every cutoff 2..5.  Build and reference together
    # cost about 2 s for all of them on a 2-core machine, 1.3 s of it
    # exact(4).
    X = example(name)
    for cutoff in range(2, 6):
        q = CourantQuotient(X, cutoff)
        want = reference_relations(q)
        for n in range(2, cutoff + 1):
            assert q._relations[n].rows == want[n].rows, (name, cutoff, n)


def test_exact4_degree6_rows_are_pinned():
    # Beyond the reference test's cutoff: the sha256 of exact(4)'s 2,342
    # degree-6 relation rows, as sorted (lead, sorted items) pairs,
    # computed when every seed of every multiplier was fused.  The order
    # the build inserts leads and keys in is not pinned; views and
    # violation texts sort.
    q = CourantQuotient(example("exact(4)"), 6)
    rows = q._relations[6].rows
    free = [(lead, sorted(rows[lead].items())) for lead in sorted(rows)]
    assert len(free) == 2_342
    digest = hashlib.sha256(repr(free).encode()).hexdigest()
    assert digest == "b99a8aa99ca35c60c371c6cd01fa55284e5c4e455feb2b9f4ec3d6900aa122c6"


LEMMA_CASES = [
    (name, 5) for name in ("heisenberg", "quadratic_lie(sl2)", "trivial(3)", "exact(2)", "exact(3)")
] + [("exact(4)", 4)]


@pytest.mark.parametrize("name, cutoff", LEMMA_CASES)
def test_multiplier_lemma_on_the_seeds_the_build_drops(name, cutoff):
    # Every seed m.D^k(g) the build no longer fuses (every term of D^k g
    # has at most one A-factor and m has two or more factors) fuses, in
    # canonical leftmost order, to m' times the fused m0.D^k(g), with m0
    # the least factor of m.  9,964 seeds in all six cases, about 0.4 s
    # on a 2-core machine.
    q = CourantQuotient(example(name), cutoff)
    sym = q.sym

    def fused(u):
        a_acc, m_acc = stack_fuse(q, u, canonical=True)
        assert not any(a_acc.values())
        return {m: c for m, c in m_acc.items() if c}

    dropped = 0
    for _, g in q.relators.all():
        gdeg = g.max_degree()
        dk = g
        for k in range(0, cutoff - gdeg + 1):
            if k:
                dk = sym.d(dk)
            if k == gdeg == 0:
                continue  # E0 at k = 0: the build takes every m
            assert all(sum(f[0] == "a" for f in t) <= 1 for t in dk.terms)
            for r in range(2, cutoff - gdeg - k + 1):
                for m in q._pure_b_monomials(r):
                    if len(m) < 2:
                        continue
                    m0, rest = m[0], m[1:]
                    base = fused(sym.multiply(SCElement({(m0,): 1}), dk))
                    want = {make_monomial(rest + t): c for t, c in base.items()}
                    assert fused(sym.multiply(SCElement({m: 1}), dk)) == want, (m, k)
                    dropped += 1
    assert dropped


@pytest.mark.parametrize("name", ["exact(4)", "exact(3)", "quadratic_lie(sl2)", "heisenberg"])
def test_relations_are_closed_under_generators(name):
    # g.row lies in the relations of its degree for every row and every
    # generator g = D^j(b) inside the cutoff, so R_n holds what fusing the
    # seeds of every longer multiplier adds.  This held as well when the
    # build fused those seeds; at exact(4)/5 it checks 2,646 products.
    q = CourantQuotient(example(name), 5)
    checked = 0
    for d in range(2, q.cutoff + 1):
        for j in range(q.cutoff - d):
            for i in range(q.X.B.dim):
                g = ("b", j, i)
                for row in q._relations[d].rows.values():
                    vec = {make_monomial(t + (g,)): c for t, c in row.items()}
                    assert not q._relations[d + j + 1].eliminate(vec), (d, g)
                    checked += 1
    if name == "exact(4)":
        assert checked == 2_646


def _uncertified_mutants():
    # The mult, action and partial single-entry +1 mutants of exact(2) (20)
    # and exact(3) (87), in selftest._mutations order.  All 107 at cutoffs
    # 3 and 4 take about 9 s with the reference, so the test takes every
    # exact(2) mutant and every fifth of exact(3)'s, about 2.5 s.
    for name, stride in (("exact(2)", 1), ("exact(3)", 5)):
        picked = [(label, Y) for label, Y in _mutations(example(name))
                  if label.startswith(("mult", "action", "partial"))]
        for label, Y in picked[::stride]:
            yield name, label, Y


@pytest.mark.parametrize(
    "name, label, Y", [pytest.param(*t, id="%s-%s" % t[:2]) for t in _uncertified_mutants()]
)
def test_uncertified_mutant_rows_match_reference(name, label, Y):
    # The multiplier lemma holds for any tables, so the rows contain the
    # reference's; they are equal when the reference rows are closed under
    # generators.  A mutant with more rows than the reference would be
    # sound, but it fails here, as a change of the relations built.  Every
    # one of the 107 mutants gave equal rows at cutoffs 3 and 4.
    for cutoff in (3, 4):
        q = CourantQuotient(Y, cutoff, certify=False)
        want = reference_relations(q)
        for n in range(2, cutoff + 1):
            assert q._relations[n].rows == want[n].rows, (cutoff, n)
        if (name, label) == ("exact(3)", "action[2,1,2]"):
            # The A-closure keeps rows that no other source gives here, so
            # it is not redundant on uncertified input.  This mutant fails
            # mod.assoc, c1 and pair.alin.  Of the 476 exact(3) mutant runs
            # at cutoffs 3 and 4, the closure keeps a row in 16: eight
            # action[2,*,*] mutants like this one, at both cutoffs.
            assert q.stats()["closure_kept"] == {3: 2, 4: 3}[cutoff]


@pytest.mark.parametrize(
    "name, cutoff",
    [(name, cutoff) for name in BUILTINS for cutoff in (2, 3, 4)] + [("exact(3)", 5)],
)
def test_skipped_shadows_are_zero(name, cutoff):
    # Every seed the build skips (rules 1-3) fuses to exactly 0 in
    # canonical leftmost order, and e_u.row - row does too (rule 4).  In
    # positional order some do not, but they reduce to 0 modulo the
    # reference relations.
    q = CourantQuotient(example(name), cutoff)
    sym = q.sym
    relations = reference_relations(q)

    def assert_zero(u):
        a_acc, m_acc = stack_fuse(q, u, canonical=True)
        assert not any(a_acc.values()) and not any(m_acc.values())
        assert reference_reduce(q, relations, u, "leftmost").is_zero()

    skipped = dict.fromkeys(("unit", "own-factor", "associativity"), 0)
    for _, rule, m, dk in q._seeds():
        if rule is not None:
            skipped[rule] += 1
            assert_zero(sym.multiply(SCElement({m: Fraction(1)}), SCElement(dk)))
    u = q._identity_unit()
    assert u is not None
    e_u = SCElement({(("a", u),): Fraction(1)})
    for n in range(2, cutoff + 1):
        for row in q._relations[n].rows.values():
            elem = SCElement(dict(row))
            assert_zero(sym.multiply(e_u, elem) - elem)
    if (name, cutoff) == ("exact(3)", 5):
        assert all(skipped.values()), skipped


@pytest.mark.parametrize("a, b, extra", [("e", "dx", "xD"), ("x", "xD", "xD")])
def test_rules_check_their_premises(a, b, extra):
    # a.b += extra in exact(2), built without certification: e.dx = dx + xD
    # breaks the unit's identity rows (rules 1 and 4), and x.xD = xD
    # breaks x(x xD) = (x x) xD (rule 3).  Skipping those seeds regardless
    # loses rows at degrees 2-4.
    X = example("exact(2)")
    rows = [list(r) for r in X.action.table]
    i, j = X.A.space.index(a), X.B.index(b)
    rows[i][j] = rows[i][j] + Vector(X.B, {X.B.index(extra): Fraction(1)})
    Y = replace(X, action=BilinearMap(X.A.space, X.B, X.B, rows))
    q = CourantQuotient(Y, 4, certify=False)
    want = reference_relations(q)
    for n in range(2, 5):
        assert q._relations[n].rows == want[n].rows, n


# -- reduce ------------------------------------------------------------------------

ORACLE_CASES = {}


def _oracle(name):
    # exact(2), exact(3) and sl2 at cutoff 3: their relation references
    # build in under 0.1 s each
    if name not in ORACLE_CASES:
        q = CourantQuotient(example(name), 3)
        ORACLE_CASES[name] = (q, reference_relations(q))
    return ORACLE_CASES[name]


@st.composite
def corpus_elements(draw, name):
    q, _ = _oracle(name)
    gens = [f for _, f in q.sym.generators()]
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        budget = q.cutoff
        factors = []
        for _ in range(draw(st.integers(0, 5))):
            opts = [g for g in gens if factor_degree(g) <= budget]
            g = draw(st.sampled_from(opts))
            factors.append(g)
            budget -= factor_degree(g)
        m = make_monomial(factors)
        c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        terms[m] = terms.get(m, Fraction(0)) + c
    return SCElement(terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduce_matches_reference(data):
    name = data.draw(st.sampled_from(["exact(2)", "exact(3)", "quadratic_lie(sl2)"]))
    q, relations = _oracle(name)
    corpus = data.draw(st.lists(corpus_elements(name), min_size=1, max_size=4))
    for strategy in ("leftmost", "rightmost"):
        want = [reference_reduce(q, relations, u, strategy) for u in corpus]
        assert [q.reduce(u, strategy) for u in corpus] == want
        with q.memoized():
            assert [q.reduce(u, strategy) for u in corpus] == want  # cold
            assert [q.reduce(u, strategy) for u in corpus] == want  # warm
        assert q._memo is None


def test_reduce_matches_reference_on_seeded_corpus():
    q, relations = _oracle("exact(3)")
    corpus = random_corpus(q, 300, seed=7)
    for strategy in ("leftmost", "rightmost"):
        want = [reference_reduce(q, relations, u, strategy) for u in corpus]
        assert [q.reduce(u, strategy) for u in corpus] == want


# -- the memo's scope ----------------------------------------------------------------


def test_memo_is_dropped_after_build_and_view(monkeypatch):
    q = CourantQuotient(example("exact(2)"), 3)
    assert q._memo is None and q.sym._memo is None
    # the view reduces with no memo open, of the quotient or of its algebra
    memos = set()
    reduce = CourantQuotient.reduce

    def recording(self, u, strategy="leftmost"):
        memos.add((self._memo is None, self.sym._memo is None))
        return reduce(self, u, strategy)

    monkeypatch.setattr(CourantQuotient, "reduce", recording)
    assemble_view(q)
    assert memos == {(True, True)}
    assert q._memo is None and q.sym._memo is None


def test_memo_is_dropped_when_fusion_exceeds_its_bound(monkeypatch):
    built = []
    build = CourantQuotient._build_relations

    def recording(self):
        built.append(self)
        build(self)

    monkeypatch.setattr(CourantQuotient, "_build_relations", recording)
    monkeypatch.setattr(quotient_mod, "MAX_REDUCE_STEPS", 1)
    with pytest.raises(ReduceBoundError):
        CourantQuotient(example("exact(2)"), 3)
    assert built and built[0]._memo is None and built[0].sym._memo is None

    monkeypatch.undo()
    q = CourantQuotient(example("exact(2)"), 3)
    monkeypatch.setattr(quotient_mod, "MAX_REDUCE_STEPS", 1)
    with pytest.raises(ReduceBoundError):
        assemble_view(q)
    assert q._memo is None and q.sym._memo is None


def test_failing_fusion_leaves_no_memo_entry(monkeypatch):
    q = CourantQuotient(example("exact(2)"), 4)
    sym = q.sym
    # x.x.D2[xD]: fusing both x's takes more than one step either way
    u = sym.multiply(sym.multiply(sym.a_gen("x"), sym.a_gen("x")), sym.b_gen("xD", 2))
    want = {s: q.reduce(u, s) for s in ("leftmost", "rightmost")}
    with q.memoized():
        monkeypatch.setattr(quotient_mod, "MAX_REDUCE_STEPS", 1)
        for s in ("leftmost", "rightmost"):
            with pytest.raises(ReduceBoundError):
                q.reduce(u, s)
        assert sum(map(len, q._memo.values())) == 0
        monkeypatch.undo()
        for s in ("leftmost", "rightmost"):
            assert q.reduce(u, s) == want[s]
        # warm: a memo hit performs no rewrite step, so the bound never fires
        monkeypatch.setattr(quotient_mod, "MAX_REDUCE_STEPS", 0)
        for s in ("leftmost", "rightmost"):
            assert q.reduce(u, s) == want[s]
    with pytest.raises(ReduceBoundError):
        q.reduce(u)


def test_strategies_have_separate_memo_entries():
    q = CourantQuotient(example("exact(2)"), 4)
    sym = q.sym
    u = sym.multiply(sym.multiply(sym.a_gen("x"), sym.a_gen("x")), sym.b_gen("xD", 2))
    (m,) = u.terms
    with q.memoized():
        q.reduce(u, "leftmost")
        assert m in q._memo["leftmost"] and m not in q._memo["rightmost"]
        q.reduce(u, "rightmost")
        # the two orders fuse x.x.D2[xD] to different representatives: 0
        # and 3 xD.dx.dx, which therefore lies in the ideal
        xd, dx = ("b", 0, q.X.B.index("xD")), ("b", 0, q.X.B.index("dx"))
        assert q._memo["leftmost"][m] == ()
        assert q._memo["rightmost"][m] == ((make_monomial([xd, dx, dx]), 3),)
        assert q.reduce(u, "leftmost") == q.reduce(u, "rightmost")


# -- stats ---------------------------------------------------------------------------


def test_stats_of_exact4_cutoff5():
    q = CourantQuotient(example("exact(4)"), 5)
    stats = q.stats()
    assert stats["relation_dims"] == [12, 71, 263, 832]
    # 2,962 fused seed shadows, 2,646 multiples of lower-degree rows and
    # 3,534 closure shadows for 1,178 rows
    sources = (stats["shadows_inserted"], stats["multiples_inserted"], stats["closure_inserted"])
    assert sources == (2_962, 2_646, 3_534)
    assert stats["shadows_skipped"] == 15_394
    assert stats["rows_kept"] == 1_178
    # the closure over the A-generators adds no row here
    assert stats["closure_kept"] == 0
    # each kept row's lead is cleared from the 955 stored rows that hold it
    assert stats["rows_cleared"] == 955
    # every distinct monomial the build passes through is fused once
    assert stats["fusion_steps"] == stats["peak_memo_entries"] == 7_300


def test_reduce_check_runs_in_one_memo():
    # the 500-element corpus of exact(3)/3 has 988 terms over 300 distinct
    # monomials; outside a memo the check takes 4,643 fusion steps
    q = CourantQuotient(example("exact(3)"), 3)
    before = q.stats()["fusion_steps"]
    assert check_reduce_properties(q).passed
    assert q.stats()["fusion_steps"] - before == 715
    assert q._memo is None and q.sym._memo is None
