import gc
from fractions import Fraction

import pytest

from courant_vpa.examples import example
from courant_vpa.quotient import (
    CourantQuotient,
    IdealGenerators,
    check_ideal_stability,
    check_quotient_dimensions,
    check_reduce_properties,
    roundtrip_check,
)
from courant_vpa.vpa import SCElement, make_monomial, mono_degree


def make(name, cutoff=4):
    return CourantQuotient(example(name), cutoff)


def test_reduce_unit_monomial_is_e():
    q = make("heisenberg")
    got = q.reduce(q.sym.one())
    assert q.to_a_vector(got) == q.X.A.unit
    assert got == q.vlie.from_a(q.X.A.unit)


def test_reduce_drops_unit_factor():
    q = make("heisenberg")
    e_beta = q.sym.multiply(q.sym.a_gen("e"), q.sym.b_gen("beta"))
    got = q.reduce(e_beta)
    assert got == q.vlie.from_b(q.X.B.unit_vector("beta"))


def test_reduce_fuses_algebra_factors():
    q = make("exact(2)")
    xx = q.sym.multiply(q.sym.a_gen("x"), q.sym.a_gen("x"))
    assert q.reduce(xx).is_zero()  # x^2 = 0 in the base
    ex = q.sym.multiply(q.sym.a_gen("e"), q.sym.a_gen("x"))
    got = q.reduce(ex)
    assert q.to_a_vector(got) == q.X.A.space.unit_vector("x")


def test_reduce_fuses_action():
    q = make("exact(2)")
    x_dx = q.sym.multiply(q.sym.a_gen("x"), q.sym.b_gen("dx"))
    assert q.reduce(x_dx).is_zero()  # x.dx = 0 in the module


def test_reduce_dpower_rule_frozen_example():
    # x . (D dx) = D(x.dx) - (px).dx = -(dx.dx)
    q = make("exact(2)")
    u = q.sym.multiply(q.sym.a_gen("x"), q.sym.b_gen("dx", 1))
    got = q.reduce(u)
    dxdx = make_monomial([("b", 0, q.X.B.index("dx")), ("b", 0, q.X.B.index("dx"))])
    assert got.terms == {dxdx: Fraction(-1)}
    # same fusion from the other rule order
    assert q.reduce(u, "rightmost") == got


def test_ideal_generators_reduce_to_zero():
    for name in ("heisenberg", "exact(2)"):
        q = make(name)
        for label, g in IdealGenerators(q).all():
            assert q.reduce(g).is_zero(), (name, label)


@pytest.mark.parametrize("name", ["trivial(2)", "heisenberg", "quadratic_lie(sl2)", "exact(2)"])
def test_ideal_stability(name):
    rep = check_ideal_stability(make(name))
    assert rep.passed, rep.summary()


def test_sb_products_heisenberg_frozen():
    q = make("heisenberg")
    beta = q.vlie.from_b(q.X.B.unit_vector("beta"))
    e = q.vlie.from_a(q.X.A.unit)
    assert q.product(1, beta, beta) == e
    dbeta = q.d(beta)
    assert q.product(2, dbeta, beta) == q.vlie.from_a(q.X.A.unit.scale(-2))


def test_sb_d_on_base_is_partial():
    q = make("exact(2)")
    x = q.vlie.from_a(q.X.A.space.unit_vector("x"))
    assert q.d(x) == q.vlie.from_b(q.X.B.unit_vector("dx"))


def test_basis_monomials_counts():
    q = make("heisenberg")  # dim B = 1
    assert q.basis_monomials(0) == [()]
    assert len(q.basis_monomials(1)) == 1   # b
    assert len(q.basis_monomials(2)) == 2   # Db, b.b
    assert len(q.basis_monomials(3)) == 3   # D2b, Db.b, b.b.b
    assert len(q.basis_monomials(4)) == 5   # D3b, D2b.b, Db.Db, Db.b.b, b^4
    q2 = make("exact(2)")  # dim B = 2
    assert len(q2.basis_monomials(1)) == 2
    assert len(q2.basis_monomials(2)) == 2 + 3


@pytest.mark.parametrize("name", ["trivial(2)", "heisenberg", "quadratic_lie(sl2)", "exact(2)"])
def test_reduce_confluence_idempotence_degree(name):
    rep = check_reduce_properties(make(name), count=120)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("name", ["trivial(2)", "heisenberg", "quadratic_lie(sl2)", "exact(2)", "exact(3)"])
def test_quotient_dimensions(name):
    rep = check_quotient_dimensions(make(name, 3))
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("name", ["trivial(3)", "heisenberg", "quadratic_lie(sl2)", "exact(2)"])
def test_roundtrip(name):
    rep = roundtrip_check(example(name), cutoff=3)
    assert rep.passed, rep.summary()


def test_extract_gives_original_tables_exactly():
    q = make("exact(2)", 3)
    alg, Y = q.extract_degree01()
    X = q.X
    assert alg.mult == X.A.mult and alg.unit == X.A.unit
    assert Y.action == X.action
    assert Y.bracket == X.bracket
    assert Y.anchor == X.anchor
    assert Y.pairing == X.pairing
    assert Y.partial == X.partial


def test_relation_rows_are_ideal_elements():
    # every eliminated combination must itself be absorbed by the quotient
    # operations: D of it and all generator products with it reduce to 0
    q = make("exact(3)", 3)
    sym = q.sym
    for n in range(2, q.cutoff + 1):
        for lead, row in q._relations[n].rows.items():
            r = SCElement(dict(row))
            assert q.reduce(r).is_zero()
            if n + 1 <= q.cutoff:
                assert q.reduce(sym.d(r)).is_zero(), (n, lead)
            for _, f in sym.generators(1):
                u = sym.monomial([f])
                for k in range(0, u.max_degree() + n):
                    if n + u.max_degree() - k - 1 > q.cutoff:
                        continue
                    assert q.reduce(sym.product(k, u, r)).is_zero(), (n, lead, k)


def test_quotient_dimension_against_spanning_rank():
    # independent accounting: reduce a broad spanning family of each degree
    # and compare its rank in surviving-monomial coordinates with
    # (#monomials - relation dim)
    from courant_vpa.linalg import BasedSpace, Vector, rank

    q = make("exact(2)", 3)
    for n in (2, 3):
        basis = q.basis_monomials(n)
        index = {m: i for i, m in enumerate(basis)}
        coord_space = BasedSpace("coords%d" % n, [str(i) for i in range(len(basis))])
        rows = []
        for m in q.sym.spanning_monomials(n, 4):
            if mono_degree(m) != n:
                continue
            r = q.reduce(SCElement({m: Fraction(1)}))
            coeffs = {}
            for mono, c in r.terms.items():
                assert mono in index  # reduce lands in the canonical basis
                coeffs[index[mono]] = c
            rows.append(Vector(coord_space, coeffs))
        got = rank(rows)
        expected = len(q._pure_b_monomials(n)) - q.relation_dim(n)
        assert got == expected == len(basis)


def test_sb_ops_are_lift_independent():
    # computing through a different congruent representative of the same
    # class gives the same normal form (the ideal property)
    q = make("exact(2)", 4)
    beta = q.vlie.from_b(q.X.B.unit_vector("dx"))
    std = q.vlie.from_a(q.X.A.unit)
    alt = SCElement({(): Fraction(1)})  # the empty monomial also presents e
    assert q.reduce(std) == q.reduce(alt)
    for n in (0, 1):
        a = q.reduce(q.sym.product(n, std, beta))
        b = q.reduce(q.sym.product(n, alt, beta))
        assert a == b, n
    assert q.reduce(q.sym.multiply(std, beta)) == q.reduce(q.sym.multiply(alt, beta))
    assert q.reduce(q.sym.d(std)) == q.reduce(q.sym.d(alt))


from hypothesis import given, settings, strategies as st
from courant_vpa.vpa import factor_degree

_q_cache = {}


def _shared(name):
    if name not in _q_cache:
        _q_cache[name] = make(name, 3)
    return _q_cache[name]


@st.composite
def sc_elements(draw, name):
    q = _shared(name)
    gens = [f for _, f in q.sym.generators()]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        budget = q.cutoff
        factors = []
        for _ in range(draw(st.integers(0, 4))):
            opts = [g for g in gens if factor_degree(g) <= budget]
            if not opts:
                break
            g = draw(st.sampled_from(opts))
            factors.append(g)
            budget -= factor_degree(g)
        m = make_monomial(factors)
        c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        terms[m] = terms.get(m, Fraction(0)) + c
    return q, SCElement(terms)


@settings(max_examples=60, deadline=None)
@given(sc_elements("exact(2)"))
def test_reduce_properties_hypothesis(pair):
    q, u = pair
    left = q.reduce(u, "leftmost")
    right = q.reduce(u, "rightmost")
    assert left == right
    assert q.reduce(left) == left


def _graded_multiset_counts(dim_b: int, top: int) -> list[int]:
    # coefficients of prod_(k>=1) (1 - x^k)^(-dim_b): multisets of D-power
    # generators weighted by degree, computed by an independent DP
    coeffs = [1] + [0] * top
    for k in range(1, top + 1):
        for _ in range(dim_b):
            for n in range(k, top + 1):
                coeffs[n] += coeffs[n - k]
    return coeffs


def test_dropped_quotient_leaves_no_cycles():
    # everything the build allocates is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        q = CourantQuotient(example("quadratic_lie(sl2)"), 4)
        del q
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_monomial_counts_match_partition_generating_function():
    for name, dim_b in (("heisenberg", 1), ("quadratic_lie(sl2)", 3), ("exact(2)", 2)):
        q = make(name, 4)
        expected = _graded_multiset_counts(dim_b, 4)
        for n in range(0, 5):
            assert len(q._pure_b_monomials(n)) == expected[n], (name, n)


def test_quotient_dimensions_without_relations_are_partition_counts():
    # heisenberg: one generator, no residual relations: dim of degree n is
    # the number of partitions of n (1, 1, 2, 3, 5, 7, 11, ...)
    q = make("heisenberg", 6)
    expected = _graded_multiset_counts(1, 6)
    for n in range(0, 7):
        assert q.relation_dim(n) == 0
        assert len(q.basis_monomials(n)) == expected[n]
