from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from courant_vpa.courant import to_1tca
from courant_vpa.examples import example
from courant_vpa.vlie import (
    CutoffError,
    SCElement,
    VertexLie,
    check_oracle_agreement,
    check_vertex_lie,
    combine,
)


def make(name, cutoff=4):
    return VertexLie(to_1tca(example(name)), cutoff)


def test_d_on_degree_zero_is_partial():
    inst = make("exact(2)")
    x = inst.from_a(inst.A.unit_vector("x"))
    dx = inst.from_b(inst.B.unit_vector("dx"))
    assert inst.d(x) == dx
    # with partial = 0 (quadratic Lie example), D kills the unit
    q = make("quadratic_lie(sl2)")
    assert q.d(q.from_a(q.A.unit_vector("e"))).is_zero()


def test_d_shifts_b_parts():
    inst = make("heisenberg")
    b = inst.from_b(inst.B.unit_vector("beta"), 2)
    assert inst.d(b) == inst.from_b(inst.B.unit_vector("beta"), 3)


def test_d_cutoff_error():
    inst = make("heisenberg", cutoff=3)
    b = inst.from_b(inst.B.unit_vector("beta"), 2)
    with pytest.raises(CutoffError):
        inst.d(b)


def test_products_with_unit_generator_vanish():
    # every product with e as a generator vanishes: pi(u)e = 0 and e has
    # zero products inside A
    inst = make("quadratic_lie(sl2)")
    e = inst.from_a(inst.A.unit_vector("e"))
    for _, v in inst.basis_elements():
        for i in range(4):
            assert inst.product(i, e, v).is_zero()
            assert inst.product(i, v, e).is_zero()


def test_heisenberg_frozen_products():
    inst = make("heisenberg")
    beta = inst.from_b(inst.B.unit_vector("beta"))
    dbeta = inst.from_b(inst.B.unit_vector("beta"), 1)
    e = inst.from_a(inst.A.unit_vector("e"))
    assert inst.product(1, beta, beta) == e
    assert inst.product(2, dbeta, beta) == e.scale(-2)
    assert inst.product(1, dbeta, beta).is_zero()  # -beta_0 beta = 0
    assert inst.product(0, beta, beta).is_zero()


def test_first_argument_shift_rule():
    # (D b)_1 v = -b_0 v and (D b)_2 v = -2 b_1 v
    inst = make("quadratic_lie(sl2)")
    E = inst.from_b(inst.B.unit_vector("E"))
    F = inst.from_b(inst.B.unit_vector("F"))
    dE = inst.from_b(inst.B.unit_vector("E"), 1)
    assert inst.product(1, dE, F) == inst.product(0, E, F).scale(-1)
    assert inst.product(2, dE, F) == inst.product(1, E, F).scale(-2)
    assert inst.product(0, dE, F).is_zero()


def test_second_argument_closed_form_exact2():
    # a_0 (D b) lands in D^0(partial(a_0 b)); a_1 (D b) = a_0 b in degree 0
    inst = make("exact(2)")
    x = inst.from_a(inst.A.unit_vector("x"))
    xD = inst.B.unit_vector("xD")
    dxD = inst.from_b(xD, 1)
    # x_0 xD = -pi(xD)(x) = -x, so a_1 (D xD) = -x and a_0 (D xD) = D(-x) = -dx
    got1 = inst.product(1, x, dxD)
    assert got1 == inst.from_a(inst.A.unit_vector("x")).scale(-1)
    got0 = inst.product(0, x, dxD)
    assert got0 == inst.from_b(inst.B.unit_vector("dx")).scale(-1)


def test_oracle_matches_closed_forms_everywhere():
    for name in ("trivial(2)", "heisenberg", "quadratic_lie(sl2)", "exact(2)"):
        rep = check_oracle_agreement(make(name))
        assert rep.passed, (name, rep.summary())


def test_oracle_frozen_value():
    # (D beta)_2 beta = -2<beta,beta> = -2e, expanded term by term through
    # the series route
    inst = make("heisenberg")
    beta = inst.B.unit_vector("beta")
    got = inst.sing_oracle(2, ("b", 1, beta), ("b", 0, beta))
    assert got == inst.from_a(inst.A.unit_vector("e")).scale(-2)


def test_oracle_reproduces_a_on_db():
    inst = make("exact(2)")
    for la in inst.A.basis:
        for lb in inst.B.basis:
            a = inst.A.unit_vector(la)
            b = inst.B.unit_vector(lb)
            got = inst.sing_oracle(1, ("a", a), ("b", 1, b))
            want = inst.product(1, inst.from_a(a), inst.from_b(b, 1))
            assert got == want, (la, lb)


def test_half_skew_symmetry_at_generators():
    # u_i v = sum_j (-1)^(i+j+1) (1/j!) D^j (v_(i+j) u)
    inst = make("exact(2)")
    elems = inst.basis_elements(2)
    for lu, u in elems:
        for lv, v in elems:
            total = u.max_degree() + v.max_degree()
            if total > inst.cutoff:
                continue
            for i in range(total + 1):
                rhs = inst.zero()
                for j in range(0, total - i):
                    w = inst.product(i + j, v, u)
                    for _ in range(j):
                        w = inst.d(w)
                    rhs = rhs + w.scale(
                        Fraction((-1) ** (i + j + 1), factorial(j))
                    )
                assert inst.product(i, u, v) == rhs, (lu, lv, i)


@pytest.mark.parametrize("name,cutoff", [
    ("trivial(2)", 4),
    ("heisenberg", 4),
    ("quadratic_lie(sl2)", 4),
    ("exact(2)", 4),
])
def test_check_vertex_lie_passes(name, cutoff):
    rep = check_vertex_lie(make(name, cutoff))
    assert rep.passed, rep.summary()


def test_hp_spot_identity_heisenberg():
    # (D beta)_2 beta = -2 beta_1 beta
    inst = make("heisenberg")
    beta = inst.from_b(inst.B.unit_vector("beta"))
    lhs = inst.product(2, inst.d(beta), beta)
    rhs = inst.product(1, beta, beta).scale(-2)
    assert lhs == rhs


def test_check_vertex_lie_catches_broken_structure():
    # a non-conformal input (perturbed pairing) must break some component
    # axiom at the vertex Lie level too
    from courant_vpa.tca import OneTruncatedConformalAlgebra
    from courant_vpa.linalg import BilinearMap, Vector

    T = to_1tca(example("quadratic_lie(sl2)"))
    rows = [list(r) for r in T.p1_11.table]
    rows[0][0] = rows[0][0] + Vector(T.C0, {0: Fraction(1)})
    bad = OneTruncatedConformalAlgebra(
        C0=T.C0, C1=T.C1, partial=T.partial, p0_10=T.p0_10,
        p0_01=T.p0_01, p0_11=T.p0_11,
        p1_11=BilinearMap(T.C1, T.C1, T.C0, rows),
    )
    rep = check_vertex_lie(VertexLie(bad, 3))
    assert not rep.passed


def test_products_within_cutoff_never_overflow():
    # grading keeps every nonzero product at or below the second
    # argument's degree, so in-range inputs cannot overflow the cutoff
    inst = make("exact(2)", cutoff=2)
    elems = inst.basis_elements()
    for _, u in elems:
        for _, v in elems:
            for i in range(5):
                got = inst.product(i, u, v)
                assert got.max_degree() <= inst.cutoff


def test_from_b_cutoff_error():
    inst = make("exact(2)", cutoff=2)
    with pytest.raises(CutoffError):
        inst.from_b(inst.B.unit_vector("dx"), 2)  # degree 3 > cutoff


def test_oracle_cutoff_error_on_overflowing_series():
    # the series route builds intermediate D-chains whose degree exceeds
    # the cutoff when the total input degree does
    inst = make("exact(2)", cutoff=2)
    xD = inst.B.unit_vector("xD")
    dx = inst.B.unit_vector("dx")
    with pytest.raises(CutoffError):
        inst.sing_oracle(0, ("b", 1, xD), ("b", 1, dx))


def test_broken_heisenberg_report_is_pinned():
    # [beta, beta] = beta breaks skew symmetry; the report prints elements
    # as the symmetric algebra does, one coefficient per basis factor
    from test_vpa import broken_heisenberg

    rep = check_vertex_lie(VertexLie(broken_heisenberg(), 3))
    assert [str(v) for v in rep.violations] == [
        "vlie/ha at (D0[beta], D0[beta], D0[beta], m=0, n=0): lhs=0 rhs=1*D0[beta]",
        "vlie/ha at (D0[beta], D0[beta], D0[beta], m=0, n=1): lhs=-1*e rhs=1*e",
        "vlie/hs at (D0[beta], D0[beta], n=0): lhs=1*D0[beta] rhs=-1*D0[beta]",
        "vlie/hs at (D0[beta], D1[beta], n=0): lhs=1*D1[beta] rhs=-1*D1[beta]",
        "vlie/hs at (D0[beta], D1[beta], n=1): lhs=1*D0[beta] rhs=-1*D0[beta]",
        "vlie/hs at (D1[beta], D0[beta], n=1): lhs=-1*D0[beta] rhs=1*D0[beta]",
    ]


@pytest.mark.parametrize("name", ["heisenberg", "exact(2)"])
def test_elements_are_single_factor_sc_elements(name):
    inst = make(name, cutoff=3)
    elems = [e for _, e in inst.basis_elements()]
    specs = [("a", v) for v in inst.A.basis_vectors()]
    specs += [("b", n, v) for n in range(2) for v in inst.B.basis_vectors()]
    got = [inst.zero(), inst.combine([(2, e) for e in elems])]
    got += elems + [inst.d(e) for e in elems if e.max_degree() < inst.cutoff]
    got += [inst.product(i, u, v) for u in elems for v in elems for i in range(3)]
    got += [inst.sing_oracle(i, u, v) for u in specs for v in specs for i in range(3)]
    assert all(type(e) is SCElement for e in got)
    assert all(len(m) == 1 for e in got for m in e.terms)


# -- sums and products against a dense bilinear reference ---------------------
#
# Degrees stay at most 2 so that every i-th product fits the cutoff 3, and
# coefficients come from a short list, so that sums and products cancel.

DENSE = make("exact(2)", cutoff=3)
ALL_FACTORS = [m for _, e in DENSE.basis_elements() for m in e.terms]
low_factors = [m for _, e in DENSE.basis_elements(2) for m in e.terms]
dense_coefs = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)])
dense_elements = st.dictionaries(st.sampled_from(low_factors), dense_coefs, max_size=4).map(SCElement)


def dense_of(u):
    assert 0 not in u.terms.values()
    return [u.terms.get(m, 0) for m in ALL_FACTORS]


@given(dense_elements, dense_elements, dense_coefs, st.integers(0, 3))
def test_sums_and_products_match_dense_reference(u, v, c, i):
    du, dv = dense_of(u), dense_of(v)
    assert dense_of(u + v) == [a + b for a, b in zip(du, dv)]
    assert dense_of(combine([(c, u), (1, v), (-1, u)])) == [(c - 1) * a + b for a, b in zip(du, dv)]
    want = [0] * len(ALL_FACTORS)
    for (f,), cu in u.terms.items():
        for (g,), cv in v.terms.items():
            w = dense_of(DENSE.generator_product(i, f, g))
            want = [x + cu * cv * y for x, y in zip(want, w)]
    assert dense_of(DENSE.product(i, u, v)) == want
