import contextlib
import functools
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from courant_vpa.courant import to_1tca
from courant_vpa.examples import example
from courant_vpa.tca import OneTruncatedConformalAlgebra
from courant_vpa.vlie import CutoffError, VertexLie, factor_degree
from courant_vpa.vpa import SCElement, SymAlgebra, check_vpa, mono_degree


def make(name, cutoff=4):
    return SymAlgebra(VertexLie(to_1tca(example(name)), cutoff))


def test_multiply_unit_commutativity_and_square():
    sym = make("heisenberg")
    beta = sym.b_gen("beta")
    dbeta = sym.b_gen("beta", 1)
    e = sym.a_gen("e")
    assert sym.multiply(sym.one(), beta) == beta
    assert sym.multiply(e, beta) == sym.multiply(beta, e)
    sq = sym.multiply(dbeta, dbeta)
    (m, c), = sq.terms.items()
    assert c == 1 and mono_degree(m) == 4


def test_multiply_cutoff_error():
    sym = make("heisenberg", cutoff=3)
    dbeta = sym.b_gen("beta", 1)
    with pytest.raises(CutoffError):
        sym.multiply(dbeta, dbeta)


def test_d_is_a_derivation():
    sym = make("exact(2)")
    assert sym.d(sym.one()).is_zero()
    x = sym.a_gen("x")
    dx = sym.b_gen("dx")
    # D(x.dx-factor) = (dx).(dx) + x.(D dx)
    got = sym.d(sym.multiply(x, dx))
    want = sym.multiply(dx, dx) + sym.multiply(x, sym.b_gen("dx", 1))
    assert got == want
    # D(b.b) = 2 (Db).b
    beta_sym = make("heisenberg")
    b = beta_sym.b_gen("beta")
    got = beta_sym.d(beta_sym.multiply(b, b))
    want = beta_sym.multiply(beta_sym.b_gen("beta", 1), b).scale(2)
    assert got == want


def test_products_with_unit_vanish():
    sym = make("heisenberg")
    bb = sym.multiply(sym.b_gen("beta"), sym.b_gen("beta"))
    for n in range(3):
        assert sym.product(n, bb, sym.one()).is_zero()
        assert sym.product(n, sym.one(), bb).is_zero()


def test_heisenberg_frozen_derivation_action():
    # beta_1 (beta.beta) = (beta_1 beta).beta + beta.(beta_1 beta) = 2 e.beta
    sym = make("heisenberg")
    beta = sym.b_gen("beta")
    bb = sym.multiply(beta, beta)
    got = sym.product(1, beta, bb)
    want = sym.multiply(sym.a_gen("e"), beta).scale(2)
    assert got == want


def test_heisenberg_frozen_skew_value_and_hs_flip():
    # (beta.beta)_0 beta = D(2 e.beta) = 2 e.(D beta), then cross-checked
    # against the skew expansion of the other order
    sym = make("heisenberg")
    beta = sym.b_gen("beta")
    bb = sym.multiply(beta, beta)
    got = sym.product(0, bb, beta)
    want = sym.multiply(sym.a_gen("e"), sym.b_gen("beta", 1)).scale(2)
    assert got == want
    # hs flip: (bb)_0 beta = sum_i (-1)^(i+1) (1/i!) D^i (beta_i bb)
    rhs = sym.zero()
    for i in range(0, 3):
        w = sym.product(i, beta, bb)
        for _ in range(i):
            w = sym.d(w)
        rhs = rhs + w.scale(Fraction((-1) ** (0 + i + 1), [1, 1, 2][i]))
    assert got == rhs


def test_generator_vs_skew_route_agree():
    sym = make("exact(2)", cutoff=3)
    for lu, fu in sym.generators(2):
        u = sym.monomial([fu])
        for lv, fv in sym.generators(2):
            v = sym.monomial([fv])
            p, q = u.max_degree(), v.max_degree()
            for n in range(max(0, p + q - sym.cutoff - 1), p + q):
                a = sym.product(n, u, v, route="generator")
                b = sym.product(n, u, v, route="skew")
                assert a == b, (lu, lv, n)


@pytest.mark.parametrize("name,cutoff", [
    ("trivial(2)", 4),
    ("heisenberg", 4),
    ("exact(2)", 3),
    ("quadratic_lie(sl2)", 3),
])
def test_check_vpa_passes(name, cutoff):
    rep = check_vpa(make(name, cutoff))
    assert rep.passed, rep.summary()


def broken_heisenberg():
    """The Heisenberg pair with [beta, beta] = beta, which breaks skew
    symmetry."""
    from courant_vpa.linalg import BilinearMap, Vector

    T = to_1tca(example("heisenberg"))
    rows = [list(r) for r in T.p0_11.table]
    rows[0][0] = rows[0][0] + Vector(T.C1, {0: Fraction(1)})  # [beta,beta] = beta
    return OneTruncatedConformalAlgebra(
        C0=T.C0, C1=T.C1, partial=T.partial, p0_10=T.p0_10, p0_01=T.p0_01,
        p0_11=BilinearMap(T.C1, T.C1, T.C1, rows), p1_11=T.p1_11,
    )


def test_check_vpa_catches_broken_input():
    rep = check_vpa(SymAlgebra(VertexLie(broken_heisenberg(), 3)))
    assert not rep.passed


# ids leave the pinned counts out, so a re-pin keeps each test's name
@pytest.mark.parametrize("cutoff,count", [pytest.param(2, 37, id="2"), pytest.param(3, 143, id="3")])
def test_broken_heisenberg_violation_counts(cutoff, count):
    rep = check_vpa(SymAlgebra(VertexLie(broken_heisenberg(), cutoff)))
    assert len(rep.violations) == count


def test_degree_zero_part_is_polynomials_in_a():
    sym = make("exact(2)", cutoff=3)
    deg0 = [m for m in sym.spanning_monomials(3, 3) if mono_degree(m) == 0]
    assert all(all(f[0] == "a" for f in m) for f in deg0 for m in [f])
    deg1 = [m for m in sym.spanning_monomials(3, 3) if mono_degree(m) == 1]
    for m in deg1:
        bs = [f for f in m if f[0] == "b"]
        assert len(bs) == 1 and bs[0][1] == 0


def test_multiply_associative_and_unital():
    sym = make("exact(2)", cutoff=4)
    gens = [sym.monomial([f]) for _, f in sym.generators(1)]
    for a in gens:
        assert sym.multiply(sym.one(), a) == a
        assert sym.multiply(a, sym.one()) == a
        for b in gens:
            for c in gens:
                if a.max_degree() + b.max_degree() + c.max_degree() > sym.cutoff:
                    continue
                lhs = sym.multiply(sym.multiply(a, b), c)
                rhs = sym.multiply(a, sym.multiply(b, c))
                assert lhs == rhs


# -- the per-check memo ------------------------------------------------------

MEMO_SYMS = {name: make(name, cutoff=3) for name in ("heisenberg", "exact(2)")}


def _outcome(f):
    try:
        return f()
    except CutoffError:
        return CutoffError


def _draw_element(data, monos):
    terms = data.draw(st.dictionaries(
        st.sampled_from(monos),
        st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
        min_size=1, max_size=3,
    ))
    return SCElement(terms)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_memo_agrees_with_direct_evaluation(data):
    name = data.draw(st.sampled_from(sorted(MEMO_SYMS)))
    sym = MEMO_SYMS[name]
    monos = sym.spanning_monomials(3, 3)
    route = data.draw(st.sampled_from(["generator", "skew"]))
    u = _draw_element(data, [m for m in monos if len(m) == 1] if route == "generator" else monos)
    v = _draw_element(data, monos)
    n = data.draw(st.integers(0, 3))
    ops = [lambda: sym.product(n, u, v, route), lambda: sym.d(v), lambda: sym.d(u)]
    direct = [_outcome(f) for f in ops]
    with sym.memoized():
        filling = [_outcome(f) for f in ops]
        cached = [_outcome(f) for f in ops]
    assert filling == direct
    assert cached == direct
    assert sym._memo is None


def test_cutoff_error_is_never_memoized():
    # (beta.beta)_0 (beta.D1[beta]) and D(D2[beta]) both leave degree 3
    sym = make("heisenberg", cutoff=3)
    beta = sym.b_gen("beta")
    bb = sym.multiply(beta, beta)
    v = sym.multiply(beta, sym.b_gen("beta", 1))
    top = sym.b_gen("beta", 2)
    failing = [lambda: sym.product(0, bb, v), lambda: sym.d(top)]
    for f in failing:
        with pytest.raises(CutoffError):
            f()
    with sym.memoized():
        for _ in range(2):
            for f in failing:
                with pytest.raises(CutoffError):
                    f()


def test_check_vpa_drops_its_memo(monkeypatch):
    sym = make("heisenberg", cutoff=2)
    assert check_vpa(sym).passed
    assert sym._memo is None
    sizes = []

    def failing_d(u):
        sizes.append(len(sym._memo))
        raise RuntimeError("stop")

    # hs asks for D after its pair's products have filled the memo
    monkeypatch.setattr(sym, "d", failing_d)
    with pytest.raises(RuntimeError):
        check_vpa(sym)
    assert sizes and sizes[0] > 0
    assert sym._memo is None


def test_memo_values_are_interned_item_tuples():
    # every memo value is a tuple of (monomial, coefficient) items, and an
    # item that several values share is stored once
    sym = make("heisenberg")
    beta, dbeta = sym.b_gen("beta"), sym.b_gen("beta", 1)
    bb, bdb = sym.multiply(beta, beta), sym.multiply(beta, dbeta)
    with sym.memoized():
        for n in range(3):
            for u, v in ((beta, bb), (dbeta, bb), (beta, bdb)):
                sym.product(n, u, v)
        sym.d(bb), sym.d(bdb)
        memo = sym._memo
        values = list(memo.d.values()) + [v for row in memo.rows.values() for v in row.values()]
    seen = {}
    for value in values:
        assert type(value) is tuple
        for item in value:
            assert type(item) is tuple and len(item) == 2
            assert seen.setdefault(item, item) is item
    # no value repeats an item, so the surplus is items shared by values
    assert sum(len(v) for v in values) > len(seen)


# -- unit and hd by construction ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _rule_syms(name):
    """SymAlgebras at cutoff 3 on to_1tca(name), then on each of its +1
    single-entry mutants."""
    from test_laws import table_mutants  # test_laws imports this module

    T = to_1tca(example(name))
    mutants = [OneTruncatedConformalAlgebra(C0=T.C0, C1=T.C1, **parts) for _, parts in table_mutants(T)]
    return [SymAlgebra(VertexLie(t, 3)) for t in [T] + mutants]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_unit_and_hd_hold_for_any_tables(data):
    # the lemma of the vpa docstring: u_n 1 = 1_n u = 0 and
    # u_n (v.w) = (u_n v).w + v.(u_n w), whatever the tables hold
    name = data.draw(st.sampled_from(["heisenberg", "exact(2)"]))
    sym = data.draw(st.sampled_from(_rule_syms(name)))
    top = sym.cutoff
    monos = sym.spanning_monomials(top, 3)
    if data.draw(st.booleans()):  # generator route
        mu = data.draw(st.sampled_from([m for m in monos if len(m) == 1]))
    else:  # skew route
        mu = data.draw(st.sampled_from([m for m in monos if len(m) > 1]))
    mv = data.draw(st.sampled_from(monos))
    mw = data.draw(st.sampled_from([m for m in monos if mono_degree(m) + mono_degree(mv) <= top]))
    p, qr = mono_degree(mu), mono_degree(mv) + mono_degree(mw)
    lo = max(0, p + qr - top - 1)
    n = data.draw(st.integers(lo, max(lo, p + qr - 1)))
    u, v, w, one = SCElement({mu: 1}), SCElement({mv: 1}), SCElement({mw: 1}), sym.one()
    # check_vpa evaluates products inside the memo, so check both paths
    with sym.memoized() if data.draw(st.booleans()) else contextlib.nullcontext():
        lhs = sym.product(n, u, sym.multiply(v, w))
        assert lhs == sym.multiply(sym.product(n, u, v), w) + sym.multiply(v, sym.product(n, u, w))
        assert sym.product(n, u, one).is_zero()
        assert sym.product(n, one, u).is_zero()


# -- ha on generator thirds ---------------------------------------------------


def _jacobi_defect(sym, m, n, u, v, w):
    """H_mn(u, v, w) = u_m (v_n w) - v_n (u_m w) - sum_i C(m,i) (u_i v)_(m+n-i) w."""
    lhs = sym.product(m, u, sym.product(n, v, w)) - sym.product(n, v, sym.product(m, u, w))
    return lhs - sym.combine([(comb(m, i), sym.product(m + n - i, sym.product(i, u, v), w)) for i in range(m + 1)])


def test_jacobi_defect_is_a_derivation_in_the_third():
    # the lemma of the laws docstring, where H is not 0: on the broken
    # Heisenberg pair H_mn(u, v, w1.w2) = H_mn(u, v, w1).w2 + w1.H_mn(u, v, w2),
    # so a composite third fails ha only where one of its factors does
    sym = SymAlgebra(VertexLie(broken_heisenberg(), 3))
    top = sym.cutoff
    gens = [(sym.monomial([f]), factor_degree(f)) for _, f in sym.generators(top)]
    cases = nonzero = 0
    with sym.memoized():
        for (u, p), (v, q) in itertools.product(gens, gens):
            if p + q > top + 1:
                continue
            for (w1, r1), (w2, r2) in itertools.product(gens, gens):
                r = r1 + r2
                if r > top:
                    continue
                w = sym.multiply(w1, w2)
                for m in range(p + q + r):
                    for n in range(q + r):
                        h = _jacobi_defect(sym, m, n, u, v, w)
                        h1, h2 = (_jacobi_defect(sym, m, n, u, v, x) for x in (w1, w2))
                        assert h == sym.multiply(h1, w2) + sym.multiply(w1, h2), (u, v, w1, w2, m, n)
                        cases += 1
                        nonzero += not h.is_zero()
    assert (cases, nonzero) == (2_100, 264)


# -- zero arguments ----------------------------------------------------------


def test_zero_arguments_give_zero():
    sym = make("exact(2)", cutoff=3)
    zero = sym.zero()
    x, dx = sym.a_gen("x"), sym.b_gen("dx")
    xdx = sym.multiply(x, dx)
    for u in (zero, x, dx, xdx):
        assert sym.multiply(u, zero) == zero
        assert sym.multiply(zero, u) == zero
        for n in range(3):
            for route in ("auto", "skew"):
                assert sym.product(n, u, zero, route) == zero
                assert sym.product(n, zero, u, route) == zero
    assert sym.product(0, dx, zero, "generator") == zero
    assert sym.product(0, zero, xdx, "generator") == zero
    assert sym.combine([]) == zero
    assert sym.combine([(1, zero), (Fraction(-2), zero)]) == zero
    assert sym.combine([(1, xdx), (-1, xdx), (3, zero)]) == zero
    assert sym.combine([(0, xdx), (2, zero), (1, dx)]) == dx


def test_zero_arguments_still_raise():
    sym = make("exact(2)", cutoff=3)
    zero, xdx = sym.zero(), sym.multiply(sym.a_gen("x"), sym.b_gen("dx"))
    for u, v in ((zero, zero), (xdx, zero), (zero, xdx)):
        with pytest.raises(ValueError):
            sym.product(-1, u, v)
    with pytest.raises(ValueError):
        sym.product(0, xdx, zero, route="generator")


def _draw_sparse(data, monos):
    # coefficient 0 drops its monomial, so zero elements are drawn too
    return SCElement(data.draw(st.dictionaries(
        st.sampled_from(monos),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        max_size=3,
    )))


def _bilinear(u, v, pair):
    """sum of cu * cv * pair(mu, mv) over every pair of monomials."""
    out = SCElement({})
    for mu, cu in u.terms.items():
        for mv, cv in v.terms.items():
            out = out + pair(mu, mv).scale(cu * cv)
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_short_circuits_agree_with_bilinear_expansion(data):
    sym = MEMO_SYMS[data.draw(st.sampled_from(sorted(MEMO_SYMS)))]
    monos = sym.spanning_monomials(3, 3)
    route = data.draw(st.sampled_from(["auto", "generator", "skew"]))
    u = _draw_sparse(data, [m for m in monos if len(m) == 1] if route == "generator" else monos)
    v = _draw_sparse(data, monos)
    n = data.draw(st.integers(0, 3))
    unit = lambda m: SCElement({m: Fraction(1)})
    got = _outcome(lambda: sym.product(n, u, v, route))
    want = _outcome(lambda: _bilinear(u, v, lambda mu, mv: sym.product(n, unit(mu), unit(mv), route)))
    assert got == want
    got = _outcome(lambda: sym.multiply(u, v))
    want = _outcome(lambda: _bilinear(u, v, lambda mu, mv: sym.monomial(mu + mv)))
    assert got == want
