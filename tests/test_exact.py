"""The library's one exact scalar: a non-zero int when the value is
integral, else a Fraction whose denominator is not 1, never a float.
Every stored coefficient has that form, and no code path can make a
float."""

import ast
import glob
import os
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from courant_vpa.courant import to_1tca
from courant_vpa.examples import example, example_names
from courant_vpa.graded import assemble_view
from courant_vpa.linalg import (
    BasedSpace,
    BilinearMap,
    Echelon,
    LinearMap,
    Vector,
    rational,
    scalar_from_str,
    solve_linear,
)
from courant_vpa.quotient import CourantQuotient, random_corpus
from courant_vpa.selftest import ROUNDTRIP_EXAMPLES
from courant_vpa.vlie import VertexLie
from courant_vpa.vpa import SCElement

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "courant_vpa")
S = BasedSpace("S", ["a", "b"])


def canonical(c):
    """A stored scalar: a non-zero int, or a Fraction that is not integral."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)


def table_vectors(t):
    """Every vector a structure table stores: the unit, a map's columns or
    a bilinear map's entries."""
    if isinstance(t, Vector):
        return [t]
    if isinstance(t, LinearMap):
        return list(t.columns)
    assert isinstance(t, BilinearMap)
    return [v for row in t.table for v in row]


def assert_vectors_canonical(vectors):
    for v in vectors:
        assert all(canonical(c) for _, c in v.items), v.items


def assert_element_canonical(u):
    assert all(canonical(c) for c in u.terms.values()), u.terms


def courant_tables(X):
    return [X.A.mult, X.A.unit, X.action, X.bracket, X.anchor, X.pairing, X.partial]


# -- the canonical form ------------------------------------------------------


@pytest.mark.parametrize(
    "x,want",
    [(3, 3), (Fraction(4, 2), 2), (Fraction(-6, 3), -2), (Fraction(1, 2), Fraction(1, 2)), (True, 1), (0, 0)],
)
def test_rational_returns_int_when_integral(x, want):
    got = rational(x)
    assert got == want and type(got) is type(want)


@given(st.fractions(max_denominator=30))
def test_rational_is_canonical_and_value_preserving(q):
    got = rational(q)
    assert got == q
    assert canonical(got) or got == 0


@pytest.mark.parametrize("bad", [0.5, 1.0, 0.1, float("nan"), Decimal("0.5"), "1/2", 1j, None])
def test_rational_refuses_inexact_and_non_numbers(bad):
    with pytest.raises(TypeError):
        rational(bad)


def test_entry_points_refuse_floats():
    u = S.unit_vector("a")
    entries = [
        lambda: Vector(S, {0: 0.5}),
        lambda: Vector(S, {0: 0.1}),
        lambda: S.vector({"a": 0.5}),
        lambda: u.scale(0.5),
        lambda: solve_linear([[0.5]], [1]),
        lambda: solve_linear([[1]], [0.5]),
        lambda: SCElement({(("a", 0),): 0.5}),
        lambda: SCElement({(("a", 0),): 1}).scale(0.5),
        lambda: Echelon().insert({0: 0.5}),
    ]
    for make in entries:
        with pytest.raises(TypeError):
            make()


@pytest.mark.parametrize("text", ["0.5", "1e3", "", "a", "1/2/3", "1/", "/2", "1/0", " 1 / 2.0"])
def test_scalar_from_str_refuses_malformed_text(text):
    with pytest.raises(ValueError):
        scalar_from_str(text)


@pytest.mark.parametrize("text,want", [("2", 2), ("4/2", 2), ("3/6", Fraction(1, 2)), ("0", 0)])
def test_scalar_from_str_is_canonical(text, want):
    got = scalar_from_str(text)
    assert got == want and type(got) is type(want)
    assert type(scalar_from_str(text, negate=True)) is type(want)


def test_no_true_division_in_the_library():
    # int / int is a float; exact quotients go through Fraction(a, b)
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert found == []


# -- every stored coefficient is canonical -----------------------------------


@pytest.mark.parametrize("name", example_names())
def test_builtin_tables_are_canonical(name):
    X = example(name)
    T = to_1tca(X, certify=False)
    tables = courant_tables(X) + [T.p0_01, T.p0_10, T.p0_11, T.p1_11, T.partial]
    for t in tables:
        assert_vectors_canonical(table_vectors(t))


@pytest.mark.parametrize("name", ROUNDTRIP_EXAMPLES)
def test_view_tables_are_canonical(name):
    V = assemble_view(CourantQuotient(example(name), 3), 3)
    tables = [V.unit, *V.d, *V.mult.values(), *V.prod.values()]
    for t in tables:
        assert_vectors_canonical(table_vectors(t))


@pytest.mark.parametrize("name", ["heisenberg", "quadratic_lie(sl2)", "exact(2)", "exact(3)"])
def test_reduced_normal_forms_and_relations_are_canonical(name):
    # the corpus mixes coefficients with denominators 1 and 2
    q = CourantQuotient(example(name), 3)
    corpus = random_corpus(q, 120, seed=7)
    with q.memoized():
        memoized = [q.reduce(u, s) for u in corpus for s in ("leftmost", "rightmost")]
    for u in corpus + memoized + [q.reduce(u) for u in corpus]:
        assert_element_canonical(u)
    for ech in q._relations.values():
        for row in ech.rows.values():
            assert all(canonical(c) for c in row.values())


@pytest.mark.parametrize("name", ["heisenberg", "quadratic_lie(sl2)", "exact(2)"])
def test_vertex_lie_series_oracle_is_canonical(name):
    # the oracle scales by 1/j!, the closed forms by integral factorial quotients
    L = VertexLie(to_1tca(example(name)), 3)
    gens = [("a", v) for v in L.A.basis_vectors()]
    gens += [("b", n, v) for n in range(2) for v in L.B.basis_vectors()]
    for u in gens:
        for v in gens:
            for i in range(4):
                w = L.sing_oracle(i, u, v)
                assert_element_canonical(w)


scalars = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)]) | st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


@given(st.lists(st.dictionaries(st.integers(0, 4), scalars, max_size=4), max_size=6))
def test_echelon_rows_are_canonical(rows):
    ech = Echelon()
    for r in rows:
        ech.insert(r)
        for row in ech.rows.values():
            assert all(canonical(c) for c in row.values())
    got = ech.eliminate({k: Fraction(3, 2) for k in range(5)})
    assert all(canonical(c) for c in got.values())


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_solve_linear_solution_is_canonical(n_rows, n_cols, data):
    rows = data.draw(st.lists(st.lists(scalars, min_size=n_cols, max_size=n_cols),
                              min_size=n_rows, max_size=n_rows))
    rhs = data.draw(st.lists(scalars, min_size=n_rows, max_size=n_rows))
    sol = solve_linear(rows, rhs)
    if sol is not None:
        assert all(canonical(x) or x == 0 for x in sol)
        assert all(type(x) is int for x in sol if x == 0)
