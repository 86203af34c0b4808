from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from courant_vpa.linalg import (
    BasedSpace,
    BilinearMap,
    LinearMap,
    SpaceMismatch,
    Vector,
    bilin_apply,
    map_apply,
    rank,
    scalar_from_str,
    scalar_to_str,
    solve_linear,
    vec_combine,
)

V3 = BasedSpace("V", ["a", "b", "c"])


def vec(**coeffs):
    return V3.vector(coeffs)


scalars = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(scalars)
def test_scalar_print_parse_roundtrip(q):
    assert scalar_from_str(scalar_to_str(q)) == q


def test_scalar_zero_denominator_rejected():
    with pytest.raises(ValueError):
        scalar_from_str("1/0")


def test_vector_canonical_form_drops_zeros():
    v = Vector(V3, {0: Fraction(0), 2: Fraction(3)})
    assert v.items == ((2, Fraction(3)),)
    assert v == vec(c=3)


def test_vec_combine_identity_and_cancellation():
    v = vec(a=1, b=2)
    assert vec_combine([(1, v)]) == v
    assert vec_combine([(1, v), (-1, v)]).is_zero()


def test_vec_combine_rational_addition():
    e1 = V3.unit_vector("a")
    got = vec_combine([(Fraction(1, 2), e1), (Fraction(1, 3), e1)])
    assert got == V3.vector({"a": Fraction(5, 6)})


def test_vec_combine_space_mismatch():
    other = BasedSpace("W", ["x"])
    with pytest.raises(SpaceMismatch):
        vec_combine([(1, vec(a=1)), (1, other.unit_vector("x"))])


def test_map_apply_zero_identity_and_linearity():
    zero = LinearMap.zero(V3, V3)
    ident = LinearMap.identity(V3)
    v = vec(a=3, c=-2)
    assert map_apply(zero, v).is_zero()
    assert map_apply(ident, v) == v


def test_map_apply_truncated_derivative():
    # d on Q[x]/(x^2): e -> 0, x -> dx
    A = BasedSpace("A", ["e", "x"])
    W = BasedSpace("W", ["dx"])
    d = LinearMap.from_entries(A, W, {"x": {"dx": 1}})
    assert map_apply(d, A.vector({"x": 3})) == W.vector({"dx": 3})
    assert map_apply(d, A.unit_vector("e")).is_zero()


def test_bilin_apply_zero_and_nilpotent_square():
    A = BasedSpace("A", ["e", "x"])
    mult = BilinearMap.from_entries(
        A, A, A, {("e", "e"): {"e": 1}, ("e", "x"): {"x": 1}, ("x", "e"): {"x": 1}}
    )
    x = A.unit_vector("x")
    assert bilin_apply(mult, x, x).is_zero()
    assert bilin_apply(mult, A.zero(), x).is_zero()


def test_bilin_apply_killing_form_value():
    # sl2 Killing form, recomputed by brute force from ad matrices below
    # in test_examples; here the frozen value <E+F, E+F> = 8.
    B = BasedSpace("B", ["E", "F", "H"])
    A = BasedSpace("A", ["e"])
    killing = BilinearMap.from_entries(
        B, B, A, {("E", "F"): {"e": 4}, ("F", "E"): {"e": 4}, ("H", "H"): {"e": 8}}
    )
    ef = B.vector({"E": 1, "F": 1})
    assert bilin_apply(killing, ef, ef) == A.vector({"e": 8})


small_vec = st.builds(
    lambda a, b, c: V3.vector({"a": a, "b": b, "c": c}),
    scalars,
    scalars,
    scalars,
)


@given(small_vec, small_vec, small_vec, scalars)
def test_bilin_apply_is_bilinear(u, u2, v, alpha):
    b = BilinearMap.from_entries(
        V3,
        V3,
        V3,
        {("a", "b"): {"c": 2}, ("b", "c"): {"a": Fraction(1, 3)}, ("c", "c"): {"b": -1}},
    )
    left = bilin_apply(b, u.scale(alpha) + u2, v)
    right = bilin_apply(b, u, v).scale(alpha) + bilin_apply(b, u2, v)
    assert left == right


def test_symmetry_flag_is_validated():
    with pytest.raises(ValueError):
        BilinearMap.from_entries(V3, V3, V3, {("a", "b"): {"c": 1}}, symmetric=True)


def test_rank_exact():
    vs = [vec(a=1, b=2), vec(a=2, b=4), vec(b=1, c=1), vec(a=1, b=1, c=1)]
    assert rank(vs) == 3
    assert rank([V3.zero()]) == 0


def test_solve_linear():
    rows = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]]
    sol = solve_linear(rows, [Fraction(4), Fraction(5)])
    assert sol == [Fraction(2), Fraction(3)]
    assert solve_linear([[Fraction(0)]], [Fraction(1)]) is None


def test_vector_range_checks_zero_coefficients():
    for coeffs in ({99: 0}, {-1: 0}, {3: Fraction(0)}, {3: 1}):
        with pytest.raises(IndexError):
            Vector(V3, coeffs)


def test_sub_mismatch_names_subtraction():
    other = BasedSpace("W", ["x"])
    with pytest.raises(SpaceMismatch, match="subtract"):
        vec(a=1) - other.unit_vector("x")


# -- the kernel against a dense Fraction reference ----------------------------
#
# Distinct left, right and codomain spaces catch index mix-ups.  Small
# coefficients from a short list make cancellation to zero common, and
# tables are mostly zero.

L2 = BasedSpace("L", ["p", "q"])
R3 = BasedSpace("R", ["r", "s", "t"])
W3 = BasedSpace("W", ["x", "y", "z"])

kernel_scalars = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
) | scalars


def vectors(space):
    general = st.dictionaries(st.integers(0, space.dim - 1), kernel_scalars, max_size=space.dim)
    one_term = st.builds(lambda i, c: {i: c}, st.integers(0, space.dim - 1), kernel_scalars)
    return st.one_of(general, one_term).map(lambda coeffs: Vector(space, coeffs))


def entries(codomain, count):
    """``count`` table entries, about half of them zero."""
    entry = st.one_of(st.just(codomain.zero()), vectors(codomain))
    return st.lists(entry, min_size=count, max_size=count)


def dense(v):
    return [v[i] for i in range(v.space.dim)]


def assert_canonical(v, want):
    """v is sorted, zero-free, all-Fraction, and equals the dense list."""
    idx = [i for i, _ in v.items]
    assert idx == sorted(set(idx))
    assert all(type(c) is Fraction and c != 0 for _, c in v.items)
    assert v.items == tuple((i, c) for i, c in enumerate(want) if c != 0)


@given(st.lists(entries(W3, R3.dim), min_size=L2.dim, max_size=L2.dim), vectors(L2), vectors(R3))
def test_bilin_apply_matches_dense_reference(rows, u, v):
    b = BilinearMap(L2, R3, W3, rows)
    want = [
        sum(
            (u[i] * v[j] * rows[i][j][k] for i in range(L2.dim) for j in range(R3.dim)),
            Fraction(0),
        )
        for k in range(W3.dim)
    ]
    assert_canonical(bilin_apply(b, u, v), want)


@given(entries(W3, L2.dim), vectors(L2))
def test_map_apply_matches_dense_reference(columns, v):
    m = LinearMap(L2, W3, columns)
    want = [sum((v[i] * m.columns[i][k] for i in range(L2.dim)), Fraction(0)) for k in range(W3.dim)]
    assert_canonical(map_apply(m, v), want)


@given(vectors(W3), vectors(W3), kernel_scalars)
def test_add_sub_scale_match_dense_reference(u, v, f):
    du, dv = dense(u), dense(v)
    assert_canonical(u + v, [a + b for a, b in zip(du, dv)])
    assert_canonical(u - v, [a - b for a, b in zip(du, dv)])
    assert_canonical(u.scale(f), [a * f for a in du])
    assert_canonical(-u, [-a for a in du])
    assert (u - u).is_zero() and (u + (-u)).is_zero()


@given(st.lists(st.tuples(kernel_scalars, vectors(W3)), min_size=1, max_size=4))
def test_vec_combine_matches_dense_reference(terms):
    want = [sum((c * v[k] for c, v in terms), Fraction(0)) for k in range(W3.dim)]
    assert_canonical(vec_combine(terms), want)


def test_bilin_apply_cancels_to_zero():
    # <p + q, r + s> with table(p, r) = x and table(q, s) = -x
    b = BilinearMap.from_entries(L2, R3, W3, {("p", "r"): {"x": 1}, ("q", "s"): {"x": -1}})
    got = bilin_apply(b, L2.vector({"p": 1, "q": 1}), R3.vector({"r": 1, "s": 1}))
    assert got.is_zero() and got.items == ()


def test_space_mismatch_for_same_dimension_space():
    other = BasedSpace("W'", ["x", "y", "z"])
    b = BilinearMap.zero(W3, W3, W3)
    m = LinearMap.identity(W3)
    w = other.unit_vector("x")
    e = W3.unit_vector("x")
    for call in (
        lambda: bilin_apply(b, w, e),
        lambda: bilin_apply(b, e, w),
        lambda: map_apply(m, w),
        lambda: e + w,
        lambda: e - w,
    ):
        with pytest.raises(SpaceMismatch):
            call()


def test_value_equal_space_is_accepted():
    copy = BasedSpace("W", ["x", "y", "z"])
    assert copy is not W3 and copy == W3
    b = BilinearMap.from_entries(W3, W3, W3, {("x", "y"): {"z": 3}})
    m = LinearMap.from_entries(W3, W3, {"x": {"y": 2}})
    x, y = copy.unit_vector("x"), copy.vector({"y": 1, "z": 1})
    assert bilin_apply(b, x, y) == W3.vector({"z": 3})
    assert map_apply(m, x) == W3.vector({"y": 2})
    assert x + W3.unit_vector("y") == W3.vector({"x": 1, "y": 1})
    assert x - W3.unit_vector("x") == W3.zero()


def test_returned_table_entries_stay_unchanged():
    entries = {("p", "r"): {"x": 1, "y": Fraction(1, 2)}}
    b = BilinearMap.from_entries(L2, R3, W3, entries)
    m = LinearMap.from_entries(L2, W3, {"p": {"z": 2}})
    got = bilin_apply(b, L2.unit_vector("p"), R3.unit_vector("r"))
    col = map_apply(m, L2.unit_vector("p"))
    got + W3.unit_vector("x")
    got - got
    got.scale(3)
    col + W3.unit_vector("z")
    -col
    assert b == BilinearMap.from_entries(L2, R3, W3, entries)
    assert b.table[0][0] == W3.vector({"x": 1, "y": Fraction(1, 2)})
    assert m == LinearMap.from_entries(L2, W3, {"p": {"z": 2}})
