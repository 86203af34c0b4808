from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from courant_vpa.linalg import (
    BasedSpace,
    BilinearMap,
    Echelon,
    LinearMap,
    SpaceMismatch,
    Vector,
    add_items,
    add_scaled,
    bilin_apply,
    comb_items,
    item_table,
    map_apply,
    rank,
    rational,
    scalar_from_str,
    neg_items,
    scalar_to_str,
    solve_linear,
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


def canonical(c):
    """A stored scalar: a non-zero int, or a Fraction that is not integral."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)


def assert_canonical(v, want):
    """v is sorted, zero-free, all canonical scalars, and equals the dense list."""
    assert_canonical_items(v.items, want)


def assert_canonical_items(items, want):
    idx = [i for i, _ in items]
    assert idx == sorted(set(idx))
    assert all(canonical(c) for _, c in items)
    assert items == tuple((i, c) for i, c in enumerate(want) if c != 0)


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


@given(st.lists(entries(W3, R3.dim), min_size=L2.dim, max_size=L2.dim), vectors(L2), vectors(R3))
def test_comb_items_on_a_row_or_column_is_bilin_apply(rows, u, v):
    # a basis vector in one argument leaves the linear map of its row or
    # column of item_table(b), which comb_items applies with the result
    # equal to bilin_apply's
    b = BilinearMap(L2, R3, W3, rows)
    table, columns = item_table(b)
    for i, p in enumerate(L2.basis_vectors()):
        assert comb_items(table[i], v.items) == bilin_apply(b, p, v).items
    for j, r in enumerate(R3.basis_vectors()):
        assert_canonical_items(comb_items(columns[j], u.items), dense(bilin_apply(b, u, r)))


@given(entries(W3, L2.dim), vectors(L2), vectors(W3))
def test_item_kernel_matches_dense_reference(rows, x, w):
    # comb_items on rows of item tuples, the loop every combination runs,
    # then the checkers' sum and negation on its result
    got = comb_items([r.items for r in rows], x.items)
    want = [sum((x[k] * rows[k][j] for k in range(L2.dim)), Fraction(0)) for j in range(W3.dim)]
    assert_canonical_items(got, want)
    assert_canonical_items(add_items(got, w.items), [a + b for a, b in zip(want, dense(w))])
    assert_canonical_items(neg_items(got), [-a for a in want])


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


sum_keys = st.sampled_from([0, 1, 2, (("a", 0),), (("b", 1, 0),)])


@example({0: 2}, [(0, 1)], -2)
@given(
    st.dictionaries(sum_keys, kernel_scalars, max_size=4),
    st.lists(st.tuples(sum_keys, kernel_scalars), max_size=6),
    st.just(1) | st.integers(-3, 3) | kernel_scalars,
)
def test_add_scaled_matches_dense_reference(acc, items, c):
    # acc += c * items on index or monomial keys, in place and returned;
    # a key that cancels stays, at 0
    support = dict.fromkeys([*acc, *(k for k, _ in items)])
    want = {k: acc.get(k, 0) + c * sum((w for j, w in items if j == k), Fraction(0)) for k in support}
    got = add_scaled(acc, items, c)
    assert got is acc
    assert got == want


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


# -- Echelon against a dense Fraction Gauss-Jordan ----------------------------
#
# gauss_jordan and dense_solve are the dense elimination that solve_linear
# used before it was built on Echelon, kept as the reference.


def gauss_jordan(m, n_cols):
    """Reduce the dense rows ``m`` in place; returns the pivot columns."""
    n_rows = len(m)
    piv_cols = []
    pr = 0
    for pc in range(n_cols):
        pivot = None
        for r in range(pr, n_rows):
            if m[r][pc] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        f = m[pr][pc]
        m[pr] = [x / f for x in m[pr]]
        for r in range(n_rows):
            if r != pr and m[r][pc] != 0:
                g = m[r][pc]
                m[r] = [x - g * y for x, y in zip(m[r], m[pr])]
        piv_cols.append(pc)
        pr += 1
        if pr == n_rows:
            break
    return piv_cols


def dense_solve(rows, rhs):
    m = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(rows, rhs)]
    n_cols = len(rows[0]) if rows else 0
    piv_cols = gauss_jordan(m, n_cols)
    for r in range(len(piv_cols), len(m)):
        if m[r][n_cols] != 0:
            return None
    sol = [Fraction(0)] * n_cols
    for r, pc in enumerate(piv_cols):
        sol[pc] = m[r][n_cols]
    return sol


KEYS = 6
sparse_rows = st.dictionaries(st.integers(0, KEYS - 1), kernel_scalars, max_size=4)


def dense_rank(rows):
    return len(gauss_jordan([[Fraction(r.get(k, 0)) for k in range(KEYS)] for r in rows], KEYS))


def echelon_of(rows):
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    return ech


@given(st.lists(sparse_rows, max_size=8))
def test_echelon_dim_is_dense_rank(rows):
    assert echelon_of(rows).dim == dense_rank(rows)


@given(st.lists(sparse_rows, max_size=8), st.randoms())
def test_echelon_rows_ignore_insertion_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert echelon_of(shuffled).rows == echelon_of(rows).rows


@given(st.lists(sparse_rows, max_size=8))
def test_echelon_rows_are_fully_reduced(rows):
    ech = echelon_of(rows)
    for lead, row in ech.rows.items():
        assert lead == max(row) and row[lead] == 1
        assert all(canonical(c) for c in row.values())
        assert not any(k in ech.rows for k in row if k != lead)


@given(st.lists(sparse_rows, max_size=6), sparse_rows, st.lists(kernel_scalars, max_size=6), st.booleans())
def test_echelon_eliminate_clears_leads(rows, extra, coefs, in_span):
    ech = echelon_of(rows)
    # a vector in the span of rows, or that plus a random one
    v = {} if in_span else dict(extra)
    for c, r in zip(coefs, rows):
        for k, w in r.items():
            v[k] = v.get(k, 0) + c * w
    got = ech.eliminate(v)
    assert not any(k in ech.rows for k in got)
    assert all(c != 0 for c in got.values())
    spanned = dense_rank(rows + [v]) == dense_rank(rows)
    assert (not got) == spanned
    # v - got lies in the span
    diff = {k: v.get(k, 0) - got.get(k, 0) for k in set(v) | set(got)}
    assert dense_rank(rows + [diff]) == dense_rank(rows)


class FullScanEchelon(Echelon):
    """Echelon with the clearing it had before its column index: ``insert``
    looks for the new lead in every stored row.  ``eliminate`` is the
    library's own, which never touches a stored row."""

    def insert(self, vec):
        vec = self.eliminate(vec)
        if not vec:
            return False
        lead = max(vec)
        c = vec[lead]
        row = vec if c == 1 else {k: rational(Fraction(w, c)) for k, w in vec.items()}
        for other in self.rows.values():
            c = other.get(lead)
            if c:
                self.cleared += 1
                for k, w in row.items():
                    nv = other.get(k, 0) - c * w
                    if nv:
                        other[k] = rational(nv)
                    else:
                        del other[k]
        self.rows[lead] = row
        return True


SCAN_KEYS = 10
scan_rows = st.dictionaries(st.integers(0, SCAN_KEYS - 1), kernel_scalars, max_size=5)


# the second insert clears its lead 2 from the first row: key 0 cancels
# there and key 1 fills in
@example([{4: 1, 2: 1, 0: 1}, {2: 1, 0: 1, 1: 1}])
@given(st.lists(scan_rows, max_size=12))
def test_echelon_index_matches_full_scan(rows):
    ech, ref = Echelon(), FullScanEchelon()
    for r in rows:
        assert ech.insert(r) == ref.insert(r)
        # the index lists exactly the stored rows that hold each non-lead key
        holders = {}
        for lead, row in ech.rows.items():
            for k in row:
                if k != lead:
                    holders.setdefault(k, []).append(lead)
        assert {k: sorted(v) for k, v in ech._index.items() if v} == {k: sorted(v) for k, v in holders.items()}
        # the same rows, each with its keys in the same order
        assert [(lead, list(row.items())) for lead, row in ech.rows.items()] == [
            (lead, list(row.items())) for lead, row in ref.rows.items()
        ]
        assert ech.cleared == ref.cleared


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_solve_linear_matches_dense_reference(n_rows, n_cols, data):
    rows = data.draw(st.lists(st.lists(kernel_scalars, min_size=n_cols, max_size=n_cols),
                              min_size=n_rows, max_size=n_rows))
    rhs = data.draw(st.lists(kernel_scalars, min_size=n_rows, max_size=n_rows))
    assert solve_linear(rows, rhs) == dense_solve(rows, rhs)


def test_solve_linear_singular_and_inconsistent():
    # x + 2y = 3 twice: y is free and set to 0
    assert solve_linear([[1, 2], [2, 4]], [3, 6]) == [3, 0]
    assert solve_linear([[1, 2], [2, 4]], [3, 7]) is None
    assert solve_linear([[0, 1]], [5]) == [0, 5]
    assert solve_linear([], []) == []
