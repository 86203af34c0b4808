import hashlib
import os
from fractions import Fraction
from importlib import resources

import pytest

from courant_vpa.courant import StructureError, check_courant
from courant_vpa.examples import example, example_names
from courant_vpa.fileformat import parse, print_file, view_to_file
from courant_vpa.graded import (
    GradedVpaView,
    _top,
    assemble_view,
    extract_courant,
)
from courant_vpa.linalg import BilinearMap, Vector
from courant_vpa.quotient import CourantQuotient
from courant_vpa.vpa import SCElement, format_monomial


def view_for(name, cutoff=2):
    return assemble_view(CourantQuotient(example(name), cutoff))


@pytest.mark.parametrize("name", ["trivial(2)", "heisenberg", "quadratic_lie(sl2)", "exact(2)"])
def test_extracted_algebroid_reproduces_input(name):
    X = example(name)
    V = view_for(name)
    Y = extract_courant(V)
    assert Y.A.mult == X.A.mult
    assert Y.A.unit == X.A.unit
    assert Y.action == X.action
    assert Y.bracket == X.bracket
    assert Y.anchor == X.anchor
    assert Y.pairing == X.pairing
    assert Y.partial == X.partial
    assert check_courant(Y).passed


def test_view_grading_shapes_validated():
    V = view_for("heisenberg")
    # drop a required product table
    with pytest.raises(StructureError):
        GradedVpaView(
            spaces=V.spaces, unit=V.unit, d=V.d, mult=V.mult,
            prod={k: v for k, v in V.prod.items() if k != (1, 1, 1)},
        )


def test_unit_failure_is_named():
    # a wrong unit is a shape-valid view: it extracts, and the Courant
    # checker names the violation
    V = view_for("heisenberg")
    bad_unit = V.unit.scale(2)
    broken = GradedVpaView(spaces=V.spaces, unit=bad_unit, d=V.d, mult=V.mult, prod=V.prod)
    rep = check_courant(extract_courant(broken))
    unit = [v for v in rep.violations if v.axiom == "A.unit"]
    assert [(v.tuple, v.lhs, v.rhs) for v in unit] == [(("a=e",), "2*e", "e")]


def test_injected_derivation_law_violation_extracts_but_fails_courant():
    # bump the module action x.xD by +xD: the derivation law linking the
    # commutative product to the 0-products breaks, extraction still
    # succeeds, and the Courant checker pins it on c1/c2
    V = view_for("exact(2)")
    act = V.mult[(0, 1)]
    rows = [list(r) for r in act.table]
    i = V.spaces[0].index("x")
    j = V.spaces[1].index("xD")
    rows[i][j] = rows[i][j] + Vector(V.spaces[1], {j: Fraction(1)})
    broken = GradedVpaView(
        spaces=V.spaces, unit=V.unit, d=V.d,
        mult={**V.mult, (0, 1): BilinearMap(act.left, act.right, act.codomain, rows)},
        prod=V.prod,
    )
    Y = extract_courant(broken)  # extraction succeeds
    rep = check_courant(Y)
    assert not rep.passed
    assert rep.axioms() & {"c1", "c2"}


def test_view_dimensions_follow_quotient_bases():
    q = CourantQuotient(example("exact(2)"), 3)
    V = assemble_view(q)
    assert V.spaces[0].dim == 2 and V.spaces[1].dim == 2
    assert V.spaces[2].dim == len(q.basis_monomials(2))
    assert V.spaces[3].dim == len(q.basis_monomials(3))
    # degree-3 basis is smaller than the raw monomial count: relations bite
    assert len(q.basis_monomials(3)) == len(q._pure_b_monomials(3)) - q.relation_dim(3)


def test_mult_tables_are_flip_consistent():
    V = view_for("exact(2)")
    m01, m10 = V.mult[(0, 1)], V.mult[(1, 0)]
    for i in range(m01.left.dim):
        for j in range(m01.right.dim):
            assert m01.table[i][j] == m10.table[j][i]


@pytest.mark.parametrize(
    "name,cutoff",
    [(name, cutoff) for name in example_names() for cutoff in (2, 3)] + [("quadratic_lie(sl2)", 4)],
)
def test_grading_skip_drops_only_zero_products(name, cutoff):
    # every product entry assemble_view leaves out by grading reduces to 0
    # when the symmetric algebra computes it in full
    q = CourantQuotient(example(name), cutoff)
    elems = basis_forms(q, cutoff)
    skipped = 0
    with q.memoized():
        for p, us in enumerate(elems):
            for qd, vs in enumerate(elems):
                for n in range(max(0, p + qd - 1 - cutoff), p + qd):
                    for u in us:
                        for v in vs:
                            if n >= _top(u) + _top(v):
                                skipped += 1
                                assert q.reduce(q.sym.product(n, u, v)).is_zero(), (n, u, v)
    assert skipped > 0


def basis_forms(q, cutoff):
    """The normal forms of each degree's basis, degrees 0..cutoff."""
    return [
        [q.vlie.from_a(v) for v in q.X.A.space.basis_vectors()],
        [q.vlie.from_b(v) for v in q.X.B.basis_vectors()],
    ] + [[q.reduce(SCElement({m: Fraction(1)})) for m in q.basis_monomials(p)] for p in range(2, cutoff + 1)]


def symbolic_prod(q, V):
    """The reference for ``V.prod``: every entry computed in the symmetric
    algebra on the basis normal forms and reduced, skipping only the
    entries that are zero by grading, in the view's key order."""
    sym = q.sym
    elems = basis_forms(q, V.cutoff)

    def expand(w, degree):
        u = q.reduce(w)
        if degree == 0:
            return q.to_a_vector(u)
        if degree == 1:
            return q.to_b_vector(u)
        space = V.spaces[degree]
        return Vector(space, {space.index(format_monomial(sym, m)): c for m, c in u.terms.items()})

    prod = {}
    with q.memoized():
        for p in range(V.cutoff + 1):
            for qd in range(V.cutoff + 1):
                for n in range(max(0, p + qd - 1 - V.cutoff), p + qd):
                    target = p + qd - n - 1
                    zero = V.spaces[target].zero()
                    rows = [
                        [zero if n >= _top(u) + _top(v) else expand(sym.product(n, u, v), target) for v in elems[qd]]
                        for u in elems[p]
                    ]
                    prod[(n, p, qd)] = BilinearMap(V.spaces[p], V.spaces[qd], V.spaces[target], rows)
    return prod


@pytest.mark.parametrize(
    "name,cutoff",
    [(name, cutoff) for name in example_names() for cutoff in (2, 3)]
    + [(name, 4) for name in ("quadratic_lie(sl2)", "exact(2)", "heisenberg", "trivial(3)")],
)
def test_law_derived_products_match_symbolic(name, cutoff):
    # the n-th products assemble_view derives by hd, dcomm and hs agree key
    # for key and entry for entry with the symmetric algebra's
    q = CourantQuotient(example(name), cutoff)
    V = assemble_view(q)
    want = symbolic_prod(q, V)
    assert list(V.prod) == list(want)
    for key, table in want.items():
        got = V.prod[key].table
        for i, row in enumerate(table.table):
            for j, entry in enumerate(row):
                assert got[i][j] == entry, (key, V.spaces[key[1]].basis[i], V.spaces[key[2]].basis[j])


def test_view_entry_counts_are_pinned():
    # sl2 at degree 4: 24 entries from the symmetric algebra, the rest by
    # the laws or zero by grading
    q = CourantQuotient(example("quadratic_lie(sl2)"), 4)
    assemble_view(q)
    stats = q.stats()
    got = (stats["view_entries_sym"], stats["view_entries_laws"], stats["view_entries_zero"])
    assert got == (24, 12_996, 23_339)
    assert sum(got) == 36_359


@pytest.mark.parametrize("name", ["quadratic_lie(sl2)", "exact(2)"])
def test_zero_entries_are_one_vector_per_degree(name):
    # every zero entry of d, mult and prod is the one zero Vector of its
    # degree: a Vector of its own per zero entry raised the maxrss of
    # exact(4) at degree 6 from 107 to 141 MB
    V = assemble_view(CourantQuotient(example(name), 4))
    tables = [(r + 1, [m.columns]) for r, m in enumerate(V.d)]
    tables += [(p + qd, m.table) for (p, qd), m in V.mult.items()]
    tables += [(p + qd - n - 1, m.table) for (n, p, qd), m in V.prod.items()]
    zeros = [set() for _ in V.spaces]
    for degree, rows in tables:
        zeros[degree].update(id(v) for row in rows for v in row if v.is_zero())
    assert [len(ids) for ids in zeros] == [1] * len(V.spaces)


def _pinned_views():
    path = os.path.join(os.path.dirname(__file__), "data", "view_hashes.txt")
    with open(path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    return [(kind, name, int(degree), digest) for kind, name, degree, digest in rows]


@pytest.mark.parametrize("kind,name,degree,digest", _pinned_views())
def test_printed_view_is_pinned(kind, name, degree, digest):
    # the printed view, as `courant-vpa build --max-degree <degree>` writes it
    if kind == "fixture":
        path = resources.files("courant_vpa") / "fixtures" / (name + ".cvpa")
        X = parse(path.read_text(encoding="utf-8")).courant()
    else:
        X = example(name)
    V = assemble_view(CourantQuotient(X, degree))
    text = print_file(view_to_file(V, meta={"cutoff": str(V.cutoff)}))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
