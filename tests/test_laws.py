"""The shared laws (hs, hp, dcomm, ha) as both checkers report them:
pinned per-axiom violation counts and violation text on table mutants,
the wider tuple sets of earlier checkers as oracles for the lemmas of the
laws docstring, reports that do not depend on how elements are labelled,
and pinned product call counts of check_vpa."""

import functools
import hashlib
import os
import re
from collections import Counter
from fractions import Fraction

import pytest

from courant_vpa import laws
from courant_vpa.courant import to_1tca
from courant_vpa.examples import example
from courant_vpa.fileformat import courant_to_file, parse, print_file, tca_to_file
from courant_vpa.linalg import BilinearMap, LinearMap, Vector
from courant_vpa.tca import OneTruncatedConformalAlgebra
from courant_vpa.vlie import VertexLie, check_vertex_lie, factor_degree, format_element, format_monomial
from courant_vpa.vpa import SCElement, SymAlgebra, check_vpa, mono_degree

from test_vpa import broken_heisenberg

TABLES = ("partial", "p0_10", "p0_01", "p0_11", "p1_11")


def _bump(v, k, delta):
    return v + Vector(v.space, {k: Fraction(delta)})


def table_mutants(T, delta=1):
    """Every single-entry mutant by ``delta`` of the five tables of a
    1-truncated conformal algebra, labelled table[i,j,k] (partial[i,k])."""
    parts = {t: getattr(T, t) for t in TABLES}
    for t in TABLES:
        m = parts[t]
        if isinstance(m, LinearMap):
            for i in range(m.domain.dim):
                for k in range(m.codomain.dim):
                    cols = list(m.columns)
                    cols[i] = _bump(cols[i], k, delta)
                    yield "%s[%d,%d]" % (t, i, k), dict(parts, **{t: LinearMap(m.domain, m.codomain, cols)})
            continue
        for i in range(m.left.dim):
            for j in range(m.right.dim):
                for k in range(m.codomain.dim):
                    rows = [list(r) for r in m.table]
                    rows[i][j] = _bump(rows[i][j], k, delta)
                    bad = BilinearMap(m.left, m.right, m.codomain, rows)
                    yield "%s[%d,%d,%d]" % (t, i, j, k), dict(parts, **{t: bad})


@functools.lru_cache(maxsize=None)
def mutant_sweep():
    """check_vertex_lie and check_vpa at cutoff 2 on every +1 and -1/2
    single-entry mutant of to_1tca(heisenberg) and to_1tca(exact(2)), as
    ``(instance, delta, mutant, counts, digest)``: the per-(module:axiom)
    violation counts and a 12-hex sha256 of the violation lines, vertex
    Lie report first.  Cached, so the two pins share one sweep."""
    out = []
    for delta in ("1", "-1/2"):
        for name in ("heisenberg", "exact(2)"):
            T = to_1tca(example(name))
            for label, parts in table_mutants(T, Fraction(delta)):
                inst = VertexLie(OneTruncatedConformalAlgebra(C0=T.C0, C1=T.C1, **parts), 2)
                vs = check_vertex_lie(inst).violations + check_vpa(SymAlgebra(inst)).violations
                counts = Counter("%s:%s" % (v.module, v.axiom) for v in vs)
                text = "".join(str(v) + "\n" for v in vs)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
                out.append((name, delta, label, counts, digest))
    return out


def mutant_reports():
    return [
        [name, label] + ["%s=%d" % kv for kv in sorted(counts.items())]
        for name, delta, label, counts, _ in mutant_sweep()
        if delta == "1"
    ]


def mutant_hashes():
    return [[name, delta, label, digest] for name, delta, label, _, digest in mutant_sweep()]


def _pinned(filename):
    path = os.path.join(os.path.dirname(__file__), "data", filename)
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if not line.startswith("#")]


def test_mutant_reports_are_pinned():
    pinned = _pinned("vertex_mutant_reports.txt")
    assert len(pinned) == 5 + 36
    assert mutant_reports() == pinned


def test_mutant_violation_text_is_pinned():
    # the lines themselves, tuples and both sides, not only their counts
    pinned = _pinned("vertex_mutant_hashes.txt")
    assert len(pinned) == 2 * (5 + 36)
    assert mutant_hashes() == pinned


def test_composite_thirds_fail_ha_only_where_generators_do():
    # The full set of thirds as an oracle for the lemma of the laws
    # docstring: on every mutant of the pinned sweep, each (u, v, m, n)
    # that fails ha with a spanning composite third of two factors also
    # fails with a generator third; 1,807 such (u, v, m, n) over the 82
    # mutants.  This held as well when check_vpa mixed a sample of
    # composite thirds into its own.
    top = 2
    failing = lambda vs: {v.tuple[:2] + v.tuple[3:] for v in vs}
    composite_fails = 0
    for delta in ("1", "-1/2"):
        for name in ("heisenberg", "exact(2)"):
            T = to_1tca(example(name))
            for _, parts in table_mutants(T, Fraction(delta)):
                sym = SymAlgebra(VertexLie(OneTruncatedConformalAlgebra(C0=T.C0, C1=T.C1, **parts), top))
                gens = [(l, sym.monomial([f]), factor_degree(f)) for l, f in sym.generators(top)]
                composites = [
                    (format_monomial(sym, m), SCElement({m: 1}), mono_degree(m))
                    for m in sym.spanning_monomials(top, 2)
                    if len(m) == 2
                ]
                uv = [(x, y) for x in gens for y in gens if x[2] + y[2] <= top + 1]
                fmt = lambda u: format_element(sym, u)
                by_gens = laws.check_ha(sym, "vpa", fmt, top, [(x, y, gens) for x, y in uv])
                by_composites = laws.check_ha(sym, "vpa", fmt, top, [(x, y, composites) for x, y in uv])
                assert failing(by_composites) <= failing(by_gens)
                composite_fails += len(failing(by_composites))
    assert composite_fails == 1_807


def test_composite_second_arguments_fail_only_where_generators_do():
    # The pair set check_vpa used before it took generator second arguments,
    # spanning monomials of at most two factors on both sides, as an oracle
    # for the lemma of the laws docstring.  On every mutant of the pinned
    # sweep: (a) each hp or dcomm line at a composite v has a line of the
    # same law at (u, f, n) for a factor f of v; (b) no hs line has exactly
    # one composite argument; (c) each hs line at two composites has an hs
    # line at a pair of their factors.  8,258 lines over the 82 mutants
    # have a composite second argument.  This passes as well on the code in
    # which check_vpa itself checked this pair set.
    top = 2
    composite_lines = 0
    for delta in ("1", "-1/2"):
        for name in ("heisenberg", "exact(2)"):
            T = to_1tca(example(name))
            for _, parts in table_mutants(T, Fraction(delta)):
                sym = SymAlgebra(VertexLie(OneTruncatedConformalAlgebra(C0=T.C0, C1=T.C1, **parts), top))
                span = sym.spanning_monomials(top, 2)
                factors = {format_monomial(sym, m): [format_monomial(sym, (f,)) for f in m] for m in span}
                elems = [(format_monomial(sym, m), SCElement({m: 1}), mono_degree(m)) for m in span]
                pairs = [(x, y) for x in elems for y in elems if x[2] + y[2] <= top + 1]
                fmt = lambda u: format_element(sym, u)
                vs = laws.check_pair_laws(sym, "vpa", fmt, top, pairs)
                lines = {(v.axiom,) + v.tuple for v in vs}
                hs_pairs = {(lu, lv) for axiom, lu, lv, _ in lines if axiom == "hs"}
                for axiom, lu, lv, n in lines:
                    cu, cv = (len(factors[l]) > 1 for l in (lu, lv))
                    if axiom == "hs":
                        assert cu == cv, (lu, lv, n)
                    if not cv:
                        continue
                    composite_lines += 1
                    if axiom == "hs":
                        assert any((f, g) in hs_pairs for f in factors[lu] for g in factors[lv]), (lu, lv, n)
                    else:
                        assert any((axiom, lu, f, n) in lines for f in factors[lv]), (axiom, lu, lv, n)
    assert composite_lines == 8_258


def test_composite_first_arguments_fail_only_where_generators_do():
    # The pair set check_vpa used before it took generator first arguments,
    # spanning monomials of at most two factors against generators (and the
    # generator pairs with p + q > top + 1), evaluated on the symmetric
    # algebra, as an oracle for the first-slot lemma of the laws docstring.
    # On every mutant of the pinned sweep: (a) it gives check_vpa's
    # verdict; (b) no hs line has a first argument that is not a
    # generator; (c) each hp (dcomm) line at such a (u, g, n) has a dcomm
    # (hp) line of check_vpa at (g, f) for a factor f of u.  1,238 lines
    # over the 82 mutants have a composite first argument.
    top = 2
    partner = {"hp": "dcomm", "dcomm": "hp"}
    composite_lines = 0
    for delta in ("1", "-1/2"):
        for name in ("heisenberg", "exact(2)"):
            T = to_1tca(example(name))
            for _, parts in table_mutants(T, Fraction(delta)):
                sym = SymAlgebra(VertexLie(OneTruncatedConformalAlgebra(C0=T.C0, C1=T.C1, **parts), top))
                span = sym.spanning_monomials(top, 2)
                factors = {format_monomial(sym, m): [format_monomial(sym, (f,)) for f in m] for m in span}
                firsts = [(format_monomial(sym, m), SCElement({m: 1}), mono_degree(m)) for m in span]
                gens = [x for x in firsts if len(factors[x[0]]) == 1]
                pairs = [(x, g) for x in firsts for g in gens if x[2] + g[2] <= top + 1]
                pairs += [(x, y) for x in gens for y in gens if x[2] + y[2] > top + 1]
                triples = [(x, y, gens) for x in gens for y in gens if x[2] + y[2] <= top + 1]
                fmt = lambda u: format_element(sym, u)
                reference = laws.check_pair_laws(sym, "vpa", fmt, top, pairs) + laws.check_ha(
                    sym, "vpa", fmt, top, triples
                )
                rep = check_vpa(sym)
                assert rep.passed == (not reference)
                checked = {(v.axiom,) + v.tuple[:2] for v in rep.violations}
                for v in reference:
                    lu, lv = v.tuple[:2]
                    if v.axiom == "ha" or len(factors[lu]) == 1:
                        continue
                    assert v.axiom != "hs", v
                    composite_lines += 1
                    assert any((partner[v.axiom], lv, f) in checked for f in factors[lu]), v
    assert composite_lines == 1_238


def relabelled_broken_heisenberg(label):
    """The broken Heisenberg pair read back from a file in which the
    generator ``beta`` is called ``label``."""
    text = print_file(tca_to_file(broken_heisenberg())).replace("beta", label)
    T = parse(text).tca()
    assert T.C1.basis == (label,)
    return T


# ids leave the pinned figures out, so a re-pin keeps each test's name
@pytest.mark.parametrize("cutoff,count", [pytest.param(2, 27, id="2"), pytest.param(3, 114, id="3")])
def test_dotted_labels_leave_vpa_report_unchanged(cutoff, count):
    # '.' is legal inside a label, so a generator D0[b.x] must not be
    # taken for a product of two factors
    rep = check_vpa(SymAlgebra(VertexLie(relabelled_broken_heisenberg("b.x"), cutoff)))
    assert len(rep.violations) == count


@pytest.mark.parametrize("label,count", [("zz", 0), ("x.x", 0)])
def test_product_like_a_label_leaves_vpa_report_unchanged(label, count):
    # an A label that prints like the product x.x must not be taken for
    # that product: exact(3) with its x2 renamed passes either way
    text = print_file(courant_to_file(example("exact(3)")))
    X = parse(re.sub(r"\bx2\b", label, text)).courant()
    assert X.A.space.basis == ("e", "x", label)
    rep = check_vpa(SymAlgebra(VertexLie(to_1tca(X), 2)))
    assert len(rep.violations) == count


class Counting:
    """A VertexLie that counts the ``product`` calls a checker makes of it."""

    def __init__(self, inst):
        self.inst = inst
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inst, name)

    def product(self, *args):
        self.calls += 1
        return self.inst.product(*args)


# Before the hd and ha loops reused their products, heisenberg/3 made
# 6,416 product and 4,803 multiply calls, and quadratic_lie(sl2)/2 made
# 18,204 and 8,757.  Before check_vpa left unit and hd to the lemma of
# the vpa docstring, they made 3,902 and 11,616 product calls, and before
# ha took generator thirds only, 2,592 and 8,894; before the pair laws
# took generator second arguments only, 1,844 and 6,763; and before they
# took generator first arguments on the vertex Lie part, 987 and 4,513
# SymAlgebra.product calls.  check_vpa now calls VertexLie.product only.
@pytest.mark.parametrize(
    "name,cutoff,product",
    [
        pytest.param("heisenberg", 3, 684, id="heisenberg-3"),
        pytest.param("quadratic_lie(sl2)", 2, 3703, id="quadratic_lie(sl2)-2"),
    ],
)
def test_vpa_product_counts_are_pinned(name, cutoff, product, monkeypatch):
    sym = SymAlgebra(Counting(VertexLie(to_1tca(example(name)), cutoff)))
    for op in ("product", "multiply", "d"):  # none is called: all is on the vertex Lie part
        monkeypatch.setattr(sym, op, None)
    assert check_vpa(sym).passed
    assert sym.vlie.calls == product
