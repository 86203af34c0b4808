"""The shared laws (hs, hp, dcomm, ha, grading) as both checkers report
them: pinned per-axiom violation counts and violation text on table
mutants, reports that do not depend on how elements are labelled, pinned
product call counts of check_vpa, and one grading.d violation per bad D."""

import functools
import hashlib
import os
import re
from collections import Counter
from fractions import Fraction

import pytest

from courant_vpa.courant import to_1tca
from courant_vpa.examples import example
from courant_vpa.fileformat import courant_to_file, parse, print_file, tca_to_file
from courant_vpa.linalg import BilinearMap, LinearMap, Vector
from courant_vpa.tca import OneTruncatedConformalAlgebra
from courant_vpa.vlie import VertexLie, check_vertex_lie
from courant_vpa.vpa import SymAlgebra, check_vpa

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


def relabelled_broken_heisenberg(label):
    """The broken Heisenberg pair read back from a file in which the
    generator ``beta`` is called ``label``."""
    text = print_file(tca_to_file(broken_heisenberg())).replace("beta", label)
    T = parse(text).tca()
    assert T.C1.basis == (label,)
    return T


@pytest.mark.parametrize("cutoff,count", [(2, 64), (3, 281)])
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
    """A SymAlgebra that counts the ``product`` and ``multiply`` calls a
    checker makes of it."""

    def __init__(self, sym):
        self.sym = sym
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.sym, name)

    def product(self, *args, **kwargs):
        self.calls["product"] += 1
        return self.sym.product(*args, **kwargs)

    def multiply(self, u, v):
        self.calls["multiply"] += 1
        return self.sym.multiply(u, v)


# Before the hd and ha loops reused their products, heisenberg/3 made
# 6,416 product and 4,803 multiply calls, and quadratic_lie(sl2)/2 made
# 18,204 and 8,757.  Before check_vpa left unit and hd to the lemma of
# the vpa docstring, they made 3,902 and 11,616 product calls.
@pytest.mark.parametrize(
    "name,cutoff,product,multiply", [("heisenberg", 3, 2592, 0), ("quadratic_lie(sl2)", 2, 8894, 0)]
)
def test_vpa_product_counts_are_pinned(name, cutoff, product, multiply):
    sym = Counting(SymAlgebra(VertexLie(to_1tca(example(name)), cutoff)))
    assert check_vpa(sym).passed
    assert sym.calls == Counter(product=product, multiply=multiply)


class BrokenD:
    """A VertexLie whose D of one element also returns the element itself,
    so that D u has degrees p and p + 1."""

    def __init__(self, inst, bad):
        self.inst = inst
        self.bad = bad

    def __getattr__(self, name):
        return getattr(self.inst, name)

    def d(self, u):
        du = self.inst.d(u)
        return du + u if u == self.bad else du


def test_bad_d_is_reported_once():
    inst = VertexLie(to_1tca(example("heisenberg")), 3)
    bad = inst.from_b(inst.B.unit_vector("beta"), 0)
    rep = check_vertex_lie(BrokenD(inst, bad))
    graded = [v for v in rep.violations if v.axiom == "grading.d"]
    assert [v.tuple for v in graded] == [("D0[beta]",)]
