"""The shared laws (hs, hp, dcomm, ha, grading) as both checkers report
them: pinned per-axiom violation counts on table mutants, reports that do
not depend on how generators are labelled, and one grading.d violation
per bad D."""

import os
from collections import Counter
from fractions import Fraction

import pytest

from courant_vpa.courant import to_1tca
from courant_vpa.examples import example
from courant_vpa.fileformat import parse, print_file, tca_to_file
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


def mutant_reports():
    out = []
    for name in ("heisenberg", "exact(2)"):
        T = to_1tca(example(name))
        for label, parts in table_mutants(T):
            inst = VertexLie(OneTruncatedConformalAlgebra(C0=T.C0, C1=T.C1, **parts), 2)
            counts = Counter()
            for rep in (check_vertex_lie(inst), check_vpa(SymAlgebra(inst))):
                counts.update("%s:%s" % (v.module, v.axiom) for v in rep.violations)
            out.append([name, label] + ["%s=%d" % kv for kv in sorted(counts.items())])
    return out


def _pinned():
    path = os.path.join(os.path.dirname(__file__), "data", "vertex_mutant_reports.txt")
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if not line.startswith("#")]


def test_mutant_reports_are_pinned():
    pinned = _pinned()
    assert len(pinned) == 5 + 36
    assert mutant_reports() == pinned


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
