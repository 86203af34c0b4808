"""The acceptance suite as a library: one callable per criterion.

Used by the command-line selftest and by the pytest acceptance module, so
both report identical results.  Every check is exact over the rationals;
there are no tolerances anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .courant import (
    CourantAlgebroid,
    UnitalCommAlgebra,
    check_annihilation,
    check_compat,
    check_courant,
    differing_tables,
    from_1tca,
    to_1tca,
)
from .examples import example
from .linalg import BilinearMap, LinearMap, Vector
from .quotient import (
    CourantQuotient,
    check_ideal_stability,
    check_quotient_dimensions,
    check_reduce_properties,
    roundtrip_check,
)
from .tca import check_all as check_tca_all
from .tca import check_leibniz_form
from .vlie import VertexLie, check_oracle_agreement, check_vertex_lie
from .vpa import SymAlgebra, check_vpa

AXIOM_EXAMPLES = ["trivial(1)", "trivial(2)", "trivial(3)", "quadratic_lie(sl2)", "exact(2)", "exact(3)"]
MUTATION_EXAMPLES = ["trivial(3)", "quadratic_lie(sl2)", "exact(2)", "exact(3)"]
BRIDGE_EXAMPLES = AXIOM_EXAMPLES + ["heisenberg"]
VLIE_EXAMPLES = [("trivial(2)", 4), ("heisenberg", 4), ("quadratic_lie(sl2)", 4), ("exact(2)", 4)]
VPA_EXAMPLES = [("trivial(2)", 4), ("heisenberg", 4), ("quadratic_lie(sl2)", 3), ("exact(2)", 3), ("exact(3)", 3)]
QUOTIENT_EXAMPLES = ["trivial(2)", "heisenberg", "quadratic_lie(sl2)", "exact(2)", "exact(3)"]
ROUNDTRIP_EXAMPLES = ["trivial(3)", "heisenberg", "quadratic_lie(sl2)", "exact(2)", "exact(3)"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "criterion %d [%s] %s (%.2f s): %s" % (
            self.number, status, self.name, self.seconds, self.detail,
        )


def _mutations(X, delta=1):
    """Every single-entry perturbation by ``delta`` of every structure
    table, the unit of A last, as ``(label, mutant)``; the label names the
    table and the entry's indices, as in ``bracket[0,1,2]``, ``partial[0,1]``
    or ``unit[0]``."""
    tables = {
        "mult": X.A.mult, "action": X.action, "bracket": X.bracket,
        "anchor": X.anchor, "pairing": X.pairing,
    }
    for tname, t in tables.items():
        for i in range(t.left.dim):
            for j in range(t.right.dim):
                for k in range(t.codomain.dim):
                    rows = [list(r) for r in t.table]
                    rows[i][j] = rows[i][j] + Vector(t.codomain, {k: delta})
                    new = dict(tables, **{tname: BilinearMap(t.left, t.right, t.codomain, rows)})
                    yield "%s[%d,%d,%d]" % (tname, i, j, k), CourantAlgebroid(
                        A=UnitalCommAlgebra(X.A.space, new["mult"], X.A.unit),
                        B=X.B, action=new["action"], bracket=new["bracket"],
                        anchor=new["anchor"], pairing=new["pairing"], partial=X.partial,
                    )
    for col in range(X.A.space.dim):
        for k in range(X.B.dim):
            cols = list(X.partial.columns)
            cols[col] = cols[col] + Vector(X.B, {k: delta})
            yield "partial[%d,%d]" % (col, k), CourantAlgebroid(
                A=X.A, B=X.B, action=X.action, bracket=X.bracket, anchor=X.anchor,
                pairing=X.pairing, partial=LinearMap(X.A.space, X.B, cols),
            )
    for k in range(X.A.space.dim):
        unit = X.A.unit + Vector(X.A.space, {k: delta})
        yield "unit[%d]" % k, CourantAlgebroid(
            A=UnitalCommAlgebra(X.A.space, X.A.mult, unit), B=X.B, action=X.action,
            bracket=X.bracket, anchor=X.anchor, pairing=X.pairing, partial=X.partial,
        )


def _mutation_caught(Y) -> bool:
    if not check_courant(Y, limit=1).passed:
        return True
    if not check_compat(Y, limit=1).passed:
        return True
    return not check_tca_all(to_1tca(Y, certify=False)).passed


def criterion_1() -> tuple[bool, str]:
    """Courant axiom suite and single-entry mutation sensitivity."""
    for name in AXIOM_EXAMPLES:
        X = example(name)
        for check in (check_courant, check_compat, check_annihilation):
            rep = check(X)
            if not rep.passed:
                return False, "%s fails %s: %s" % (name, check.__name__, rep.summary(3))
    counts = {}
    for name in MUTATION_EXAMPLES:
        X = example(name)
        caught = sum(1 for _, Y in _mutations(X) if _mutation_caught(Y))
        counts[name] = caught
        if caught < 20:
            return False, "only %d mutations caught for %s" % (caught, name)
    detail = "axioms pass on %d instances; mutations caught: %s" % (
        len(AXIOM_EXAMPLES),
        ", ".join("%s=%d" % kv for kv in counts.items()),
    )
    return True, detail


def criterion_2() -> tuple[bool, str]:
    """Bridge equivalence and exact table round trip of the dictionary."""
    for name in BRIDGE_EXAMPLES:
        X = example(name)
        T = to_1tca(X)
        rep = check_tca_all(T).merge(check_leibniz_form(T))
        if not rep.passed:
            return False, "%s: converted structure fails: %s" % (name, rep.summary(3))
        diff = differing_tables(X, from_1tca(T, X.A.mult, X.action))
        if diff:
            return False, "%s: inverse dictionary changes %s" % (name, ", ".join(diff))
    return True, "conversion passes and inverts exactly on %d instances" % len(BRIDGE_EXAMPLES)


def criterion_3() -> tuple[bool, str]:
    """Vertex Lie certification at cutoff 4 plus closed-form/oracle agreement."""
    for name, cutoff in VLIE_EXAMPLES:
        inst = VertexLie(to_1tca(example(name)), cutoff)
        rep = check_vertex_lie(inst)
        if not rep.passed:
            return False, "%s: %s" % (name, rep.summary(3))
        rep = check_oracle_agreement(inst)
        if not rep.passed:
            return False, "%s oracle disagreement: %s" % (name, rep.summary(3))
    return True, "component axioms and oracle agreement on %d instances" % len(VLIE_EXAMPLES)


def criterion_4() -> tuple[bool, str]:
    """Vertex Poisson certification on generator tuples (``check_vpa``)."""
    for name, cutoff in VPA_EXAMPLES:
        sym = SymAlgebra(VertexLie(to_1tca(example(name)), cutoff))
        rep = check_vpa(sym)
        if not rep.passed:
            return False, "%s (cutoff %d): %s" % (name, cutoff, rep.summary(3))
    return True, "hs, hp, dcomm and ha on generator tuples of %d instances" % len(VPA_EXAMPLES)


def criterion_5() -> tuple[bool, str]:
    """Ideal stability of the relator lists."""
    for name in QUOTIENT_EXAMPLES:
        q = CourantQuotient(example(name), 4)
        rep = check_ideal_stability(q)
        if not rep.passed:
            return False, "%s: %s" % (name, rep.summary(3))
    return True, "relators absorbed by products and D on %d instances" % len(QUOTIENT_EXAMPLES)


def criterion_6() -> tuple[bool, str]:
    """Quotient shape: exact degree-0/1 dimensions; canonical reduction."""
    for name in QUOTIENT_EXAMPLES:
        q = CourantQuotient(example(name), 4)
        rep = check_quotient_dimensions(q).merge(check_reduce_properties(q, count=500))
        if not rep.passed:
            return False, "%s: %s" % (name, rep.summary(3))
    return True, "dimensions exact; reduce canonical on 500-element corpora (%d instances)" % len(QUOTIENT_EXAMPLES)


def criterion_7() -> tuple[bool, str]:
    """Round trip through the quotient algebra, read back through its
    graded view."""
    for name in ROUNDTRIP_EXAMPLES:
        rep = roundtrip_check(example(name), cutoff=3)
        if not rep.passed:
            return False, "%s: %s" % (name, rep.summary(3))
    return True, "tables recovered exactly on %d instances" % len(ROUNDTRIP_EXAMPLES)


CRITERIA = [
    (1, "courant axiom suite with mutation sensitivity", criterion_1),
    (2, "bridge equivalence to/from the conformal pair", criterion_2),
    (3, "vertex Lie certification with series oracle", criterion_3),
    (4, "vertex Poisson certification on spanning monomials", criterion_4),
    (5, "ideal stability of the quotient relators", criterion_5),
    (6, "quotient dimensions and canonical reduction", criterion_6),
    (7, "round trip and graded-view extraction", criterion_7),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            t0 = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as err:  # a crash is a failure, not an abort
                ok, detail = False, "raised %s: %s" % (type(err).__name__, err)
            return CriterionResult(num, name, ok, detail, time.perf_counter() - t0)
    raise KeyError("no criterion %d" % number)


def run_all() -> list[CriterionResult]:
    return [run_criterion(num) for num, _, _ in CRITERIA]
