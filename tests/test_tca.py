import hashlib
import os
from collections import Counter
from fractions import Fraction

from courant_vpa.courant import to_1tca
from courant_vpa.examples import example
from courant_vpa.linalg import BasedSpace, BilinearMap, LinearMap
from courant_vpa.tca import OneTruncatedConformalAlgebra, check_all, check_leibniz_form

from test_laws import table_mutants


def all_zero_tca(dim0=1, dim1=2):
    C0 = BasedSpace("C0", ["a%d" % i for i in range(dim0)])
    C1 = BasedSpace("C1", ["u%d" % i for i in range(dim1)])
    return OneTruncatedConformalAlgebra(
        C0=C0,
        C1=C1,
        partial=LinearMap.zero(C0, C1),
        p0_10=BilinearMap.zero(C1, C0, C0),
        p0_01=BilinearMap.zero(C0, C1, C0),
        p0_11=BilinearMap.zero(C1, C1, C1),
        p1_11=BilinearMap.zero(C1, C1, C0),
    )


def perturb(bmap, i, j, k, delta=1):
    rows = [list(r) for r in bmap.table]
    bump = bmap.codomain.zero()
    bump = type(bump)(bmap.codomain, {k: Fraction(delta)})
    rows[i][j] = rows[i][j] + bump
    return BilinearMap(bmap.left, bmap.right, bmap.codomain, rows)


def test_all_zero_structure_passes_everything():
    T = all_zero_tca()
    assert check_all(T).passed
    assert check_leibniz_form(T).passed


def test_sl2_tca_passes_all_checks():
    T = to_1tca(example("quadratic_lie(sl2)"))
    assert check_all(T).passed
    assert check_leibniz_form(T).passed


def test_sl2_associativity_spot_identity():
    # at (H, E, F) with i = 1: h_0 <E,F> = <[H,E],F> + <E,[H,F]> = 8 - 8 = 0
    T = to_1tca(example("quadratic_lie(sl2)"))
    from courant_vpa.linalg import bilin_apply

    E, F, H = (T.C1.unit_vector(l) for l in ("E", "F", "H"))
    lhs_inner = bilin_apply(T.p1_11, E, F)
    assert lhs_inner == T.C0.vector({"e": 4})
    t1 = bilin_apply(T.p1_11, bilin_apply(T.p0_11, H, E), F)
    t2 = bilin_apply(T.p1_11, E, bilin_apply(T.p0_11, H, F))
    assert t1 == T.C0.vector({"e": 8})
    assert t2 == T.C0.vector({"e": -8})
    assert (t1 + t2).is_zero()


def test_perturbed_p1_11_fails_some_check():
    T = to_1tca(example("quadratic_lie(sl2)"))
    bad = OneTruncatedConformalAlgebra(
        C0=T.C0,
        C1=T.C1,
        partial=T.partial,
        p0_10=T.p0_10,
        p0_01=T.p0_01,
        p0_11=T.p0_11,
        p1_11=perturb(T.p1_11, 0, 0, 0),  # <E,E> += e
    )
    rep = check_all(bad)
    assert not rep.passed
    offenders = {v.tuple for v in rep.violations}
    assert offenders  # the offending tuples are named in the report


def test_broken_jacobi_fails_associativity_at_i0():
    X = example("quadratic_lie(sl2)")
    T = to_1tca(X)
    bad_bracket = perturb(T.p0_11, 0, 1, 0)  # [E,F] = H + E
    bad = OneTruncatedConformalAlgebra(
        C0=T.C0, C1=T.C1, partial=T.partial,
        p0_10=T.p0_10, p0_01=T.p0_01, p0_11=bad_bracket, p1_11=T.p1_11,
    )
    assert "assoc.i0" in check_all(bad).axioms()


def test_swap_asymmetric_pairing_fails_u1v_symmetry():
    T = all_zero_tca(dim0=1, dim1=2)
    pairing = perturb(BilinearMap.zero(T.C1, T.C1, T.C0), 0, 1, 0, 4)
    pairing = perturb(pairing, 1, 0, 0, 5)
    bad = OneTruncatedConformalAlgebra(
        C0=T.C0, C1=T.C1, partial=T.partial,
        p0_10=T.p0_10, p0_01=T.p0_01, p0_11=T.p0_11, p1_11=pairing,
    )
    rep = check_all(bad)
    assert any(v.axiom == "comm.u1v" for v in rep.violations)


def test_antisymmetric_bracket_with_zero_partial_passes_commutativity():
    # with partial = 0 the middle identity reduces to u_0 v = -v_0 u
    T = all_zero_tca(dim0=1, dim1=2)
    brk = perturb(BilinearMap.zero(T.C1, T.C1, T.C1), 0, 1, 0, 1)
    brk = perturb(brk, 1, 0, 0, -1)
    cand = OneTruncatedConformalAlgebra(
        C0=T.C0, C1=T.C1, partial=T.partial,
        p0_10=T.p0_10, p0_01=T.p0_01, p0_11=brk, p1_11=T.p1_11,
    )
    assert not [a for a in check_all(cand).axioms() if a.startswith("comm.")]


def test_biconditional_with_leibniz_form_on_examples():
    for name in ("trivial(2)", "heisenberg", "quadratic_lie(sl2)", "exact(2)", "exact(3)"):
        T = to_1tca(example(name))
        assert check_all(T).passed == check_leibniz_form(T).passed


def test_biconditional_on_a_mutated_instance():
    T = to_1tca(example("exact(2)"))
    bad = OneTruncatedConformalAlgebra(
        C0=T.C0, C1=T.C1, partial=T.partial,
        p0_10=perturb(T.p0_10, 0, 0, 0), p0_01=T.p0_01, p0_11=T.p0_11, p1_11=T.p1_11,
    )
    assert not check_all(bad).passed
    assert not check_leibniz_form(bad).passed


MUTANT_INSTANCES = ("heisenberg", "quadratic_lie(sl2)", "exact(2)", "exact(3)")


def tca_mutants():
    """Every single-entry mutant, by +1 and by -1/2, of the five tables of
    to_1tca of each instance, labelled table[i,j,k]*delta."""
    for name in MUTANT_INSTANCES:
        T = to_1tca(example(name))
        for delta in (1, Fraction(-1, 2)):
            for label, parts in table_mutants(T, delta):
                yield name, "%s*%s" % (label, delta), OneTruncatedConformalAlgebra(C0=T.C0, C1=T.C1, **parts)


def test_mutant_reports_are_pinned():
    # per-axiom violation counts of check_all, and a digest of its report
    # text (axioms, tuples and both sides), for every mutant
    path = os.path.join(os.path.dirname(__file__), "data", "tca_mutant_reports.txt")
    with open(path, encoding="utf-8") as fh:
        pinned = [line.split() for line in fh if not line.startswith("#")]
    got = []
    for name, label, bad in tca_mutants():
        rep = check_all(bad)
        counts = Counter(v.axiom for v in rep.violations)
        text = hashlib.sha256("\n".join(map(str, rep.violations)).encode()).hexdigest()[:12]
        got.append([name, label] + ["%s=%d" % kv for kv in sorted(counts.items())] + ["text=" + text])
    assert len(pinned) == 564
    assert got == pinned


def test_biconditional_with_leibniz_form_on_mutants():
    failing = 0
    for name, label, bad in tca_mutants():
        passed = check_all(bad).passed
        assert passed == check_leibniz_form(bad).passed, (name, label)
        failing += not passed
    assert failing > 500
