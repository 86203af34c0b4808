"""The benchmark's three workloads and the checks on their outputs.

Each workload has a ``setup(seed, size)`` that builds its inputs and a
round function that yields one ``(label, operation)`` pair per operation
of a round.  Calling the operation performs it and returns None when its
output passed its check, or a description of what was wrong.  Every
round performs the same operations, so the number attempted per round is
fixed.

The checks compare against independent computations or required
properties (hand-worked products, partition counts, table equality with
the input, print/parse fixpoints, confluence), never against stored
copies of earlier output.  They are plain functions so that the
self-check can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from courant_vpa import cli
from courant_vpa.courant import (
    CourantAlgebroid,
    UnitalCommAlgebra,
    check_annihilation,
    check_compat,
    check_courant,
    from_1tca,
    to_1tca,
)
from courant_vpa.examples import example
from courant_vpa.fileformat import parse, print_file
from courant_vpa.graded import extract_courant
from courant_vpa.linalg import BilinearMap, LinearMap, Vector
from courant_vpa.quotient import CourantQuotient
from courant_vpa.tca import OneTruncatedConformalAlgebra
from courant_vpa.tca import check_all as check_tca
from courant_vpa.vlie import VertexLie, check_oracle_agreement, check_vertex_lie
from courant_vpa.vpa import SymAlgebra, check_vpa, factor_degree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "src", "courant_vpa", "fixtures")
OUT = os.path.join(HERE, "out")

TABLES = ("mult", "unit", "action", "bracket", "anchor", "pairing", "partial")


def pure_b_count(dim_b: int, degree: int) -> int:
    """Coefficient of t^degree in prod_k (1 - t^k)^(-dim_b): the number of
    monomials in dim_b generators of every degree k >= 1."""
    series = [1] + [0] * degree
    for k in range(1, degree + 1):
        for _ in range(dim_b):
            for i in range(k, degree + 1):
                series[i] += series[i - k]
    return series[degree]


def table_mismatches(X: CourantAlgebroid, Y: CourantAlgebroid) -> list[str]:
    """Names of the structure tables in which Y differs from X."""
    got = {
        "mult": (X.A.mult, Y.A.mult), "unit": (X.A.unit, Y.A.unit),
        "action": (X.action, Y.action), "bracket": (X.bracket, Y.bracket),
        "anchor": (X.anchor, Y.anchor), "pairing": (X.pairing, Y.pairing),
        "partial": (X.partial, Y.partial),
    }
    return [name for name in TABLES if got[name][0] != got[name][1]]


# -- vpa-certify ---------------------------------------------------------------

# (instance, cutoff); the instances of the vertex Lie and vertex Poisson
# acceptance criteria whose certification fits a run.  exact(3) at cutoff 3
# alone takes about 22 s and is left out.
VPA_INSTANCES = {
    "full": [("heisenberg", 4), ("quadratic_lie(sl2)", 3), ("exact(2)", 3)],
    "tiny": [("heisenberg", 3), ("exact(2)", 2)],
}

# Products worked by hand from the defining tables: u_0 v = [u, v],
# u_1 v = <u, v>, u_0 a = pi(u)(a), a_0 u = -u_0 a, D a = partial a,
# (D u)_n v = -n u_(n-1) v, u_n (D v) = D(u_n v) + n u_(n-1) v, and u_n
# acting as a derivation of the commutative product.  Elements are written
# as {monomial: coefficient}, a monomial being a tuple of generator labels
# ("e", "x" in A; "D0[beta]", "D1[beta]" for D^k of a B label).
HAND_PRODUCTS = {
    "heisenberg": [
        (0, ("D0[beta]",), ("D0[beta]",), {}),
        (1, ("D0[beta]",), ("D0[beta]",), {("e",): 1}),
        (2, ("D1[beta]",), ("D0[beta]",), {("e",): -2}),
        (2, ("D0[beta]",), ("D1[beta]",), {("e",): 2}),
        (1, ("D0[beta]",), ("D0[beta]", "D0[beta]"), {("e", "D0[beta]"): 2}),
        ("d", ("D0[beta]", "D0[beta]"), None, {("D1[beta]", "D0[beta]"): 2}),
    ],
    "quadratic_lie(sl2)": [
        (0, ("D0[E]",), ("D0[F]",), {("D0[H]",): 1}),
        (1, ("D0[E]",), ("D0[F]",), {("e",): 4}),
        (0, ("D0[H]",), ("D0[E]",), {("D0[E]",): 2}),
        (1, ("D0[H]",), ("D0[H]",), {("e",): 8}),
        (0, ("D0[E]",), ("D0[E]",), {}),
    ],
    "exact(2)": [
        (0, ("D0[xD]",), ("D0[dx]",), {("D0[dx]",): 1}),
        (1, ("D0[xD]",), ("D0[dx]",), {("x",): 1}),
        (0, ("D0[xD]",), ("x",), {("x",): 1}),
        (0, ("x",), ("D0[xD]",), {("x",): -1}),
        ("d", ("x",), None, {("D0[dx]",): 1}),
        ("d", ("e",), None, {}),
    ],
}


def _sym_element(sym: SymAlgebra, spec: dict):
    out = sym.zero()
    for labels, coef in spec.items():
        term = sym.one()
        for label in labels:
            if label.startswith("D"):
                k, _, b = label[1:].partition("[")
                term = sym.multiply(term, sym.b_gen(b[:-1], int(k)))
            else:
                term = sym.multiply(term, sym.a_gen(label))
        out = out + term.scale(coef)
    return out


def hand_product_problems(sym: SymAlgebra, cases) -> list[str]:
    """Disagreements between the algebra's products and the hand values."""
    out = []
    for n, u, v, want in cases:
        left = _sym_element(sym, {u: 1})
        if n == "d":
            got = sym.d(left)
        else:
            got = sym.product(n, left, _sym_element(sym, {v: 1}))
        if got != _sym_element(sym, want):
            out.append("%s_(%s)%s" % (".".join(u), n, ".".join(v or ())))
    return out


def broken_heisenberg() -> OneTruncatedConformalAlgebra:
    """The Heisenberg pair with [beta, beta] = beta, which breaks skew
    symmetry: [beta, beta] must equal -[beta, beta] + D<beta, beta> = 0."""
    T = to_1tca(example("heisenberg"))
    rows = [list(r) for r in T.p0_11.table]
    rows[0][0] = rows[0][0] + Vector(T.C1, {0: Fraction(1)})
    return OneTruncatedConformalAlgebra(
        C0=T.C0, C1=T.C1, partial=T.partial, p0_10=T.p0_10, p0_01=T.p0_01,
        p0_11=BilinearMap(T.C1, T.C1, T.C1, rows), p1_11=T.p1_11,
    )


def setup_vpa(seed: int, size: str) -> dict:
    return {
        "instances": [(name, cutoff, example(name)) for name, cutoff in VPA_INSTANCES[size]],
        "broken": broken_heisenberg(),
        "broken_cutoff": 3 if size == "full" else 2,
    }


def certify_problem_vpa(T: OneTruncatedConformalAlgebra, cutoff: int, hand) -> str | None:
    """A valid pair passes both certifiers, its closed-form products agree
    with the series oracle, and the hand-worked products come out."""
    inst = VertexLie(T, cutoff)
    for check, arg in ((check_vertex_lie, inst), (check_oracle_agreement, inst),
                       (check_vpa, SymAlgebra(VertexLie(T, cutoff)))):
        rep = check(arg)
        if not rep.passed:
            return "%s: %s" % (check.__name__, rep.summary(2))
    wrong = hand_product_problems(SymAlgebra(VertexLie(T, cutoff)), hand)
    return "hand products differ: " + ", ".join(wrong) if wrong else None


def broken_problem(T: OneTruncatedConformalAlgebra, cutoff: int) -> str | None:
    """A broken pair must be reported by both certifiers."""
    if check_vertex_lie(VertexLie(T, cutoff)).passed:
        return "check_vertex_lie passes a broken structure"
    if check_vpa(SymAlgebra(VertexLie(T, cutoff))).passed:
        return "check_vpa passes a broken structure"
    return None


def round_vpa(state: dict):
    for name, cutoff, X in state["instances"]:
        yield "certify:" + name, lambda: certify_problem_vpa(to_1tca(X), cutoff, HAND_PRODUCTS[name])
    yield "broken-heisenberg", lambda: broken_problem(state["broken"], state["broken_cutoff"])


# -- quotient-build --------------------------------------------------------------

QUOTIENT_FIXTURES = ["sl2", "exact2"]
QUOTIENT_SIZES = {
    # fixtures built at max_degree, the quotient of the reduce corpus, corpus size
    "full": {"max_degree": 4, "quotient": ("exact(4)", 5), "queries": 1000},
    "tiny": {"max_degree": 2, "quotient": ("exact(2)", 3), "queries": 20},
}


def reduce_corpus(q: CourantQuotient, count: int, seed: int) -> list:
    """Seeded elements of the symmetric algebra: one to three terms, each
    a monomial of up to four generators within the cutoff."""
    rng = random.Random(seed)
    gens = [f for _, f in q.sym.generators()]
    corpus = []
    for _ in range(count):
        u = q.sym.zero()
        for _ in range(rng.randint(1, 3)):
            factors, budget = [], q.cutoff
            for _ in range(rng.randint(0, 4)):
                g = rng.choice([g for g in gens if factor_degree(g) <= budget])
                factors.append(g)
                budget -= factor_degree(g)
            coef = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            u = u + q.sym.monomial(factors).scale(coef)
        corpus.append(u)
    return corpus


def setup_quotient(seed: int, size: str) -> dict:
    conf = QUOTIENT_SIZES[size]
    fixtures = []
    for name in QUOTIENT_FIXTURES:
        path = os.path.join(FIXTURES, name + ".cvpa")
        with open(path, encoding="utf-8") as fh:
            fixtures.append((name, path, parse(fh.read()).courant()))
    qname, qcut = conf["quotient"]
    X = example(qname)
    q = CourantQuotient(X, qcut)
    os.makedirs(OUT, exist_ok=True)
    return {
        "fixtures": fixtures,
        "max_degree": conf["max_degree"],
        "X": X,
        "qcut": qcut,
        "q": q,
        "corpus": reduce_corpus(q, conf["queries"], seed),
    }


def readback_problems(X: CourantAlgebroid, text: str, max_degree: int,
                      free: bool) -> list[str]:
    """Check a written graded view the way ``courant-vpa extract`` reads
    it.  ``free`` marks an algebroid whose quotient has no relations, so
    every degree has the partition-count dimension."""
    out = []
    sf = parse(text)
    if print_file(sf) != text:
        out.append("view is not a print/parse fixpoint")
    V = sf.graded_view()
    Y = extract_courant(V)
    rep = check_courant(Y)
    if not rep.passed:
        out.append("extracted algebroid fails check_courant: " + rep.summary(2))
    out.extend("table %s differs from the input" % t for t in table_mismatches(X, Y))
    dims = [s.dim for s in V.spaces]
    if len(dims) != max_degree + 1:
        out.append("view has degrees 0..%d, not 0..%d" % (len(dims) - 1, max_degree))
    elif dims[:2] != [X.A.space.dim, X.B.dim]:
        out.append("degree 0/1 dimensions %s, not dim A, dim B" % dims[:2])
    elif free:
        want = [X.A.space.dim] + [pure_b_count(X.B.dim, n) for n in range(1, max_degree + 1)]
        if dims != want:
            out.append("dimensions %s, partition counts %s" % (dims, want))
    return out


def quotient_problems(X: CourantAlgebroid, q: CourantQuotient) -> list[str]:
    """Relations and surviving basis monomials split the pure-B monomials
    of every degree; degrees 0 and 1 give back the input tables."""
    out = []
    for n in range(2, q.cutoff + 1):
        rel, basis = q.relation_dim(n), len(q.basis_monomials(n))
        if rel + basis != pure_b_count(X.B.dim, n):
            out.append("degree %d: %d relations + %d basis != %d monomials"
                       % (n, rel, basis, pure_b_count(X.B.dim, n)))
    _, Y = q.extract_degree01()
    out.extend("degree-0/1 table %s differs from the input" % t for t in table_mismatches(X, Y))
    return out


def reduce_problem(q: CourantQuotient, left, right) -> str | None:
    """Both rewrite orders must agree, and the normal form must be fixed."""
    if left != right:
        return "leftmost and rightmost reductions differ"
    if q.reduce(q.lift(left)) != left:
        return "reduce is not idempotent"
    return None


def _build_problem(name: str, path: str, X, max_degree: int) -> str | None:
    out_path = os.path.join(OUT, "view-%s.cvpa" % name)
    rc = cli.main(["build", path, "--max-degree", str(max_degree), "--out", out_path])
    if rc != 0:
        return "build exited %d" % rc
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    # Over A = Q.e the relators only identify e with 1 (and partial e = 0),
    # so the pure-B monomials of every degree stay independent.
    free = X.A.space.dim == 1
    return "; ".join(readback_problems(X, text, max_degree, free)) or None


def round_quotient(state: dict):
    for name, path, X in state["fixtures"]:
        yield "build:" + name, lambda: _build_problem(name, path, X, state["max_degree"])
    X = state["X"]
    yield "quotient", lambda: "; ".join(quotient_problems(X, CourantQuotient(X, state["qcut"]))) or None
    q = state["q"]
    for i, u in enumerate(state["corpus"]):
        yield "reduce:%d" % i, lambda: reduce_problem(q, q.reduce(u, "leftmost"), q.reduce(u, "rightmost"))


# -- courant-mutants ---------------------------------------------------------------

MUTANT_INSTANCES = {
    "full": ["exact(4)", "exact(3)", "quadratic_lie(sl2)", "trivial(3)"],
    "tiny": ["exact(2)", "trivial(1)"],
}


def mutant_count(X: CourantAlgebroid) -> int:
    """Entries of all tables: mult A^3, action A.B^2, bracket B^3,
    anchor B.A^2, pairing B^2.A, partial A.B."""
    a, b = X.A.space.dim, X.B.dim
    return a ** 3 + a * b * b + b ** 3 + b * a * a + b * b * a + a * b


def mutants(X: CourantAlgebroid):
    """Every single-entry +1 perturbation of every structure table, with
    a flag saying whether the mutant must still be a Courant algebroid.

    That is so only for a diagonal pairing entry of an algebroid over
    A = Q.e whose bracket, anchor and partial vanish: its axioms then
    reduce to the pairing being symmetric, which a diagonal change keeps."""
    abelian = (
        X.A.space.dim == 1
        and X.bracket == BilinearMap.zero(X.B, X.B, X.B)
        and X.anchor == BilinearMap.zero(X.B, X.A.space, X.A.space)
        and X.partial == LinearMap.zero(X.A.space, X.B)
    )
    tables = {"mult": X.A.mult, "action": X.action, "bracket": X.bracket,
              "anchor": X.anchor, "pairing": X.pairing}
    for tname, t in tables.items():
        for i in range(t.left.dim):
            for j in range(t.right.dim):
                for k in range(t.codomain.dim):
                    rows = [list(r) for r in t.table]
                    rows[i][j] = rows[i][j] + Vector(t.codomain, {k: Fraction(1)})
                    new = dict(tables, **{tname: BilinearMap(t.left, t.right, t.codomain, rows)})
                    Y = CourantAlgebroid(
                        A=UnitalCommAlgebra(X.A.space, new["mult"], X.A.unit),
                        B=X.B, action=new["action"], bracket=new["bracket"],
                        anchor=new["anchor"], pairing=new["pairing"], partial=X.partial,
                    )
                    yield Y, abelian and tname == "pairing" and i == j
    for col in range(X.A.space.dim):
        for k in range(X.B.dim):
            cols = list(X.partial.columns)
            cols[col] = cols[col] + Vector(X.B, {k: Fraction(1)})
            Y = CourantAlgebroid(
                A=X.A, B=X.B, action=X.action, bracket=X.bracket, anchor=X.anchor,
                pairing=X.pairing, partial=LinearMap(X.A.space, X.B, cols),
            )
            yield Y, False


def mutant_problem(Y: CourantAlgebroid, valid: bool) -> str | None:
    """The checkers, stopping at the first violation, must report an
    invalid mutant and pass a valid one."""
    reported = (
        not check_courant(Y, limit=1).passed
        or not check_compat(Y, limit=1).passed
        or not check_tca(to_1tca(Y, certify=False)).passed
    )
    if reported == valid:
        return "valid mutant reported" if valid else "mutant not reported by any checker"
    return None


def certify_problem(X: CourantAlgebroid) -> str | None:
    """An unmutated instance passes every checker and survives the
    conformal-pair dictionary both ways unchanged."""
    for check in (check_courant, check_compat, check_annihilation):
        rep = check(X)
        if not rep.passed:
            return "%s: %s" % (check.__name__, rep.summary(2))
    T = to_1tca(X)
    rep = check_tca(T)
    if not rep.passed:
        return "check_tca: " + rep.summary(2)
    diff = table_mismatches(X, from_1tca(T, X.A.mult, X.action))
    return "round trip changes %s" % ", ".join(diff) if diff else None


def setup_mutants(seed: int, size: str) -> dict:
    return {"instances": [(name, example(name)) for name in MUTANT_INSTANCES[size]]}


def round_mutants(state: dict):
    for name, X in state["instances"]:
        yield "certify:" + name, lambda: certify_problem(X)
        swept = 0
        for Y, valid in mutants(X):
            swept += 1
            yield "mutant:" + name, lambda: mutant_problem(Y, valid)
        want = mutant_count(X)
        yield "mutant-count:" + name, lambda: None if swept == want else "%d mutants, %d entries" % (swept, want)


WORKLOADS = {
    "vpa-certify": (setup_vpa, round_vpa),
    "quotient-build": (setup_quotient, round_quotient),
    "courant-mutants": (setup_mutants, round_mutants),
}
