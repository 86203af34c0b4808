"""The graded vertex Lie algebra generated by a 1-truncated conformal
algebra, computed in quotient normal form.

The vertex Lie algebra is the single-factor part of the symmetric
algebra of ``vpa``, and its elements are that algebra's element type:
an ``SCElement`` whose monomials each hold one factor, ``("a", i)`` for
the i-th basis vector of A (degree 0) or ``("b", n, i)`` for D^n of the
i-th basis vector of B (degree n + 1).  The defining relation
D^n(pa) = D^(n+1)(a) is applied eagerly, so D-powers of degree-0
generators are never materialized; products respect the relation, which
makes computing in normal form sound.

The i-th products are realized twice, deliberately:

* ``product`` expands bilinearly over basis factors and reads each
  ``generator_product`` off the closed formulas (first argument a plain
  generator, second argument D^n of one):

      a_i (D^n b)  = (n!/(n-i)!) D^(n-i)(a_0 b)            0 <= i <= n
      b_i (D^n a)  = (n!/(n-i)!) D^(n-i)(b_0 a)            0 <= i <= n
      b_i (D^n b') = (n!/(n-i)!) D^(n-i)(b_0 b')           0 <= i <= n
                   + (i n!/(n-i+1)!) D^(n-i+1)(b_1 b')     1 <= i <= n+1

  extended to D^n first arguments by

      (D^n u)_i = (-1)^n (i!/(i-n)!) u_(i-n),    zero for i < n.

* ``sing_oracle`` never touches those formulas: it expands the defining
  series identity

      Y(D^n u, x) D^m v = Sing(e^(xD) (-d/dx)^m Y(v, -x) D^n u)

  by brute-force manipulation of truncated Laurent polynomials whose
  coefficients are normal-form elements, bottoming out in the generator
  product tables.  Agreement of the two routes is a differential test run
  by the acceptance suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import laws
from .linalg import Scalar, Vector, add_scaled, bilin_apply, map_apply, rational
from .reports import CheckReport, Violation
from .tca import OneTruncatedConformalAlgebra

MODULE = "vlie"

Factor = tuple
Monomial = tuple


class CutoffError(RuntimeError):
    """A computation would create a component above the degree cutoff."""


def factor_degree(f: Factor) -> int:
    return 0 if f[0] == "a" else f[1] + 1


@lru_cache(maxsize=None)
def mono_degree(m: Monomial) -> int:
    return sum(factor_degree(f) for f in m)


class SCElement:
    """Sparse rational combination of canonical monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Scalar]):
        self.terms = {m: c if type(c) is int else rational(c) for m, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {mono_degree(m) for m in self.terms}

    def max_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, SCElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SCElement") -> "SCElement":
        return SCElement(add_scaled(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "SCElement") -> "SCElement":
        return self + other.scale(-1)

    def __neg__(self) -> "SCElement":
        return self.scale(-1)

    def scale(self, f) -> "SCElement":
        if type(f) is not int:
            f = rational(f)
        if f == 0:
            return SCElement({})
        return SCElement({m: c * f for m, c in self.terms.items()})

    def __repr__(self) -> str:
        return "SCElement(%s)" % self.terms


def combine(terms) -> SCElement:
    """sum of coef * elem over (coef, elem) pairs."""
    acc: dict[Monomial, Scalar] = {}
    for coef, u in terms:
        if u.terms:  # most terms the laws sum are zero elements: skip their calls
            add_scaled(acc, u.terms.items(), coef)
    return SCElement(acc)


def format_monomial(alg, m: Monomial) -> str:
    """``m`` in the labels of ``alg.A`` and ``alg.B``: ``1`` for the empty
    monomial, else its factors joined by ``.``."""
    if not m:
        return "1"
    parts = []
    for f in m:
        if f[0] == "a":
            parts.append(alg.A.basis[f[1]])
        else:
            parts.append("D%d[%s]" % (f[1], alg.B.basis[f[2]]))
    return ".".join(parts)


def format_element(alg, u: SCElement) -> str:
    if u.is_zero():
        return "0"
    bits = []
    for m in sorted(u.terms, key=lambda m: (mono_degree(m), m)):
        bits.append("%s*%s" % (u.terms[m], format_monomial(alg, m)))
    return " + ".join(bits)


def _a_element(v: Vector) -> SCElement:
    return SCElement({(("a", i),): c for i, c in v.items})


def _b_element(v: Vector, n: int) -> SCElement:
    return SCElement({(("b", n, i),): c for i, c in v.items})


class VertexLie:
    """Computation context: a 1-truncated conformal algebra plus a degree
    cutoff bounding every loop.  Operations that would create a component
    above the cutoff raise CutoffError instead of truncating silently."""

    def __init__(self, tca: OneTruncatedConformalAlgebra, cutoff: int = 4):
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.tca = tca
        self.A = tca.C0
        self.B = tca.C1
        self.cutoff = cutoff
        self._gen_cache: dict[tuple[int, Factor, Factor], SCElement] = {}

    # -- element constructors ------------------------------------------

    def zero(self) -> SCElement:
        return SCElement({})

    def from_a(self, v: Vector) -> SCElement:
        if v.space != self.A:
            raise ValueError("vector not in the degree-0 space")
        return _a_element(v)

    def from_b(self, v: Vector, n: int = 0) -> SCElement:
        if v.space != self.B:
            raise ValueError("vector not in B")
        if n < 0:
            raise ValueError("negative D-power")
        if n + 1 > self.cutoff:
            raise CutoffError("D^%d(b) has degree %d > cutoff %d" % (n, n + 1, self.cutoff))
        return _b_element(v, n)

    def basis_elements(self, max_degree: int | None = None):
        """Normal-form basis with labels: A-basis then D^n of the B-basis."""
        top = self.cutoff if max_degree is None else min(max_degree, self.cutoff)
        out = [(l, self.from_a(self.A.unit_vector(l))) for l in self.A.basis]
        for n in range(0, top):
            for l in self.B.basis:
                out.append(("D%d[%s]" % (n, l), self.from_b(self.B.unit_vector(l), n)))
        return out

    # -- the translation operator ---------------------------------------

    def d(self, c: SCElement) -> SCElement:
        """D: shifts D^n(b) to D^(n+1)(b) and sends a to pa at D^0."""
        if c.max_degree() + 1 > self.cutoff:
            raise CutoffError("D would exceed cutoff %d" % self.cutoff)
        acc: dict[Monomial, Scalar] = {}
        for (f,), coef in c.terms.items():
            if f[0] == "b":  # shifts never collide, nor land on D^0
                acc[(("b", f[1] + 1, f[2]),)] = coef
            else:
                pa = self.tca.partial.columns[f[1]].items
                add_scaled(acc, (((("b", 0, j),), w) for j, w in pa), coef)
        return SCElement(acc)

    combine = staticmethod(combine)

    # -- closed-form products -------------------------------------------

    def _lift_a(self, v: Vector, k: int) -> SCElement:
        """D^k of a degree-0 vector, in normal form."""
        if v.is_zero():
            return self.zero()
        if k == 0:
            return _a_element(v)
        if k > self.cutoff:
            raise CutoffError("component degree %d > cutoff %d" % (k, self.cutoff))
        return _b_element(map_apply(self.tca.partial, v), k - 1)

    def _lift_b(self, v: Vector, n: int) -> SCElement:
        if v.is_zero():
            return self.zero()
        if n + 1 > self.cutoff:
            raise CutoffError("component degree %d > cutoff %d" % (n + 1, self.cutoff))
        return _b_element(v, n)

    def generator_product(self, i: int, f: Factor, g: Factor) -> SCElement:
        """f_i g for two basis factors by the closed formulas, evaluated
        once per (i, f, g) for the algebra's lifetime; a raise is never
        stored."""
        key = (i, f, g)
        got = self._gen_cache.get(key)
        if got is None:
            got = self._gen_cache[key] = self._closed_form(i, f, g)
        return got

    def _closed_form(self, i: int, f: Factor, g: Factor) -> SCElement:
        T = self.tca
        # every factorial quotient below is an integer, so // is exact
        if f[0] == "a":
            if g[0] == "a":
                return self.zero()
            _, n, b = g
            if i > n:
                return self.zero()
            coef = factorial(n) // factorial(n - i)
            return self._lift_a(T.p0_01.table[f[1]][b], n - i).scale(coef)  # a_0 b, degree 0
        _, nu, b = f
        if g[0] == "a":
            # (D^nu b)_i a = (-1)^nu (i!/(i-nu)!) b_(i-nu) a; only j = 0 survives
            if i != nu:
                return self.zero()
            return self._lift_a(T.p0_10.table[b][g[1]], 0).scale((-1) ** nu * factorial(nu))
        _, m, b2 = g
        j = i - nu
        if j < 0:
            return self.zero()
        sign = (-1) ** nu * (factorial(i) // factorial(j))
        out = self.zero()
        if j <= m:
            c0 = sign * (factorial(m) // factorial(m - j))
            out = out + self._lift_b(T.p0_11.table[b][b2], m - j).scale(c0)  # degree 1 value
        if 1 <= j <= m + 1:
            c1 = sign * (j * factorial(m) // factorial(m - j + 1))
            out = out + self._lift_a(T.p1_11.table[b][b2], m - j + 1).scale(c1)  # degree 0 value
        return out

    def product(self, i: int, u: SCElement, v: SCElement) -> SCElement:
        """The i-th product u_i v, bilinear over the basis factors."""
        if i < 0:
            raise ValueError("product index must be nonnegative")
        acc: dict[Monomial, Scalar] = {}
        for (f,), cu in u.terms.items():
            for (g,), cv in v.terms.items():
                add_scaled(acc, self.generator_product(i, f, g).terms.items(), cu * cv)
        return SCElement(acc)

    # -- the series oracle ------------------------------------------------
    #
    # Laurent polynomials are dicts {exponent: SCElement}, always purely
    # singular (exponents <= -1).  Sing after e^(xD) commutes with the
    # later Sing projections, which is what makes staged evaluation sound.

    def _series_base(self, fu: tuple, fv: tuple) -> dict[int, SCElement]:
        """Y(u, x) v for plain generators: the defining product tables."""
        T = self.tca
        if fu[0] == "a":
            if fv[0] == "a":
                return {}
            w = bilin_apply(T.p0_01, fu[1], fv[1])
            return _trim({-1: _a_element(w)})
        if fv[0] == "a":
            w = bilin_apply(T.p0_10, fu[1], fv[1])
            return _trim({-1: _a_element(w)})
        w0 = bilin_apply(T.p0_11, fu[1], fv[1])
        w1 = bilin_apply(T.p1_11, fu[1], fv[1])
        return _trim({-1: _b_element(w0, 0), -2: _a_element(w1)})

    def _sing_exp_d(self, s: dict[int, SCElement]) -> dict[int, SCElement]:
        """Sing(e^(xD) s) for a purely singular s."""
        out: dict[int, SCElement] = {}
        for k, c in s.items():
            term = c
            for j in range(0, -k):
                if j > 0:
                    term = self.d(term)
                add = term.scale(Fraction(1, factorial(j)))
                if not add.is_zero():
                    e = k + j
                    out[e] = out[e] + add if e in out else add
        return _trim(out)

    def _series_gen_dv(self, fu: tuple, n: int, fv: tuple) -> dict[int, SCElement]:
        """Y(u, x) D^n v = Sing(e^(xD) (-d/dx)^n Y(v, -x) u)."""
        s = _subst_neg(self._series_base(fv, fu))
        for _ in range(n):
            s = _neg_ddx(s)
        return self._sing_exp_d(s)

    def sing_oracle(self, i: int, u: tuple, v: tuple) -> SCElement:
        """(D^n u)_i (D^m v) computed purely through the series identity.

        ``u`` and ``v`` are ('a', vec) (degree 0, no D-power) or
        ('b', n, vec) meaning D^n of a B-vector.
        """
        fu, n = (("a", u[1]), 0) if u[0] == "a" else (("b", u[2]), u[1])
        fv, m = (("a", v[1]), 0) if v[0] == "a" else (("b", v[2]), v[1])
        inner = _subst_neg(self._series_gen_dv(fv, n, fu))  # Y(v, -x) D^n u
        for _ in range(m):
            inner = _neg_ddx(inner)
        series = self._sing_exp_d(inner)
        return series.get(-i - 1, self.zero())


def _trim(s: dict[int, SCElement]) -> dict[int, SCElement]:
    return {k: c for k, c in s.items() if not c.is_zero()}


def _subst_neg(s: dict[int, SCElement]) -> dict[int, SCElement]:
    """x -> -x on a Laurent polynomial."""
    return {k: (c if k % 2 == 0 else c.scale(-1)) for k, c in s.items()}


def _neg_ddx(s: dict[int, SCElement]) -> dict[int, SCElement]:
    out = {}
    for k, c in s.items():
        if k != 0:
            out[k - 1] = c.scale(-k)
    return _trim(out)


# -- checkers -------------------------------------------------------------


def check_vertex_lie(inst: VertexLie) -> CheckReport:
    """Component axioms on normal-form basis elements.

    hs, hp, dcomm and ha are stated in ``laws``, whose grading lemma makes
    degrees need no check.  They are verified for all tuples whose total
    degree stays within the cutoff (so every intermediate is
    representable), with D applied wherever its result stays within the
    algebra's cutoff.  The normal-form dimensions need
    no check: ``basis_elements`` builds dim A elements of degree 0 and
    dim B of each degree 1..cutoff.
    """
    top = inst.cutoff
    elems = [(l, e, e.max_degree()) for l, e in inst.basis_elements()]
    pairs = [(x, y) for x in elems for y in elems if x[2] + y[2] <= top]
    triples = [(x, y, [z for z in elems if x[2] + y[2] + z[2] <= top]) for x, y in pairs]
    fmt = lambda u: format_element(inst, u)

    return CheckReport(
        laws.check_pair_laws(inst, MODULE, fmt, top, pairs)
        + laws.check_ha(inst, MODULE, fmt, top, triples)
    )


def check_oracle_agreement(inst: VertexLie) -> CheckReport:
    """Closed-form products vs the series oracle, on every generator pair
    and every index within the grading support (plus one beyond)."""
    top = inst.cutoff
    gens: list[tuple[str, tuple, int]] = [
        ("a=" + l, ("a", inst.A.unit_vector(l)), 0) for l in inst.A.basis
    ]
    for n in range(0, top):
        for l in inst.B.basis:
            gens.append(("D%d[%s]" % (n, l), ("b", n, inst.B.unit_vector(l)), n + 1))

    def as_element(spec) -> SCElement:
        if spec[0] == "a":
            return inst.from_a(spec[1])
        return inst.from_b(spec[2], spec[1])

    out = []
    for lu, su, du in gens:
        eu = as_element(su)
        for lv, sv, dv in gens:
            if du + dv > top:
                continue
            ev = as_element(sv)
            for i in range(0, du + dv + 1):
                closed = inst.product(i, eu, ev)
                oracle = inst.sing_oracle(i, su, sv)
                if closed != oracle:
                    out.append(Violation(
                        MODULE, "oracle", (lu, lv, "i=%d" % i),
                        format_element(inst, closed), format_element(inst, oracle),
                    ))
    return CheckReport(out)
