"""The graded vertex Lie algebra generated by a 1-truncated conformal
algebra, computed in quotient normal form.

Elements live in the span of A (degree 0) and D^n(b) for b in B (degree
n + 1).  The defining relation D^n(pa) = D^(n+1)(a) is applied eagerly, so
D-powers of degree-0 generators are never materialized; products respect
the relation, which makes computing in normal form sound.

The i-th products are realized twice, deliberately:

* ``product`` uses the closed formulas for generator pairs
  (first argument a plain generator, second argument D^n of one):

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
from math import factorial

from . import laws
from .linalg import Vector, bilin_apply, format_vector, map_apply, rational
from .reports import CheckReport, Violation
from .tca import OneTruncatedConformalAlgebra

MODULE = "vlie"


class CutoffError(RuntimeError):
    """A computation would create a component above the degree cutoff."""


class CElement:
    """Normal-form element: a degree-0 part in A plus D^n(B) parts.

    ``b_parts[n]`` is a vector in B standing for a D^n(...) contribution in
    degree n + 1.  Canonical form stores no zero vectors, so structural
    equality is equality in the quotient.
    """

    __slots__ = ("a_part", "b_parts")

    def __init__(self, a_part: Vector, b_parts: dict[int, Vector] | None = None):
        bp = {}
        for n, v in (b_parts or {}).items():
            if n < 0:
                raise ValueError("negative D-power")
            if not v.is_zero():
                bp[n] = v
        self.a_part = a_part
        self.b_parts = bp

    def is_zero(self) -> bool:
        return self.a_part.is_zero() and not self.b_parts

    def degrees(self) -> list[int]:
        out = [] if self.a_part.is_zero() else [0]
        out.extend(n + 1 for n in sorted(self.b_parts))
        return out

    def max_degree(self) -> int:
        degs = self.degrees()
        return max(degs) if degs else 0

    def _key(self):
        return (self.a_part, tuple(sorted(self.b_parts.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, CElement) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __add__(self, other: "CElement") -> "CElement":
        bp = dict(self.b_parts)
        for n, v in other.b_parts.items():
            bp[n] = bp[n] + v if n in bp else v
        return CElement(self.a_part + other.a_part, bp)

    def __sub__(self, other: "CElement") -> "CElement":
        return self + other.scale(-1)

    def __neg__(self) -> "CElement":
        return self.scale(-1)

    def scale(self, f) -> "CElement":
        f = rational(f)
        return CElement(self.a_part.scale(f), {n: v.scale(f) for n, v in self.b_parts.items()})

    def __repr__(self) -> str:
        return "CElement(%s)" % format_celement(self)


def format_celement(c: CElement) -> str:
    parts = []
    if not c.a_part.is_zero():
        parts.append(format_vector(c.a_part))
    for n in sorted(c.b_parts):
        parts.append("D%d[%s]" % (n, format_vector(c.b_parts[n])))
    return " + ".join(parts) if parts else "0"


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
        self._prod_cache: dict = {}

    # -- element constructors ------------------------------------------

    def zero(self) -> CElement:
        return CElement(self.A.zero())

    def from_a(self, v: Vector) -> CElement:
        if v.space != self.A:
            raise ValueError("vector not in the degree-0 space")
        return CElement(v)

    def from_b(self, v: Vector, n: int = 0) -> CElement:
        if v.space != self.B:
            raise ValueError("vector not in B")
        if n + 1 > self.cutoff:
            raise CutoffError("D^%d(b) has degree %d > cutoff %d" % (n, n + 1, self.cutoff))
        return CElement(self.A.zero(), {n: v})

    def basis_elements(self, max_degree: int | None = None):
        """Normal-form basis with labels: A-basis then D^n of the B-basis."""
        top = self.cutoff if max_degree is None else min(max_degree, self.cutoff)
        out = [(l, self.from_a(self.A.unit_vector(l))) for l in self.A.basis]
        for n in range(0, top):
            for l in self.B.basis:
                out.append(("D%d[%s]" % (n, l), self.from_b(self.B.unit_vector(l), n)))
        return out

    # -- the translation operator ---------------------------------------

    def d(self, c: CElement) -> CElement:
        """D: shifts D^n(b) to D^(n+1)(b) and sends a to pa at D^0."""
        if c.max_degree() + 1 > self.cutoff:
            raise CutoffError("D would exceed cutoff %d" % self.cutoff)
        bp = {n + 1: v for n, v in c.b_parts.items()}
        if not c.a_part.is_zero():
            pa = map_apply(self.tca.partial, c.a_part)
            bp[0] = bp[0] + pa if 0 in bp else pa
        return CElement(self.A.zero(), bp)

    def combine(self, terms) -> CElement:
        """sum of coef * elem over (coef, elem) pairs."""
        out = self.zero()
        for coef, c in terms:
            out = out + c.scale(coef)
        return out

    def d_pow(self, c: CElement, k: int) -> CElement:
        for _ in range(k):
            c = self.d(c)
        return c

    # -- closed-form products -------------------------------------------

    def _lift_a(self, v: Vector, k: int) -> CElement:
        """D^k of a degree-0 vector, in normal form."""
        if v.is_zero():
            return self.zero()
        if k == 0:
            return CElement(v)
        if k > self.cutoff:
            raise CutoffError("component degree %d > cutoff %d" % (k, self.cutoff))
        return CElement(self.A.zero(), {k - 1: map_apply(self.tca.partial, v)})

    def _lift_b(self, v: Vector, n: int) -> CElement:
        if v.is_zero():
            return self.zero()
        if n + 1 > self.cutoff:
            raise CutoffError("component degree %d > cutoff %d" % (n + 1, self.cutoff))
        return CElement(self.A.zero(), {n: v})

    def _gen_product(self, i: int, first: tuple, second: tuple) -> CElement:
        """i-th product of D-power generators.

        ``first``/``second`` are ('a', vec) or ('b', n, vec); 'a' carries no
        D-power since D(a) is already a 'b' shape in normal form.
        """
        T = self.tca
        # every factorial quotient below is an integer, so // is exact
        if first[0] == "a":
            a = first[1]
            if second[0] == "a":
                return self.zero()
            _, n, b = second
            if i > n:
                return self.zero()
            w = bilin_apply(T.p0_01, a, b)  # a_0 b, degree 0
            coef = factorial(n) // factorial(n - i)
            return self._lift_a(w, n - i).scale(coef)
        _, nu, b = first
        if second[0] == "a":
            # (D^nu b)_i a = (-1)^nu (i!/(i-nu)!) b_(i-nu) a; only j = 0 survives
            if i != nu:
                return self.zero()
            w = bilin_apply(T.p0_10, b, second[1])
            return CElement(w.scale((-1) ** nu * factorial(nu)))
        _, m, b2 = second
        j = i - nu
        if j < 0:
            return self.zero()
        sign = (-1) ** nu * (factorial(i) // factorial(j))
        out = self.zero()
        if j <= m:
            w0 = bilin_apply(T.p0_11, b, b2)  # degree 1 value
            c0 = sign * (factorial(m) // factorial(m - j))
            out = out + self._lift_b(w0, m - j).scale(c0)
        if 1 <= j <= m + 1:
            w1 = bilin_apply(T.p1_11, b, b2)  # degree 0 value
            c1 = sign * (j * factorial(m) // factorial(m - j + 1))
            out = out + self._lift_a(w1, m - j + 1).scale(c1)
        return out

    def product(self, i: int, u: CElement, v: CElement) -> CElement:
        """The i-th product u_i v, bilinear over the normal-form parts."""
        if i < 0:
            raise ValueError("product index must be nonnegative")
        firsts = []
        if not u.a_part.is_zero():
            firsts.append(("a", u.a_part))
        firsts.extend(("b", n, w) for n, w in u.b_parts.items())
        seconds = []
        if not v.a_part.is_zero():
            seconds.append(("a", v.a_part))
        seconds.extend(("b", n, w) for n, w in v.b_parts.items())
        out = self.zero()
        for f in firsts:
            for s in seconds:
                key = (i, f, s)
                cached = self._prod_cache.get(key)
                if cached is None:
                    cached = self._gen_product(i, f, s)
                    self._prod_cache[key] = cached
                out = out + cached
        return out

    # -- the series oracle ------------------------------------------------
    #
    # Laurent polynomials are dicts {exponent: CElement}, always purely
    # singular (exponents <= -1).  Sing after e^(xD) commutes with the
    # later Sing projections, which is what makes staged evaluation sound.

    def _series_base(self, fu: tuple, fv: tuple) -> dict[int, CElement]:
        """Y(u, x) v for plain generators: the defining product tables."""
        T = self.tca
        if fu[0] == "a":
            if fv[0] == "a":
                return {}
            w = bilin_apply(T.p0_01, fu[1], fv[1])
            return _trim({-1: CElement(w)})
        if fv[0] == "a":
            w = bilin_apply(T.p0_10, fu[1], fv[1])
            return _trim({-1: CElement(w)})
        w0 = bilin_apply(T.p0_11, fu[1], fv[1])
        w1 = bilin_apply(T.p1_11, fu[1], fv[1])
        return _trim({-1: CElement(self.A.zero(), {0: w0}), -2: CElement(w1)})

    def _sing_exp_d(self, s: dict[int, CElement]) -> dict[int, CElement]:
        """Sing(e^(xD) s) for a purely singular s."""
        out: dict[int, CElement] = {}
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

    def _series_gen_dv(self, fu: tuple, n: int, fv: tuple) -> dict[int, CElement]:
        """Y(u, x) D^n v = Sing(e^(xD) (-d/dx)^n Y(v, -x) u)."""
        s = _subst_neg(self._series_base(fv, fu))
        for _ in range(n):
            s = _neg_ddx(s)
        return self._sing_exp_d(s)

    def sing_oracle(self, i: int, u: tuple, v: tuple) -> CElement:
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


def _trim(s: dict[int, CElement]) -> dict[int, CElement]:
    return {k: c for k, c in s.items() if not c.is_zero()}


def _subst_neg(s: dict[int, CElement]) -> dict[int, CElement]:
    """x -> -x on a Laurent polynomial."""
    return {k: (c if k % 2 == 0 else c.scale(-1)) for k, c in s.items()}


def _neg_ddx(s: dict[int, CElement]) -> dict[int, CElement]:
    out = {}
    for k, c in s.items():
        if k != 0:
            out[k - 1] = c.scale(-k)
    return _trim(out)


# -- checkers -------------------------------------------------------------


def check_vertex_lie(inst: VertexLie, cutoff: int | None = None) -> CheckReport:
    """Component axioms on normal-form basis elements.

    hs, hp, dcomm, ha and grading are stated in ``laws``; they are verified
    for all tuples whose total degree stays within the cutoff (so every
    intermediate is representable), with D applied wherever its result
    stays within the algebra's cutoff.  The normal-form dimensions are
    checked here: degree 0 is A and each degree 1..cutoff is B.
    """
    top = inst.cutoff if cutoff is None else min(cutoff, inst.cutoff)
    elems = [(l, e, e.max_degree()) for l, e in inst.basis_elements()]
    pairs = [(x, y) for x in elems for y in elems if x[2] + y[2] <= top]
    triples = [(x, y, [z for z in elems if x[2] + y[2] + z[2] <= top]) for x, y in pairs]

    def dims_part():
        out = []
        if len([l for l, e, d in elems if d == 0]) != inst.A.dim:
            out.append(Violation(MODULE, "dim", ("degree=0",), "basis count", str(inst.A.dim)))
        for n in range(1, top + 1):
            cnt = len([l for l, e, d in elems if d == n])
            if cnt != inst.B.dim:
                out.append(Violation(MODULE, "dim", ("degree=%d" % n,), str(cnt), str(inst.B.dim)))
        return out

    return CheckReport(
        laws.check_pair_laws(inst, MODULE, format_celement, top, inst.cutoff, pairs)
        + laws.check_ha(inst, MODULE, format_celement, top, triples)
        + dims_part()
    )


def check_oracle_agreement(inst: VertexLie, cutoff: int | None = None) -> CheckReport:
    """Closed-form products vs the series oracle, on every generator pair
    and every index within the grading support (plus one beyond)."""
    top = inst.cutoff if cutoff is None else min(cutoff, inst.cutoff)
    gens: list[tuple[str, tuple, int]] = [
        ("a=" + l, ("a", inst.A.unit_vector(l)), 0) for l in inst.A.basis
    ]
    for n in range(0, top):
        for l in inst.B.basis:
            gens.append(("D%d[%s]" % (n, l), ("b", n, inst.B.unit_vector(l)), n + 1))

    def as_element(spec) -> CElement:
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
                    out.append(
                        Violation(MODULE, "oracle", (lu, lv, "i=%d" % i), format_celement(closed), format_celement(oracle))
                    )
    return CheckReport(out)
