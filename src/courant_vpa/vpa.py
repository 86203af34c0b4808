"""The truncated graded symmetric algebra over the vertex Lie algebra,
with its derivation D and the extended n-th products.

Elements are ``vlie.SCElement``s, the one element type of both layers:
the vertex Lie algebra is the single-factor part of this algebra, and
its generator products are the base of the n-th products here.
Monomials are multisets of normal-form generators: an A-basis label
(degree 0) or D^n of a B-basis label (degree n + 1), kept in a fixed
canonical order so that structural equality of the sparse term maps is
equality in the algebra.  All computations are degree-truncated: any
operation that would create a monomial above the cutoff raises
CutoffError rather than silently dropping terms, so a passing axiom
report never hides truncation.

The n-th products are evaluated by a two-step rule:

* generator route: a single C-generator acts on a product of factors as a
  derivation, through ``VertexLie.generator_product`` on the factors;
* skew route: a general element u acts on a single generator g through

      u_n g = sum_(j >= n) (-1)^(j+1) (D^(j-n) / (j-n)!) (g_j u),

  a finite sum by the grading bound, and then extends to products of
  generators by the derivation law.

Both routes are exercised against each other where they overlap; the
extension of the generator products to the symmetric algebra is unique,
so agreement is a real consistency check, not a tautology.

Lemma (unit and hd by construction).  For any tables and cutoff,
``product`` gives u_n 1 = 1_n u = 0 and u_n (v.w) = (u_n v).w + v.(u_n w)
wherever both sides stay within the cutoff.  Proof: by bilinearity take
monomials.  ``_pair`` evaluates mu_n mv as the sum over the factors f of
mv, with multiplicity, of (mu_n f).(mv without f): the generator route
directly, the skew route by splitting off the first factor and recursing
on the rest.  A sum over the factors of v.w splits into the sums over v
and over w, and 1 has no factors; 1_n g flips g over 1 by the generator
route, again an empty sum.  So ``check_vpa`` does not restate these laws;
a property test over mutated tables guards the rule.

Products are bilinear, so ``product`` expands over pairs of monomials and
sums the monomial-pair results into one accumulator.  A check evaluates
the same (n, monomial, monomial) pairs many times over, so ``check_vpa``
memoizes the pair results, keyed by route as well so that the two routes
stay independent computations, and D of each monomial, each as a tuple of
(monomial, coefficient) items that ``add_scaled`` reads as stored.  The
memo lives only inside a ``SymAlgebra.memoized`` block and is dropped
when the block returns or raises; ``check_vpa`` runs in one such block.
The quotient opens none: its algebra serves tens of thousands of
products that never repeat, most of them zero, which a memo would only
hold.
The generator products under both routes are few, one per index and
pair of basis factors, and ``VertexLie`` keeps them for its lifetime.
Failing evaluations (CutoffError) are never stored, so they raise again
every time.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from . import laws
from .linalg import Scalar, add_scaled, rational
from .reports import CheckReport, Violation
from .vlie import (
    CutoffError,
    Factor,
    Monomial,
    SCElement,
    VertexLie,
    combine,
    factor_degree,
    format_element,
    format_monomial,
    mono_degree,
)

MODULE = "vpa"


def make_monomial(factors) -> Monomial:
    # Tuple order puts ("a", i) before every ("b", n, i) and sorts the
    # D-power factors by (n, i), so it is the canonical order by degree.
    return tuple(sorted(factors))


def _nonzero(terms: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    # canonical like SCElement's, so memoized terms stay on the int path
    return {m: c if type(c) is int else rational(c) for m, c in terms.items() if c}


class _Memo:
    """Monomial-level products and derivatives, kept compact: each value
    is a tuple of (monomial, coefficient) items, each item interned once
    per memo, and pair rows are keyed (route, n, mu) -> mv."""

    __slots__ = ("rows", "d", "items")

    def __init__(self):
        self.rows: dict[tuple[str, int, Monomial], dict[Monomial, tuple]] = {}
        self.d: dict[Monomial, tuple] = {}
        self.items: dict[tuple[Monomial, Scalar], tuple[Monomial, Scalar]] = {}

    def __len__(self) -> int:
        return len(self.d) + sum(len(row) for row in self.rows.values())

    def freeze(self, terms: dict[Monomial, Scalar]) -> tuple:
        items = self.items
        return tuple([items.setdefault(t, t) for t in terms.items()])


class SymAlgebra:
    """Computation context for the truncated symmetric algebra."""

    def __init__(self, vlie: VertexLie):
        self.vlie = vlie
        self.A = vlie.A
        self.B = vlie.B
        self.cutoff = vlie.cutoff
        self._memo: _Memo | None = None

    # -- constructors ----------------------------------------------------

    def zero(self) -> SCElement:
        return SCElement({})

    def one(self) -> SCElement:
        return SCElement({(): 1})

    def monomial(self, factors) -> SCElement:
        m = make_monomial(factors)
        if mono_degree(m) > self.cutoff:
            raise CutoffError("monomial degree %d > cutoff %d" % (mono_degree(m), self.cutoff))
        return SCElement({m: 1})

    def a_gen(self, label: str) -> SCElement:
        return self.monomial([("a", self.A.index(label))])

    def b_gen(self, label: str, n: int = 0) -> SCElement:
        return self.monomial([("b", n, self.B.index(label))])

    def generators(self, max_degree: int | None = None) -> list[tuple[str, Factor]]:
        top = self.cutoff if max_degree is None else min(max_degree, self.cutoff)
        out = [(l, ("a", i)) for i, l in enumerate(self.A.basis)]
        for n in range(0, top):
            for i, l in enumerate(self.B.basis):
                out.append(("D%d[%s]" % (n, l), ("b", n, i)))
        return out

    def spanning_monomials(self, max_degree: int | None = None, max_factors: int = 3):
        """All canonical monomials of degree <= max_degree with at most
        max_factors factors (including the empty monomial)."""
        top = self.cutoff if max_degree is None else min(max_degree, self.cutoff)
        gens = [f for _, f in self.generators(top)]
        out = [()]
        for k in range(1, max_factors + 1):
            for combo in combinations_with_replacement(gens, k):
                m = make_monomial(combo)
                if mono_degree(m) <= top:
                    out.append(m)
        return out

    # -- ring operations ---------------------------------------------------

    def multiply(self, u: SCElement, v: SCElement) -> SCElement:
        if not u.terms or not v.terms:
            return SCElement({})
        if len(u.terms) > len(v.terms):
            u, v = v, u
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in u.terms.items():
            self._add_times(out, v.terms.items(), m1, c1)
        return SCElement(out)

    def _add_times(self, acc: dict, terms, m: Monomial, scale=1) -> None:
        """acc += scale * (terms . m) for (monomial, coefficient) pairs."""
        dm = mono_degree(m)
        scaled = scale != 1
        for t, c in terms:
            if m:
                if mono_degree(t) + dm > self.cutoff:
                    raise CutoffError("product degree exceeds cutoff %d" % self.cutoff)
                t = make_monomial(t + m)
            if scaled:
                c = c * scale
            if t in acc:
                acc[t] += c
            else:
                acc[t] = c

    combine = staticmethod(combine)

    def _d_monomial(self, m: Monomial) -> tuple:
        """D of one monomial by Leibniz over its factors, as items."""
        memo = self._memo
        if memo is not None:
            got = memo.d.get(m)
            if got is not None:
                return got
        acc: dict[Monomial, Scalar] = {}
        for k, f in enumerate(m):
            df = self.vlie.d(SCElement({(f,): 1})).terms
            self._add_times(acc, df.items(), m[:k] + m[k + 1 :])
        if memo is None:
            return tuple(acc.items())
        got = memo.d[m] = memo.freeze(acc)
        return got

    def _d_terms(self, terms: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
        acc: dict[Monomial, Scalar] = {}
        for m, c in terms.items():
            add_scaled(acc, self._d_monomial(m), c)
        return _nonzero(acc)

    def d(self, u: SCElement) -> SCElement:
        """The derivation extending D: Leibniz over factors."""
        return SCElement(self._d_terms(u.terms))

    # -- the n-th products --------------------------------------------------

    @contextmanager
    def memoized(self):
        """Memoize monomial-pair products and monomial derivatives inside
        the block; the memo is dropped on leaving it."""
        outer = self._memo
        if outer is None:
            self._memo = _Memo()
        try:
            yield
        finally:
            self._memo = outer

    def _pair(self, route: str, n: int, mu: Monomial, mv: Monomial) -> tuple:
        """mu_n mv along one route, as items."""
        memo = self._memo
        if memo is None:
            return tuple(self._pair_terms(route, n, mu, mv).items())
        key = (route, n, mu)
        row = memo.rows.get(key)
        if row is None:
            row = memo.rows[key] = {}
        got = row.get(mv)
        if got is None:
            got = row[mv] = memo.freeze(self._pair_terms(route, n, mu, mv))
        return got

    def _pair_terms(self, route: str, n: int, mu: Monomial, mv: Monomial) -> dict[Monomial, Scalar]:
        if route == "generator":
            return self._gen_on_monomial(mu[0], n, mv)
        if not mv:
            return {}
        if len(mv) == 1:
            return self._skew_on_generator(mu, n, mv[0])
        g, rest = mv[:1], mv[1:]
        acc: dict[Monomial, Scalar] = {}
        self._add_times(acc, self._pair("skew", n, mu, g), rest)
        self._add_times(acc, self._pair("skew", n, mu, rest), g)
        return _nonzero(acc)

    def _gen_on_monomial(self, g: Factor, n: int, m: Monomial) -> dict[Monomial, Scalar]:
        """Generator route: g acts as a derivation over the factors of m."""
        acc: dict[Monomial, Scalar] = {}
        for k, f in enumerate(m):
            w = self.vlie.generator_product(n, g, f).terms
            if w:
                self._add_times(acc, w.items(), m[:k] + m[k + 1 :])
        return _nonzero(acc)

    def _skew_on_generator(self, mu: Monomial, n: int, g: Factor) -> dict[Monomial, Scalar]:
        """Skew route base case: mu_n g by flipping g over mu."""
        acc: dict[Monomial, Scalar] = {}
        for j in range(n, factor_degree(g) + mono_degree(mu)):
            w = self._pair("generator", j, (g,), mu)
            if not w:
                continue
            terms = dict(w)
            for _ in range(j - n):
                terms = self._d_terms(terms)
            coef = rational(Fraction((-1) ** (j + 1), factorial(j - n)))
            add_scaled(acc, terms.items(), coef)
        return _nonzero(acc)

    def product(self, n: int, u: SCElement, v: SCElement, route: str = "auto") -> SCElement:
        """The n-th product u_n v, expanded bilinearly over monomial pairs.

        route='generator' requires every monomial of u to be a single
        factor; route='skew' forces the flip formula; 'auto' uses the
        generator route per single-factor monomial of u and the skew route
        for the rest.
        """
        if n < 0:
            raise ValueError("product index must be nonnegative")
        if route == "generator" and any(len(mu) != 1 for mu in u.terms):
            raise ValueError("generator route needs single-factor monomials")
        if not u.terms or not v.terms:
            return SCElement({})
        acc: dict[Monomial, Scalar] = {}
        for mu, cu in u.terms.items():
            kind = "generator" if route == "generator" or (route == "auto" and len(mu) == 1) else "skew"
            unit = cu == 1
            for mv, cv in v.terms.items():
                w = self._pair(kind, n, mu, mv)
                if w:
                    add_scaled(acc, w, cv if unit else cu * cv)
        return SCElement(acc)


# -- spanning checks --------------------------------------------------------


def check_vpa(sym: SymAlgebra) -> CheckReport:
    """Vertex Poisson axioms on a spanning set of monomials.

    Sections (all exact; tuples chosen so every intermediate stays within
    the cutoff):

        hs, hp, dcomm, grading   (stated in ``laws``) on pairs of spanning
                  monomials of at most two factors
        ha        (stated in ``laws``) on triples of generators
        unique    generator route vs skew route agree on generator pairs

    The unit law and hd hold for any tables by the lemma of the module
    docstring, so no section restates them.  Composite factors beyond the
    enumerated shapes are redundant: both sides of each law are
    derivations in the composite slot.  For ha, the lemma of the ``laws``
    docstring shows that generator thirds suffice.
    """
    top = sym.cutoff
    gen_elems = [(l, sym.monomial([f]), factor_degree(f)) for l, f in sym.generators(top)]
    span2 = sym.spanning_monomials(top, 2)
    span_elems = [(format_monomial(sym, m), SCElement({m: 1}), mono_degree(m)) for m in span2]
    fmt = lambda u: format_element(sym, u)

    def unique_part():
        out = []
        for lu, u, p in gen_elems:
            for lv, v, q in gen_elems:
                lo = max(0, p + q - top - 1)
                for n in range(lo, p + q):
                    a = sym.product(n, u, v, route="generator")
                    b = sym.product(n, u, v, route="skew")
                    if a != b:
                        out.append(Violation(MODULE, "unique", (lu, lv, "n=%d" % n), fmt(a), fmt(b)))
        return out

    pairs = [(x, y) for x in span_elems for y in span_elems if x[2] + y[2] <= top + 1]
    triples = [(x, y, gen_elems) for x in gen_elems for y in gen_elems if x[2] + y[2] <= top + 1]
    with sym.memoized():
        return CheckReport(
            laws.check_pair_laws(sym, MODULE, fmt, top, pairs)
            + laws.check_ha(sym, MODULE, fmt, top, triples)
            + unique_part()
        )
