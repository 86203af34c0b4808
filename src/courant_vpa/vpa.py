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

The n-th products are evaluated by a two-step rule, the route fixed by
the number of factors of u's monomial:

* generator route, one factor: a C-generator acts on a product of
  factors as a derivation, through ``VertexLie.generator_product``;
* skew route, otherwise: u acts on a single generator g through

      u_n g = sum_(j >= n) (-1)^(j+1) (D^(j-n) / (j-n)!) (g_j u),

  a finite sum by the grading bound, and then extends to products of
  generators by the derivation law.

On a generator pair the skew formula is the right side of hs, so hs on
every generator pair compares the two routes where they overlap: a real
check, as the extension of the generator products is unique.

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
sums the monomial-pair results into one accumulator.  Nothing is kept
between calls but the generator products, which are few, one per index
and pair of basis factors: ``VertexLie`` keeps them for its lifetime.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from . import laws
from .linalg import Scalar, add_scaled, rational
from .reports import CheckReport
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
    # drops cancelled terms, so a zero result is empty, and keeps the
    # coefficients canonical like SCElement's, so they stay on the int path
    return {m: c if type(c) is int else rational(c) for m, c in terms.items() if c}


class SymAlgebra:
    """Computation context for the truncated symmetric algebra."""

    def __init__(self, vlie: VertexLie):
        self.vlie = vlie
        self.A = vlie.A
        self.B = vlie.B
        self.cutoff = vlie.cutoff

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

    def _d_monomial(self, m: Monomial) -> dict[Monomial, Scalar]:
        """D of one monomial by Leibniz over its factors."""
        acc: dict[Monomial, Scalar] = {}
        for k, f in enumerate(m):
            df = self.vlie.d(SCElement({(f,): 1})).terms
            self._add_times(acc, df.items(), m[:k] + m[k + 1 :])
        return acc

    def _d_terms(self, terms: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
        acc: dict[Monomial, Scalar] = {}
        for m, c in terms.items():
            add_scaled(acc, self._d_monomial(m).items(), c)
        return _nonzero(acc)

    def d(self, u: SCElement) -> SCElement:
        """The derivation extending D: Leibniz over factors."""
        return SCElement(self._d_terms(u.terms))

    # -- the n-th products --------------------------------------------------

    def _pair(self, n: int, mu: Monomial, mv: Monomial) -> dict[Monomial, Scalar]:
        """mu_n mv, by the route of mu."""
        if len(mu) == 1:
            return self._gen_on_monomial(mu[0], n, mv)
        if not mv:
            return {}
        if len(mv) == 1:
            return self._skew_on_generator(mu, n, mv[0])
        g, rest = mv[:1], mv[1:]
        acc: dict[Monomial, Scalar] = {}
        self._add_times(acc, self._pair(n, mu, g).items(), rest)
        self._add_times(acc, self._pair(n, mu, rest).items(), g)
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
            terms = self._pair(j, (g,), mu)
            if not terms:
                continue
            for _ in range(j - n):
                terms = self._d_terms(terms)
            coef = rational(Fraction((-1) ** (j + 1), factorial(j - n)))
            add_scaled(acc, terms.items(), coef)
        return _nonzero(acc)

    def product(self, n: int, u: SCElement, v: SCElement) -> SCElement:
        """The n-th product u_n v, expanded bilinearly over monomial pairs:
        the generator route for each single-factor monomial of u, the skew
        route for the rest."""
        if n < 0:
            raise ValueError("product index must be nonnegative")
        if not u.terms or not v.terms:
            return SCElement({})
        acc: dict[Monomial, Scalar] = {}
        for mu, cu in u.terms.items():
            unit = cu == 1
            for mv, cv in v.terms.items():
                w = self._pair(n, mu, mv)
                if w:
                    add_scaled(acc, w.items(), cv if unit else cu * cv)
        return SCElement(acc)


# -- the checker ------------------------------------------------------------


def check_vpa(sym: SymAlgebra) -> CheckReport:
    """Vertex Poisson axioms on generator tuples.

    Sections (all exact; tuples chosen so every intermediate stays within
    the cutoff), each law stated in ``laws``:

        hs, hp, dcomm   on every pair of generators; where p + q > top + 1,
                        hs compares the two product routes (module docstring)
        ha              on pairs of generators with p + q <= top + 1 against
                        every generator third

    On one-factor monomials ``product`` is ``VertexLie.generator_product``
    by the generator route, and ``d`` is ``VertexLie.d``, so each product
    and D of these tuples stays in the vertex Lie part and is evaluated
    there, on ``sym.vlie``.  The unit law and hd hold for any tables by the
    lemma of the module docstring, so no section restates them.  The
    lemmas of the ``laws`` docstring show that generator arguments suffice
    for the pair laws in either slot, and generator thirds for ha.
    """
    vl = sym.vlie
    top = sym.cutoff
    gens = [(l, e, e.max_degree()) for l, e in vl.basis_elements(top)]
    fmt = lambda u: format_element(vl, u)
    pairs = [(x, y) for x in gens for y in gens]
    triples = [(x, y, gens) for x, y in pairs if x[2] + y[2] <= top + 1]
    return CheckReport(
        laws.check_pair_laws(vl, MODULE, fmt, top, pairs)
        + laws.check_ha(vl, MODULE, fmt, top, triples)
    )
