"""Exact rational linear algebra over named finite bases.

Everything downstream (algebra multiplications, brackets, pairings,
derivations) is stored as structure constants against the bases defined
here, so equality of canonical sparse forms is equality of the
mathematical objects.  Scalars are exact rationals in the form
``rational`` gives: an int when integral, else a Fraction; never a
float.  So the integer arithmetic, most of it, stays in C-level ints.

The public ``Vector(space, coeffs)`` constructor coerces and range-checks
its input.  Results of the ``Vector`` arithmetic (``bilin_apply``,
``map_apply``, ``+``, ``-``, ``scale``) are built by the private
``Vector._trusted``, which skips coercion and the range check: their
indices come from vectors and tables that were validated when they were
built.  Such a result may also be one of its
inputs or a stored vector itself: for example ``bilin_apply`` of two basis
vectors returns ``table[i][j]``, and of a zero argument the map's own zero
vector.  That sharing is safe because a Vector is never modified after
construction: every operation returns a new Vector, so no caller can
change a table through a value it was handed.  Spaces are compared by
identity first and by name and basis only when they are distinct objects,
so a separately built, value-equal space is still accepted.

``add_scaled`` is the one accumulation loop: acc += c * items on a dict,
over (key, scalar) pairs whose keys are basis indices here and monomials
in ``vlie``, ``vpa`` and ``quotient``; the memos of the last two store
tuples of such pairs, which it reads as stored.  It leaves a cancelled
key at 0, and each caller's canonical form drops it.

A Vector's ``items`` are canonical: sorted by index, zero-free, an int
wherever a scalar is integral, so two vectors of one space are equal
exactly when their item tuples are.  There is one combination kernel, on
such tuples: ``comb_items`` sums table rows by the coefficients of an
item tuple through ``add_scaled``, with ``add_items``, ``neg_items`` and
``scale_items`` beside it, and ``canonical`` puts a ``{index: scalar}``
dict into canonical form for every result.  The Courant and conformal
checkers and the quotient run it on tables read once as item tuples
(``item_table``), and the graded view on the item tables it fills.
``bilin_apply`` and ``map_apply`` are the checked ``Vector`` API on a
map (``map_apply`` runs ``comb_items`` after its space check), and
``bilin_apply`` is ``tca.check_leibniz_form``'s reference path.

``Echelon``, the one exact row elimination (the quotient's relations,
``rank``, ``solve_linear``), stores each sparse row under its largest key
with coefficient 1, and no row holds another row's lead.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping

Scalar = int | Fraction


class SpaceMismatch(ValueError):
    """Raised when vectors or maps are combined across different spaces."""


def rational(x) -> Scalar:
    """``x`` as an int when integral, else as a Fraction; TypeError for a
    float or any other non-rational."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if not isinstance(x, Rational):
            raise TypeError("exact rational expected, got %s %r" % (type(x).__name__, x))
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def scalar_from_str(text: str, negate: bool = False) -> Scalar:
    """Parse ``p`` or ``p/q``, exactly ``-?[0-9]+(/[0-9]+)?`` as
    ``scalar_to_str`` prints it, into an exact rational, negated when
    ``negate`` is set.

    Raises ValueError on malformed input or a zero denominator.
    """
    num, slash, den = text.partition("/")
    signed = num.isdigit() or num[:1] == "-" and num[1:].isdigit()
    if not (text.isascii() and signed and (not slash or den.isdigit())):
        raise ValueError("malformed scalar %r" % text)
    n = int(num)
    if not slash:
        return -n if negate else n
    d = int(den)
    if d == 0:
        raise ValueError("zero denominator in %r" % text)
    return rational(Fraction(-n if negate else n, d))


def scalar_to_str(value: Scalar) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


class BasedSpace:
    """A finite-dimensional Q-vector space with an ordered, named basis."""

    __slots__ = ("name", "basis", "_index")

    def __init__(self, name: str, basis: Iterable[str]):
        self.name = name
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("duplicate basis labels in space %r" % name)
        self._index = {label: i for i, label in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError("no basis label %r in space %r" % (label, self.name)) from None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, BasedSpace)
            and self.name == other.name
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.name, self.basis))

    def __repr__(self) -> str:
        return "BasedSpace(%r, dim=%d)" % (self.name, self.dim)

    def zero(self) -> "Vector":
        return Vector(self, {})

    def unit_vector(self, label: str) -> "Vector":
        return Vector(self, {self.index(label): 1})

    def vector(self, coeffs: Mapping[str, object]) -> "Vector":
        """Vector from a {label: coefficient} mapping."""
        return Vector(self, {self.index(l): c for l, c in coeffs.items()})

    def basis_vectors(self) -> list["Vector"]:
        return [self.unit_vector(l) for l in self.basis]


class Vector:
    """Sparse vector in a BasedSpace; canonical zero-free sorted form.

    Immutable after construction, so structural equality is mathematical
    equality and instances can be shared freely and hashed.
    """

    __slots__ = ("space", "items")

    def __init__(self, space: BasedSpace, coeffs: Mapping[int, object]):
        items = []
        dim = space.dim
        for i in sorted(coeffs):
            if not 0 <= i < dim:
                raise IndexError("index %d out of range for space %r" % (i, space.name))
            c = coeffs[i]
            if type(c) is not int:
                c = rational(c)
            if c:
                items.append((i, c))
        self.space = space
        self.items = tuple(items)

    @classmethod
    def _trusted(cls, space: BasedSpace, items: tuple) -> "Vector":
        """A kernel result: ``items`` are canonical (``canonical`` makes
        them from a dict) at indices already known to lie in ``space``, so
        nothing is coerced or range-checked."""
        v = object.__new__(cls)
        v.space = space
        v.items = items
        return v

    def __getitem__(self, i: int) -> Scalar:
        for j, c in self.items:
            if j == i:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.items

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and (self.space is other.space or self.space == other.space)
            and self.items == other.items
        )

    def __hash__(self) -> int:
        return hash((self.space, self.items))

    def __add__(self, other: "Vector") -> "Vector":
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatch(
                "cannot add vectors from %r and %r" % (self.space.name, other.space.name)
            )
        return Vector._trusted(self.space, add_items(self.items, other.items))

    def __sub__(self, other: "Vector") -> "Vector":
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatch(
                "cannot subtract vectors from %r and %r" % (self.space.name, other.space.name)
            )
        return Vector._trusted(self.space, add_items(self.items, neg_items(other.items)))

    def __neg__(self) -> "Vector":
        return Vector._trusted(self.space, neg_items(self.items))

    def scale(self, factor) -> "Vector":
        f = factor if type(factor) is int else rational(factor)
        if f == 1:
            return self
        return Vector._trusted(self.space, scale_items(self.items, f))

    def __repr__(self) -> str:
        return "Vector(%s: %s)" % (self.space.name, format_vector(self))


def format_vector(v: Vector) -> str:
    """Render a vector as e.g. ``2*E - 1/2*H``; the zero vector as ``0``."""
    return format_items(v.space, v.items)


def format_items(space: BasedSpace, items: tuple) -> str:
    """Render canonical items of ``space`` as ``format_vector`` renders
    the vector that holds them."""
    if not items:
        return "0"
    parts = []
    for i, c in items:
        label = space.basis[i]
        if c == 1:
            term = label
        elif c == -1:
            term = "-" + label
        else:
            term = "%s*%s" % (scalar_to_str(c), label)
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts)


# -- canonical item tuples (see the module docstring) -------------------------


def canonical(coeffs: Mapping[int, Scalar]) -> tuple:
    """The items of ``{index: scalar}`` in canonical form."""
    return tuple(sorted([(i, c if type(c) is int else rational(c)) for i, c in coeffs.items() if c]))


def add_scaled(acc: dict, items, c: Scalar = 1) -> dict:
    """acc += c * items in place, over (key, scalar) pairs; returns acc.
    A key that cancels is left at 0 for the caller's canonical form."""
    scaled = c != 1
    for k, w in items:
        if scaled:
            w = c * w
        x = acc.get(k)
        acc[k] = w if x is None else x + w
    return acc


def add_items(a: tuple, b: tuple) -> tuple:
    """a + b on canonical item tuples."""
    if not a:
        return b
    if not b:
        return a
    return canonical(add_scaled(dict(a), b))


def neg_items(a: tuple) -> tuple:
    """-a on a canonical item tuple."""
    return tuple([(i, -c) for i, c in a])


def scale_items(a: tuple, f: Scalar) -> tuple:
    """f * a on a canonical item tuple, for an int or a Fraction f."""
    if f == 1:
        return a
    if not f:
        return ()
    # a nonzero multiple of a nonzero scalar is nonzero, in the same place
    return tuple([(i, y if type(y := c * f) is int else rational(y)) for i, c in a])


def comb_items(rows, items: tuple) -> tuple:
    """sum_k c_k * rows[k] over the items (k, c_k), each rows[k] a
    canonical item tuple and each c_k an int or a Fraction; canonical."""
    if not items:
        return ()
    if len(items) == 1:
        (k, c), = items
        return rows[k] if c == 1 else scale_items(rows[k], c)
    out: dict[int, Scalar] = {}
    for k, c in items:
        add_scaled(out, rows[k], c)
    return canonical(out)


class LinearMap:
    """Linear map given by its columns on the domain basis."""

    __slots__ = ("domain", "codomain", "columns", "_zero")

    def __init__(self, domain: BasedSpace, codomain: BasedSpace, columns: Iterable[Vector]):
        cols = tuple(columns)
        if len(cols) != domain.dim:
            raise ValueError(
                "map needs %d columns, got %d" % (domain.dim, len(cols))
            )
        for col in cols:
            if col.space is not codomain and col.space != codomain:
                raise SpaceMismatch("column not in codomain %r" % codomain.name)
        self.domain = domain
        self.codomain = codomain
        self.columns = cols
        self._zero = Vector._trusted(codomain, ())

    @classmethod
    def zero(cls, domain: BasedSpace, codomain: BasedSpace) -> "LinearMap":
        return cls(domain, codomain, [codomain.zero()] * domain.dim)

    @classmethod
    def identity(cls, space: BasedSpace) -> "LinearMap":
        return cls(space, space, space.basis_vectors())

    @classmethod
    def from_entries(
        cls,
        domain: BasedSpace,
        codomain: BasedSpace,
        entries: Mapping[str, Mapping[str, object]],
    ) -> "LinearMap":
        """Columns from {domain_label: {codomain_label: coeff}}; missing -> 0."""
        cols = []
        for label in domain.basis:
            cols.append(codomain.vector(entries.get(label, {})))
        return cls(domain, codomain, cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.columns))

    def __repr__(self) -> str:
        return "LinearMap(%s -> %s)" % (self.domain.name, self.codomain.name)


def item_table(b: "BilinearMap") -> tuple[list[list[tuple]], list[list[tuple]]]:
    """b's table as item tuples, b(e_i, e_j) at [i][j], and its columns,
    b(., e_j) at [j]."""
    rows = [[v.items for v in row] for row in b.table]
    return rows, [[row[j] for row in rows] for j in range(b.right.dim)]


def map_apply(m: LinearMap, v: Vector) -> Vector:
    if v.space is not m.domain and v.space != m.domain:
        raise SpaceMismatch(
            "map_apply: vector in %r, domain is %r" % (v.space.name, m.domain.name)
        )
    items = v.items
    if not items:
        return m._zero
    cols = m.columns
    return Vector._trusted(m.codomain, comb_items({k: cols[k].items for k, _ in items}, items))


class BilinearMap:
    """Bilinear map by structure constants: a full table over basis pairs.

    The symmetric / antisymmetric flags are assertion-only metadata: when
    set they are validated once at construction.  Axiom checkers never rely
    on them and re-verify symmetry explicitly, so deliberately broken tables
    can be built with the flags off.
    """

    __slots__ = ("left", "right", "codomain", "table", "symmetric", "antisymmetric", "_zero")

    def __init__(
        self,
        left: BasedSpace,
        right: BasedSpace,
        codomain: BasedSpace,
        table: Iterable[Iterable[Vector]],
        symmetric: bool = False,
        antisymmetric: bool = False,
    ):
        rows = tuple(tuple(row) for row in table)
        if len(rows) != left.dim or any(len(r) != right.dim for r in rows):
            raise ValueError("structure-constant table has wrong shape")
        for row in rows:
            for v in row:
                if v.space is not codomain and v.space != codomain:
                    raise SpaceMismatch("table entry not in codomain %r" % codomain.name)
        if (symmetric or antisymmetric) and left != right:
            raise ValueError("symmetry flags need matching left/right spaces")
        if symmetric:
            for i in range(left.dim):
                for j in range(right.dim):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError(
                            "symmetric flag set but table(%s,%s) != table(%s,%s)"
                            % (left.basis[i], right.basis[j], right.basis[j], left.basis[i])
                        )
        if antisymmetric:
            for i in range(left.dim):
                for j in range(right.dim):
                    if rows[i][j] != -rows[j][i]:
                        raise ValueError("antisymmetric flag set but table is not")
        self.left = left
        self.right = right
        self.codomain = codomain
        self.table = rows
        self._zero = Vector._trusted(codomain, ())
        self.symmetric = symmetric
        self.antisymmetric = antisymmetric

    @classmethod
    def zero(cls, left: BasedSpace, right: BasedSpace, codomain: BasedSpace) -> "BilinearMap":
        z = codomain.zero()
        return cls(left, right, codomain, [[z] * right.dim for _ in range(left.dim)])

    @classmethod
    def from_entries(
        cls,
        left: BasedSpace,
        right: BasedSpace,
        codomain: BasedSpace,
        entries: Mapping[tuple[str, str], Mapping[str, object]],
        symmetric: bool = False,
        antisymmetric: bool = False,
    ) -> "BilinearMap":
        """Table from {(left_label, right_label): {codomain_label: coeff}}."""
        rows = []
        for l in left.basis:
            row = []
            for r in right.basis:
                row.append(codomain.vector(entries.get((l, r), {})))
            rows.append(row)
        return cls(left, right, codomain, rows, symmetric=symmetric, antisymmetric=antisymmetric)

    def __eq__(self, other) -> bool:
        """Equality of the underlying tables; flags are metadata only."""
        return (
            isinstance(other, BilinearMap)
            and self.left == other.left
            and self.right == other.right
            and self.codomain == other.codomain
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.left, self.right, self.codomain, self.table))

    def __repr__(self) -> str:
        return "BilinearMap(%s x %s -> %s)" % (
            self.left.name,
            self.right.name,
            self.codomain.name,
        )


def bilin_apply(b: BilinearMap, u: Vector, v: Vector) -> Vector:
    if u.space is not b.left and u.space != b.left:
        raise SpaceMismatch(
            "bilin_apply: left vector in %r, expected %r" % (u.space.name, b.left.name)
        )
    if v.space is not b.right and v.space != b.right:
        raise SpaceMismatch(
            "bilin_apply: right vector in %r, expected %r" % (v.space.name, b.right.name)
        )
    table = b.table
    u_items = u.items
    v_items = v.items
    if len(u_items) == 1 and len(v_items) == 1:
        (i, c), = u_items
        (j, d), = v_items
        entry = table[i][j]
        cd = d if c == 1 else c * d
        return entry if cd == 1 else entry.scale(cd)
    if not u_items or not v_items:
        return b._zero
    out: dict[int, Scalar] = {}
    for i, c in u_items:
        row = table[i]
        for j, d in v_items:
            entry = row[j].items
            if entry:
                add_scaled(out, entry, c * d)
    return Vector._trusted(b.codomain, canonical(out))


class Echelon:
    """Fully reduced echelon basis of the span of sparse rows.

    Rows are ``{key: scalar}`` dicts over totally ordered keys.  Each row
    is stored in ``rows`` under its lead, its largest key, with coefficient
    1, and no row holds another row's lead; ``insert`` keeps that
    invariant.  For a fixed key order this basis is unique, so it does not
    depend on the order in which rows were inserted.
    """

    def __init__(self):
        self.rows: dict = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def eliminate(self, vec: Mapping) -> dict:
        """``vec`` minus the multiples of rows that clear its leads.

        The result holds no lead, and it is empty exactly when ``vec`` lies
        in the span.  Subtracting a row changes no other lead's
        coefficient, so one pass over the leads present in ``vec`` clears
        them all.
        """
        out = {k: c if type(c) is int else rational(c) for k, c in vec.items() if c}
        rows = self.rows
        for lead in [k for k in out if k in rows]:
            _sub_scaled(out, out[lead], rows[lead])
        return out

    def insert(self, vec: Mapping) -> bool:
        """Add ``vec`` to the span; False when it already lay in it."""
        vec = self.eliminate(vec)
        if not vec:
            return False
        lead = max(vec)
        c = vec[lead]
        row = vec if c == 1 else {k: rational(Fraction(w, c)) for k, w in vec.items()}
        # clear the new lead from every other row
        for other in self.rows.values():
            c = other.get(lead)
            if c:
                _sub_scaled(other, c, row)
        self.rows[lead] = row
        return True


def _sub_scaled(dst: dict, c: Scalar, src: dict) -> None:
    """``dst -= c * src`` in place, dropping the keys that cancel."""
    for k, w in src.items():
        nv = dst.get(k, 0) - c * w
        if nv:
            dst[k] = nv if type(nv) is int else rational(nv)
        else:
            del dst[k]


def rank(vectors: Iterable[Vector]) -> int:
    """Rank of a family of vectors, by exact elimination."""
    ech = Echelon()
    for v in vectors:
        ech.insert(dict(v.items))
    return ech.dim


def solve_linear(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar] | None:
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to 0.  Column j is keyed -j, so leads fall on the
    leftmost columns as in Gauss-Jordan, and the right-hand side is keyed
    -n, below every column: a row led by it reads 0 = 1.
    """
    n = len(rows[0]) if rows else 0
    ech = Echelon()
    for row, r in zip(rows, rhs):
        vec = {-j: rational(x) for j, x in enumerate(row)}
        vec[-n] = rational(r)
        ech.insert(vec)
    if -n in ech.rows:
        return None
    sol = [0] * n
    for lead, row in ech.rows.items():
        sol[-lead] = row.get(-n, 0)
    return sol
