"""Line-oriented text format for structure-constant files.

A file declares based spaces, linear maps, bilinear products, and one
STRUCTURE section binding them into a courant, 1tca, or graded-vpa
bundle.  '#' starts a comment; blank lines separate nothing.  All
coefficients are exact rationals ("3", "-1/2"); unspecified entries are
zero.  The printer emits a canonical serialization (sorted entries, no
zero rows, reduced coefficients), so print(parse(f)) re-parses to the
same object.

    META cutoff 4
    SPACE A e x
    SPACE B xD dx
    MAP del A B
      x -> dx
    PRODUCT pair B B A symmetric
      (xD,dx) -> x
      (dx,xD) -> x
    STRUCTURE courant
      algebra A
      unit e
      mult mul
      module B
      action act
      bracket brk
      anchor anc
      pairing pair
      partial del

A graded-vpa structure binds per-degree sections instead:

    STRUCTURE graded-vpa
      space 0 A
      space 1 B
      unit e
      d 0 d0
      mult 0 0 m_0_0
      prod 0 1 1 p_0_1_1

A binding line is a key, its degree indices, and the name of a SPACE, MAP
or PRODUCT, as ``SCHEMA`` lays out per kind (1tca binds c0 c1 partial
p0_10 p0_01 p0_11 p1_11); ``unit`` binds an expression in degree 0.  There
is one line per key, or one per degree tuple for space, d, mult and prod,
and unknown keys are rejected.  A malformed line is reported at its own
token; a missing binding, a wrong shape or a gap in the degrees at the
STRUCTURE line.

MAP and PRODUCT entry lines follow one grammar, with any whitespace
between tokens:

    label     a letter or _, then letters, ASCII digits, _ . [ ]
    coeff     ASCII digits, or digits/digits
    term      coeff*label | label
    expr      0 | [-] term, then (+ term | - term) repeated
    entry     label -> expr  (MAP),  (label,label) -> expr  (PRODUCT)

Each entry line is read by one whole-line match of it (MAP_ENTRY_RE,
PRODUCT_ENTRY_RE) and one findall of its terms, in time linear in the
line's length.  The token walker (_tokenize, _parse_expr) reads every
other line; it reads an entry line only to report its error, or when a
MAP entry's label is spelled like a keyword (such a line may open a
section, as the walker decides).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .courant import CourantAlgebroid, UnitalCommAlgebra
from .graded import GradedVpaView
from .linalg import BasedSpace, BilinearMap, LinearMap, Scalar, Vector, canonical, format_vector, scalar_from_str
from .tca import OneTruncatedConformalAlgebra

# The grammar's words, written once: the token walker and the entry-line
# patterns are built from them.  ASCII digits only, as int() reads any
# Unicode digit.
LABEL = r"[A-Za-z_][A-Za-z0-9_.\[\]]*"
COEFF = r"[0-9]+(?:/[0-9]+)?"
# after any whitespace, a token or (group 2) a character that starts none
TOKEN_RE = re.compile(r"\s*(?:(->|[()+,*-]|%s|%s)|(\S))" % (LABEL, COEFF))
# An expression, with no whitespace at either end: a leading -?\s* would let
# it and the \s* after -> split one run of spaces in quadratically many ways.
# Neighbouring parts of the entry patterns start with different kinds of
# character (space, sign, digit, letter), so a failed match backtracks over
# each character a bounded number of times: a line is matched or rejected in
# time linear in its length.
TERM = r"(?:%s\s*\*\s*)?%s" % (COEFF, LABEL)
EXPR = r"0|(?:-\s*)?%s(?:\s*[+-]\s*%s)*" % (TERM, TERM)
MAP_ENTRY_RE = re.compile(r"\s*(%s)\s*->\s*(%s)" % (LABEL, EXPR))
PRODUCT_ENTRY_RE = re.compile(r"\s*\(\s*(%s)\s*,\s*(%s)\s*\)\s*->\s*(%s)" % (LABEL, LABEL, EXPR))
# the terms of an expression EXPR matched, back to back: (sign, coefficient, label)
TERM_RE = re.compile(r"\s*([+-]?)\s*(?:(%s)\s*\*\s*)?(%s)" % (COEFF, LABEL))
# words that open a line of their own, even where a table entry is due
KEYWORDS = frozenset(("META", "STRUCTURE", "SPACE", "MAP", "PRODUCT"))

# STRUCTURE keys per kind, in print order: key -> (number of degree indices,
# the table its name is looked up in, the name the writers give a map or
# product, formatted with its degrees).  Spaces keep their own names; the
# unit (table None) is an expression over the degree-0 space.
SCHEMA = {
    "courant": {
        "algebra": (0, "spaces", None),
        "unit": (0, None, None),
        "mult": (0, "products", "mul"),
        "module": (0, "spaces", None),
        "action": (0, "products", "act"),
        "bracket": (0, "products", "brk"),
        "anchor": (0, "products", "anc"),
        "pairing": (0, "products", "pair"),
        "partial": (0, "maps", "del"),
    },
    "1tca": {
        "c0": (0, "spaces", None),
        "c1": (0, "spaces", None),
        "partial": (0, "maps", "del"),
        "p0_10": (0, "products", "p0_10"),
        "p0_01": (0, "products", "p0_01"),
        "p0_11": (0, "products", "p0_11"),
        "p1_11": (0, "products", "p1_11"),
    },
    "graded-vpa": {
        "space": (1, "spaces", None),
        "unit": (0, None, None),
        "d": (1, "maps", "d%d"),
        "mult": (2, "products", "m_%d_%d"),
        "prod": (3, "products", "p_%d_%d_%d"),
    },
}
# how a malformed binding names what it needs, by table and by degree count
TABLE_WORDS = {"spaces": ("SPACE", "name"), "maps": ("MAP", "mapname"), "products": ("PRODUCT", "productname")}
DEGREE_WORDS = ("", "DEGREE", "P Q", "N P Q")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.message = message


@dataclass
class StructureFile:
    meta: dict = field(default_factory=dict)
    spaces: dict = field(default_factory=dict)          # name -> BasedSpace
    maps: dict = field(default_factory=dict)            # name -> LinearMap
    products: dict = field(default_factory=dict)        # name -> BilinearMap
    kind: str = ""
    bindings: dict = field(default_factory=dict)        # key -> {degrees: name, or the unit Vector}

    def courant(self) -> CourantAlgebroid:
        o = self._objects("courant")
        A = UnitalCommAlgebra(o.pop("algebra"), o.pop("mult"), o.pop("unit"))
        return CourantAlgebroid(A=A, B=o.pop("module"), **o)

    def tca(self) -> OneTruncatedConformalAlgebra:
        o = self._objects("1tca")
        return OneTruncatedConformalAlgebra(C0=o.pop("c0"), C1=o.pop("c1"), **o)

    def graded_view(self) -> GradedVpaView:
        o = self._objects("graded-vpa")
        spaces, d = o["space"], o["d"]
        if not spaces or sorted(spaces) != [(r,) for r in range(len(spaces))]:
            raise ValueError("graded-vpa needs consecutive degrees from 0")
        if sorted(d) != [(r,) for r in range(len(spaces) - 1)]:
            raise ValueError("graded-vpa needs d at every degree below the top")
        return GradedVpaView(
            spaces=tuple(spaces[(r,)] for r in range(len(spaces))), unit=o["unit"],
            d=tuple(d[(r,)] for r in range(len(d))), mult=o["mult"], prod=o["prod"],
        )

    def _objects(self, kind: str) -> dict:
        """After checking the file holds a ``kind``, key -> what it binds (the
        unit Vector, or the named space, map or product), as {degrees:
        object} for a key with degree indices."""
        if self.kind != kind:
            raise ValueError("file holds a %r structure, not %s" % (self.kind, kind))
        out = {}
        for key, (n, table, _) in SCHEMA[kind].items():
            objs = {
                degs: v if table is None else getattr(self, table)[v]
                for degs, v in self.bindings.get(key, {}).items()
            }
            out[key] = objs if n else objs[()]
        return out


def _tokenize(text: str, line_no: int) -> list[tuple[str, int]]:
    out = [(m[1], m.start(1) + 1) for m in TOKEN_RE.finditer(text)]
    if (None, 0) in out:  # group 2 matched
        bad = next(m for m in TOKEN_RE.finditer(text) if m[2]).start(2)
        raise ParseError("unexpected character %r" % text[bad], line_no, bad + 1)
    return out


def _is_label(tok: str) -> bool:  # a _tokenize token; its first character tells its kind
    return tok[0].isalpha() or tok[0] == "_"


def _parse_expr(toks: list, line: int, space: BasedSpace, end: int) -> Vector:
    """coeff*label or label terms chained with + and -, one leading - allowed;
    '0' alone is zero.  Each coefficient is built once, with its sign.  A
    missing term or label is reported at column ``end``, one past the
    expression."""
    if len(toks) == 1 and toks[0][0] == "0":
        return space.zero()
    toks = toks + [(None, end)]
    coeffs: dict[int, Scalar] = {}
    negative = toks[0][0] == "-"
    i = 1 if negative else 0
    while True:
        tok, col = toks[i]
        if tok is None:
            raise ParseError("expected a term", line, col)
        i += 1
        if tok[0].isdigit():
            try:
                c = scalar_from_str(tok, negative)
            except ValueError as err:
                raise ParseError(str(err), line, col) from None
            if toks[i][0] != "*":
                raise ParseError("a bare coefficient needs *label (or write 0)", line, col)
            label, col = toks[i + 1]
            if label is None or not _is_label(label):
                raise ParseError("expected a basis label after *", line, col)
            i += 2
        elif _is_label(tok):
            c, label = -1 if negative else 1, tok
        else:
            raise ParseError("unexpected token %r in expression" % tok, line, col)
        try:
            idx = space.index(label)
        except KeyError:
            raise ParseError("label %r is not in space %r" % (label, space.name), line, col) from None
        x = coeffs.get(idx)
        coeffs[idx] = c if x is None else x + c
        tok, col = toks[i]
        if tok is None:
            # indices come from the space's index, coefficients are exact scalars
            return Vector._trusted(space, canonical(coeffs))
        if tok != "+" and tok != "-":
            raise ParseError("expected + or -, got %r" % tok, line, col)
        negative = tok == "-"
        i += 1


def _read_terms(expr: str, space: BasedSpace) -> Vector | None:
    """The vector of an expression EXPR matched, equal to what _parse_expr
    reads from it; None where _parse_expr raises (a label not in ``space``,
    a zero denominator, a coefficient int() refuses)."""
    if expr == "0":
        return space.zero()
    coeffs: dict[int, Scalar] = {}
    try:
        for sign, c, label in TERM_RE.findall(expr):
            idx = space.index(label)
            c = scalar_from_str(c, sign == "-") if c else (-1 if sign == "-" else 1)
            x = coeffs.get(idx)
            coeffs[idx] = c if x is None else x + c
    except (KeyError, ValueError):
        return None
    return Vector._trusted(space, canonical(coeffs))


def _usage(key: str, n: int, table: str) -> str:
    if n:
        return "%s binding needs: %s %s %s" % (key, key, DEGREE_WORDS[n], TABLE_WORDS[table][1])
    return "%s must name a %s" % (key, TABLE_WORDS[table][0])


def _resolve_bindings(sf: StructureFile, lines: list, header: int) -> dict:
    """Resolve each kept STRUCTURE line (tokens with their columns, line
    number, column one past its end) once, into key -> {degrees: name}; the
    unit is parsed last, into a Vector of the degree-0 space.  A missing
    binding is reported at the STRUCTURE line, anything else at its token."""
    schema = SCHEMA[sf.kind]
    bindings: dict = {key: {} for key in schema}
    for toks, line, end in lines:
        key, key_col = toks[0]
        if key not in schema:
            raise ParseError("unknown %s binding %r" % (sf.kind, key), line, key_col)
        n, table, _ = schema[key]
        args = toks[1:] + [(None, end)]
        for tok, col in args[:n]:
            if tok is None or not (tok.isascii() and tok.isdigit()):
                raise ParseError(_usage(key, n, table), line, col)
        degs = tuple(int(tok) for tok, _ in args[:n])
        if degs in bindings[key]:
            raise ParseError("duplicate binding %r" % " ".join(tok for tok, _ in toks[:n + 1]), line, key_col)
        if table is None:  # parsed below, once the spaces are bound
            bindings[key][degs] = (args[:-1], line, end)
        elif args[n][0] in getattr(sf, table) and args[n + 1][0] is None:
            bindings[key][degs] = args[n][0]
        else:  # report the first token that is not the one name wanted
            bad = args[n] if args[n][0] not in getattr(sf, table) else args[n + 1]
            raise ParseError(_usage(key, n, table), line, bad[1])
    for key, (n, table, _) in schema.items():
        if not n and not bindings[key]:
            message = "missing unit binding" if table is None else "STRUCTURE %s needs a %r binding" % (sf.kind, key)
            raise ParseError(message, header, 1)
    if "unit" in schema:
        key, degs = ("space", (0,)) if sf.kind == "graded-vpa" else ("algebra", ())
        if degs not in bindings[key]:
            raise ParseError("graded-vpa needs consecutive degrees from 0", header, 1)
        args, line, end = bindings["unit"][()]
        bindings["unit"][()] = _parse_expr(args, line, sf.spaces[bindings[key][degs]], end)
    return bindings


def parse(text: str) -> StructureFile:
    sf = StructureFile()
    section = None  # "map" | "product" | "structure", the section being read
    pending: dict = {}
    binding_lines: list = []  # (tokens, line, end) of each STRUCTURE line
    header = 0

    def close_section():
        nonlocal section, pending
        if section is None:
            return
        if section == "map":
            name, domain, codomain, entries = pending["name"], pending["domain"], pending["codomain"], pending["entries"]
            zero = codomain.zero()
            sf.maps[name] = LinearMap(domain, codomain, [entries.get(label, zero) for label in domain.basis])
        elif section == "product":
            name = pending["name"]
            left, right, codomain = pending["left"], pending["right"], pending["codomain"]
            entries = pending["entries"]
            zero = codomain.zero()
            rows = [[entries.get((l, r), zero) for r in right.basis] for l in left.basis]
            try:
                sf.products[name] = BilinearMap(
                    left, right, codomain, rows,
                    symmetric=pending["symmetric"], antisymmetric=pending["antisymmetric"],
                )
            except ValueError as err:
                raise ParseError(str(err), pending["line"], pending["flag_col"]) from None
        section = None
        pending = {}

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        body = (raw.split("#", 1)[0] if "#" in raw else raw).rstrip()
        if not body:
            continue
        # an entry line its pattern reads; any other line goes to the walker
        if section == "product":
            m = PRODUCT_ENTRY_RE.fullmatch(body)
            if m:
                l1, l2, expr = m.groups()
                entries = pending["entries"]
                if (l1 in pending["left"] and l2 in pending["right"] and (l1, l2) not in entries
                        and (v := _read_terms(expr, pending["codomain"])) is not None):
                    entries[(l1, l2)] = v
                    continue
        elif section == "map":
            m = MAP_ENTRY_RE.fullmatch(body)
            if m:
                label, expr = m.groups()
                entries = pending["entries"]
                if (label not in KEYWORDS and label in pending["domain"] and label not in entries
                        and (v := _read_terms(expr, pending["codomain"])) is not None):
                    entries[label] = v
                    continue
        raw_words = body.split()
        if raw_words[0] in ("META", "STRUCTURE"):
            close_section()
            if raw_words[0] == "META":
                if len(raw_words) < 3:
                    raise ParseError("META needs: META key value", line_no, 1)
                sf.meta[raw_words[1]] = " ".join(raw_words[2:])
            else:
                if len(raw_words) != 2 or raw_words[1] not in SCHEMA:
                    raise ParseError("STRUCTURE needs a kind: courant | 1tca | graded-vpa", line_no, 1)
                if sf.kind:
                    raise ParseError("only one STRUCTURE section is allowed", line_no, 1)
                sf.kind = raw_words[1]
                header = line_no
                section = "structure"
            continue
        toks = _tokenize(body, line_no)
        head, col0 = toks[0]
        words = [t for t, _ in toks]
        if head == "SPACE":
            close_section()
            if len(words) < 2:
                raise ParseError("SPACE needs a name", line_no, col0)
            name = words[1]
            labels = words[2:]
            for (t, c) in toks[1:]:
                if not _is_label(t):
                    raise ParseError("bad label %r" % t, line_no, c)
            seen = set()
            for (t, c) in toks[2:]:
                if t in seen:
                    raise ParseError("label %r repeated in space %r" % (t, name), line_no, c)
                seen.add(t)
            if name in sf.spaces:
                raise ParseError("space %r already defined" % name, line_no, col0)
            sf.spaces[name] = BasedSpace(name, labels)
        elif head == "MAP":
            close_section()
            if len(words) != 4:
                raise ParseError("MAP needs: MAP name domain codomain", line_no, col0)
            _, name, dom, cod = words
            if name in sf.maps:
                raise ParseError("map %r already defined" % name, line_no, toks[1][1])
            for s, col in toks[2:]:
                if s not in sf.spaces:
                    raise ParseError("undefined space %r" % s, line_no, col)
            section = "map"
            pending = {"name": name, "domain": sf.spaces[dom], "codomain": sf.spaces[cod],
                       "entries": {}, "line": line_no}
        elif head == "PRODUCT":
            close_section()
            if len(words) < 5 or len(words) > 6:
                raise ParseError(
                    "PRODUCT needs: PRODUCT name left right codomain [symmetric|antisymmetric]",
                    line_no, col0,
                )
            name = words[1]
            if name in sf.products:
                raise ParseError("product %r already defined" % name, line_no, toks[1][1])
            for s, col in toks[2:5]:
                if s not in sf.spaces:
                    raise ParseError("undefined space %r" % s, line_no, col)
            flag, flag_col = toks[5] if len(toks) == 6 else ("", col0)
            if flag not in ("", "symmetric", "antisymmetric"):
                raise ParseError("unknown flag %r" % flag, line_no, flag_col)
            section = "product"
            pending = {
                "name": name,
                "left": sf.spaces[words[2]], "right": sf.spaces[words[3]],
                "codomain": sf.spaces[words[4]],
                "entries": {}, "line": line_no, "flag_col": flag_col,
                "symmetric": flag == "symmetric", "antisymmetric": flag == "antisymmetric",
            }
        elif section == "map":
            if len(toks) < 3 or words[1] != "->":
                raise ParseError("map entry needs: label -> expr", line_no, col0)
            label = words[0]
            if label not in pending["domain"]:
                raise ParseError("label %r not in domain" % label, line_no, col0)
            if label in pending["entries"]:
                raise ParseError("duplicate entry for %r" % label, line_no, col0)
            pending["entries"][label] = _parse_expr(
                toks[2:], line_no, pending["codomain"], len(body) + 1
            )
        elif section == "product":
            if len(words) < 6 or words[0] != "(" or words[2] != "," or words[4] != ")" or words[5] != "->":
                raise ParseError("product entry needs: (l1,l2) -> expr", line_no, col0)
            l1, l2 = words[1], words[3]
            if l1 not in pending["left"]:
                raise ParseError("label %r not in left space" % l1, line_no, toks[1][1])
            if l2 not in pending["right"]:
                raise ParseError("label %r not in right space" % l2, line_no, toks[3][1])
            if (l1, l2) in pending["entries"]:
                raise ParseError("duplicate entry (%s,%s)" % (l1, l2), line_no, col0)
            pending["entries"][(l1, l2)] = _parse_expr(
                toks[6:], line_no, pending["codomain"], len(body) + 1
            )
        elif section == "structure":
            binding_lines.append((toks, line_no, len(body) + 1))
        else:
            raise ParseError("unexpected line outside any section", line_no, col0)
    close_section()
    if not sf.kind:
        raise ParseError("missing STRUCTURE section", len(lines) or 1)
    sf.bindings = _resolve_bindings(sf, binding_lines, header)
    try:  # build the structure once, to check its shapes
        {"courant": sf.courant, "1tca": sf.tca, "graded-vpa": sf.graded_view}[sf.kind]()
    except ValueError as err:
        raise ParseError(str(err), header, 1) from None
    return sf


# -- canonical printing -------------------------------------------------------


def print_file(sf: StructureFile) -> str:
    out = []
    for k in sorted(sf.meta):
        out.append("META %s %s" % (k, sf.meta[k]))
    if sf.meta:
        out.append("")
    for name, space in sf.spaces.items():
        out.append("SPACE %s %s" % (name, " ".join(space.basis)))
    for name, m in sf.maps.items():
        out.append("")
        out.append("MAP %s %s %s" % (name, m.domain.name, m.codomain.name))
        for label, col in zip(m.domain.basis, m.columns):
            if not col.is_zero():
                out.append("  %s -> %s" % (label, format_vector(col)))
    for name, b in sf.products.items():
        out.append("")
        flag = " symmetric" if b.symmetric else (" antisymmetric" if b.antisymmetric else "")
        out.append("PRODUCT %s %s %s %s%s" % (name, b.left.name, b.right.name, b.codomain.name, flag))
        for i, l1 in enumerate(b.left.basis):
            for j, l2 in enumerate(b.right.basis):
                v = b.table[i][j]
                if not v.is_zero():
                    out.append("  (%s,%s) -> %s" % (l1, l2, format_vector(v)))
    out.append("")
    out.append("STRUCTURE %s" % sf.kind)
    for key, (_, table, _) in SCHEMA[sf.kind].items():
        for degs, v in sf.bindings.get(key, {}).items():
            out.append("  %s" % " ".join([key, *map(str, degs), v if table else format_vector(v)]))
    out.append("")
    return "\n".join(out)


# -- writers from live objects ------------------------------------------------


def _to_file(kind: str, parts: dict, meta: dict | None) -> StructureFile:
    """A file binding ``parts`` (key -> what it binds, as {degrees: object}
    for a key with degree indices) under SCHEMA's names."""
    sf = StructureFile(meta=dict(meta or {}), kind=kind)
    for key, (n, table, pattern) in SCHEMA[kind].items():
        bound = sf.bindings[key] = {}
        for degs, obj in (parts[key] if n else {(): parts[key]}).items():
            if table:
                name = obj.name if table == "spaces" else pattern % degs
                getattr(sf, table)[name] = obj
            bound[degs] = name if table else obj
    return sf


def courant_to_file(X: CourantAlgebroid, meta: dict | None = None) -> StructureFile:
    return _to_file("courant", dict(
        algebra=X.A.space, unit=X.A.unit, mult=X.A.mult, module=X.B, action=X.action,
        bracket=X.bracket, anchor=X.anchor, pairing=X.pairing, partial=X.partial,
    ), meta)


def tca_to_file(T: OneTruncatedConformalAlgebra, meta: dict | None = None) -> StructureFile:
    return _to_file("1tca", dict(
        c0=T.C0, c1=T.C1, partial=T.partial,
        p0_10=T.p0_10, p0_01=T.p0_01, p0_11=T.p0_11, p1_11=T.p1_11,
    ), meta)


def view_to_file(V: GradedVpaView, meta: dict | None = None) -> StructureFile:
    spaces: list[BasedSpace] = []
    for deg, space in enumerate(V.spaces):
        if any(s.name == space.name for s in spaces):
            space = BasedSpace("%s_deg%d" % (space.name, deg), space.basis)
        spaces.append(space)

    def remap_vec(v: Vector, deg: int) -> Vector:
        space = spaces[deg]
        return v if v.space == space else Vector(space, dict(v.items))

    def remap_map(m: LinearMap, r: int) -> LinearMap:
        if m.domain is spaces[r] and m.codomain is spaces[r + 1]:
            return m
        return LinearMap(spaces[r], spaces[r + 1], [remap_vec(c, r + 1) for c in m.columns])

    def remap(b: BilinearMap, p: int, q: int, target: int) -> BilinearMap:
        if b.left is spaces[p] and b.right is spaces[q] and b.codomain is spaces[target]:
            return b
        return BilinearMap(spaces[p], spaces[q], spaces[target],
                           [[remap_vec(v, target) for v in row] for row in b.table])

    return _to_file("graded-vpa", {
        "space": {(deg,): space for deg, space in enumerate(spaces)},
        "unit": remap_vec(V.unit, 0),
        "d": {(r,): remap_map(m, r) for r, m in enumerate(V.d)},
        "mult": {(p, q): remap(V.mult[(p, q)], p, q, p + q) for (p, q) in sorted(V.mult)},
        "prod": {(n, p, q): remap(V.prod[(n, p, q)], p, q, p + q - n - 1) for (n, p, q) in sorted(V.prod)},
    }, meta)
