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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .courant import CourantAlgebroid, UnitalCommAlgebra
from .graded import GradedVpaView
from .linalg import ONE, BasedSpace, BilinearMap, LinearMap, Vector, scalar_from_str, scalar_to_str
from .tca import OneTruncatedConformalAlgebra

LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\[\]]*$")
NUMBER_RE = re.compile(r"\d+(?:/\d+)?")
# after any whitespace, a token or (group 2) a character that starts none
TOKEN_RE = re.compile(r"\s*(?:(->|[()+,*-]|[A-Za-z_][A-Za-z0-9_.\[\]]*|\d+(?:/\d+)?)|(\S))")

COURANT_FIELDS = ("algebra", "unit", "mult", "module", "action", "bracket", "anchor", "pairing", "partial")
TCA_FIELDS = ("c0", "c1", "partial", "p0_10", "p0_01", "p0_11", "p1_11")


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
    bindings: dict = field(default_factory=dict)        # key -> [(words, line)]

    def _norm_bindings(self):
        return {k: [tuple(w) for w, _ in v] for k, v in self.bindings.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, StructureFile) and (
            self.meta, self.spaces, self.maps, self.products, self.kind, self._norm_bindings()
        ) == (other.meta, other.spaces, other.maps, other.products, other.kind, other._norm_bindings())

    def courant(self) -> CourantAlgebroid:
        return _sf_courant(self)

    def tca(self) -> OneTruncatedConformalAlgebra:
        return _sf_tca(self)

    def graded_view(self) -> GradedVpaView:
        return _sf_graded_view(self)


def _tokenize(text: str, line_no: int) -> list[tuple[str, int]]:
    out = [(m[1], m.start(1) + 1) for m in TOKEN_RE.finditer(text)]
    if (None, 0) in out:  # group 2 matched
        bad = next(m for m in TOKEN_RE.finditer(text) if m[2]).start(2)
        raise ParseError("unexpected character %r" % text[bad], line_no, bad + 1)
    return out


def _parse_expr(toks: list, line: int, space: BasedSpace, end: int) -> Vector:
    """coeff*label or label terms chained with + and -, one leading - allowed;
    '0' alone is zero.  Each coefficient is built once, with its sign.  A
    missing term or label is reported at column ``end``, one past the
    expression."""
    if len(toks) == 1 and toks[0][0] == "0":
        return space.zero()
    toks = toks + [(None, end)]
    coeffs: dict[int, Fraction] = {}
    negative = toks[0][0] == "-"
    i = 1 if negative else 0
    while True:
        tok, col = toks[i]
        if tok is None:
            raise ParseError("expected a term", line, col)
        i += 1
        if NUMBER_RE.fullmatch(tok):
            try:
                c = scalar_from_str(tok, negative)
            except ValueError as err:
                raise ParseError(str(err), line, col) from None
            if toks[i][0] != "*":
                raise ParseError("a bare coefficient needs *label (or write 0)", line, col)
            label, col = toks[i + 1]
            if label is None or not LABEL_RE.match(label):
                raise ParseError("expected a basis label after *", line, col)
            i += 2
        elif LABEL_RE.match(tok):
            c, label = -ONE if negative else ONE, tok
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
            # indices come from the space's index, coefficients are Fractions
            return Vector._trusted(space, coeffs)
        if tok != "+" and tok != "-":
            raise ParseError("expected + or -, got %r" % tok, line, col)
        negative = tok == "-"
        i += 1


def parse(text: str) -> StructureFile:
    sf = StructureFile()
    section = None  # ("map", name, entries) | ("product", name, ...) | ("structure",)
    pending: dict = {}

    def close_section():
        nonlocal section, pending
        if section is None:
            return
        if section[0] == "map":
            name, domain, codomain, entries = pending["name"], pending["domain"], pending["codomain"], pending["entries"]
            zero = codomain.zero()
            sf.maps[name] = LinearMap(domain, codomain, [entries.get(label, zero) for label in domain.basis])
        elif section[0] == "product":
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
                raise ParseError(str(err), pending["line"]) from None
        section = None
        pending = {}

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        raw_words = body.split()
        if raw_words and raw_words[0] in ("META", "STRUCTURE"):
            close_section()
            if raw_words[0] == "META":
                if len(raw_words) < 3:
                    raise ParseError("META needs: META key value", line_no, 1)
                sf.meta[raw_words[1]] = " ".join(raw_words[2:])
            else:
                if len(raw_words) != 2 or raw_words[1] not in ("courant", "1tca", "graded-vpa"):
                    raise ParseError("STRUCTURE needs a kind: courant | 1tca | graded-vpa", line_no, 1)
                if sf.kind:
                    raise ParseError("only one STRUCTURE section is allowed", line_no, 1)
                sf.kind = raw_words[1]
                section = ("structure",)
            continue
        toks = _tokenize(body, line_no)
        if not toks:
            continue
        head, col0 = toks[0]
        words = [t for t, _ in toks]
        if head == "SPACE":
            close_section()
            if len(words) < 2:
                raise ParseError("SPACE needs a name", line_no, col0)
            name = words[1]
            labels = words[2:]
            for (t, c) in toks[1:]:
                if not LABEL_RE.match(t):
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
                raise ParseError("map %r already defined" % name, line_no)
            if dom not in sf.spaces:
                raise ParseError("undefined space %r" % dom, line_no)
            if cod not in sf.spaces:
                raise ParseError("undefined space %r" % cod, line_no)
            section = ("map",)
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
                raise ParseError("product %r already defined" % name, line_no)
            for s in words[2:5]:
                if s not in sf.spaces:
                    raise ParseError("undefined space %r" % s, line_no)
            flag = words[5] if len(words) == 6 else ""
            if flag not in ("", "symmetric", "antisymmetric"):
                raise ParseError("unknown flag %r" % flag, line_no)
            section = ("product",)
            pending = {
                "name": name,
                "left": sf.spaces[words[2]], "right": sf.spaces[words[3]],
                "codomain": sf.spaces[words[4]],
                "entries": {}, "line": line_no,
                "symmetric": flag == "symmetric", "antisymmetric": flag == "antisymmetric",
            }
        elif section and section[0] == "map":
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
        elif section and section[0] == "product":
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
        elif section and section[0] == "structure":
            key = words[0]
            sf.bindings.setdefault(key, []).append((words[1:], line_no))
        else:
            raise ParseError("unexpected line outside any section", line_no, col0)
    close_section()
    if not sf.kind:
        raise ParseError("missing STRUCTURE section", len(lines) or 1)
    _validate_bindings(sf)
    return sf


def _get1(sf: StructureFile, key: str, kinds: str):
    vals = sf.bindings.get(key)
    if not vals:
        raise ParseError("STRUCTURE %s needs a %r binding" % (sf.kind, key), 1)
    words, line = vals[0]
    if len(vals) > 1:
        raise ParseError("duplicate binding %r" % key, vals[1][1])
    if kinds == "space":
        if len(words) != 1 or words[0] not in sf.spaces:
            raise ParseError("%s must name a SPACE" % key, line)
        return sf.spaces[words[0]]
    if kinds == "map":
        if len(words) != 1 or words[0] not in sf.maps:
            raise ParseError("%s must name a MAP" % key, line)
        return sf.maps[words[0]]
    if kinds == "product":
        if len(words) != 1 or words[0] not in sf.products:
            raise ParseError("%s must name a PRODUCT" % key, line)
        return sf.products[words[0]]
    raise AssertionError(kinds)


def _validate_bindings(sf: StructureFile) -> None:
    try:
        if sf.kind == "courant":
            sf.courant()
        elif sf.kind == "1tca":
            sf.tca()
        else:
            sf.graded_view()
    except ParseError:
        raise
    except (ValueError, KeyError) as err:
        raise ParseError(str(err), 1) from None


def _unit_vector(sf: StructureFile, space: BasedSpace) -> Vector:
    vals = sf.bindings.get("unit")
    if not vals:
        raise ParseError("missing unit binding", 1)
    words, line = vals[0]
    toks = [(w, 0) for w in words]
    return _parse_expr(toks, line, space, 0)


def _courant_parts(sf: StructureFile):
    A = _get1(sf, "algebra", "space")
    B = _get1(sf, "module", "space")
    return (
        A,
        B,
        _get1(sf, "mult", "product"),
        _get1(sf, "action", "product"),
        _get1(sf, "bracket", "product"),
        _get1(sf, "anchor", "product"),
        _get1(sf, "pairing", "product"),
        _get1(sf, "partial", "map"),
    )


def _sf_courant(sf: StructureFile) -> CourantAlgebroid:
    if sf.kind != "courant":
        raise ValueError("file holds a %r structure, not courant" % sf.kind)
    A, B, mult, action, bracket, anchor, pairing, partial = _courant_parts(sf)
    unit = _unit_vector(sf, A)
    return CourantAlgebroid(
        A=UnitalCommAlgebra(A, mult, unit), B=B, action=action,
        bracket=bracket, anchor=anchor, pairing=pairing, partial=partial,
    )


def _sf_tca(sf: StructureFile) -> OneTruncatedConformalAlgebra:
    if sf.kind != "1tca":
        raise ValueError("file holds a %r structure, not 1tca" % sf.kind)
    return OneTruncatedConformalAlgebra(
        C0=_get1(sf, "c0", "space"),
        C1=_get1(sf, "c1", "space"),
        partial=_get1(sf, "partial", "map"),
        p0_10=_get1(sf, "p0_10", "product"),
        p0_01=_get1(sf, "p0_01", "product"),
        p0_11=_get1(sf, "p0_11", "product"),
        p1_11=_get1(sf, "p1_11", "product"),
    )


def _sf_graded_view(sf: StructureFile) -> GradedVpaView:
    if sf.kind != "graded-vpa":
        raise ValueError("file holds a %r structure, not graded-vpa" % sf.kind)
    spaces: dict[int, BasedSpace] = {}
    for words, line in sf.bindings.get("space", []):
        if len(words) != 2 or not words[0].isdigit() or words[1] not in sf.spaces:
            raise ParseError("space binding needs: space DEGREE name", line)
        spaces[int(words[0])] = sf.spaces[words[1]]
    if not spaces or sorted(spaces) != list(range(max(spaces) + 1)):
        raise ParseError("graded-vpa needs consecutive degrees from 0", 1)
    cutoff = max(spaces)
    d = {}
    for words, line in sf.bindings.get("d", []):
        if len(words) != 2 or not words[0].isdigit() or words[1] not in sf.maps:
            raise ParseError("d binding needs: d DEGREE mapname", line)
        d[int(words[0])] = sf.maps[words[1]]
    if sorted(d) != list(range(cutoff)):
        raise ParseError("graded-vpa needs d at every degree below the top", 1)
    mult = {}
    for words, line in sf.bindings.get("mult", []):
        if len(words) != 3 or not (words[0].isdigit() and words[1].isdigit()) or words[2] not in sf.products:
            raise ParseError("mult binding needs: mult P Q productname", line)
        mult[(int(words[0]), int(words[1]))] = sf.products[words[2]]
    prod = {}
    for words, line in sf.bindings.get("prod", []):
        if len(words) != 4 or not all(w.isdigit() for w in words[:3]) or words[3] not in sf.products:
            raise ParseError("prod binding needs: prod N P Q productname", line)
        prod[(int(words[0]), int(words[1]), int(words[2]))] = sf.products[words[3]]
    return GradedVpaView(
        spaces=tuple(spaces[i] for i in range(cutoff + 1)),
        unit=_unit_vector(sf, spaces[0]),
        d=tuple(d[i] for i in range(cutoff)),
        mult=mult,
        prod=prod,
    )


# -- canonical printing -------------------------------------------------------


def _expr_str(v: Vector) -> str:
    if v.is_zero():
        return "0"
    parts = []
    for i, c in v.items:
        label = v.space.basis[i]
        mag = abs(c)
        body = label if mag == 1 else "%s*%s" % (scalar_to_str(mag), label)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _expr_tokens(v: Vector) -> list[str]:
    return [t for t, _ in _tokenize(_expr_str(v), 0)]


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
                out.append("  %s -> %s" % (label, _expr_str(col)))
    for name, b in sf.products.items():
        out.append("")
        flag = " symmetric" if b.symmetric else (" antisymmetric" if b.antisymmetric else "")
        out.append("PRODUCT %s %s %s %s%s" % (name, b.left.name, b.right.name, b.codomain.name, flag))
        for i, l1 in enumerate(b.left.basis):
            for j, l2 in enumerate(b.right.basis):
                v = b.table[i][j]
                if not v.is_zero():
                    out.append("  (%s,%s) -> %s" % (l1, l2, _expr_str(v)))
    out.append("")
    out.append("STRUCTURE %s" % sf.kind)
    order = {"courant": COURANT_FIELDS, "1tca": TCA_FIELDS}.get(
        sf.kind, ("space", "unit", "d", "mult", "prod")
    )
    for key in order:
        for words, _ in sf.bindings.get(key, []):
            out.append("  %s %s" % (key, " ".join(words)))
    out.append("")
    return "\n".join(out)


# -- writers from live objects ------------------------------------------------


def courant_to_file(X: CourantAlgebroid, meta: dict | None = None) -> StructureFile:
    sf = StructureFile(meta=dict(meta or {}))
    sf.spaces[X.A.space.name] = X.A.space
    sf.spaces[X.B.name] = X.B
    sf.maps["del"] = X.partial
    sf.products["mul"] = X.A.mult
    sf.products["act"] = X.action
    sf.products["brk"] = X.bracket
    sf.products["anc"] = X.anchor
    sf.products["pair"] = X.pairing
    sf.kind = "courant"
    sf.bindings = {
        "algebra": [([X.A.space.name], 0)],
        "unit": [(_expr_tokens(X.A.unit), 0)],
        "mult": [(["mul"], 0)],
        "module": [([X.B.name], 0)],
        "action": [(["act"], 0)],
        "bracket": [(["brk"], 0)],
        "anchor": [(["anc"], 0)],
        "pairing": [(["pair"], 0)],
        "partial": [(["del"], 0)],
    }
    return sf


def tca_to_file(T: OneTruncatedConformalAlgebra, meta: dict | None = None) -> StructureFile:
    sf = StructureFile(meta=dict(meta or {}))
    sf.spaces[T.C0.name] = T.C0
    sf.spaces[T.C1.name] = T.C1
    sf.maps["del"] = T.partial
    sf.products["p0_10"] = T.p0_10
    sf.products["p0_01"] = T.p0_01
    sf.products["p0_11"] = T.p0_11
    sf.products["p1_11"] = T.p1_11
    sf.kind = "1tca"
    sf.bindings = {
        "c0": [([T.C0.name], 0)],
        "c1": [([T.C1.name], 0)],
        "partial": [(["del"], 0)],
        "p0_10": [(["p0_10"], 0)],
        "p0_01": [(["p0_01"], 0)],
        "p0_11": [(["p0_11"], 0)],
        "p1_11": [(["p1_11"], 0)],
    }
    return sf


def view_to_file(V: GradedVpaView, meta: dict | None = None) -> StructureFile:
    sf = StructureFile(meta=dict(meta or {}))
    names = {}
    for deg, space in enumerate(V.spaces):
        name = space.name if space.name not in sf.spaces else "%s_deg%d" % (space.name, deg)
        if name != space.name:
            space = BasedSpace(name, space.basis)
        names[deg] = name
        sf.spaces[name] = space

    def respace(deg):
        return sf.spaces[names[deg]]

    def remap_vec(v: Vector, deg: int) -> Vector:
        space = respace(deg)
        return v if v.space == space else Vector(space, dict(v.items))

    sf.kind = "graded-vpa"
    sf.bindings = {"space": [([str(d), names[d]], 0) for d in range(len(V.spaces))]}
    sf.bindings["unit"] = [(_expr_tokens(V.unit), 0)]
    sf.bindings["d"] = []
    for r, m in enumerate(V.d):
        nm = "d%d" % r
        sf.maps[nm] = LinearMap(respace(r), respace(r + 1), [remap_vec(c, r + 1) for c in m.columns])
        sf.bindings["d"].append(([str(r), nm], 0))
    sf.bindings["mult"] = []
    for (p, q) in sorted(V.mult):
        nm = "m_%d_%d" % (p, q)
        b = V.mult[(p, q)]
        sf.products[nm] = BilinearMap(
            respace(p), respace(q), respace(p + q),
            [[remap_vec(v, p + q) for v in row] for row in b.table],
        )
        sf.bindings["mult"].append(([str(p), str(q), nm], 0))
    sf.bindings["prod"] = []
    for (n, p, q) in sorted(V.prod):
        nm = "p_%d_%d_%d" % (n, p, q)
        b = V.prod[(n, p, q)]
        sf.products[nm] = BilinearMap(
            respace(p), respace(q), respace(p + q - n - 1),
            [[remap_vec(v, p + q - n - 1) for v in row] for row in b.table],
        )
        sf.bindings["prod"].append(([str(n), str(p), str(q), nm], 0))
    return sf
