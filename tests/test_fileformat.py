import re
import time
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from courant_vpa import fileformat
from courant_vpa.courant import check_courant, to_1tca
from courant_vpa.examples import example
from courant_vpa.fileformat import (
    ParseError,
    courant_to_file,
    parse,
    print_file,
    tca_to_file,
    view_to_file,
)
from courant_vpa.graded import GradedVpaView, assemble_view, extract_courant
from courant_vpa.linalg import BasedSpace, BilinearMap, LinearMap, Vector
from courant_vpa.quotient import CourantQuotient

MINIMAL = """
SPACE A e
SPACE B u
PRODUCT mul A A A symmetric
  (e,e) -> e
PRODUCT act A B B
  (e,u) -> u
PRODUCT brk B B B
PRODUCT anc B A A
PRODUCT pair B B A symmetric
MAP del A B
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
"""


def test_minimal_file_is_trivial_algebroid():
    sf = parse(MINIMAL)
    X = sf.courant()
    assert check_courant(X).passed
    Y = example("trivial(1)")
    assert X.bracket == Y.bracket.__class__(X.B, X.B, X.B, X.bracket.table)  # all zero
    assert X.A.unit == X.A.space.unit_vector("e")


def test_zero_denominator_is_positioned_error():
    bad = MINIMAL.replace("(e,e) -> e", "(e,e) -> 1/0*e")
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "denominator" in str(err.value)
    assert err.value.line == 5
    assert (err.value.message, err.value.col) == ("zero denominator in '1/0'", 12)


# (line replaced in MINIMAL, its replacement, the ParseError's (message, line, col))
MALFORMED_ENTRIES = {
    "unexpected character": ("(e,e) -> e", "(e,e) -> 2*e$", ("unexpected character '$'", 5, 15)),
    "unexpected character after a space": ("(e,e) -> e", "(e,e) -> e $ e", ("unexpected character '$'", 5, 14)),
    "non-ASCII digit": ("(e,e) -> e", "(e,e) -> \u0663*e", ("unexpected character '\u0663'", 5, 12)),
    "dangling plus": ("(e,e) -> e", "(e,e) -> e +", ("expected a term", 5, 15)),
    "bare coefficient": ("(e,e) -> e", "(e,e) -> e - 3/2", ("a bare coefficient needs *label (or write 0)", 5, 16)),
    "star without label": ("(e,e) -> e", "(e,e) -> 2*", ("expected a basis label after *", 5, 14)),
    "star before a sign": ("(e,e) -> e", "(e,e) -> 2* - e", ("expected a basis label after *", 5, 15)),
    "sign after a sign": ("(e,e) -> e", "(e,e) -> - - e", ("unexpected token '-' in expression", 5, 14)),
    "label after a label": ("(e,e) -> e", "(e,e) -> e e", ("expected + or -, got 'e'", 5, 14)),
    "unknown label": ("(e,u) -> u", "(e,u) -> u + 1/2*v", ("label 'v' is not in space 'B'", 7, 20)),
    "duplicate entry": ("(e,e) -> e", "(e,e) -> e\n  (e,e) -> e", ("duplicate entry (e,e)", 6, 3)),
    "bad pair shape": ("(e,e) -> e", "(e e) -> e", ("product entry needs: (l1,l2) -> expr", 5, 3)),
    "pair label not in left space": ("(e,u) -> u", "(u,u) -> u", ("label 'u' not in left space", 7, 4)),
    "pair label not in right space": ("(e,u) -> u", "(e,e) -> u", ("label 'e' not in right space", 7, 6)),
    "map entry without arrow": ("MAP del A B", "MAP del A B\n  e u", ("map entry needs: label -> expr", 12, 3)),
    "duplicate map entry": ("MAP del A B", "MAP del A B\n  e -> u\n  e -> u", ("duplicate entry for 'e'", 13, 3)),
    "map label not in domain": ("MAP del A B", "MAP del A B\n  u -> u", ("label 'u' not in domain", 12, 3)),
    # a MAP or PRODUCT header, and a PRODUCT's flag once its table is read
    "map defined twice": ("MAP del A B", "MAP del A B\nMAP del A B", ("map 'del' already defined", 12, 5)),
    "map undefined domain": ("MAP del A B", "MAP del Z B", ("undefined space 'Z'", 11, 9)),
    "map undefined codomain": ("MAP del A B", "MAP del A C", ("undefined space 'C'", 11, 11)),
    "product defined twice": ("PRODUCT act A B B", "PRODUCT mul A B B", ("product 'mul' already defined", 6, 9)),
    "product undefined space": ("PRODUCT brk B B B", "PRODUCT brk B Z B", ("undefined space 'Z'", 8, 15)),
    "unknown flag": ("PRODUCT brk B B B", "PRODUCT brk B B B weird", ("unknown flag 'weird'", 8, 19)),
    "antisymmetric flag on a non-antisymmetric table": (
        "PRODUCT brk B B B", "PRODUCT brk B B B antisymmetric\n  (u,u) -> u",
        ("antisymmetric flag set but table is not", 8, 19)),
    "symmetric flag across two spaces": (
        "PRODUCT anc B A A", "PRODUCT anc B A A symmetric",
        ("symmetry flags need matching left/right spaces", 9, 19)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_malformed_entry_errors_are_pinned(case):
    old, new, want = MALFORMED_ENTRIES[case]
    with pytest.raises(ParseError) as err:
        parse(MINIMAL.replace(old, new, 1))
    assert (err.value.message, err.value.line, err.value.col) == want


VIEW = """
SPACE A e
SPACE B u
MAP d0 A B
PRODUCT m_0_0 A A A symmetric
  (e,e) -> e
PRODUCT m_0_1 A B B
  (e,u) -> u
PRODUCT p_0_1_1 B B B
PRODUCT p_1_1_1 B B A symmetric
PRODUCT p_0_1_0 B A A
STRUCTURE graded-vpa
  space 0 A
  space 1 B
  unit e
  d 0 d0
  mult 0 0 m_0_0
  mult 0 1 m_0_1
  prod 0 1 1 p_0_1_1
  prod 1 1 1 p_1_1_1
  prod 0 1 0 p_0_1_0
"""


# (file, line replaced in it, its replacement, the ParseError's (message, line, col)).
# Structure-level errors fall on the STRUCTURE line (MINIMAL 12, VIEW 12).
MALFORMED_BINDINGS = {
    "unit with a dangling plus": (MINIMAL, "unit e", "unit e +", ("expected a term", 14, 11)),
    "unit label not in the algebra": (MINIMAL, "unit e", "unit f", ("label 'f' is not in space 'A'", 14, 8)),
    "name after the name": (MINIMAL, "pairing pair", "pairing pair extra", ("pairing must name a PRODUCT", 20, 16)),
    "map where a product is needed": (MINIMAL, "action act", "action del", ("action must name a PRODUCT", 17, 10)),
    "key without a name": (MINIMAL, "action act", "action", ("action must name a PRODUCT", 17, 9)),
    "undefined space": (MINIMAL, "algebra A", "algebra Z", ("algebra must name a SPACE", 13, 11)),
    "unknown key": (MINIMAL, "anchor anc", "anchor anc\n  anchr anc", ("unknown courant binding 'anchr'", 20, 3)),
    "second unit": (MINIMAL, "unit e", "unit e\n  unit 2*e", ("duplicate binding 'unit'", 15, 3)),
    "second module": (MINIMAL, "module B", "module B\n  module B", ("duplicate binding 'module'", 17, 3)),
    "missing binding": (MINIMAL, "  anchor anc\n", "", ("STRUCTURE courant needs a 'anchor' binding", 12, 1)),
    "missing unit": (MINIMAL, "  unit e\n", "", ("missing unit binding", 12, 1)),
    "wrong shape": (MINIMAL, "action act", "action mul", ("action has wrong spaces", 12, 1)),
    "repeated degrees": (
        VIEW, "mult 0 0 m_0_0", "mult 0 0 m_0_0\n  mult 0 0 m_0_0", ("duplicate binding 'mult 0 0'", 18, 3)
    ),
    "gap in the degrees": (VIEW, "space 1 B", "space 2 B", ("graded-vpa needs consecutive degrees from 0", 12, 1)),
    "no degree 0": (VIEW, "  space 0 A\n", "", ("graded-vpa needs consecutive degrees from 0", 12, 1)),
    "missing d": (VIEW, "  d 0 d0\n", "", ("graded-vpa needs d at every degree below the top", 12, 1)),
    "degree not a number": (VIEW, "space 0 A", "space x A", ("space binding needs: space DEGREE name", 13, 9)),
    "degree a fraction": (VIEW, "space 0 A", "space 1/2 A", ("space binding needs: space DEGREE name", 13, 9)),
    "degree a non-ASCII digit": (VIEW, "space 1 B", "space \u0661 B", ("unexpected character '\u0661'", 14, 9)),
    "degree without a name": (VIEW, "space 0 A", "space 0", ("space binding needs: space DEGREE name", 13, 10)),
    "too few degrees": (
        VIEW, "prod 0 1 1 p_0_1_1", "prod 0 1 p_0_1_1", ("prod binding needs: prod N P Q productname", 19, 12)
    ),
    "map where a graded product is needed": (
        VIEW, "mult 0 0 m_0_0", "mult 0 0 d0", ("mult binding needs: mult P Q productname", 17, 12)
    ),
    "name after the graded name": (VIEW, "d 0 d0", "d 0 d0 d0", ("d binding needs: d DEGREE mapname", 16, 10)),
    "view unit not in degree 0": (VIEW, "unit e", "unit u", ("label 'u' is not in space 'A'", 15, 8)),
    "view table with wrong spaces": (VIEW, "mult 0 1 m_0_1", "mult 0 1 m_0_0", ("mult[0,1]: wrong spaces", 12, 1)),
    "view table above the cutoff": (
        VIEW, "prod 0 1 0 p_0_1_0", "prod 0 1 0 p_0_1_0\n  prod 3 4 0 p_0_1_0", ("prod[3,4,0]: degree above the cutoff", 12, 1)
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BINDINGS))
def test_malformed_binding_errors_are_pinned(case):
    text, old, new, want = MALFORMED_BINDINGS[case]
    sf = parse(text)  # the unedited file is a valid algebroid or view
    assert check_courant(extract_courant(sf.graded_view()) if text is VIEW else sf.courant()).passed
    assert old in text
    with pytest.raises(ParseError) as err:
        parse(text.replace(old, new, 1))
    assert (err.value.message, err.value.line, err.value.col) == want


# MINIMAL with a larger B, two of its labels spelled like keywords, and two
# extra tables on it, PRODUCT extra and MAP extra2, each to take one
# generated entry line
ENTRY_FILE = MINIMAL.replace("SPACE B u", "SPACE B u v x.y[1] META SPACE").replace(
    "STRUCTURE courant", "PRODUCT extra B B B\n%s\nMAP extra2 B B\n%s\nSTRUCTURE courant"
)
SEPARATORS = st.sampled_from(["", " ", "  ", "\t"])
# labels of B, one not in B, and two of B's that a walker reads as keywords
MAP_HEADS = ["u", "x.y[1]", "v", "u", "w", "META", "SPACE"]
PAIR_HEADS = ["(u,v)", "( v , x.y[1] )", "(x.y[1],u)", "(u,u)", "(w,u)", "(u v)"]
# tokens, characters that start none, a comment sign, and a non-breaking
# space, which both readers take for whitespace
STRAYS = ["u", "0", "2", "3/4", "*", "+", "-", "/", "->", "(", ",", "$", "\u0663", "\xe9", "#", "\xa0", ">"]


@st.composite
def entry_lines(draw):
    """(is it a PRODUCT entry, its head, the line): an entry line built
    from labels, coefficients, signs and spaces, valid or not, with
    perhaps one stray token or character put anywhere in it."""
    sep = lambda: draw(SEPARATORS)
    product = draw(st.booleans())
    head = draw(st.sampled_from(PAIR_HEADS if product else MAP_HEADS))
    # a sign before each term but the first, which may take "-"; "" joins
    # two terms into a label after a label, or one label
    terms = draw(st.lists(st.tuples(
        st.sampled_from(["+", "-", "+", "-", ""]),
        st.sampled_from(["", "0*", "2*", "10 * ", "3/4*", "6/3*", "007*", "1/0*"]),
        st.sampled_from(["u", "v", "x.y[1]", "u", "v", "w"]),
    ), min_size=1, max_size=5))
    terms[0] = (draw(st.sampled_from(["", "", "-", "+"])),) + terms[0][1:]
    expr = "".join(sign + sep() + coeff + label + sep() for sign, coeff, label in terms)
    expr = draw(st.sampled_from([expr] * 5 + ["0", "00", "-0"]))
    line = "  " + head + sep() + "->" + sep() + expr
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(STRAYS)) + line[at:]
    return product, head, line


def _outcome(text):
    try:
        return parse(text)
    except ParseError as err:
        return (err.message, err.line, err.col)


@settings(max_examples=400, deadline=None)
@given(entry_lines())
def test_entry_patterns_and_walker_read_the_same_lines(entry):
    # The walker alone, with both entry patterns matching nothing, is the
    # reference: the same StructureFile or the same ParseError must come
    # out, and a line the walker accepts must not need it (a MAP line whose
    # label is a keyword aside, which is the walker's to read).
    product, head, line = entry
    text = ENTRY_FILE % ((line, "") if product else ("", line))
    line_no = text.splitlines().index(line) + 1
    walked = []
    tokenize = fileformat._tokenize

    def spy(body, n):
        walked.append(n)
        return tokenize(body, n)

    never = re.compile(r"(?!)")
    with patch.object(fileformat, "MAP_ENTRY_RE", never), patch.object(fileformat, "PRODUCT_ENTRY_RE", never):
        want = _outcome(text)
    with patch.object(fileformat, "_tokenize", spy):
        got = _outcome(text)
    assert got == want
    if isinstance(want, fileformat.StructureFile) and head not in fileformat.KEYWORDS:
        assert line_no not in walked


def _int_refusal(digits: str) -> str:
    """What the walker says of a bare coefficient: int()'s refusal of a
    long digit string where the interpreter limits it (3.11 on), else that
    a coefficient needs *label."""
    try:
        int(digits)
    except ValueError as err:
        return str(err)
    return "a bare coefficient needs *label (or write 0)"


N = 20_000
# (expression of the (e,e) entry in MINIMAL, line 5, the ParseError's (message, col))
LONG_ENTRIES = {
    "a digit run": ("1" * N, (_int_refusal("1" * N), 12)),
    "2* and a digit run": ("2*" + "1" * N, ("expected a basis label after *", 14)),
    "a long label and $": ("e" * N + "$", ("unexpected character '$'", 12 + N)),
    "spaces after the arrow and $": (" " * N + "$", ("unexpected character '$'", 12 + N)),
    "terms ending in a label": ("e" + " + 2*e" * N + " e", ("expected + or -, got 'e'", 14 + 6 * N)),
}


@pytest.mark.parametrize("case", sorted(LONG_ENTRIES))
def test_long_malformed_entries_are_rejected_in_time(case):
    # each pattern backtracks a bounded number of times per character, so
    # these lines cost milliseconds; a quadratic pattern would take seconds
    expr, want = LONG_ENTRIES[case]
    text = MINIMAL.replace("(e,e) -> e", "(e,e) -> " + expr, 1)
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(text)
    assert time.perf_counter() - start < 1.0
    assert (err.value.message, err.value.line, err.value.col) == (want[0], 5, want[1])


# f.f = 2f, so the unit is 1/2 f: a unit that is not a single basis vector
HALF_UNIT = """SPACE A f
SPACE B u

MAP del A B

PRODUCT mul A A A symmetric
  (f,f) -> 2*f

PRODUCT act A B B
  (f,u) -> 2*u

PRODUCT brk B B B

PRODUCT anc B A A

PRODUCT pair B B A symmetric

STRUCTURE courant
  algebra A
  unit 1/2*f
  mult mul
  module B
  action act
  bracket brk
  anchor anc
  pairing pair
  partial del
"""


def test_unit_prints_as_an_expression():
    sf = parse(HALF_UNIT)
    X = sf.courant()
    assert check_courant(X).passed
    assert X.A.unit == X.A.space.unit_vector("f").scale(Fraction(1, 2))
    assert print_file(sf) == HALF_UNIT
    assert print_file(courant_to_file(X)) == HALF_UNIT


def test_repeated_space_label_is_positioned_error():
    with pytest.raises(ParseError) as err:
        parse(MINIMAL.replace("SPACE A e", "SPACE A e x e"))
    assert (err.value.message, err.value.line, err.value.col) == ("label 'e' repeated in space 'A'", 2, 13)


def test_undefined_space_reference():
    with pytest.raises(ParseError):
        parse(MINIMAL.replace("MAP del A B", "MAP del A C"))


def test_unknown_label_in_expr():
    with pytest.raises(ParseError) as err:
        parse(MINIMAL.replace("(e,u) -> u", "(e,u) -> v"))
    assert "not in space" in str(err.value)


def test_missing_structure_section():
    with pytest.raises(ParseError):
        parse("SPACE A e\n")


def test_symmetric_flag_violation_is_parse_error():
    bad = MINIMAL.replace("(e,u) -> u", "(e,u) -> u").replace(
        "PRODUCT pair B B A symmetric", "PRODUCT pair B B A symmetric"
    )
    # make an asymmetric table under the symmetric flag
    bad = bad.replace("PRODUCT anc B A A", "PRODUCT anc B A A\n  (u,e) -> e")
    bad = bad.replace("PRODUCT pair B B A symmetric", "PRODUCT sym2 B B A symmetric\n  (u,u) -> e\nPRODUCT pair B B A symmetric")
    parse(bad)  # symmetric diagonal entry is fine
    worse = MINIMAL + ""  # two-dim module for a real asymmetry
    worse = worse.replace("SPACE B u", "SPACE B u v")
    worse = worse.replace("(e,u) -> u", "(e,u) -> u\n  (e,v) -> v")
    worse = worse.replace("PRODUCT pair B B A symmetric", "PRODUCT pair B B A symmetric\n  (u,v) -> e")
    with pytest.raises(ParseError):
        parse(worse)


@pytest.mark.parametrize("name", ["trivial(2)", "heisenberg", "quadratic_lie(sl2)", "exact(2)", "exact(3)"])
def test_courant_print_parse_roundtrip(name):
    X = example(name)
    sf = courant_to_file(X, meta={"example": name})
    text = print_file(sf)
    sf2 = parse(text)
    assert sf2.courant().bracket == X.bracket
    assert sf2.courant().pairing == X.pairing
    assert sf2.courant().A.unit == X.A.unit
    # canonical fixpoint
    assert print_file(sf2) == text
    assert parse(print_file(sf2)) == sf2


def test_tca_file_roundtrip():
    T = to_1tca(example("exact(2)"))
    text = print_file(tca_to_file(T))
    T2 = parse(text).tca()
    assert T2 == T


def test_graded_view_file_roundtrip():
    V = assemble_view(CourantQuotient(example("heisenberg"), 2))
    text = print_file(view_to_file(V))
    sf = parse(text)
    V2 = sf.graded_view()
    X = extract_courant(V2)
    assert check_courant(X).passed
    assert X.pairing == example("heisenberg").pairing
    assert print_file(parse(text)) == text


def test_view_file_renames_a_repeated_space_name():
    # degree 2 named like degree 1: the file renames it, rebuilds the
    # tables on it and reuses every other table as it is
    V = assemble_view(CourantQuotient(example("exact(2)"), 3))
    old = V.spaces[2]
    new = BasedSpace(V.spaces[1].name, old.basis)
    swap = lambda s: new if s is old else s
    vec = lambda v: Vector(new, dict(v.items)) if v.space is old else v
    bilinear = lambda b: BilinearMap(
        swap(b.left), swap(b.right), swap(b.codomain), [[vec(v) for v in row] for row in b.table]
    )
    W = GradedVpaView(
        spaces=tuple(map(swap, V.spaces)), unit=V.unit,
        d=tuple(LinearMap(swap(m.domain), swap(m.codomain), [vec(c) for c in m.columns]) for m in V.d),
        mult={k: bilinear(b) for k, b in V.mult.items()},
        prod={k: bilinear(b) for k, b in V.prod.items()},
    )
    sf = view_to_file(W)
    assert [s.name for s in sf.spaces.values()] == ["A", "B", "B_deg2", "S3"]
    assert sf.products["m_0_1"] is W.mult[(0, 1)] and sf.products["m_1_1"] is not W.mult[(1, 1)]
    assert sf.maps["d0"] is W.d[0] and sf.maps["d1"] is not W.d[1]
    assert print_file(sf) == print_file(view_to_file(V)).replace(" S2", " B_deg2")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n" + MINIMAL.replace("(e,e) -> e", "(e,e) -> e  # unit square")
    sf = parse(text)
    assert sf.courant()
