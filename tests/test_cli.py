import json
from importlib import resources

import pytest

from courant_vpa.cli import main
from courant_vpa.fileformat import parse, print_file


def fixture_path(name: str) -> str:
    return str(resources.files("courant_vpa") / "fixtures" / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_courant_pass(capsys):
    code, out, _ = run(capsys, "check", "courant", fixture_path("sl2.cvpa"))
    assert code == 0
    assert "PASS" in out


def test_check_courant_broken_names_c5(capsys):
    code, out, _ = run(capsys, "check", "courant", fixture_path("broken.cvpa"))
    assert code == 1
    assert "c5" in out


def test_check_json_fields(capsys):
    code, out, _ = run(capsys, "check", "courant", fixture_path("broken.cvpa"), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    v = doc["violations"][0]
    assert set(v) == {"module", "axiom", "tuple", "lhs", "rhs"}


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cvpa"
    bad.write_text("SPACE A e\nPRODUCT mul A A A\n  (e,e) -> 1/0*e\nSTRUCTURE courant\n")
    code, _, err = run(capsys, "check", "courant", str(bad))
    assert code == 2
    assert "denominator" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense", "x.cvpa"])
    assert exc.value.code == 2


def test_convert_to_1tca(tmp_path, capsys):
    out_file = tmp_path / "sl2_tca.cvpa"
    code, _, _ = run(capsys, "convert", fixture_path("sl2.cvpa"), "--to", "1tca", "--out", str(out_file))
    assert code == 0
    sf = parse(out_file.read_text())
    assert sf.kind == "1tca"
    code, out, _ = run(capsys, "check", "1tca", str(out_file))
    assert code == 0


def test_roundtrip_headline(capsys):
    code, out, _ = run(capsys, "roundtrip", fixture_path("sl2.cvpa"), "--max-degree", "3")
    assert code == 0
    assert "A: 1/1 tables equal; B: 4/4 tables equal" in out


def test_roundtrip_reports_a_changed_table(monkeypatch, capsys):
    # the read-back gives sl2 with one bracket entry bumped by +1: the
    # round trip names that table, and the headline counts it
    from dataclasses import replace
    from fractions import Fraction

    from courant_vpa.examples import example
    from courant_vpa.linalg import BilinearMap, Vector
    from courant_vpa.quotient import CourantQuotient, roundtrip_check

    extract = CourantQuotient.extract_degree01

    def bumped(self):
        alg, Y = extract(self)
        rows = [list(r) for r in Y.bracket.table]
        rows[0][1] = rows[0][1] + Vector(Y.B, {0: Fraction(1)})
        return alg, replace(Y, bracket=BilinearMap(Y.B, Y.B, Y.B, rows))

    monkeypatch.setattr(CourantQuotient, "extract_degree01", bumped)
    rep = roundtrip_check(example("quadratic_lie(sl2)"), cutoff=3)
    assert not rep.passed
    table_fails = [v for v in rep.violations if v.module == "quotient"]
    assert [v.axiom for v in table_fails] == ["table.bracket"]
    # the violation names the entry, and its sides read differently
    assert table_fails[0].tuple == ("E", "F")
    assert table_fails[0].lhs != table_fails[0].rhs
    code, out, _ = run(capsys, "roundtrip", fixture_path("sl2.cvpa"), "--max-degree", "3")
    assert code == 1
    assert "A: 1/1 tables equal; B: 3/4 tables equal" in out


@pytest.mark.parametrize("table", ["unit", "partial"])
def test_roundtrip_headline_names_a_changed_unit_or_partial(monkeypatch, capsys, table):
    # the read-back gives exact(2) with the first coordinate of the unit, or
    # the first entry of partial's first column, bumped by +1
    from dataclasses import replace

    from courant_vpa.courant import UnitalCommAlgebra
    from courant_vpa.linalg import LinearMap, Vector
    from courant_vpa.quotient import CourantQuotient

    extract = CourantQuotient.extract_degree01

    def bumped(self):
        alg, Y = extract(self)
        if table == "unit":
            unit = Y.A.unit + Vector(Y.A.space, {0: 1})
            return alg, replace(Y, A=UnitalCommAlgebra(Y.A.space, Y.A.mult, unit))
        cols = list(Y.partial.columns)
        cols[0] = cols[0] + Vector(Y.B, {0: 1})
        return alg, replace(Y, partial=LinearMap(Y.A.space, Y.B, cols))

    monkeypatch.setattr(CourantQuotient, "extract_degree01", bumped)
    code, out, _ = run(capsys, "roundtrip", fixture_path("exact2.cvpa"), "--max-degree", "2")
    assert code == 1
    assert "quotient/table.%s" % table in out
    assert "A: 1/1 tables equal; B: 4/4 tables equal; also unequal: %s" % table in out


def test_roundtrip_json(capsys):
    code, out, _ = run(capsys, "roundtrip", fixture_path("heisenberg.cvpa"), "--max-degree", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["headline"] == "A: 1/1 tables equal; B: 4/4 tables equal"


def test_build_then_extract(tmp_path, capsys):
    built = tmp_path / "heis_vpa.cvpa"
    code, _, _ = run(capsys, "build", fixture_path("heisenberg.cvpa"),
                     "--max-degree", "2", "--out", str(built))
    assert code == 0
    sf = parse(built.read_text())
    assert sf.kind == "graded-vpa"
    extracted = tmp_path / "heis_back.cvpa"
    code, out, _ = run(capsys, "extract", str(built), "--out", str(extracted))
    assert code == 0
    back = parse(extracted.read_text()).courant()
    from courant_vpa.examples import example
    assert back.pairing == example("heisenberg").pairing


def test_extract_of_a_bad_unit_view_fails_with_exit_1(tmp_path, capsys):
    from courant_vpa.examples import example
    from courant_vpa.fileformat import view_to_file
    from courant_vpa.graded import GradedVpaView, assemble_view
    from courant_vpa.quotient import CourantQuotient

    V = assemble_view(CourantQuotient(example("heisenberg"), 2))
    bad = GradedVpaView(spaces=V.spaces, unit=V.unit.scale(2), d=V.d, mult=V.mult, prod=V.prod)
    path = tmp_path / "bad_unit.cvpa"
    path.write_text(print_file(view_to_file(bad, meta={"cutoff": "2"})))
    code, out, _ = run(capsys, "extract", str(path))
    assert code == 1
    assert "extraction FAIL" in out
    assert "courant/A.unit at (a=e): lhs=2*e rhs=e" in out


def test_examples_list_and_emit(tmp_path, capsys):
    code, out, _ = run(capsys, "examples", "list")
    assert code == 0
    assert "quadratic_lie(sl2)" in out
    code, out, _ = run(capsys, "examples", "emit", "exact(2)")
    assert code == 0
    assert "STRUCTURE courant" in out
    code, _, err = run(capsys, "examples", "emit", "nope(9)")
    assert code == 2


def test_examples_emit_refusal_is_unquoted(capsys):
    for name, reason in [("exact(5)", "exact(m) supports 2 <= m <= 4"),
                         ("trivial(x)", "unknown example 'trivial(x)'")]:
        code, out, err = run(capsys, "examples", "emit", name)
        assert (code, out, err) == (2, "", reason + "\n"), name


def test_examples_emit_json_carries_the_plain_text(capsys):
    code, plain, _ = run(capsys, "examples", "emit", "heisenberg")
    assert code == 0
    code, out, err = run(capsys, "examples", "emit", "heisenberg", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"command": "examples", "name": "heisenberg", "output": plain}


@pytest.mark.parametrize("argv", [
    ("convert", "exact2.cvpa", "--to", "1tca"),
    ("build", "exact2.cvpa", "--max-degree", "2"),
    ("examples", "emit", "heisenberg"),
], ids=lambda argv: argv[0])
def test_json_with_out_writes_the_file_and_names_it(tmp_path, capsys, argv):
    argv = [fixture_path(a) if a.endswith(".cvpa") else a for a in argv]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    path = str(tmp_path / "out.cvpa")
    code, out, err = run(capsys, *argv, "--json", "--out", path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["out"] == path and "output" not in doc
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == plain


@pytest.mark.parametrize("argv", [
    ("convert", "exact2.cvpa", "--to", "1tca"),
    ("build", "exact2.cvpa", "--max-degree", "2"),
    ("examples", "emit", "heisenberg"),
    ("examples", "emit", "heisenberg", "--json"),
    ("extract", "view"),
], ids=["convert", "build", "examples-emit", "examples-emit-json", "extract"])
def test_out_to_an_unwritable_path_exits_2_and_names_it(tmp_path, capsys, argv):
    view = str(tmp_path / "view.cvpa")
    if "view" in argv:
        assert run(capsys, "build", fixture_path("heisenberg.cvpa"), "--max-degree", "2", "--out", view)[0] == 0
    argv = [fixture_path(a) if a.endswith(".cvpa") else view if a == "view" else a for a in argv]
    path = str(tmp_path / "missing" / "out.cvpa")
    code, out, err = run(capsys, *argv, "--out", path)
    assert (code, out) == (2, "")
    assert err.startswith("cannot write %s: " % path)


def test_fixture_files_are_canonical_fixpoints():
    for name in ("sl2.cvpa", "exact2.cvpa", "trivial2.cvpa", "heisenberg.cvpa", "broken.cvpa"):
        text = open(fixture_path(name)).read()
        assert print_file(parse(text)) == text, name


def test_fixture_matches_example_tables():
    from courant_vpa.examples import example
    sf = parse(open(fixture_path("sl2.cvpa")).read())
    X = sf.courant()
    Y = example("quadratic_lie(sl2)")
    assert X.bracket == Y.bracket
    assert X.pairing == Y.pairing
    assert X.A.mult == Y.A.mult
    assert X.partial == Y.partial


def test_convert_refuses_broken_input(capsys):
    code, out, _ = run(capsys, "convert", fixture_path("broken.cvpa"), "--to", "1tca")
    assert code == 1
    assert "refused" in out


def test_check_1tca_failing_file(tmp_path, capsys):
    # symmetric flag off, asymmetric 1-product table: commutativity breaks
    text = """
SPACE A e
SPACE B u v
MAP del A B
PRODUCT p0_10 B A A
PRODUCT p0_01 A B A
PRODUCT p0_11 B B B
PRODUCT p1_11 B B A
  (u,v) -> 4*e
  (v,u) -> 5*e
STRUCTURE 1tca
  c0 A
  c1 B
  partial del
  p0_10 p0_10
  p0_01 p0_01
  p0_11 p0_11
  p1_11 p1_11
"""
    f = tmp_path / "bad_tca.cvpa"
    f.write_text(text)
    code, out, _ = run(capsys, "check", "1tca", str(f))
    assert code == 1
    assert "comm.u1v" in out


def test_build_then_extract_with_active_relations(tmp_path, capsys):
    # exact(2) at degree 3 has genuine relations among the D-power
    # monomials; the serialized view uses the reduced bases and still
    # extracts the original algebroid
    built = tmp_path / "exact2_vpa.cvpa"
    code, _, _ = run(capsys, "build", fixture_path("exact2.cvpa"),
                     "--max-degree", "3", "--out", str(built))
    assert code == 0
    code, _, _ = run(capsys, "extract", str(built))
    assert code == 0


def test_build_json_reports_quotient_stats(capsys):
    code, out, _ = run(capsys, "build", fixture_path("exact2.cvpa"), "--max-degree", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert parse(doc["output"]).graded_view().cutoff == 3
    stats = doc["stats"]
    assert stats["relation_dims"] == [0, 3]
    assert stats["rows_kept"] == 3
    assert stats["shadows_inserted"] >= stats["rows_kept"]
    # 154 seeds and closure products, of which 129 are zero by construction
    assert (stats["shadows_inserted"], stats["shadows_skipped"]) == (25, 129)
    assert stats["fusion_steps"] > 0 and stats["peak_memo_entries"] > 0
    # the view's 888 n-th product entries: from the symmetric algebra, by
    # the vertex Poisson laws, zero by grading
    assert (stats["view_entries_sym"], stats["view_entries_laws"], stats["view_entries_zero"]) == (16, 584, 288)


def test_criterion_line_format():
    # the full selftest subprocess runs in the acceptance suite; here just
    # the one-line report shape of a single cheap criterion
    import courant_vpa.selftest as st_mod
    line = st_mod.run_criterion(2).line()
    assert line.startswith("criterion 2 [PASS]")
    assert "s): " in line


def test_good_fixtures_regenerate_from_examples():
    # drift protection: the shipped files are exactly the canonical prints
    # of the registered instances
    from courant_vpa.examples import example
    from courant_vpa.fileformat import courant_to_file
    for name, fname in [("quadratic_lie(sl2)", "sl2.cvpa"), ("exact(2)", "exact2.cvpa"),
                        ("trivial(2)", "trivial2.cvpa"), ("heisenberg", "heisenberg.cvpa")]:
        regenerated = print_file(courant_to_file(example(name), meta={"example": name}))
        assert regenerated == open(fixture_path(fname)).read(), fname


def test_reduce_bound_exits_2_with_one_line(monkeypatch, capsys):
    import courant_vpa.quotient as quotient_mod

    monkeypatch.setattr(quotient_mod, "MAX_REDUCE_STEPS", 1)
    code, out, err = run(capsys, "build", fixture_path("exact2.cvpa"), "--max-degree", "2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "fusion steps" in err
