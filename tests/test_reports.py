from courant_vpa.reports import CheckReport, Violation


def test_report_sorted_canonically():
    a = Violation("m", "ax2", ("t",), "1", "0")
    b = Violation("m", "ax1", ("t",), "1", "0")
    rep = CheckReport([a, b])
    assert rep.violations == (b, a)
    assert not rep.passed
    assert CheckReport([]).passed


def test_merge_is_order_independent():
    a = Violation("m", "ax2", ("t",), "1", "0")
    b = Violation("m", "ax1", ("t",), "1", "0")
    assert CheckReport([a]).merge(CheckReport([b])) == CheckReport([b]).merge(CheckReport([a])) or (
        CheckReport([a]).merge(CheckReport([b])).violations
        == CheckReport([b]).merge(CheckReport([a])).violations
    )
