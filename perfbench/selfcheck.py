"""Quick self-check of the benchmark on tiny instances (about 15 s).

    python3 perfbench/selfcheck.py

Checks that every workload, traced and untraced, emits exactly the
metrics BENCHMARK.json names with 0 failed operations, that traced counts
repeat between two runs with one seed, and that each workload's output
check rejects deliberately wrong outputs: a perturbed read-back table, a
non-confluent reduce pair, an uncaught mutant, a wrong hand product and
a broken structure that passes.  Also checks that run.py refuses, with a
nonzero exit and no result, to run in a copy that holds only the
benchmark.  Exits 1 naming every check that failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError("run.py exited %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = bench(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want[trace], "%s trace %d emits the metrics of BENCHMARK.json" % (w, trace))
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   "%s trace %d: correct, %d attempted, %d failed"
                   % (w, trace, res["attempted"], res["failed"]))
            if trace:
                again = bench(w, trace)
                counts = {k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s"}
                counts2 = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] != "s"}
                expect(counts == counts2, "%s traced counts repeat with one seed" % w)


def check_bare_copy() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vpa-certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "a copy holding only the benchmark exits %d without a result" % proc.returncode)


def check_rejections() -> None:
    import workloads as wl
    from courant_vpa import cli
    from courant_vpa.courant import to_1tca
    from courant_vpa.examples import example
    from courant_vpa.quotient import CourantQuotient
    from courant_vpa.vlie import VertexLie
    from courant_vpa.vpa import SymAlgebra

    expect([wl.pure_b_count(3, n) for n in range(5)] == [1, 3, 9, 22, 51],
           "partition counts of dim B = 3 are 1, 3, 9, 22, 51")

    # vpa-certify
    T = to_1tca(example("heisenberg"))
    sym = SymAlgebra(VertexLie(T, 3))
    expect(wl.hand_product_problems(sym, [(1, ("D0[beta]",), ("D0[beta]",), {("e",): 2})]) != [],
           "a wrong hand product is rejected")
    expect(wl.broken_problem(T, 2) is not None, "a valid pair offered as broken is rejected")
    expect(wl.certify_problem_vpa(wl.broken_heisenberg(), 2, []) is not None,
           "the broken pair fails certification")

    # quotient-build
    os.makedirs(wl.OUT, exist_ok=True)
    out = os.path.join(wl.OUT, "selfcheck-sl2.cvpa")
    fixture = os.path.join(wl.FIXTURES, "sl2.cvpa")
    X = wl.parse(open(fixture, encoding="utf-8").read()).courant()
    expect(cli.main(["build", fixture, "--max-degree", "2", "--out", out]) == 0, "build sl2 at degree 2")
    text = open(out, encoding="utf-8").read()
    expect(wl.readback_problems(X, text, 2, True) == [], "the sl2 view reads back")
    head, sep, tail = text.partition("PRODUCT p_0_1_1 B B B\n")
    bad = head + sep + tail.replace("  (E,F) -> H\n", "  (E,F) -> 2*H\n", 1)
    expect(bad != text and any("bracket" in p for p in wl.readback_problems(X, bad, 2, True)),
           "a perturbed read-back bracket table is rejected")
    expect(wl.readback_problems(X, text, 3, True) != [], "a view of the wrong depth is rejected")
    q = CourantQuotient(example("exact(2)"), 3)
    u = wl.reduce_corpus(q, 1, 5)[0]
    left = q.reduce(u, "leftmost")
    other = q.reduce(u + q.sym.b_gen("dx"), "rightmost")
    expect(wl.reduce_problem(q, left, left) is None, "a confluent reduce pair passes")
    expect(wl.reduce_problem(q, left, other) is not None, "a non-confluent reduce pair is rejected")
    expect(wl.quotient_problems(example("exact(2)"), q) == [], "the exact(2) quotient passes")
    expect(wl.quotient_problems(example("trivial(2)"), q) != [],
           "a quotient of another algebroid is rejected")

    # courant-mutants
    X = example("exact(2)")
    swept = list(wl.mutants(X))
    expect(len(swept) == wl.mutant_count(X), "exact(2) has %d mutants" % wl.mutant_count(X))
    expect(wl.mutant_problem(X, False) is not None, "an uncaught mutant is a failure")
    expect(wl.mutant_problem(swept[0][0], True) is not None, "an invalid mutant called valid is a failure")
    expect(wl.certify_problem(swept[0][0]) is not None, "a mutant fails certification")
    valid = [Y for Y, ok in wl.mutants(example("trivial(3)")) if ok]
    expect(len(valid) == 3 and all(wl.mutant_problem(Y, True) is None for Y in valid),
           "trivial(3)'s three diagonal pairing mutants are valid algebroids")


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "courant_vpa", "__init__.py")):
        print("run from a checkout of the repository", file=sys.stderr)
        return 2
    check_bare_copy()
    check_rejections()
    check_emitted()
    print("%d failed" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
