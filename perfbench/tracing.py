"""Spans around calls into the library's layers, recorded from outside it.

The tracer replaces each target function with a timing wrapper in every
``courant_vpa`` module namespace that holds it (whatever name it is bound
to there), and each target method on its class.  Spans (name, start,
end, parent) are kept in flat arrays while the traced code runs and are
written out by ``write``; per-name call counts and self times (span time
minus the time covered by its child spans) are kept as the spans close.
A target the library no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from array import array

# (module, attribute path, span name).  Each span name is also the prefix
# of its per-layer metrics.
TARGETS = [
    ("linalg", "bilin_apply", "linalg.bilin_apply"),
    ("linalg", "rank", "linalg.rank"),
    ("courant", "check_courant", "courant.check_courant"),
    ("courant", "check_compat", "courant.check_compat"),
    ("courant", "check_annihilation", "courant.check_annihilation"),
    ("courant", "to_1tca", "courant.to_1tca"),
    ("tca", "check_all", "tca.check_all"),
    ("examples", "example", "examples.example"),
    ("vlie", "VertexLie.product", "vlie.VertexLie.product"),
    ("vlie", "VertexLie.sing_oracle", "vlie.VertexLie.sing_oracle"),
    ("vlie", "check_vertex_lie", "vlie.check_vertex_lie"),
    ("vlie", "check_oracle_agreement", "vlie.check_oracle_agreement"),
    ("vpa", "SymAlgebra.product", "vpa.SymAlgebra.product"),
    ("vpa", "SymAlgebra.multiply", "vpa.SymAlgebra.multiply"),
    ("vpa", "SymAlgebra.d", "vpa.SymAlgebra.d"),
    ("vpa", "check_vpa", "vpa.check_vpa"),
    ("quotient", "CourantQuotient.__init__", "quotient.CourantQuotient.init"),
    ("quotient", "CourantQuotient.reduce", "quotient.CourantQuotient.reduce"),
    ("quotient", "CourantQuotient.product", "quotient.CourantQuotient.product"),
    ("quotient", "CourantQuotient.multiply", "quotient.CourantQuotient.multiply"),
    ("quotient", "CourantQuotient.d", "quotient.CourantQuotient.d"),
    ("graded", "assemble_view", "graded.assemble_view"),
    ("graded", "extract_courant", "graded.extract_courant"),
    ("fileformat", "print_file", "fileformat.print_file"),
    ("fileformat", "parse", "fileformat.parse"),
]

# Counters kept beside the spans, by the hooks below.
COUNTERS = [
    "vpa.product.monomial_pairs",
    "vpa.product.distinct_monomial_pairs",
    "quotient.relation_dim.total",
    "fileformat.print_file.bytes",
    "fileformat.parse.bytes",
]

PACKAGE = "courant_vpa"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {c: 0 for c in COUNTERS}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._pair_sets = weakref.WeakKeyDictionary()
        self._retired_pairs = 0

    # -- installing ---------------------------------------------------------

    def install(self, also=()) -> None:
        """Wrap every target; functions are rebound in the library's
        modules and in the modules ``also`` names (the benchmark's own)."""
        namespaces = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ] + list(also)
        for module, path, span in TARGETS:
            mod = sys.modules.get("%s.%s" % (PACKAGE, module))
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(span)
                continue
            self.calls[span] = 0
            self.self_s[span] = 0.0
            wrapper = self._wrap(span, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for m in namespaces:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, binding, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        pre = {
            "vpa.SymAlgebra.product": self._guard("vpa.product.monomial_pairs", self._count_pairs),
            "fileformat.parse": self._guard("fileformat.parse.bytes", self._count_parse_bytes),
        }.get(span)
        post = {
            "quotient.CourantQuotient.init": self._guard("quotient.relation_dim.total", self._count_relations),
            "fileformat.print_file": self._guard("fileformat.print_file.bytes", self._count_print_bytes),
        }.get(span)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def hook(counting, *args):
            # Hook time is kept out of the enclosing span's self time.
            t = clock()
            counting(*args)
            if stack:
                stack[-1][1] += clock() - t

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                hook(pre, args)
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[idx] = end
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                calls[span] += 1
                self_s[span] += took - frame[1]
            if post is not None:
                hook(post, args, result)
            return result

        return wrapper

    # -- hooks (run outside the span they belong to) ------------------------

    def _guard(self, counter: str, hook):
        """A hook that stops counting, and marks its counter absent, once
        the library's objects no longer have the shape it reads."""
        def guarded(*args):
            if counter in self.absent:
                return
            try:
                hook(*args)
            except (AttributeError, TypeError, ValueError, IndexError):
                self.absent.append(counter)
        return guarded

    def _count_pairs(self, args) -> None:
        sym, n, u, v = args[:4]
        self.counters["vpa.product.monomial_pairs"] += len(u.terms) * len(v.terms)
        seen = self._pair_sets.get(sym)
        if seen is None:
            seen = set()
            self._pair_sets[sym] = seen
            weakref.finalize(sym, self._retire_pairs, seen)
        for mu in u.terms:
            for mv in v.terms:
                seen.add((n, mu, mv))

    def _retire_pairs(self, seen: set) -> None:
        self._retired_pairs += len(seen)

    def _count_relations(self, args, result) -> None:
        q = args[0]
        self.counters["quotient.relation_dim.total"] += sum(
            q.relation_dim(n) for n in range(2, q.cutoff + 1)
        )

    def _count_parse_bytes(self, args) -> None:
        self.counters["fileformat.parse.bytes"] += len(args[0].encode("utf-8"))

    def _count_print_bytes(self, args, result) -> None:
        self.counters["fileformat.print_file.bytes"] += len(result.encode("utf-8"))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name, and the counters.  An absent
        target reads 0 and is listed in ``absent``."""
        out: dict[str, float] = {}
        for _, _, span in TARGETS:
            out[span + ".calls"] = self.calls.get(span, 0)
            out[span + ".self_s"] = self.self_s.get(span, 0.0)
        out.update(self.counters)
        distinct = self._retired_pairs + sum(len(s) for s in self._pair_sets.values())
        pairs = out["vpa.product.monomial_pairs"]
        out["vpa.product.distinct_monomial_pairs"] = distinct
        out["vpa.product.distinct_pair_ratio"] = distinct / pairs if pairs else 0.0
        return out

    def write(self, path: str) -> None:
        """All spans: a JSON header with the span names, then one line per
        span: name index, parent span index (-1 for none), start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for i in range(len(self.span_start)):
                fh.write("%d %d %.9f %.9f\n" % (
                    self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i],
                ))
