"""Every layer the benchmark traces still exists, and the benchmark runs.

``perfbench/tracing.py`` reports a target it cannot resolve as absent and
carries on, so a refactor that renames or removes a traced function would
silently drop its layer from the per-layer metrics.
"""

import importlib
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,path,span", tracing.TARGETS)
def test_traced_target_resolves(module, path, span):
    owner = importlib.import_module("%s.%s" % (tracing.PACKAGE, module))
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), span


_WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def test_benchmark_workloads_pass_at_tiny_size(monkeypatch, tmp_path):
    # One round of each workload at its tiny size, so that a change to the
    # library calls the benchmark makes (q.lift, q.extract_degree01,
    # reduce(u, strategy), ...) fails here first.  Each operation is called
    # as soon as it is yielded: the round functions' lambdas close over
    # their loop variables.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(workloads, "OUT", str(tmp_path))
    for name, (setup, round_fn) in workloads.WORKLOADS.items():
        state = setup(7, "tiny")
        for label, op in round_fn(state):
            assert op() is None, (name, label)
