"""Every layer the benchmark traces still exists.

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
