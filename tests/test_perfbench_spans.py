"""The benchmark's span targets name functions the package still has.

perfbench/spans.py traces a run by replacing module attributes of the
package. A renamed or removed function would only show as a failed traced
benchmark run; these tests catch it in the suite. The benchmark's files are
only read here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache files there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _lookup(target):
    modname, attr = target
    return getattr(importlib.import_module(modname), attr)


def test_every_target_resolves_to_a_callable(spans):
    assert spans.TARGETS
    for name, target in spans.TARGETS.items():
        assert callable(_lookup(target)), name


def test_install_then_uninstall_restores_the_originals(spans):
    originals = {name: _lookup(target) for name, target in spans.TARGETS.items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, target in spans.TARGETS.items():
            assert _lookup(target) is not originals[name], name
    finally:
        tracer.uninstall()
    for name, target in spans.TARGETS.items():
        assert _lookup(target) is originals[name], name
