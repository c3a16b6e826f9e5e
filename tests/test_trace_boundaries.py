"""The benchmark's trace boundaries (perfbench/tracer.py) exist in the package.

The benchmark wraps these module attributes to time each layer and reports
a missing one as an absent layer; these tests make a refactor that removes
or reshapes one fail here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from torusbridge import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


def test_every_boundary_resolves():
    absent = []
    for module_name, attr, _layer, _counter in _boundaries():
        target = getattr(importlib.import_module(module_name), attr, None)
        if not (callable(target) or isinstance(target, list)):
            absent.append(f"{module_name}.{attr}")
    assert absent == []


def test_write_csv_signature():
    # The writer layer's counter reads the written file and its header.
    assert list(inspect.signature(cli._write_csv).parameters) == ["path", "header", "rows"]
