"""The benchmark's trace boundaries (perfbench/tracer.py) exist in the package.

The benchmark wraps these module attributes to time each layer and reports
a missing one as an absent layer; these tests make a refactor that removes
or reshapes one fail here instead.
"""

import dis
import importlib
import importlib.util
import inspect
from pathlib import Path

from torusbridge import ProposedBridge, SimConfig, acceptance, cli, engine, girsanov, simulate_batch

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


def test_run_chunk_signature():
    # The chunk layer's counter reads config, lo and hi as positional arguments 0 to 2.
    assert list(inspect.signature(engine._run_chunk).parameters)[:3] == ["config", "lo", "hi"]


def test_density_signature():
    # The density layer's counter reads x and y as positional arguments 1 and 3.
    params = inspect.signature(acceptance.wrapped_gaussian_log_density).parameters
    assert list(params) == ["s", "x", "t", "y", "sigma"]


def _calls_global(fn, name):
    """Whether ``fn`` loads ``name`` as a module global (``model.drift`` is an attribute)."""
    return any(ins.opname == "LOAD_GLOBAL" and ins.argval == name
               for ins in dis.get_instructions(fn))


def test_drift_layers_stay_traceable():
    # The drift.<variant> layers come from wrapping the module-level drift
    # that the one step update and the weight pass call by name; a call site
    # that dispatched to model.drift(...) directly would drop those spans silently.
    drift_module = importlib.import_module("torusbridge.drift")
    assert engine.drift is girsanov.drift is drift_module.drift
    for fn in (engine._step, girsanov.path_log_weights):
        assert _calls_global(fn, "drift")
    for fn in (engine.euler_step, engine._run_chunk):
        assert _calls_global(fn, "_step")


def test_chunk_layers_stay_traceable():
    # The engine.chunk and engine.noise layers come from wrapping these module
    # globals; a call through a name bound at import time (an alias or a default
    # argument) would bypass the wrappers and drop those spans silently.
    assert _calls_global(engine.simulate_batch, "_run_chunk")
    assert _calls_global(engine._run_chunk, "_chunk_increments")


def test_weights_layer_stays_traceable():
    # The girsanov.weights layer comes from wrapping girsanov.path_log_weights;
    # the engine must look it up through the module at each call, since a name
    # bound at import time would bypass the wrapper and drop that layer silently.
    ins = list(dis.get_instructions(engine._run_chunk))
    assert any(a.opname == "LOAD_GLOBAL" and a.argval == "girsanov"
               and b.opname in ("LOAD_ATTR", "LOAD_METHOD") and b.argval == "path_log_weights"
               for a, b in zip(ins, ins[1:]))


def test_drift_calls_of_a_weighted_batch(monkeypatch):
    # The benchmark's drift layers count the calls of the two module globals:
    # a weighted batch makes one per step in the step loop and one per step
    # before the cutoff in the weight pass, each on every path of the chunk.
    counts = {}
    for module in (engine, girsanov):
        def counted(t, x, model, module=module, inner=module.drift):
            calls, points = counts.get(module.__name__, (0, 0))
            counts[module.__name__] = (calls + 1, points + x.size // 2)
            return inner(t, x, model)
        monkeypatch.setattr(module, "drift", counted)
    model = ProposedBridge(sigma=1.0, horizon=1.0, target=(0.0, 0.0))
    cfg = SimConfig(model=model, start=(0.0, 0.0), n_steps=10, seed=1, n_paths=3)
    simulate_batch(cfg, weight_cutoff=0.5)
    assert counts == {engine.__name__: (10, 30), girsanov.__name__: (5, 15)}
