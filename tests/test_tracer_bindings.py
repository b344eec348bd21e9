"""The benchmark's tracer binds wrappers to names in kmatch modules; a renamed
or deleted name must fail here, not only in the benchmark's self-test."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_resolves_and_is_restored():
    tracer = _load_tracer()
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _, _ in tracer.BINDINGS
    }
    t = tracer.Tracer()
    try:
        t.install()  # raises AttributeError when a bound name is gone
        for (mod, attr), fn in originals.items():
            assert getattr(importlib.import_module(mod), attr).__wrapped__ is fn
    finally:
        t.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn
