"""The per-layer benchmark wraps package functions by name from outside
`src/` (perfbench/tracer.py); a renamed or deleted function would break its
traced runs without failing anything in the package."""

import importlib.util
from pathlib import Path

import disjoint_link

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    missing = [
        f"{module.__name__}.{name}"
        for targets, _, _ in tracer.SPANS.values()
        for module, name in targets
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_environment_probe_names_exist():
    assert isinstance(disjoint_link.DEFAULT_BACKEND, str)
