"""Every trace point the benchmark wraps must name a function that exists."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced(module_name, dotted):
    owner = importlib.import_module(module_name)
    for name in dotted.split("."):
        owner = getattr(owner, name)
    return owner


def test_tracer_installs_and_uninstalls_every_trace_point(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import WRAPS, Tracer

    tracer = Tracer()
    try:
        tracer.install()  # raises RuntimeError naming a trace point that no longer resolves
        for module_name, dotted, _span, _hook in WRAPS:
            assert hasattr(_traced(module_name, dotted), "__wrapped__"), dotted
    finally:
        tracer.uninstall()
    for module_name, dotted, _span, _hook in WRAPS:
        assert not hasattr(_traced(module_name, dotted), "__wrapped__"), dotted
    assert not tracer.spans
