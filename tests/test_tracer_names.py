"""The per-layer tracer in ``perfbench/tracing.py`` wraps package names
that it looks up as ``owner.__dict__[name]``; a name that is deleted or
moved makes ``perfbench/run.py --trace`` fail with ``KeyError``."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_where_the_tracer_looks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module of a class through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    targets = tracing.Tracer()._targets()
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in vars(owner)
    ]
    assert missing == []
