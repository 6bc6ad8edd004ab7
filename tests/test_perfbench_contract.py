"""The benchmark traces package functions by name; every name must resolve.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of ``WRAPPED``
where callers look it up.  A refactor that drops or moves one of those names
would otherwise only surface as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    missing = []
    for module_name, path, _span, _observe in wrapped:
        # Resolve exactly as traced() does: walk the dotted path, then read
        # the last attribute from the owner's own __dict__.
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{module_name}.{path}")
    assert not missing, missing
