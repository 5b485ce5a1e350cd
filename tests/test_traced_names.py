"""The benchmark traces library functions by name from outside the package
(``perfbench/tracing.py``'s ``TRACED``); a rename or deletion there must
fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"ba137qudit.{layer}"), name, None))
    ]
    assert tracing.TRACED and not missing
