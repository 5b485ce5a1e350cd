import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import ba137qudit

# ceilings of the public API; growing it is a deliberate change that raises
# these in the same commit and says so in CHANGES.md
MAX_ALL_NAMES = 97
MAX_PUBLIC_PARAMS = 111

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "api_size.py"


def test_public_api_within_ceilings():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True
    ).stdout
    size = json.loads(out)
    assert size["src_lines"] > 0
    assert size["all_names"] <= MAX_ALL_NAMES
    assert size["public_params"] <= MAX_PUBLIC_PARAMS


def test_package_namespace_reexports_only_module_names():
    # a name dropped from its module's __all__ must not live on in the
    # package namespace as a re-export
    exported = set()
    for info in pkgutil.iter_modules(ba137qudit.__path__):
        module = importlib.import_module(f"ba137qudit.{info.name}")
        exported.update(getattr(module, "__all__", ()))
    public = [name for name in dir(ba137qudit)
              if not name.startswith("_") and not inspect.ismodule(getattr(ba137qudit, name))]
    assert public and sorted(set(public) - exported) == []
