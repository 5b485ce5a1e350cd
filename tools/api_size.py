"""Print the three size numbers of the package as one JSON object.

    python tools/api_size.py

- ``src_lines``: lines of Python under ``src/``;
- ``all_names``: names in ``__all__``, summed over the public modules;
- ``public_params``: parameters of the functions among those names.

The public modules are angmom, atomstruct, transitions, noise, spam, calib
and fixtures.  Only the standard library is used to count; importing the
package needs numpy.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("angmom", "atomstruct", "transitions", "noise", "spam", "calib", "fixtures")


def api_size() -> dict:
    sys.path.insert(0, str(SRC))
    names = params = 0
    for name in MODULES:
        module = importlib.import_module(f"ba137qudit.{name}")
        for obj in (getattr(module, n) for n in module.__all__):
            names += 1
            if inspect.isfunction(obj):
                params += len(inspect.signature(obj).parameters)
    lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"src_lines": lines, "all_names": names, "public_params": params}


if __name__ == "__main__":
    print(json.dumps(api_size()))
