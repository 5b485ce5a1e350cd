"""Print the three size numbers of the package as one JSON object, or the
public code that nothing reads.

    python tools/api_size.py
    python tools/api_size.py --orphans

- ``src_lines``: lines of Python under ``src/``;
- ``all_names``: names in ``__all__``, summed over the public modules;
- ``public_params``: parameters of the functions among those names.

The public modules are angmom, atomstruct, transitions, noise, spam, calib
and fixtures.  Only the standard library is used to count; importing the
package needs numpy.

``--orphans`` prints, as a JSON list, each function in a public module's
``__all__`` and each public method, property or classmethod of a class in
it that no code under ``src/``, ``demos/``, ``perfbench/`` or ``tools/``
reads, with its file and line, and exits 1 when the list is not empty.  A
reader is a name in code (an identifier, an attribute, an imported name or
a keyword argument; not the name's own ``def``) or a string literal equal
to the name, since ``perfbench/tracing.py`` names the functions it traces
in strings.  ``__all__`` lists, the re-export table of
``ba137qudit/__init__.py`` and this file are not readers.  Methods are
matched by name alone, so a method read elsewhere under the same name as
another class's method is not listed.  Classes are not checked: result types
and exceptions reach users through return values and ``except`` clauses.
"""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("angmom", "atomstruct", "transitions", "noise", "spam", "calib", "fixtures")
READER_DIRS = ("src", "demos", "perfbench", "tools")

# public code that ships for users of the files the commands write
ALLOWED = {
    "spam.error_params_to_json": "writes the document that `spam --errors FILE` reads",
    "calib.CalibrationModel.from_json":
        "reads the document that `fit calibration` and `calibrate-demo` write",
}


def _public_modules():
    sys.path.insert(0, str(SRC))
    return [importlib.import_module(f"ba137qudit.{name}") for name in MODULES]


def api_size() -> dict:
    names = params = 0
    for module in _public_modules():
        for obj in (getattr(module, n) for n in module.__all__):
            names += 1
            if inspect.isfunction(obj):
                params += len(inspect.signature(obj).parameters)
    lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"src_lines": lines, "all_names": names, "public_params": params}


def _read_names(path: Path) -> set:
    """Every name the code in ``path`` reads, and every string literal."""
    tables = {"__all__"} | ({"_EXPORTS"} if path == SRC / "ba137qudit" / "__init__.py" else set())
    found = set()
    stack = [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id in tables for t in targets):
                continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _public_code():
    """(qualified name, short name, function) of each function in a public
    ``__all__`` and each public method of a class in one."""
    for module in _public_modules():
        short = module.__name__.rpartition(".")[2]
        for name in module.__all__:
            obj = getattr(module, name)
            if not isinstance(obj, type):
                if callable(obj):
                    yield f"{short}.{name}", name, obj
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", attr, member


def orphans() -> list:
    readers = set()
    for top in READER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != Path(__file__).resolve():
                readers |= _read_names(path)
    found = []
    for qualified, name, func in _public_code():
        if name in readers or qualified in ALLOWED:
            continue
        func = inspect.unwrap(func)
        found.append({
            "name": qualified,
            "file": Path(inspect.getsourcefile(func)).resolve().relative_to(ROOT).as_posix(),
            "line": func.__code__.co_firstlineno,
        })
    return found


if __name__ == "__main__":
    if sys.argv[1:] == ["--orphans"]:
        listed = orphans()
        print(json.dumps(listed, indent=1))
        sys.exit(1 if listed else 0)
    print(json.dumps(api_size()))
