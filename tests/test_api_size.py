import importlib
import inspect
import json
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import ba137qudit

# ceilings of the public API; growing it is a deliberate change that raises
# these in the same commit and says so in CHANGES.md
MAX_ALL_NAMES = 95
MAX_PUBLIC_PARAMS = 101

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "api_size.py"


def test_public_api_within_ceilings():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True
    ).stdout
    size = json.loads(out)
    assert size["src_lines"] > 0
    assert size["all_names"] <= MAX_ALL_NAMES
    assert size["public_params"] <= MAX_PUBLIC_PARAMS


def test_no_public_code_goes_unread():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--orphans"],
                          capture_output=True, text=True)
    assert (proc.returncode, json.loads(proc.stdout)) == (0, [])


def test_census_names_an_unread_public_function(tmp_path):
    for top in ("src", "demos", "perfbench", "tools"):
        shutil.copytree(SCRIPT.parent.parent / top, tmp_path / top, ignore=shutil.ignore_patterns("__pycache__"))
    noise = tmp_path / "src" / "ba137qudit" / "noise.py"
    lines = noise.read_text().splitlines()
    noise.write_text("\n".join([*lines, "", "", "def unread(x):", "    return x",
                                 '__all__ += ["unread"]', ""]))
    proc = subprocess.run([sys.executable, str(tmp_path / "tools" / "api_size.py"), "--orphans"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == [
        {"name": "noise.unread", "file": "src/ba137qudit/noise.py", "line": len(lines) + 3}]


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
