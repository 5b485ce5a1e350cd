import json
import subprocess
import sys
from pathlib import Path

# ceilings of the public API; growing it is a deliberate change that raises
# these in the same commit and says so in CHANGES.md
MAX_ALL_NAMES = 101
MAX_PUBLIC_PARAMS = 119

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "api_size.py"


def test_public_api_within_ceilings():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True
    ).stdout
    size = json.loads(out)
    assert size["src_lines"] > 0
    assert size["all_names"] <= MAX_ALL_NAMES
    assert size["public_params"] <= MAX_PUBLIC_PARAMS
