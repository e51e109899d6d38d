"""numpy is the package's only runtime dependency.

The check runs in a fresh interpreter, so modules the test runner loaded
(pytest, hypothesis) do not count; modules the interpreter loads at start-up
from ``.pth`` files do not either, since only what the imports add is read.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import spikescan, spikescan.cli
loaded = {{name.split(".")[0] for name in set(sys.modules) - before}}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - set(sys.builtin_module_names))))
"""


def test_importing_the_package_and_its_cli_loads_only_numpy_beyond_the_standard_library():
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(src=str(SRC))], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == ["numpy", "spikescan"]
