import os
import sys
from pathlib import Path

# pyproject's ``pythonpath`` puts src/ on this process's path; the CLI tests' subprocesses get it
# too, so a bare ``pytest`` tests this checkout and never an installed copy
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after capture is torn down."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
