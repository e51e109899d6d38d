import os
import sys
from pathlib import Path

# pyproject's ``pythonpath`` puts src/ on this process's path; the CLI tests' subprocesses get it
# too, so a bare ``pytest`` tests this checkout and never an installed copy
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])


# each test module whose ``RESULTS`` lines the summary echoes, and the section they go under
REPORTS = {"test_acceptance": "acceptance criteria", "test_exactness": "exactness against the arithmetic oracle",
           "test_selectivity": "selectivity of the step"}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines and the reports after capture is torn down."""
    for name, title in REPORTS.items():
        mod = sys.modules.get(name) or sys.modules.get(f"tests.{name}")
        lines = getattr(mod, "RESULTS", None) if mod else None
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
