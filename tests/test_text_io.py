"""Every file the package opens as text is opened as UTF-8.

An ``open`` call with neither a binary mode nor ``encoding="utf-8"`` reads or
writes in the locale's encoding, which is ASCII under the POSIX locale.  The
check reads the package's source, so it holds whatever the locale of the run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spikescan"


def _const(node: ast.AST | None):
    return node.value if isinstance(node, ast.Constant) else None


def is_binary_or_utf8(call: ast.Call) -> bool:
    kw = {k.arg: k.value for k in call.keywords}
    mode = _const(call.args[1] if len(call.args) > 1 else kw.get("mode"))
    return _const(kw.get("encoding")) == "utf-8" or (isinstance(mode, str) and "b" in mode)


def open_calls(source: str) -> list[ast.Call]:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"]


def test_every_open_in_the_package_is_binary_or_utf8():
    calls = {f"{path.name}:{call.lineno}": is_binary_or_utf8(call)
             for path in sorted(PACKAGE.glob("*.py")) for call in open_calls(path.read_text(encoding="utf-8"))}
    assert len(calls) >= 4  # the CSV reader and writer, energy's report, the checkpoint reader and writer
    assert [where for where, ok in calls.items() if not ok] == []


def test_the_check_refuses_a_text_open_without_utf8():
    source = ('open(p)\nopen(p, "w")\nopen(p, mode="r", encoding="latin-1")\n'
              'open(p, "rb")\nopen(p, mode="wb")\nopen(p, "w", encoding="utf-8")\n')
    assert [is_binary_or_utf8(call) for call in open_calls(source)] == [False, False, False, True, True, True]
