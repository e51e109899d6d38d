"""Every name a package module imports is used in it.

An imported name counts as used where the module reads it (in an annotation
too, quoted or not), where the module's ``__all__`` re-exports it, or, in
``ssm``, when it is one of the names perfbench's tracer looks up on that
module (``SSM_IMPORTS``, read from the source of ``perfbench/tracing.py``).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "spikescan").glob("*.py"))


def assigned_literal(tree: ast.Module, name: str):
    """The literal a module-level ``name = ...`` assigns, or ``None`` without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, anywhere in it, and the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def read(tree: ast.Module) -> set[str]:
    """The names the module reads, those in quoted annotations included."""
    names, quoted = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                quoted.append(ast.parse(ann.value, mode="eval"))
    for q in quoted:
        names |= read(q)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kept = read(tree) | set(assigned_literal(tree, "__all__") or ())
    if path.stem == "ssm":
        tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
        kept |= set(assigned_literal(tracing, "SSM_IMPORTS"))
    unused = {name: line for name, line in imported(tree).items() if name not in kept}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
