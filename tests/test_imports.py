"""The package's source holds together: every import is used, every ``__all__`` entry resolves, the
v1 checkpoint records have one home, and so do the words that refuse a value from outside.

An imported name counts as used where the module reads it (in an annotation
too, quoted or not), where the module's ``__all__`` re-exports it, or, in
``ssm``, when it is one of the names perfbench's tracer looks up on that
module (``SSM_IMPORTS``, read from the source of ``perfbench/tracing.py``).
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from spikescan import fields

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


@pytest.mark.parametrize("path", [p for p in MODULES if "__all__" in p.read_text(encoding="utf-8")],
                         ids=lambda p: p.stem)
def test_every_all_entry_resolves(path):
    module = importlib.import_module("spikescan" if path.stem == "__init__" else f"spikescan.{path.stem}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{path.name} exports names it does not define: {missing}"


def test_only_train_writes_and_reads_the_v1_records():
    """The keys only a v1 record has are string constants in ``train`` alone, and ``quantize`` and ``ssm``
    define no record writer or reader."""
    v1_keys = {"symmetric", "train_alpha", "train_beta"}
    record_names = {"SpikeSite", "state", "from_state", "from_dict", "state_fields"}
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.stem != "train" and isinstance(node, ast.Constant) and node.value in v1_keys:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
            if (path.stem in ("quantize", "ssm") and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in record_names):
                found.append(f"{path.name}:{node.lineno}: defines {node.name}")
    assert not found, found


def test_only_fields_words_the_type_and_range_rules():
    """The kind wordings and the range-rule wordings are string constants in ``fields`` alone, each as
    itself or as ``must be <wording>, got`` in a message: every other reader states no rule of its own."""
    wordings = ["an integer", "a number", "true or false", "a string", fields.AT_LEAST_1, fields.AT_LEAST_0,
                fields.UNIT, fields.FINITE, fields.POSITIVE, fields.NONNEGATIVE]
    stated = re.compile("must be (?:" + "|".join(map(re.escape, wordings)) + "), got")
    found, home = [], set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                    node.value in wordings or stated.search(node.value)):
                if path.stem == "fields":
                    home.add(node.value)
                else:
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found
    assert set(wordings) <= home, set(wordings) - home
