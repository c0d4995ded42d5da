"""Every name a ``blobcell`` module imports is used in that module, so a
deletion leaves no stale import behind."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "blobcell"

# (module, name): why the import stays although the module never reads it
KEPT = {
    ("blob", "rref"): "perfbench/smoke.py checks that the tracer restores "
                      "blob.rref to exactfield.rref",
}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports that no expression reads and
    ``__all__`` does not export."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return bound - used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_import_is_used(path):
    unused = unused_imports(ast.parse(path.read_text()))
    assert unused == {name for mod, name in KEPT if mod == path.stem}


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom a import b as c, d\nd()\n")
    assert unused_imports(tree) == {"os", "c"}
