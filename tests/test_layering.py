"""Each evaluation policy has one owner: ``model`` blocks, windows and ties levels."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "su2qpt"
# how kernels block and window their sums, and when levels tie for ground
MODEL_ONLY = {"_BLOCK_ELEMENTS", "_levels", "_excitations", "DEGENERACY_RTOL"}


def names(tree: ast.AST) -> set[str]:
    """Every identifier a module reads, binds, imports or reaches as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_the_layout_is_still_the_one_checked():
    assert (SRC / "model.py").is_file()
    assert len(list(SRC.glob("*.py"))) > 2


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_model_names_the_evaluation_policy(path):
    if path.name == "model.py":
        assert MODEL_ONLY <= names(ast.parse(path.read_text(encoding="utf-8")))
    else:
        assert not MODEL_ONLY & names(ast.parse(path.read_text(encoding="utf-8")))
