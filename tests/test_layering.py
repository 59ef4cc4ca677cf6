"""Each evaluation policy has one owner, each public name and option one declaration,
and the CLI's output one write.

``model`` blocks, windows and ties levels; the package re-exports its modules' ``__all__``;
a CLI flag's dest is its config key; the commands return their output and ``main`` writes it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import su2qpt
from su2qpt import cli

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



# the library modules the package republishes; the CLI front end and the
# acceptance suite (which loads mpmath) stay in their own modules
LIBRARY = ("eigensolver", "model", "spin_algebra", "thermo", "transitions")


def test_the_package_exports_each_module_all_once():
    declared = ["__version__"]
    for name in LIBRARY:
        declared += importlib.import_module(f"su2qpt.{name}").__all__
    assert sorted(su2qpt.__all__) == sorted(declared)
    assert len(set(declared)) == len(declared)
    for name in su2qpt.__all__:
        assert getattr(su2qpt, name) is not None, name
    # __init__ names no public name of a module, so it cannot restate one
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert not set(declared[1:]) & names(init)


@pytest.mark.parametrize("name", LIBRARY)
def test_every_public_name_a_module_defines_is_in_its_all(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    public = {d for d in defined if not d.startswith("_")}
    assert not public - set(importlib.import_module(f"su2qpt.{name}").__all__)


def test_each_option_has_one_name():
    # a flag's dest is its config key, so no code renames one into the other
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    dests = {a.dest for sub in commands.choices.values() for a in sub._actions} - {"help"}
    assert dests - {"config"} == cli._CONFIG_KEYS


def test_main_is_the_one_write_site():
    # so "exit 0 means every byte was written" has one owner for every command
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    writers = [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit"
    ]
    assert writers == ["main"]
    for command in cli._DISPATCH.values():
        assert command.__annotations__["return"] == "tuple[str, int]", command.__name__
