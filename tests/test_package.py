from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import remote_div
from conftest import run_fresh


def test_every_export_is_its_modules_object():
    for name in remote_div.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"remote_div.{remote_div._EXPORTS[name]}")
        assert getattr(remote_div, name) is getattr(module, name), name


def test_star_import_and_dir_list_all():
    namespace: dict = {}
    exec("from remote_div import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(remote_div.__all__)
    assert set(remote_div.__all__) <= set(dir(remote_div))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        remote_div.no_such_name  # noqa: B018
    assert not hasattr(remote_div, "no_such_name")


_GMM_AFTER_SUBMODULES = r"""
import remote_div.matching, remote_div.coresets, remote_div.gmm
import remote_div
print(callable(remote_div.gmm), remote_div.gmm is remote_div.gmm.__globals__["gmm"])
"""


def test_gmm_stays_the_function_after_submodule_imports():
    # `gmm` names both a submodule and its function; importing the submodule
    # binds the package attribute to the module unless the function is
    # bound first.
    assert run_fresh(_GMM_AFTER_SUBMODULES).split() == ["True", "True"]


_ROOT = Path(__file__).resolve().parents[1]


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def _names_read(tree: ast.Module, strings: bool):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_module_level_name_in_src_is_read_somewhere():
    # A name, an attribute or an import reads a name. Tests and the
    # benchmark also look names up by string, so their strings count; the
    # strings in src are not reads: the export table only lists names.
    defined, read = {}, set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((_ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            read.update(_names_read(tree, strings=folder != "src"))
            if folder == "src":
                defined.update((name, path.name) for name in _module_level_names(tree))
    dead = sorted(f"{module}: {name}" for name, module in defined.items() if name not in read and not name.startswith("__"))
    assert dead == []
