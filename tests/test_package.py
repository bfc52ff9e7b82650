from __future__ import annotations

import importlib

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
