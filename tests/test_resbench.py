"""The benchmark's tracing layer patches names that exist: a refactor that
drops or renames one fails here instead of only in a traced benchmark run."""

import importlib
import importlib.util

import pytest

from conftest import ROOT


def _layers():
    path = ROOT / "resbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("resbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _layers().PATCHES


@pytest.mark.parametrize(
    "path, attr", [(path, attr) for path, attr, _, _ in PATCHES],
    ids=[f"{path}.{attr}" for path, attr, _, _ in PATCHES],
)
def test_patched_name_resolves(path, attr):
    mod, _, cls = path.partition(".")
    owner = importlib.import_module(f"entres.{mod}")
    if cls:
        owner = getattr(owner, cls)
        assert attr in owner.__dict__
    assert callable(getattr(owner, attr))
