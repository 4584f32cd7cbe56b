"""benchmarks/curve.py runs each mode it offers, under its address-space
cap too, and records a run that breaches the cap as "memory"."""

import importlib.util
import sys

import pytest

from conftest import ROOT


@pytest.fixture(scope="module")
def curve():
    """The script as a module; the sys.path entry and the `gen` module its
    import adds are taken back afterwards."""
    path = ROOT / "benchmarks" / "curve.py"
    spec = importlib.util.spec_from_file_location("benchmarks_curve", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
        sys.modules.pop("gen", None)
    return module


def _run_once(curve, tree, mode, data, work, want, cap_mb):
    sp = curve.Spawner()
    try:
        return curve.run_once(sp, tree, mode, data, work, want, 120, cap_mb)
    finally:
        sp.close()


@pytest.mark.parametrize("mode", ["solve-one", "pm"])
def test_a_capped_run_gives_the_planted_answer(curve, tmp_path, mode):
    inst = curve.gen.music(1, 50, 2, pairs=8 * 50 // 9, triples=3)
    inst.write(tmp_path / "data")
    want = curve._tsv(getattr(inst, mode.replace("-", "_")))
    cell = _run_once(curve, ROOT, mode, tmp_path / "data", tmp_path / "work",
                     want, curve.CAP_MB)
    assert cell["status"] == "ok", cell
    assert cell["solve_s"] is not None


def test_a_run_past_its_cap_is_recorded_as_memory(curve, tmp_path):
    # a stand-in CLI that asks for 1 GiB under a 256 MiB cap; the pages are
    # never touched, so the request costs no memory where it is granted
    pkg = tmp_path / "tree" / "src" / "entres"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("bytes(2**30)\n")
    (tmp_path / "data").mkdir()
    cell = _run_once(curve, tmp_path / "tree", "solve-one", tmp_path / "data",
                     tmp_path / "work", "", 256)
    assert cell["status"] == "memory", cell
