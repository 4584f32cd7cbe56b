"""benchmarks/curve.py runs each mode it offers, under its address-space
cap too, records a run that breaches the cap as "memory", and one whose
output fails resbench's check as "wrong"."""

import importlib.util
import sys

import pytest

from conftest import ROOT

#: each mode the script offers, at its smallest committed size
CURVE_MODES = {"solve-one": 50, "pm": 50, "sim-all": 26, "sim-opt": 26,
               "lb": 100, "levels": 100, "explain": 100}


@pytest.fixture(scope="module")
def curve():
    """The script as a module; the sys.path entry and the resbench modules
    its import adds are taken back afterwards."""
    path = ROOT / "benchmarks" / "curve.py"
    spec = importlib.util.spec_from_file_location("benchmarks_curve", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
        for name in ("gen", "run", "layers"):
            sys.modules.pop(name, None)
    return module


def _run_once(curve, tree, mode, data, work, inst, cap_mb):
    sp = curve.Spawner()
    try:
        return curve.run_once(sp, tree, mode, data, work, inst, 120, cap_mb)
    finally:
        sp.close()


def _stand_in(tmp_path, cli):
    """A source tree whose `entres.cli` is the given program."""
    pkg = tmp_path / "tree" / "src" / "entres"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(cli)
    return tmp_path / "tree"


@pytest.mark.parametrize("mode", list(CURVE_MODES))
def test_a_capped_run_gives_the_planted_answer(curve, tmp_path, mode):
    # the scoring cells' smallest size is the scoring workload's, and the
    # cascade cells' the cascade workload's depth
    inst = curve.instance(mode, CURVE_MODES[mode])
    inst.write(tmp_path / "data")
    cell = _run_once(curve, ROOT, mode, tmp_path / "data", tmp_path / "work",
                     inst, curve.CAP_MB)
    assert cell["status"] == "ok", cell
    figure = curve.MODES[mode][2]
    assert figure is None or cell[f"{figure}_s"] is not None


def test_a_run_without_its_output_is_recorded_as_wrong(curve, tmp_path):
    inst = curve.instance("sim-all", 26)
    inst.write(tmp_path / "data")
    cell = _run_once(curve, _stand_in(tmp_path, ""), "sim-all",
                     tmp_path / "data", tmp_path / "work", inst, None)
    assert cell["status"] == "wrong", cell


def test_a_run_past_its_cap_is_recorded_as_memory(curve, tmp_path):
    # a stand-in CLI that asks for 1 GiB under a 256 MiB cap; the pages are
    # never touched, so the request costs no memory where it is granted
    tree = _stand_in(tmp_path, "bytes(2**30)\n")
    (tmp_path / "data").mkdir()
    cell = _run_once(curve, tree, "solve-one", tmp_path / "data",
                     tmp_path / "work", None, 256)
    assert cell["status"] == "memory", cell
