"""The package's surface: every exported name resolves, each public name is
listed once, in its own module's ``__all__``, and every result serializes
to JSON by its fields."""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import hominv
from hominv import (
    DegreeReport,
    InversionResult,
    check_hypotheses,
    complex_square_map,
    invert,
    mapping_degree,
    radial_linear_map,
)

MODULES = ["hominv"] + [f"hominv.{m.name}" for m in pkgutil.iter_modules(hominv.__path__)]
#: the submodules whose names the package re-exports: all but the private
#: ones and the command line front end
REEXPORTED = [importlib.import_module(f"hominv.{m.name}")
              for m in pkgutil.iter_modules(hominv.__path__)
              if not m.name.startswith("_") and m.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_the_package_exports_the_version_and_each_submodules_names_once():
    names = [name for mod in REEXPORTED for name in mod.__all__]
    assert hominv.__all__[0] == "__version__"
    assert sorted(hominv.__all__[1:]) == sorted(names)
    assert len(set(hominv.__all__)) == len(hominv.__all__)
    for mod in REEXPORTED:
        assert all(getattr(hominv, name) is getattr(mod, name) for name in mod.__all__)


@pytest.mark.parametrize("name", [m for m in MODULES if not m.split(".")[-1].startswith("_")
                                  and m != "hominv"])
def test_every_public_class_or_function_is_in_its_modules_all(name):
    mod = importlib.import_module(name)
    defined = [attr for attr, obj in vars(mod).items()
               if not attr.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == name]
    assert [attr for attr in defined if attr not in getattr(mod, "__all__", ())] == []


def test_the_package_init_names_no_public_name_of_a_submodule():
    # each name has one owner: its module's __all__
    tree = ast.parse(Path(hominv.__file__).read_text())
    words = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    words |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    words |= {node.value for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert words & {name for mod in REEXPORTED for name in mod.__all__} == set()


_TRACED = ('{"eta": [3.0, -4.0], "xi": [0.5, -1.25], "residual": 2.5e-16, "steps": 2, '
           '"newton_iters_total": 5, "bracket": [0.25, 4.0], "path_waypoints": ['
           '{"t": 0.0, "gamma": [1.0, 0.0], "xi": [1.0, 0.0]}, '
           '{"t": 1.0, "gamma": [0.6, -0.8], "xi": [0.5, -1.25]}]}')
_DEGREE = ('{"value": [1.0, 0.0], "preimages": [{"xi": [-1.0, 0.0], "sign": 1}, '
           '{"xi": [1.0, 0.0], "sign": 1}], "degree": 2, "injective_evidence": false, '
           '"missed_roots_suspected": false, "notes": ["a note"]}')


def test_a_traced_inversion_result_serializes_to_its_layout():
    from hominv.inverter import _Waypoint

    waypoints = (_Waypoint(0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0])),
                 _Waypoint(1.0, np.array([0.6, -0.8]), np.array([0.5, -1.25])))
    res = InversionResult(np.array([0.5, -1.25]), 2.5e-16, 2, 5, (0.25, 4.0), waypoints)
    assert json.dumps(res.to_json_dict(eta=np.array([3.0, -4.0]))) == _TRACED
    # untraced, the waypoints are None and left out
    untraced = InversionResult(np.array([0.5, -1.25]), 2.5e-16, 2, 5, (0.25, 4.0))
    assert json.dumps(untraced.to_json_dict()) == (
        '{"xi": [0.5, -1.25], "residual": 2.5e-16, "steps": 2, "newton_iters_total": 5, '
        '"bracket": [0.25, 4.0]}')


def test_a_degree_report_with_two_preimages_serializes_to_its_layout():
    from hominv.degree import _Preimage

    deg = DegreeReport(np.array([1.0, 0.0]), (_Preimage(np.array([-1.0, 0.0]), 1),
                                              _Preimage(np.array([1.0, 0.0]), 1)),
                       2, False, False, ("a note",))
    assert json.dumps(deg.to_json_dict()) == _DEGREE


def test_computed_waypoints_and_preimages_are_named_tuples_that_serialize_by_field():
    m = radial_linear_map()
    eta = np.array([2.0, 0.3, -0.4])
    res = invert(m, eta, check_hypotheses(m, count=500), trace=True)
    out = res.to_json_dict(eta=eta)
    assert list(out) == ["eta", "xi", "residual", "steps", "newton_iters_total", "bracket",
                         "path_waypoints"]
    assert res.path_waypoints[0].t == 0.0 and res.path_waypoints[-1].t == 1.0
    assert out["path_waypoints"] == [{"t": w.t, "gamma": w.gamma.tolist(), "xi": w.xi.tolist()}
                                     for w in res.path_waypoints]

    sq = complex_square_map()
    deg = mapping_degree(sq, [1.0, 0.0], report=check_hypotheses(sq, count=500))
    assert [p.sign for p in deg.preimages] == [1, 1]
    assert deg.to_json_dict()["preimages"] == [{"xi": p.xi.tolist(), "sign": p.sign}
                                               for p in deg.preimages]
