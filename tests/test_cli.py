"""Command line behaviour: exit codes, JSON reports, determinism."""

import json
import os
import subprocess
import sys

import pytest

import hominv
from hominv.cli import main

RADIAL_CUBE = (
    "n = 3;\n"
    "f1 = x1^3 + x1 x2^2 + x1 x3^2;\n"
    "f2 = x2 x1^2 + x2^3 + x2 x3^2;\n"
    "f3 = x3 x1^2 + x3 x2^2 + x3^3;\n"
)
COMPLEX_SQUARE = "n = 2; f1 = x1^2 - x2^2; f2 = 2 x1 x2;\n"
AXIS_CUBE = "n = 3; f1 = x1^3; f2 = x2^3; f3 = x3^3;\n"


@pytest.fixture
def mapfile(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_check_pass_exit_zero(mapfile, capsys):
    rc = main(["check", mapfile("rc.map", RADIAL_CUBE), "--samples", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hypotheses: pass" in out


def test_check_warning_still_exits_zero(mapfile, capsys):
    rc = main(["check", mapfile("cs.map", COMPLEX_SQUARE), "--samples", "2000"])
    assert rc == 0
    assert "hypotheses-met-but-n<3" in capsys.readouterr().out


def test_check_fail_exits_two(mapfile, capsys):
    rc = main(["check", mapfile("ax.map", AXIS_CUBE), "--samples", "2000"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "fail" in out and "jacobian-vanishes" in out


def test_check_json_report_structure(mapfile, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["check", mapfile("rc.map", RADIAL_CUBE), "--samples", "2000",
               "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert list(doc.keys()) == [
        "map_echo", "hypothesis", "inversions", "roundtrip", "degree",
        "timing", "tool_version", "warnings",
    ]
    assert doc["hypothesis"]["status"] == "pass"
    assert doc["inversions"] is None and doc["degree"] is None
    assert doc["warnings"] == []


def test_check_json_to_stdout(mapfile, capsys):
    rc = main(["check", mapfile("rc.map", RADIAL_CUBE), "--samples", "1000",
               "--json", "-"])
    assert rc == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)  # stdout is pure JSON
    assert doc["hypothesis"]["overall"] == "pass"
    assert "hypotheses: pass" in captured.err  # summary moved to stderr


def test_warning_field_populated_for_planar_map(mapfile, tmp_path):
    out = tmp_path / "r.json"
    rc = main(["check", mapfile("cs.map", COMPLEX_SQUARE), "--samples", "1000",
               "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert any("dimension below 3" in w for w in doc["warnings"])


def test_invert_success(mapfile, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["invert", mapfile("rc.map", RADIAL_CUBE), "--target", "0.5,-1,2",
               "--samples", "2000", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    (inv,) = doc["inversions"]
    assert inv["eta"] == [0.5, -1.0, 2.0]
    assert inv["residual"] <= 1e-10 * max(1.0, (0.25 + 1 + 4) ** 0.5)
    assert len(inv["bracket"]) == 2
    assert "path_waypoints" not in inv


def test_invert_trace_includes_waypoints(mapfile, tmp_path):
    out = tmp_path / "r.json"
    rc = main(["invert", mapfile("rc.map", RADIAL_CUBE), "--target", "1,1,1",
               "--samples", "1000", "--trace", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    wps = doc["inversions"][0]["path_waypoints"]
    assert wps[0]["t"] == 0.0 and wps[-1]["t"] == 1.0


def test_invert_without_force_on_planar_map_exits_two(mapfile):
    rc = main(["invert", mapfile("cs.map", COMPLEX_SQUARE), "--target", "1,0",
               "--samples", "1000"])
    assert rc == 2


def test_invert_with_force_on_planar_map(mapfile, capsys):
    rc = main(["invert", mapfile("cs.map", COMPLEX_SQUARE), "--target", "1,0",
               "--samples", "1000", "--force"])
    assert rc == 0


def test_invert_unreachable_tolerance_exits_three(mapfile):
    rc = main(["invert", mapfile("rc.map", RADIAL_CUBE), "--target", "1,1,1",
               "--samples", "1000", "--tol", "1e-30"])
    assert rc == 3


def test_invert_with_no_origin_avoiding_path_exits_three(mapfile, capsys):
    # in R^1 every image of x^2 is positive: -1 is a numerical failure (3),
    # not a usage error (1)
    rc = main(["invert", mapfile("sq.map", "n = 1; f1 = x1^2;\n"), "--target=-1", "--force",
               "--samples", "8"])
    assert rc == 3
    assert "ContinuationFailedError" in capsys.readouterr().err


def test_degree_planar_counterexample(mapfile, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["degree", mapfile("cs.map", COMPLEX_SQUARE), "--target", "1,0",
               "--samples", "2000", "--json", str(out)])
    assert rc == 0  # warning status is accepted for degree computations
    doc = json.loads(out.read_text())
    assert doc["degree"]["degree"] == 2
    assert len(doc["degree"]["preimages"]) == 2


def test_degree_with_probe(mapfile, tmp_path):
    out = tmp_path / "r.json"
    rc = main(["degree", mapfile("cs.map", COMPLEX_SQUARE), "--target", "1,0",
               "--samples", "1000", "--probe", "3", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    probe = doc["degree"]["injectivity_probe"]
    assert probe["verdict"] == "not-injective"
    assert probe["counts"] == [2, 2, 2]


def test_degree_negative_probe_is_a_usage_error(mapfile, capsys):
    # like injectivity_probe(trials=-3), which raises; no probe and exit 0 before
    rc = main(["degree", mapfile("cs.map", COMPLEX_SQUARE), "--target", "1,0",
               "--samples", "1000", "--probe", "-3"])
    assert rc == 1
    assert "--probe must be >= 0" in capsys.readouterr().err


def test_degree_on_failing_map_requires_force(mapfile):
    rc = main(["degree", mapfile("ax.map", AXIS_CUBE), "--target", "1,1,1",
               "--samples", "1000"])
    assert rc == 2


def test_roundtrip_success(mapfile, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["roundtrip", mapfile("rc.map", RADIAL_CUBE), "--count", "5",
               "--samples", "2000", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["roundtrip"]["ok"] is True
    assert doc["roundtrip"]["count"] == 5
    assert doc["roundtrip"]["max_relative_residual"] <= 1e-8
    assert len(doc["inversions"]) == 5


def test_roundtrip_over_limit_exits_three(mapfile):
    # an impossible residual limit turns a healthy run into a reported failure
    rc = main(["roundtrip", mapfile("rc.map", RADIAL_CUBE), "--count", "2",
               "--samples", "1000", "--max-residual", "1e-30"])
    assert rc == 3


def test_parse_error_exits_one(mapfile, capsys):
    rc = main(["check", mapfile("bad.map", "n = 3; f1 = x1^^2;")])
    assert rc == 1
    assert "map definition error" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    rc = main(["check", "/nonexistent/path.map"])
    assert rc == 1


def test_bad_target_exits_one(mapfile, capsys):
    rc = main(["invert", mapfile("rc.map", RADIAL_CUBE), "--target", "1,zebra,3",
               "--samples", "1000"])
    assert rc == 1
    rc = main(["invert", mapfile("rc.map", RADIAL_CUBE), "--target", "1,2",
               "--samples", "1000"])
    assert rc == 1


def test_missing_required_flag_exits_one(mapfile, capsys):
    rc = main(["invert", mapfile("rc.map", RADIAL_CUBE)])
    assert rc == 1


def test_unknown_command_exits_one(capsys):
    rc = main(["frobnicate", "x.map"])
    assert rc == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["invert", "--help"]) == 0


def _report_without_timing(path):
    doc = json.loads(path.read_text())
    doc.pop("timing")
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("argv_tail", [
    ["check", "--samples", "1500"],
    ["invert", "--target", "0.3,1,-2", "--samples", "1500"],
    ["roundtrip", "--count", "3", "--samples", "1500"],
])
def test_reports_byte_identical_modulo_timing(mapfile, tmp_path, argv_tail, capsys):
    src = mapfile("rc.map", RADIAL_CUBE)
    runs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}.json"
        cmd = [argv_tail[0], src] + argv_tail[1:] + ["--seed", "0", "--json", str(out)]
        assert main(cmd) == 0
        runs.append(_report_without_timing(out))
    assert runs[0] == runs[1]


def test_degree_report_byte_identical_modulo_timing(mapfile, tmp_path, capsys):
    src = mapfile("cs.map", COMPLEX_SQUARE)
    runs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}.json"
        assert main(["degree", src, "--target", "1,0", "--samples", "1500",
                     "--seed", "0", "--json", str(out)]) == 0
        runs.append(_report_without_timing(out))
    assert runs[0] == runs[1]


def test_import_loads_neither_scipy_stats_nor_special():
    # every command pays for `import hominv`; these two cost most of it
    src = os.path.dirname(os.path.dirname(hominv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, hominv, hominv.cli; "
            "print([k for k in ('scipy.stats', 'scipy.special') if k in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_check_and_invert_load_no_scipy(mapfile):
    # hominv is numpy alone, so no command needs scipy at all
    path = mapfile("rc.map", RADIAL_CUBE)
    src = os.path.dirname(os.path.dirname(hominv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys\n"
        "from hominv.cli import main\n"
        f"assert main(['check', {path!r}]) == 0\n"
        f"assert main(['invert', {path!r}, '--target', '1,-2,0.5', '--samples', '2000']) == 0\n"
        "print([k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
