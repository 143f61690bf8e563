"""The per-field rules of the cross-version report gate in tools/."""

import importlib.util
from pathlib import Path

import pytest

from hominv import MapDefinitionError, parse_map

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_gate.py"
_spec = importlib.util.spec_from_file_location("report_gate", _PATH)
report_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_gate)
compare = report_gate.compare


def _report(**changes):
    report = {
        "hypothesis": {"c0_empirical": 1.0, "argmin_f": [1.0, 0.0, 0.0],
                       "argmin_det": [0.0, 1.0, 0.0]},
        "inversions": [{"eta": [3.0, 4.0, 0.0], "xi": [1.0, 2.0, 2.0],
                        "residual": 1e-15, "bracket": [0.5, 2.0],
                        "relative_residual": 2e-16}],
        "roundtrip": {"count": 1, "max_relative_residual": 2e-16, "ok": True},
    }
    for path, value in changes.items():
        node = report
        *head, last = path.split(".")
        for key in head:
            node = node[int(key)] if key.isdigit() else node[key]
        node[last] = value
    return report


@pytest.mark.parametrize("path,value,verdict", [
    ("inversions.0.xi", [1.0 + 2e-15, 2.0, 2.0], "moved"),
    ("inversions.0.xi", [1.0 + 1e-11, 2.0, 2.0], "broken"),
    ("inversions.0.residual", 4e-14, "moved"),  # within 1e-14 * |eta| = 5e-14
    ("inversions.0.residual", 7e-14, "broken"),
    ("inversions.0.relative_residual", 3e-14, "moved"),
    ("roundtrip.max_relative_residual", 3e-14, "moved"),
    ("inversions.0.bracket", [0.5, 2.0000000000000004], "broken"),
    ("hypothesis.c0_empirical", 1.0000000000000002, "broken"),
    ("roundtrip.ok", False, "broken"),
    ("hypothesis.argmin_f", [0.0, 1.0, 0.0], "broken"),
])
def test_field_rules(path, value, verdict):
    moved, broken = compare(_report(), _report(**{path: value}), "identity3", "invert")
    field = path.replace(".0.", "[0].")
    flagged, other = (moved, broken) if verdict == "moved" else (broken, moved)
    # a list that is not xi is judged entry by entry: bracket[1]
    assert flagged and other == [] and all(f.startswith(field) for f in flagged)


def test_rounding_decided_argmins_are_left_out_where_the_map_is_flat():
    new = _report(**{"hypothesis.argmin_f": [0.0, 1.0, 0.0],
                     "hypothesis.argmin_det": [1.0, 0.0, 0.0]})
    assert compare(_report(), new, "radial_cube3", "check") == (
        ["hypothesis.argmin_f", "hypothesis.argmin_det"], [])
    # 0.0 and 1.0 are 0x3FF0000000000000 floats apart
    assert compare(_report(), new, "axis_cube3", "check") == (
        ["hypothesis.argmin_f"], ["hypothesis.argmin_det[0] (4607182418800017408 ulp)",
                                  "hypothesis.argmin_det[1] (4607182418800017408 ulp)"])


def test_degree_reports_must_match_exactly():
    new = _report(**{"inversions.0.xi": [1.0 + 2e-15, 2.0, 2.0], "roundtrip.count": 2,
                     "hypothesis.argmin_det": [0.0, 1.0, 1.5e-323]})
    assert compare(_report(), _report(), "identity3", "degree") == ([], [])
    # no tolerance and no field left out, not even on radial_cube3
    assert compare(_report(), new, "radial_cube3", "degree") == ([], [
        "hypothesis.argmin_det[2] (3 ulp)", "inversions[0].xi[0] (9 ulp)", "roundtrip.count"])


@pytest.mark.parametrize("path,value,shown", [
    ("hypothesis.c0_empirical", 1.0000000000000004, "hypothesis.c0_empirical (2 ulp)"),
    ("hypothesis.c0_empirical", 0.9999999999999999, "hypothesis.c0_empirical (1 ulp)"),
    ("hypothesis.c0_empirical", float("inf"), "hypothesis.c0_empirical"),
    ("hypothesis.c0_empirical", "1.0", "hypothesis.c0_empirical"),
    # a tolerance that breaks is not the exact rule
    ("inversions.0.residual", 7e-14, "inversions[0].residual"),
])
def test_a_float_that_breaks_the_exact_rule_shows_its_distance_in_ulps(path, value, shown):
    assert compare(_report(), _report(**{path: value}), "identity3", "check") == ([], [shown])


def test_ulps_counts_the_floats_between_two_values():
    ulps = report_gate.ulps
    assert ulps(1.0, 1.0) == ulps(0.0, -0.0) == 0
    assert ulps(1.0, 1.0000000000000002) == ulps(-1.0, -1.0000000000000002) == 1
    assert ulps(-5e-324, 5e-324) == 2 and ulps(5e-324, 0.0) == 1
    assert ulps(2.0, 4.0) == 2**52


def test_a_missing_report_breaks_the_rule():
    assert compare(None, None, "identity3", "check") == ([], [])
    assert compare(_report(), None, "identity3", "check") == ([], [""])


def test_a_field_that_differs_in_many_inversions_is_listed_once_with_its_count():
    old = _report(**{"inversions.0.steps": 11})
    old["inversions"] = [dict(old["inversions"][0], eta=[3.0, 4.0, k]) for k in range(3)]
    new = {**old, "inversions": [dict(inv, steps=4) for inv in old["inversions"]]}
    new["inversions"][1]["bracket"] = [0.5, 2.0000000000000004]
    moved, broken = compare(old, new, "identity3", "invert")
    assert moved == [] and len(broken) == 4
    assert report_gate.summarize(broken) == ["inversions[*].steps ×3",
                                             "inversions[1].bracket[1] (1 ulp)"]
    new["inversions"][2]["bracket"] = [0.5000000000000003, 2.0]
    _, broken = compare(old, new, "identity3", "invert")
    assert report_gate.summarize(broken) == ["inversions[*].steps ×3",
                                             "inversions[1].bracket[1] (1 ulp)",
                                             "inversions[2].bracket[0] (3 ulp)"]
    new["inversions"][0]["bracket"] = [0.5, 2.000000000000001]
    _, broken = compare(old, new, "identity3", "invert")
    assert report_gate.summarize(broken) == ["inversions[*].bracket[1] ×2 (max 2 ulp)",
                                             "inversions[*].steps ×3",
                                             "inversions[2].bracket[0] (3 ulp)"]
    assert report_gate.summarize(["exit code 0 -> 1", "roundtrip.ok"]) == [
        "exit code 0 -> 1", "roundtrip.ok"]


def test_an_integer_field_of_the_inversions_shows_its_old_and_new_totals():
    old = _report(**{"inversions.0.steps": 2, "inversions.0.newton_iters_total": 5})
    old["inversions"] = [dict(old["inversions"][0], eta=[3.0, 4.0, k]) for k in range(3)]
    new = {**old, "inversions": [dict(inv, newton_iters_total=3) for inv in old["inversions"]]}
    new["inversions"][2]["steps"] = 1
    new["inversions"][1]["bracket"] = [0.5, 2.0000000000000004]
    moved, broken = compare(old, new, "identity3", "roundtrip")
    # the totals change no verdict, and are shown only when the reports are given
    assert moved == [] and len(broken) == 5
    assert report_gate.summarize(broken) == ["inversions[*].newton_iters_total ×3",
                                             "inversions[1].bracket[1] (1 ulp)",
                                             "inversions[2].steps"]
    assert report_gate.summarize(broken, old, new) == [
        "inversions[*].newton_iters_total ×3 (15 → 9)", "inversions[1].bracket[1] (1 ulp)",
        "inversions[2].steps (6 → 5)"]
    # a float field has no total, nor any field when a report is missing
    assert report_gate.summarize(["inversions[0].residual"], old, new) == [
        "inversions[0].residual"]
    assert report_gate.summarize(["inversions[0].steps"], old, None) == ["inversions[0].steps"]


def test_each_rejection_text_has_its_own_message():
    messages = set()
    for text in report_gate.REJECTIONS:
        with pytest.raises(MapDefinitionError) as exc:
            parse_map(text)
        messages.add(str(exc.value).split(": ", 1)[1])
    assert len(messages) == len(report_gate.REJECTIONS)


def test_rejection_pairs_compare_exit_code_and_stderr(capsys):
    root = _PATH.parents[1]
    counts = report_gate.check_rejections(root, root, report_gate.REJECTIONS[:2])
    assert counts == {"identical": 2, "MISMATCH": 0}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("identical: hominv: map definition error: line 1, col 16: "
                             "unexpected character '#'")
    assert lines[-1] == "2 rejection pairs: 2 identical, 0 mismatched"


def test_the_target_repeats_to_the_map_dimension():
    # cut to TARGET, a map of dimension 5 or more got too short a target
    assert report_gate.target(2) == "1,-2"
    assert report_gate.target(4) == "1,-2,0.5,0.25"
    assert report_gate.target(6) == "1,-2,0.5,0.25,1,-2"
