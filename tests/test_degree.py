"""Preimage counting, mapping degree, and injectivity probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hominv import (
    InvalidInputError,
    MapSpec,
    PolyMap,
    PreconditionError,
    axis_cube_map,
    blackbox_of,
    check_hypotheses,
    complex_square_map,
    count_preimages,
    diag_map,
    eval_jacobian,
    eval_map,
    identity_map,
    injectivity_probe,
    mapping_degree,
    radial_cube_map,
    random_admissible_map,
    reflection_map,
)
from hominv import degree
from hominv.degree import _dedup, _sobol_directions

_REPORTS = {}


def report_for(name, maker, count=2000):
    if name not in _REPORTS:
        _REPORTS[name] = check_hypotheses(maker(), count=count, seed=0)
    return _REPORTS[name]


def test_complex_square_two_preimages_at_unit_target():
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    pre = count_preimages(m, np.array([1.0, 0.0]), report=rep)
    assert len(pre) == 2
    roots = sorted(tuple(x) for x, _ in pre)
    assert np.allclose(roots[0], [-1.0, 0.0], atol=1e-10)
    assert np.allclose(roots[1], [1.0, 0.0], atol=1e-10)
    # det Df = 4(x^2+y^2) > 0 at both roots
    assert all(s == 1 for _, s in pre)


def test_complex_square_preimages_closed_form_oracle():
    # z^2 = 2i has the two roots z = (1 + i) and z = -(1 + i)
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    pre = count_preimages(m, np.array([0.0, 2.0]), report=rep)
    roots = sorted(tuple(x) for x, _ in pre)
    assert len(roots) == 2
    assert np.allclose(roots[0], [-1.0, -1.0], atol=1e-9)
    assert np.allclose(roots[1], [1.0, 1.0], atol=1e-9)


def test_complex_square_degree_two():
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    deg = mapping_degree(m, np.array([1.0, 0.0]), report=rep)
    assert deg.degree == 2
    assert not deg.injective_evidence
    assert not deg.missed_roots_suspected


def test_identity_degree_plus_one():
    m = identity_map(3)
    rep = report_for("identity", lambda: identity_map(3))
    deg = mapping_degree(m, np.array([0.4, -1.0, 2.0]), report=rep)
    assert deg.degree == 1
    assert deg.injective_evidence
    assert len(deg.preimages) == 1


def test_reflection_degree_minus_one():
    m = reflection_map(3)
    rep = report_for("reflection", lambda: reflection_map(3))
    deg = mapping_degree(m, np.array([1.0, 0.5, -0.3]), report=rep)
    assert deg.degree == -1
    assert deg.injective_evidence


def test_radial_cube_unique_preimage():
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    rng = np.random.default_rng(13)
    for _ in range(5):
        eta = rng.standard_normal(3) * 10.0 ** rng.uniform(-1, 1)
        pre = count_preimages(m, eta, report=rep)
        assert len(pre) == 1
        xi, sign = pre[0]
        assert sign == 1
        assert np.linalg.norm(xi) == pytest.approx(
            np.linalg.norm(eta) ** (1 / 3), rel=1e-8
        )


def test_preimage_signs_match_fd_determinants():
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    fd = blackbox_of(m)  # finite-difference Jacobian path
    pre = count_preimages(m, np.array([0.3, -1.1]), report=rep)
    assert pre
    for xi, sign in pre:
        d = np.linalg.det(eval_jacobian(fd, xi))
        assert sign == (1 if d > 0 else -1)


def test_injectivity_probe_consistent_for_admissible_map():
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    probe = injectivity_probe(m, trials=10, report=rep)
    assert probe["verdict"] == "consistent-with-injective"
    assert probe["counts"] == [1] * 10
    assert probe["max_count"] == 1


def test_injectivity_probe_fails_for_complex_square():
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    probe = injectivity_probe(m, trials=10, report=rep)
    assert probe["verdict"] == "not-injective"
    assert all(c == 2 for c in probe["counts"])


def test_higher_start_count_does_not_invent_roots():
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    pre = count_preimages(m, np.array([1.0, 0.0]), starts=512, report=rep)
    assert len(pre) == 2


def test_count_preimages_validation():
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    with pytest.raises(InvalidInputError):
        count_preimages(m, np.zeros(3), report=rep)
    with pytest.raises(InvalidInputError):
        count_preimages(m, np.array([1.0, 2.0]), report=rep)
    with pytest.raises(PreconditionError):
        count_preimages(m, np.array([1.0, 0.0, 0.0]))


def test_count_preimages_extreme_target_magnitudes():
    # a bijection has one preimage at every scale; an absolute tolerance
    # above |eta| once let every start "converge" at tiny targets
    cases = (
        ("radial_cube", lambda: radial_cube_map(3), [0.3, -0.5, 0.8]),
        ("diag", lambda: diag_map((1.0, 2.0, 3.0)), [0.3, -0.5, 0.8]),
        ("random_admissible", lambda: random_admissible_map(n=4, seed=7, kappa=3.5),
         [0.3, -0.5, 0.8, 0.1]),
    )
    for name, maker, direction in cases:
        m = maker()
        rep = report_for(name, maker)
        d = np.array(direction)
        for scale in (1e-300, 1e-170, 1.0, 37.0, 1e155):
            pre = count_preimages(m, scale * d, report=rep)
            assert [sign for _, sign in pre] == [1]
            xi = pre[0][0]
            # divide before taking norms, so that none of them underflows
            assert math.hypot(*(eval_map(m, xi) / scale - d)) <= 1e-8 * math.hypot(*d)


def test_degree_functions_reject_report_of_another_map():
    m = diag_map((1.0, 2.0, 3.0))
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    eta = np.array([1.0, 2.0, 3.0])
    for call in (lambda: count_preimages(m, eta, report=rep, force=True),
                 lambda: mapping_degree(m, eta, report=rep, force=True),
                 lambda: injectivity_probe(m, trials=1, report=rep, force=True)):
        with pytest.raises(PreconditionError):
            call()


def test_degree_on_admissible_4d_map():
    m = random_admissible_map(n=4, seed=7, kappa=3.5)
    rep = report_for("random_admissible", lambda: random_admissible_map(n=4, seed=7, kappa=3.5))
    deg = mapping_degree(m, np.array([0.5, -0.2, 1.0, 0.3]), report=rep)
    assert deg.degree in (-1, 1)
    assert deg.injective_evidence


def test_degree_report_json_dict():
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    deg = mapping_degree(m, np.array([1.0, 0.0]), report=rep)
    d = deg.to_json_dict()
    assert list(d.keys()) == [
        "value", "preimages", "degree", "injective_evidence",
        "missed_roots_suspected", "notes",
    ]
    assert d["degree"] == 2
    assert len(d["preimages"]) == 2
    assert {"xi", "sign"} == set(d["preimages"][0].keys())


def test_count_preimages_deterministic():
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    a = count_preimages(m, np.array([0.2, 0.9]), report=rep, seed=4)
    b = count_preimages(m, np.array([0.2, 0.9]), report=rep, seed=4)
    assert len(a) == len(b)
    for (xa, sa), (xb, sb) in zip(a, b):
        assert np.array_equal(xa, xb) and sa == sb


def test_multistart_directions_are_seeded_unit_rows():
    for n in (2, 3, 4):
        a = _sobol_directions(n, 64 * n, seed=3)
        assert a.shape == (64 * n, n)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(a, _sobol_directions(n, 64 * n, seed=3))
        assert not np.any(np.all(a == _sobol_directions(n, 64 * n, seed=4), axis=1))
    assert _sobol_directions(1, 5, seed=0).ravel().tolist() == [1.0, -1.0, 1.0, -1.0, 1.0]


def test_complex_square_two_roots_degree_two_for_every_seed():
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    for seed in range(10):
        pre = count_preimages(m, np.array([0.3, -0.7]), report=rep, seed=seed)
        assert len(pre) == 2
        assert sum(s for _, s in pre) == 2


def test_count_preimages_of_a_value_outside_the_image_is_empty():
    # (x^2, y^2) misses (-1, -1): no multistart row converges, so the polish
    # and the dedup see an empty batch
    m = MapSpec(PolyMap(2, [[(1.0, (2, 0))], [(1.0, (0, 2))]]))
    rep = check_hypotheses(m, count=500, seed=0)
    assert count_preimages(m, np.array([-1.0, -1.0]), report=rep, force=True) == []


def _pairwise_dedup(rows, radius):
    """The dedup that ``_dedup`` replaced: walk the rows in lexicographic
    order and keep each one that is farther than ``radius`` from every row
    kept so far."""
    kept = []
    for x in rows[np.lexsort(rows.T[::-1])]:
        if all(float(np.linalg.norm(x - y)) > radius for y in kept):
            kept.append(x)
    return kept


# half-integer grid points lie exactly 0.5 or 1.0 apart along an axis, and the
# jitter puts clusters of rows well inside a 1e-6 radius
_GRID = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5])
_JITTER = st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 3e-7, 0.25])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.tuples(_GRID, _JITTER), min_size=n, max_size=n), min_size=0, max_size=14)),
    st.sampled_from([1e-6, 0.5, 1.0]))
def test_dedup_matches_pairwise_greedy_loop(cells, radius):
    n = len(cells[0]) if cells else 2
    rows = np.array([[g + j for g, j in row] for row in cells]).reshape(len(cells), n)
    kept = _dedup(rows, radius)
    want = _pairwise_dedup(rows, radius)
    assert kept.shape == (len(want), n)
    assert np.array_equal(kept, np.array(want).reshape(len(want), n))
    # kept rows are pairwise farther apart than the radius, and every row
    # lies within the radius of a kept row
    for i, x in enumerate(kept):
        assert all(np.linalg.norm(x - y) > radius for y in kept[:i])
    for x in rows:
        assert any(np.linalg.norm(x - y) <= radius for y in kept)


def test_dedup_radius_is_strict():
    rows = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 2.0]])
    assert _dedup(rows, 1.0).tolist() == [[0.0, 0.0], [0.0, 2.0]]
    assert _dedup(rows, 0.999).tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]


def _probe_one_trial_at_a_time(m, trials, report, force=False):
    """The probe that the batched one replaced: the same target draws, then
    one ``count_preimages`` call a trial with seed ``k``."""
    rng = np.random.default_rng([report.seed, degree._SALT_PROBE])
    counts, targets, roots = [], [], []
    for k in range(trials):
        direction = rng.standard_normal(m.n)
        nrm = float(np.linalg.norm(direction))
        while nrm < 1e-12:
            direction = rng.standard_normal(m.n)
            nrm = float(np.linalg.norm(direction))
        magnitude = 10.0 ** rng.uniform(-2.0, 2.0)
        eta = magnitude * direction / nrm
        pre = count_preimages(m, eta, report=report, force=force, seed=k)
        targets.append(eta)
        counts.append(len(pre))
        roots.append([x for x, _ in pre])
    return counts, targets, roots


_PROBE_MAPS = {
    "complex_square": (complex_square_map, False),
    "reflection3": (lambda: reflection_map(3), False),
    "random_admissible4": (lambda: random_admissible_map(n=4, seed=7, kappa=3.5), False),
    "axis_cube3": (lambda: axis_cube_map(3), True),
}


@pytest.mark.parametrize("name", sorted(_PROBE_MAPS))
def test_batched_probe_matches_one_count_per_trial(name, monkeypatch):
    maker, force = _PROBE_MAPS[name]
    m = maker()
    rep = report_for(name, maker)
    want_counts, want_targets, want_roots = _probe_one_trial_at_a_time(m, 20, rep, force)
    searches = []
    real = degree._search_roots
    monkeypatch.setattr(degree, "_search_roots",
                        lambda *args: searches.append(real(*args)) or searches[-1])
    probe = injectivity_probe(m, trials=20, report=rep, force=force)
    assert probe["counts"] == want_counts
    assert all(np.array_equal(a, b) for a, b in zip(probe["targets"], want_targets))
    (found,) = searches
    assert len(found) == 20
    # the searches ran at the unit targets; rescale as count_preimages does
    for rows, eta, want in zip(found, want_targets, want_roots):
        got = rows * np.linalg.norm(eta) ** (1.0 / m.kappa)
        assert got.shape == (len(want), m.n)
        for x, y in zip(got, want):
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


def _count_calls(monkeypatch, names):
    """Wrap each of ``names`` in :mod:`hominv.degree` to count its calls."""
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(degree, name, counting(name, getattr(degree, name)))
    return calls


@pytest.mark.parametrize("trials", [1, 4, 20])
def test_probe_searches_all_trials_in_one_newton_run_and_one_polish(trials, monkeypatch):
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    calls = _count_calls(monkeypatch, ("newton_batch", "_polish", "count_preimages",
                                       "eval_jacobian_batch", "_require_report"))
    probe = injectivity_probe(m, trials=trials, report=rep)
    assert probe["counts"] == [2] * trials
    # no per-trial count and no Jacobian (so no determinant sign) is taken
    assert calls == {"newton_batch": 1, "_polish": 1, "count_preimages": 0,
                     "eval_jacobian_batch": 0, "_require_report": 1}


def test_count_and_degree_check_their_report_once(monkeypatch):
    m = complex_square_map()
    rep = report_for("complex_square", complex_square_map)
    eta = np.array([0.3, -0.7])
    for call, searches in ((lambda: count_preimages(m, eta, report=rep), 1),
                           (lambda: mapping_degree(m, eta, report=rep), 2)):
        calls = _count_calls(monkeypatch, ("_require_report", "newton_batch"))
        call()
        assert calls == {"_require_report": 1, "newton_batch": searches}
        monkeypatch.undo()
