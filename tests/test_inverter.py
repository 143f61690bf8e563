"""Continuation-based inversion: paths, preimages, preconditions."""

import contextlib
import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hominv import (
    BlackBox,
    ContinuationFailedError,
    InvalidInputError,
    InvalidParameterError,
    MapSpec,
    PolyMap,
    PreconditionError,
    SingularJacobianError,
    axis_cube_map,
    acceptance_maps,
    check_hypotheses,
    coercivity_bracket,
    complex_square_map,
    count_preimages,
    diag_map,
    eval_jacobian,
    eval_map,
    identity_map,
    injectivity_probe,
    inverse_homogeneity_check,
    inverse_jacobian,
    invert,
    mapping_degree,
    radial_cube_map,
    radial_linear_map,
    random_admissible_map,
    reflection_map,
    roundtrip_check,
)
from hominv import inverter
from hominv.hypotheses import _radius, _target_rows
from hominv.inverter import _invert_batch, _path_points, _paths, _scores, _top_k
from hominv.mapcore import _norms
from hominv.polyparser import parse_map

_REPORTS = {}


def report_for(name, maker, count=2000):
    if name not in _REPORTS:
        _REPORTS[name] = check_hypotheses(maker(), count=count, seed=0)
    return _REPORTS[name]


# ---------------------------------------------------------------------- tol


def test_config_validation():
    # tol is the solvers' one setting; each of the six checks it
    m = identity_map(3)
    rep = report_for("identity", lambda: identity_map(3))
    eta = [1.0, 2.0, 3.0]
    for tol in (0.0, 1.0, 2.0, math.nan, math.inf):
        for call in (lambda: invert(m, eta, report=rep, tol=tol),
                     lambda: inverse_homogeneity_check(m, eta, [2.0], report=rep, tol=tol),
                     lambda: roundtrip_check(m, [eta], report=rep, tol=tol),
                     lambda: count_preimages(m, eta, report=rep, tol=tol),
                     lambda: mapping_degree(m, eta, report=rep, tol=tol),
                     lambda: injectivity_probe(m, trials=1, report=rep, tol=tol)):
            with pytest.raises(InvalidParameterError, match="tol must lie in"):
                call()


# --------------------------------------------------------------------- path


def gamma(a, b, t):
    """``gamma(t)`` on the tracker's path from the unit row ``a`` to the unit
    row ``b``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _path_points(_paths(a[None], b[None]), np.array([float(t)]))[0]


def test_slerp_endpoints():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    assert np.allclose(gamma(a, b, 0.0), a, atol=1e-14)
    assert np.allclose(gamma(a, b, 1.0), b, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=10_000),
       st.booleans())
def test_slerp_stays_on_the_unit_sphere(t, seed, antipodal):
    # one segment, or the two halves of the detour round an antipodal pair
    rng = np.random.default_rng(seed)
    a = _unit(rng.standard_normal(3))
    b = -a if antipodal else _unit(rng.standard_normal(3))
    p = _paths(a[None], b[None])
    assert p.antipodal[0] == antipodal and not p.blocked[0]
    assert abs(math.hypot(*gamma(a, b, t)) - 1.0) <= 4 * np.finfo(float).eps


def test_slerp_direction_stays_in_span():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 2.0, 0.0])
    for t in np.linspace(0, 1, 23):
        g = gamma(a, b, t)
        assert abs(g[2]) < 1e-14


def test_slerp_antipodal_detour():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([-1.0, 0.0, 0.0])
    assert np.allclose(gamma(a, b, 0.0), a, atol=1e-12)
    assert np.allclose(gamma(a, b, 1.0), b, atol=1e-12)
    # the detour stays on the unit sphere, well away from the origin at the
    # crossover
    mid = gamma(a, b, 0.5)
    assert np.linalg.norm(mid) == pytest.approx(1.0, rel=1e-15)
    # continuity across the two segments
    eps = 1e-9
    d = np.linalg.norm(gamma(a, b, 0.5 + eps) - gamma(a, b, 0.5 - eps))
    assert d < 1e-6


def test_slerp_rejects_antipodal_endpoints_in_one_dimension():
    # R^1 has no direction orthogonal to both, so no path avoids the origin
    assert _paths(np.array([[1.0]]), np.array([[-1.0]])).blocked[0]
    assert gamma([1.0], [1.0], 0.5)[0] == 1.0


def test_invert_fails_as_antipodal_when_every_seed_image_points_away():
    # every image of x^2 is positive, so no seed has a path to -1
    m = parse_map("n = 1; f1 = x1^2;")
    rep = check_hypotheses(m, count=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContinuationFailedError) as exc:
            invert(m, [-1.0], report=rep, force=True)
    # the unit sphere of R^1 is {-1, 1}: two seeds, both failed
    assert [reason for _, reason in exc.value.seed_failures] == ["antipodal", "antipodal"]
    assert exc.value.last_t == 0.0
    # the positive half line is reachable
    assert invert(m, [4.0], report=rep, force=True).xi[0] == pytest.approx(2.0, abs=1e-12)


def test_slerp_rejects_zero_endpoints():
    # no path ends or starts at zero: a zero target returns the origin
    # untracked, and a seed whose image is zero is never tracked
    m = identity_map(3)
    rep = check_hypotheses(m, count=8)
    res = invert(m, np.zeros(3), report=rep)
    assert not res.xi.any() and res.steps == 0
    zero = dataclasses.replace(rep, images=0.0 * rep.images, image_norms=0.0 * rep.image_norms)
    with pytest.raises(ContinuationFailedError, match="no usable seed"):
        invert(m, np.array([1.0, 0.0, 0.0]), report=zero)


# ------------------------------------------------------------------- invert


def test_invert_identity_exact():
    rep = report_for("identity", lambda: identity_map(3))
    eta = np.array([1.0, 2.0, 3.0])
    res = invert(identity_map(3), eta, report=rep)
    assert np.allclose(res.xi, eta, atol=1e-12)
    assert res.residual <= 1e-10 * max(1.0, np.linalg.norm(eta))


def test_invert_zero_target_returns_origin():
    rep = report_for("identity", lambda: identity_map(3))
    res = invert(identity_map(3), np.zeros(3), report=rep)
    assert np.array_equal(res.xi, np.zeros(3))
    assert res.residual == 0.0 and res.bracket == (0.0, 0.0)


def test_invert_diag_closed_form():
    rep = report_for("diag", lambda: diag_map((1.0, 2.0, 3.0)))
    eta = np.array([0.3, -4.0, 1.5])
    res = invert(diag_map((1.0, 2.0, 3.0)), eta, report=rep)
    assert np.allclose(res.xi, eta / np.array([1.0, 2.0, 3.0]), atol=1e-10)


def test_invert_radial_linear_closed_form():
    # f(xi) = |xi|^(kappa-1) A xi  =>  with u = A^-1 eta, the preimage is
    # xi = u |u|^((1-kappa)/kappa)
    kappa = 2.0
    diag = np.array([1.0, 2.0, 3.0])
    m = radial_linear_map(tuple(diag), kappa=kappa)
    rep = report_for("radial_linear", lambda: radial_linear_map((1.0, 2.0, 3.0), kappa=2.0))
    rng = np.random.default_rng(21)
    for _ in range(5):
        eta = rng.standard_normal(3) * 10.0 ** rng.uniform(-2, 2)
        u = eta / diag
        xi_exact = u * np.linalg.norm(u) ** ((1.0 - kappa) / kappa)
        res = invert(m, eta, report=rep)
        assert np.linalg.norm(res.xi - xi_exact) <= 1e-9 * max(1.0, np.linalg.norm(xi_exact))


def test_invert_radial_cube_radius_law():
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    eta = np.array([0.5, -1.0, 2.0])
    res = invert(radial_cube_map(3), eta, report=rep)
    assert np.linalg.norm(res.xi) == pytest.approx(np.linalg.norm(eta) ** (1 / 3), rel=1e-9)
    assert np.linalg.norm(eval_map(radial_cube_map(3), res.xi) - eta) <= 1e-10 * max(1.0, np.linalg.norm(eta))


def test_invert_relative_residual_across_scales():
    m = random_admissible_map(n=4, seed=7, kappa=3.5)
    rep = report_for("random_admissible", lambda: random_admissible_map(n=4, seed=7, kappa=3.5))
    rng = np.random.default_rng(17)
    for mag in (1e-3, 1.0, 1e3):
        direction = rng.standard_normal(4)
        eta = mag * direction / np.linalg.norm(direction)
        res = invert(m, eta, report=rep)
        rel = np.linalg.norm(eval_map(m, res.xi) - eta) / mag
        assert rel <= 1e-8


def test_invert_bracket_containment():
    m = random_admissible_map(n=4, seed=7, kappa=3.5)
    rep = report_for("random_admissible", lambda: random_admissible_map(n=4, seed=7, kappa=3.5))
    rng = np.random.default_rng(29)
    for _ in range(10):
        eta = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3)
        res = invert(m, eta, report=rep)
        r = np.linalg.norm(res.xi)
        r_lo, r_hi = res.bracket
        slack = 1e-9 * r_hi
        assert r_lo - slack <= r <= r_hi + slack


def test_invert_extreme_target_magnitudes():
    # a sum of squares of these components underflows (1e-170) or overflows
    # (1e155), so |eta| must be taken without one
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    for scale in (1e-170, 1e155):
        eta = scale * np.array([0.3, -0.5, 0.8])
        res = invert(m, eta, report=rep)
        rel = math.hypot(*(eval_map(m, res.xi) - eta)) / math.hypot(*eta)
        assert rel <= 1e-8
        r = math.hypot(*res.xi)
        r_lo, r_hi = res.bracket
        slack = 1e-9 * r_hi
        assert r_lo - slack <= r <= r_hi + slack


def test_roundtrip_and_homogeneity_checks_at_extreme_target_magnitudes():
    # |eta| must be taken without a sum of squares: 1e-170 would read as a
    # zero target and 1e155 as an infinite one (a silent 0.0 residual)
    d = np.array([0.3, -0.5, 0.8])
    for name, maker in (("radial_cube", lambda: radial_cube_map(3)),
                        ("diag", lambda: diag_map((1.0, 2.0, 3.0)))):
        m = maker()
        rep = report_for(name, maker)
        for scale in (1e-170, 1e155):
            eta = scale * d
            worst = roundtrip_check(m, eta, report=rep)
            xi = invert(m, eta, report=rep).xi
            want = math.hypot(*(eval_map(m, xi) - eta)) / math.hypot(*eta)
            assert worst == pytest.approx(want, rel=1e-12, abs=0.0)
            assert worst <= 1e-8
            # order 1 keeps |xi| as extreme as |eta|
            dev = inverse_homogeneity_check(m, eta, taus=[1e-2, 1e2], report=rep)
            want = max(
                math.hypot(*(invert(m, tau * eta, report=rep).xi - tau ** (1 / m.kappa) * xi))
                / (tau ** (1 / m.kappa) * math.hypot(*xi))
                for tau in (1e-2, 1e2)
            )
            assert dev == pytest.approx(want, rel=1e-12, abs=0.0)
            assert dev <= 1e-7


def test_invert_rejects_report_of_another_map():
    rep = check_hypotheses(radial_cube_map(3))
    with pytest.raises(PreconditionError):
        invert(diag_map((1, 2, 3)), [1, 2, 3], report=rep)
    with pytest.raises(PreconditionError):
        invert(diag_map((1, 2, 3)), [1, 2, 3], report=rep, force=True)


@pytest.mark.parametrize("change", [{"kappa": 1.0}, {"n": 4}], ids=["kappa", "n"])
def test_invert_rejects_a_report_replaced_in_its_order_or_dimension(change):
    # a report names its map by its own n, kappa and body; with kappa = 1
    # the bracket at (0, 0, 8) read (8, 8) around a preimage of norm 2
    rep = dataclasses.replace(report_for("radial_cube", lambda: radial_cube_map(3)), **change)
    with pytest.raises(PreconditionError, match="different map"):
        invert(radial_cube_map(3), np.array([0.0, 0.0, 8.0]), report=rep)


def test_invert_requires_report():
    with pytest.raises(PreconditionError):
        invert(radial_cube_map(3), np.array([1.0, 0.0, 0.0]))


def test_invert_rejects_failing_report():
    rep = report_for("axis_cube", lambda: axis_cube_map(3))
    assert rep.status == "fail"
    with pytest.raises(PreconditionError):
        invert(axis_cube_map(3), np.array([1.0, 1.0, 1.0]), report=rep)


def test_invert_rejects_warning_report_without_force():
    rep = report_for("complex_square", lambda: complex_square_map())
    with pytest.raises(PreconditionError):
        invert(complex_square_map(), np.array([1.0, 0.0]), report=rep)


def test_invert_force_lifts_on_warning_report():
    rep = report_for("complex_square", lambda: complex_square_map())
    eta = np.array([0.0, 2.0])
    res = invert(complex_square_map(), eta, report=rep, force=True)
    # either sheet of the double cover is a valid lift
    assert np.allclose(eval_map(complex_square_map(), res.xi), eta, atol=1e-9)


def test_invert_force_without_report_runs_checks_internally():
    res = invert(radial_cube_map(3), np.array([1.0, 1.0, 1.0]), force=True)
    assert res.residual <= 1e-10 * max(1.0, np.sqrt(3.0))


def test_invert_input_validation():
    rep = report_for("identity", lambda: identity_map(3))
    with pytest.raises(InvalidInputError):
        invert(identity_map(3), np.array([1.0, 2.0]), report=rep)
    with pytest.raises(InvalidInputError):
        invert(identity_map(3), np.array([1.0, np.nan, 0.0]), report=rep)


@pytest.mark.parametrize("eta, message", [
    ([1.0, 2.0], "eta must be a vector of length 3"),
    ([1.0, np.nan, 0.5], "finite"),
    ([1.0, np.inf, 0.5], "finite"),
    # finite components whose norm overflows warned and failed at t = 0
    ([1.7e308, 1.7e308, 0.0], "eta is too large: its norm overflows"),
], ids=["length", "nan", "inf", "norm-overflows"])
def test_every_front_door_rejects_a_malformed_target(eta, message):
    m = identity_map(3)
    rep = report_for("identity", lambda: identity_map(3))
    for call in (lambda: invert(m, eta, report=rep),
                 lambda: roundtrip_check(m, [eta], report=rep),
                 lambda: inverse_homogeneity_check(m, eta, [2.0], report=rep),
                 lambda: count_preimages(m, eta, report=rep),
                 lambda: mapping_degree(m, eta, report=rep),
                 lambda: coercivity_bracket(rep, eta, m.kappa)):
        with pytest.raises(InvalidInputError, match=message):
            call()


_HUGE = [1e100, 0.0, 0.0]


@pytest.mark.parametrize("entry", ["coercivity_bracket", "invert", "count_preimages",
                                   "mapping_degree", "inverse_homogeneity_check",
                                   "roundtrip_check"])
def test_every_front_door_rejects_a_target_whose_preimage_norm_overflows(entry):
    # |xi| = |eta|**4 = 1e400 at kappa = 0.25: a float power that raised a
    # bare OverflowError
    m = parse_map("kappa = 0.25; n = 3; f1 = x1; f2 = x2; f3 = x3")
    rep = report_for("quartic_root", lambda: m)
    assert rep.overall == "pass"
    call = {"coercivity_bracket": lambda: coercivity_bracket(rep, _HUGE, m.kappa),
            "invert": lambda: invert(m, _HUGE, report=rep),
            "count_preimages": lambda: count_preimages(m, _HUGE, report=rep),
            "mapping_degree": lambda: mapping_degree(m, _HUGE, report=rep),
            "inverse_homogeneity_check":
                lambda: inverse_homogeneity_check(m, [1.0, 0.0, 0.0], [1e100], report=rep),
            "roundtrip_check": lambda: roundtrip_check(m, [[1.0, 2.0, 3.0], _HUGE], report=rep)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^eta is too large: its preimage's norm "
                                                    "overflows$"):
            call[entry]()


_TINY = [1e-100, 0.0, 0.0]


@pytest.mark.parametrize("entry", ["coercivity_bracket", "invert", "count_preimages",
                                   "mapping_degree", "inverse_homogeneity_check",
                                   "roundtrip_check"])
def test_every_front_door_rejects_a_target_whose_preimage_norm_underflows(entry):
    # |xi| = |eta|**4 = 1e-400 at kappa = 0.25 rounds to 0: invert returned
    # the origin, count_preimages a zero root, and the homogeneity check
    # divided by zero
    m = parse_map("kappa = 0.25; n = 3; f1 = x1; f2 = x2; f3 = x3")
    rep = report_for("quartic_root", lambda: m)
    call = {"coercivity_bracket": lambda: coercivity_bracket(rep, _TINY, m.kappa),
            "invert": lambda: invert(m, _TINY, report=rep),
            "count_preimages": lambda: count_preimages(m, _TINY, report=rep),
            "mapping_degree": lambda: mapping_degree(m, _TINY, report=rep),
            "inverse_homogeneity_check": lambda: inverse_homogeneity_check(m, _TINY, [2.0],
                                                                           report=rep),
            "roundtrip_check": lambda: roundtrip_check(m, [[1.0, 2.0, 3.0], _TINY], report=rep)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^eta is too small: its preimage's norm "
                                                    "underflows$"):
            call[entry]()


def test_a_bracket_end_of_a_zero_ratio_is_zero():
    # C = inf puts the lower bracket end at exactly 0, which stays allowed
    assert _radius(0.0, 0.25) == 0.0
    rep = dataclasses.replace(report_for("identity", lambda: identity_map(3)),
                              c0_empirical=1.0, c_empirical=math.inf)
    assert coercivity_bracket(rep, [2.0, 0.0, 0.0], 1.0) == (0.0, 2.0)


def test_a_row_whose_scale_onto_the_level_set_overflows_is_never_a_seed():
    # |f(w)| = 1e-80 on the sphere, so |f(w)|**(-1/kappa) = 1e320 is no float
    m = parse_map("kappa = 0.25; n = 3; f1 = 1e-80 x1; f2 = 1e-80 x2; f3 = 1e-80 x3")
    rep = check_hypotheses(m, count=2000)
    assert np.all(np.isfinite(rep.image_norms) & (rep.image_norms > 0.0))
    assert not rep._unit_images.usable.any()
    eta = 1e-80 * np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContinuationFailedError, match="no usable seed"):
            invert(m, eta, report=rep, force=True)


def test_degree_names_a_non_finite_target_as_invert_does():
    m = identity_map(3)
    rep = report_for("identity", lambda: identity_map(3))
    for call in (count_preimages, mapping_degree):
        with pytest.raises(InvalidInputError, match="eta contains non-finite components"):
            call(m, [1.0, np.nan, 0.5], report=rep)


@pytest.mark.parametrize("name", ["radial_cube3", "random_admissible4"])
def test_invert_bracket_is_the_coercivity_bracket(name):
    m = acceptance_maps()[name]
    rep = report_for(name, lambda: acceptance_maps()[name])
    d = np.random.default_rng(31).standard_normal(m.n)
    for mag in [*np.logspace(-3.0, 3.0, 7), 1e-150, 1e150]:
        eta = mag * d
        assert invert(m, eta, report=rep).bracket == coercivity_bracket(rep, eta, m.kappa)


def test_invert_unreachable_tolerance_raises_continuation_failure(monkeypatch):
    # double precision cannot deliver a 1e-30 relative residual on this map,
    # so every corrector call fails and the step underflows
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    monkeypatch.setattr(inverter, "_MIN_STEP", 1e-3)
    monkeypatch.setattr(inverter, "_SEED_ATTEMPTS", 2)
    with pytest.raises(ContinuationFailedError) as exc:
        invert(m, np.array([0.7, -0.2, 1.1]), report=rep, tol=1e-30)
    assert exc.value.last_t is not None
    assert 0.0 <= exc.value.last_t < 1.0
    assert exc.value.last_xi is not None
    assert len(exc.value.seed_failures) == 2
    for index, reason in exc.value.seed_failures:
        assert 0 <= index < rep.sample_count
        assert reason in ("singular", "diverged", "no-convergence", "residual-over-tol")


def test_invert_singular_jacobian_on_path_raises():
    body = BlackBox(
        eval=lambda x: np.linalg.norm(x) ** 2 * np.asarray(x, dtype=float),
        declared_kappa=3.0,
        jacobian=lambda x: np.zeros((3, 3)),
    )
    m = MapSpec(body, n=3)
    with pytest.raises(SingularJacobianError):
        invert(m, np.array([1.0, 0.0, 0.0]), force=True)


def test_invert_trace_records_waypoints():
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    res = invert(m, np.array([2.0, 0.3, -0.4]), report=rep, trace=True)
    wps = res.path_waypoints
    assert wps is not None and len(wps) == res.steps + 1
    assert wps[0][0] == 0.0
    assert wps[-1][0] == 1.0
    # every recorded xi satisfies the path equation for the unit problem,
    # whose path runs on the unit sphere
    for t, gamma, xi in wps:
        assert abs(math.hypot(*gamma) - 1.0) <= 4 * np.finfo(float).eps
        assert np.linalg.norm(eval_map(m, xi) - gamma) <= 1e-8


_ACCEPTANCE = sorted(acceptance_maps())


@pytest.mark.parametrize("name", _ACCEPTANCE)
def test_invert_steps_grow_to_the_end_of_the_path(name):
    m = acceptance_maps()[name]
    rep = report_for(name, lambda: acceptance_maps()[name])
    rng = np.random.default_rng(3)
    for mag in np.logspace(-3.0, 3.0, 7):
        d = rng.standard_normal(m.n)
        res = invert(m, mag * d / np.linalg.norm(d), report=rep, trace=True)
        ts = [t for t, _, _ in res.path_waypoints]
        assert res.steps <= 5 and len(ts) == res.steps + 1
        assert ts[0] == 0.0 and ts[-1] == 1.0
        # no last step of rounding size, as ten steps of 0.1 would leave
        assert all(b - a >= 1e-12 for a, b in zip(ts, ts[1:]))


_ONE_STEP_MAPS = {**{name: (lambda name=name: acceptance_maps()[name]) for name in _ACCEPTANCE},
                  "reflection3": lambda: reflection_map(3),
                  "complex_square": complex_square_map, "axis_cube3": lambda: axis_cube_map(3)}


@pytest.mark.parametrize("name", sorted(_ONE_STEP_MAPS))
def test_invert_tracks_each_path_in_one_step(name):
    # the first step spans the whole path, and bijectivity (or, on the
    # forced maps, a well-aligned seed) lets its correction converge
    m = _ONE_STEP_MAPS[name]()
    rep = report_for(name, _ONE_STEP_MAPS[name])
    rng = np.random.default_rng(17)
    for mag in np.logspace(-3.0, 3.0, 13):
        d = rng.standard_normal(m.n)
        res = invert(m, mag * d / np.linalg.norm(d), report=rep, force=True, trace=True)
        assert res.steps == 1
        assert [t for t, _, _ in res.path_waypoints] == [0.0, 1.0]


def test_a_rejected_whole_path_step_halves_and_reaches_the_same_preimage():
    # one corrector iteration is too few for the whole path on radial_cube3,
    # so the first step is rejected and halved until its correction converges
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    eta = np.array([0.7, -2.0, 1.3])
    want = invert(m, eta, report=rep)
    with mock.patch.object(inverter, "_MAX_NEWTON", 1):
        res = invert(m, eta, report=rep, trace=True)
    first = res.path_waypoints[1][0]
    assert res.steps > 1 and first < 1.0 and math.frexp(first)[0] == 0.5
    assert math.hypot(*(res.xi - want.xi)) <= 1e-12 * math.hypot(*want.xi)


def _step_map(key):
    return acceptance_maps()[key] if isinstance(key, str) else random_admissible_map(*key)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from(_ACCEPTANCE), st.tuples(st.integers(3, 5), st.integers(0, 3))),
       st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_invert_does_not_depend_on_the_first_step(key, log_mag, seed):
    # bijectivity makes the lifted path unique, so long steps and cautious
    # ones reach the same preimage
    m, rep = _step_map(key), report_for(str(key), lambda: _step_map(key))
    d = np.random.default_rng(seed).standard_normal(m.n)
    eta = 10.0**log_mag * d / np.linalg.norm(d)
    fast = invert(m, eta, report=rep)
    with mock.patch.object(inverter, "_INITIAL_STEP", 0.01):
        cautious = invert(m, eta, report=rep)
    assert cautious.steps > fast.steps
    assert math.hypot(*(fast.xi - cautious.xi)) <= 1e-12 * math.hypot(*cautious.xi)


def test_invert_without_trace_has_no_waypoints():
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    res = invert(radial_cube_map(3), np.array([1.0, 1.0, 1.0]), report=rep)
    assert res.path_waypoints is None


def test_inversion_result_json_dict():
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    eta = np.array([1.0, 1.0, 1.0])
    res = invert(radial_cube_map(3), eta, report=rep)
    d = res.to_json_dict(eta=eta)
    assert d["eta"] == [1.0, 1.0, 1.0]
    assert len(d["xi"]) == 3
    assert d["residual"] <= 1e-10 * max(1.0, np.linalg.norm(eta))
    assert isinstance(d["steps"], int) and d["steps"] >= 1
    assert len(d["bracket"]) == 2


# ----------------------------------------------------- derived inverse facts


def test_inverse_homogeneity_order():
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    dev = inverse_homogeneity_check(
        m, np.array([1.0, 0.5, -0.25]), taus=[1e-2, 1e-1, 1.0, 1e1, 1e2], report=rep
    )
    assert dev <= 1e-7


def test_inverse_homogeneity_check_rejects_a_scaled_target_that_overflows():
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    with pytest.raises(InvalidInputError), np.errstate(over="ignore"):
        inverse_homogeneity_check(m, np.array([1e300, 0.0, 0.0]), taus=[1e10], report=rep)


def test_inverse_homogeneity_check_rejects_a_tau_at_which_the_target_rounds_to_zero():
    # 1e-30 * 1e-300 rounds to 0, whose preimage is the origin
    m = identity_map(3)
    rep = report_for("identity", lambda: identity_map(3))
    with pytest.raises(InvalidInputError, match="tau \\* eta must be nonzero"):
        inverse_homogeneity_check(m, [1e-300, 0.0, 0.0], [1e-30, 2.0], rep)


def _scaled(m, s):
    """``s * f`` for a polynomial body: each coefficient times ``s``."""
    return MapSpec(PolyMap(m.n, [[(s * c, e) for c, e in terms] for terms in m.body.components]),
                   kappa=m.kappa)


@pytest.mark.parametrize("s", [2.0**-100, 1e-26, 1e-60, 2.0**100, 1e40],
                         ids=["2**-100", "1e-26", "1e-60", "2**100", "1e40"])
@pytest.mark.parametrize("name", ["radial_linear123", "radial_cube3", "random_admissible4"])
def test_invert_of_a_scaled_map_is_the_inverse_at_the_scaled_down_target(name, s):
    # (s f)(xi) = eta exactly when f(xi) = eta / s, so the solvers, which
    # hold no absolute scale, find the same preimage
    m = acceptance_maps()[name]
    rep = report_for(name, lambda: m)
    eta = np.array([1.0, -2.0, 0.5, 0.25][:m.n])
    want = invert(m, eta / s, report=rep).xi
    sm = _scaled(m, s)
    # the sphere checks of s f are not yet scale-free (at 1e40 the
    # determinant refinement of random_admissible4 overflows); the solvers are
    with np.errstate(over="ignore"):
        rep_s = check_hypotheses(sm, count=2000, seed=0)
    got = invert(sm, eta, report=rep_s, force=True).xi
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["radial_cube", "random_admissible"]), st.floats(-3.0, 3.0),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_inverse_homogeneity_check_is_its_definition(name, log_mag, log_taus, seed):
    # the check inverts its targets as one batch, which gives every target
    # the bits invert gives it alone
    m, rep = _BATCH_MAPS[name](), report_for(name, _BATCH_MAPS[name])
    d = np.random.default_rng(seed).standard_normal(m.n)
    eta, taus = 10.0**log_mag * d / np.linalg.norm(d), [10.0**e for e in log_taus]
    xi = invert(m, eta, report=rep).xi
    want = max(float(_norms(invert(m, tau * eta, report=rep).xi - tau ** (1.0 / m.kappa) * xi))
               / (tau ** (1.0 / m.kappa) * float(_norms(xi))) for tau in taus)
    assert inverse_homogeneity_check(m, eta, taus, report=rep) == want


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
def test_inverse_homogeneity_check_names_a_tau_that_is_not_positive_and_finite(tau):
    # the check homogeneity_residual makes: inf and nan are taus, not targets
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    with pytest.raises(InvalidParameterError, match="tau values must be positive"):
        inverse_homogeneity_check(m, np.array([1.0, 0.5, -0.25]), taus=[2.0, tau], report=rep)


def test_roundtrip_check_batch():
    m = radial_linear_map((1.0, 2.0, 3.0), kappa=2.0)
    rep = report_for("radial_linear", lambda: radial_linear_map((1.0, 2.0, 3.0), kappa=2.0))
    rng = np.random.default_rng(31)
    etas = rng.standard_normal((10, 3)) * 10.0 ** rng.uniform(-3, 3, size=(10, 1))
    assert roundtrip_check(m, etas, report=rep) <= 1e-8


def test_inverse_jacobian_is_matrix_inverse():
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    res = invert(m, np.array([0.4, 1.2, -0.7]), report=rep)
    J = eval_jacobian(m, res.xi)
    Jinv = inverse_jacobian(m, res.xi)
    assert np.allclose(J @ Jinv, np.eye(3), atol=1e-10)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_top_k_matches_stable_argsort(data):
    # few distinct values, so most scores tie, and -inf for unusable rows
    values = st.sampled_from([-np.inf, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
    scores = np.array(data.draw(st.lists(values | st.floats(-1.0, 1.0),
                                         min_size=1, max_size=120)))
    k = data.draw(st.integers(1, len(scores) + 3))
    want = np.argsort(-scores, kind="stable")[:k]
    assert np.array_equal(_top_k(scores, k), want)


@given(st.integers(0, 2**32 - 1), st.integers(4097, 20_000), st.integers(1, 40),
       st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_top_k_past_its_prefix_matches_stable_argsort(seed, n, k, ties, low_head):
    # past 4096 scores the threshold comes from a prefix; ties and a prefix
    # of low scores must not change the list
    rng = np.random.default_rng(seed)
    scores = (rng.choice([-np.inf, -1.0, 0.0, 0.5, 1.0], n) if ties
              else rng.standard_normal(n))
    if low_head:
        scores[:4096] -= 10.0
    assert np.array_equal(_top_k(scores, k), np.argsort(-scores, kind="stable")[:k])


def test_invert_with_fewer_sample_rows_than_seed_attempts():
    m = radial_cube_map(3)
    rep = check_hypotheses(m, count=8)
    assert rep.sample_count < inverter._SEED_ATTEMPTS
    eta = np.array([2.0, -3.0, 6.0])
    res = invert(m, eta, report=rep)
    assert math.hypot(*(eval_map(m, res.xi) - eta)) <= 1e-10 * math.hypot(*eta)


def test_invert_deterministic():
    m = random_admissible_map(n=4, seed=7, kappa=3.5)
    rep = report_for("random_admissible", lambda: random_admissible_map(n=4, seed=7, kappa=3.5))
    eta = np.array([0.3, 1.0, -0.8, 0.2])
    a = invert(m, eta, report=rep)
    b = invert(m, eta, report=rep)
    assert np.array_equal(a.xi, b.xi)
    assert a.residual == b.residual and a.steps == b.steps


_BATCH_MAPS = {"radial_cube": lambda: radial_cube_map(3),
               "random_admissible": lambda: random_admissible_map(n=4, seed=7, kappa=3.5)}
# the acceptance maps, n = 6, and a 64-point sample whose seeds align so
# poorly that paths take the halving path: (map, sample size)
_INVERSION_MAPS = {**{name: (lambda name=name: acceptance_maps()[name], 2000)
                      for name in acceptance_maps()},
                   "random_admissible6": (lambda: random_admissible_map(n=6, seed=6), 2000),
                   "axis_cube3@64": (lambda: axis_cube_map(3), 64)}
_MAGNITUDES = st.one_of(st.sampled_from([0.0, 1e-300, 1e-170, 1.0, 1e150, 1e155]),
                        st.floats(-300.0, 150.0).map(lambda e: 10.0**e))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_INVERSION_MAPS)), st.lists(_MAGNITUDES, min_size=1, max_size=12),
       st.integers(0, 2**32 - 1), st.booleans())
def test_batch_inversion_matches_one_target_at_a_time(name, mags, seed, long_steps):
    maker, count = _INVERSION_MAPS[name]
    m, rep = maker(), report_for(name, maker, count)
    z = np.random.default_rng(seed).standard_normal((len(mags), m.n))
    etas = z / np.linalg.norm(z, axis=1)[:, None] * np.array(mags)[:, None]
    # long steps with few corrector iterations make paths reject steps, so
    # their step sizes part ways inside the batch
    policy = (mock.patch.multiple(inverter, _INITIAL_STEP=0.5, _MAX_NEWTON=2, _MIN_STEP=1e-6)
              if long_steps else contextlib.nullcontext())
    with policy:
        results = _invert_batch(m, etas, 1e-10, rep, norms=_target_rows(m.n, etas)[1])
        alones = [invert(m, eta, report=rep, force=True) for eta in etas]
    assert len(results) == len(etas)
    for eta, res, alone in zip(etas, results, alones):
        if not eta.any():
            assert np.array_equal(res.xi, np.zeros(m.n)) and res.residual == 0.0
            continue
        # a row rounds the same in any batch, so the batch gives every
        # target the bits it gets alone
        assert np.array_equal(res.xi, alone.xi)
        assert (res.residual, res.steps, res.newton_iters_total) == \
            (alone.residual, alone.steps, alone.newton_iters_total)
        assert res.residual <= 1e-10 * max(1.0, math.hypot(*eta))
        assert float(_norms(eval_map(m, res.xi) - eta)) == res.residual
    if not etas.any(axis=1).all():
        with pytest.raises(InvalidInputError):
            roundtrip_check(m, etas, report=rep)


def test_batch_raises_the_error_of_the_lowest_index_target(monkeypatch):
    # no path reaches tol 1e-30, so the second and third targets both fail;
    # the second one's error is raised, as inverting in order would, and it
    # names that target's own seeds
    m = radial_cube_map(3)
    rep = report_for("radial_cube", lambda: radial_cube_map(3))
    monkeypatch.setattr(inverter, "_MIN_STEP", 1e-3)
    monkeypatch.setattr(inverter, "_SEED_ATTEMPTS", 2)
    etas = np.array([[0.0, 0.0, 0.0], [0.7, -0.2, 1.1], [-1.0, 2.0, 3.0]])
    with pytest.raises(ContinuationFailedError) as exc:
        _invert_batch(m, etas, 1e-30, rep, norms=_target_rows(m.n, etas)[1])
    seeds = [[s for s, _ in err.seed_failures] for err in (
        pytest.raises(ContinuationFailedError, invert, m, eta, report=rep, tol=1e-30).value
        for eta in etas[1:])]
    assert seeds[0] != seeds[1]
    assert [s for s, _ in exc.value.seed_failures] == seeds[0]


# ------------------------------------------------------------- seed choice


def tried_seeds(m, rep, etas):
    """The sample rows that each target of the batch ``etas`` tries as seeds,
    round by round, when every path fails: ``_track`` is replaced by one that
    fails them all, and each sample point by the row ``(k, 1, ..., 1)`` of its
    index ``k``, which only the seeds read.  A seed is its row scaled by a
    positive factor, so ``k`` is the ratio of its first two coordinates."""
    points = np.ones((len(rep.image_norms), m.n))
    points[:, 0] = np.arange(len(points))
    indexed = dataclasses.replace(rep, sample=dataclasses.replace(rep.sample, points=points))
    rounds = []

    def fail(m, p, xi0, tol, radius, trace):
        rounds.append(np.rint(xi0[:, 0] / xi0[:, 1]).astype(int))
        P = len(xi0)
        return (xi0, np.zeros(P), np.zeros(P, int), np.zeros(P, int),
                np.full(P, "no-convergence", dtype=object), None)

    with mock.patch.object(inverter, "_track", fail), pytest.raises(ContinuationFailedError):
        _invert_batch(m, etas, 1e-10, indexed, norms=_target_rows(m.n, etas)[1])
    return rounds


def reference_seeds(rep, omega, k):
    """Each unit target's ``k`` seeds by the scoring the cached unit image
    directions replaced: ``(images @ omega) / image_norms``, ``2**16``
    (target, row) cells at a time, ranked by ``_top_k``."""
    images, norms = rep.images, rep.image_norms
    usable = np.isfinite(norms) & (norms > 0.0)
    block, seeds = max(1, 2**16 // len(norms)), []
    for lo in range(0, len(omega), block):
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = (images @ omega[lo:lo + block, :, None])[:, :, 0] / norms
        scores[:, ~usable] = -np.inf
        seeds += [_top_k(row, k) for row in scores]
    return np.array(seeds)


def _unit(eta):
    return eta / math.hypot(*eta)


@given(st.sampled_from(sorted(_BATCH_MAPS)), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_best_seed_first_then_the_rest_in_score_order(name, seed, duplicated, aligned):
    m, rep = _BATCH_MAPS[name](), report_for(name, _BATCH_MAPS[name])
    rng = np.random.default_rng(seed)
    if duplicated:
        # every odd row's image repeats the row before it: ties in sample order
        images = rep.images.copy()
        images[1::2] = images[:-1:2][:len(images[1::2])]
        rep = dataclasses.replace(rep, images=images,
                                  image_norms=np.linalg.norm(images, axis=1))
    # a target along a sample image makes the best score itself a tie
    eta = (rep.images[rng.integers(len(rep.images))] if aligned
           else rng.standard_normal(m.n)) * 10.0 ** rng.uniform(-3.0, 3.0)
    scores = _scores(rep, _unit(eta))
    order = np.argsort(-scores, kind="stable")
    (best,), *rest = tried_seeds(m, rep, eta[None, :])
    assert best == order[0] == np.argmax(scores)
    assert [best, *np.concatenate(rest)] == list(order[:inverter._SEED_ATTEMPTS])
    if duplicated and aligned:
        assert scores[best] == scores[best + 1] and best % 2 == 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_rows_whose_image_norm_is_zero_or_not_finite_are_never_tried(seed, count):
    m = radial_cube_map(3)
    rep = check_hypotheses(m, count=count, seed=seed % 7)
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal(3)
    # spoil a random subset of rows, the best-scoring ones most likely
    spoiled = rng.random(count) < 0.3 + 0.6 * (_scores(rep, _unit(eta)) > 0.5)
    images = rep.images.copy()
    images[spoiled] = rng.choice([0.0, np.inf, np.nan], size=(np.count_nonzero(spoiled), 1))
    bad = dataclasses.replace(rep, images=images, image_norms=np.linalg.norm(images, axis=1))
    usable = ~spoiled
    assert np.array_equal(bad._unit_images.usable, usable)
    assert np.array_equal(bad._unit_images.unusable, np.flatnonzero(spoiled))
    assert np.all(bad._unit_images.directions[:, spoiled] == 0.0)
    tried = np.concatenate(tried_seeds(m, bad, eta[None, :]))
    assert not spoiled[tried].any()
    scores = np.where(usable, _scores(rep, _unit(eta)), -np.inf)
    order = np.argsort(-scores, kind="stable")[:inverter._SEED_ATTEMPTS]
    assert list(tried) == [i for i in order if usable[i]]


@given(st.sampled_from(sorted(_BATCH_MAPS)), st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_a_target_gets_the_same_seeds_alone_as_in_a_batch(name, seed):
    m, rep = _BATCH_MAPS[name](), report_for(name, _BATCH_MAPS[name])
    rng = np.random.default_rng(seed)
    etas = rng.standard_normal((50, m.n)) * 10.0 ** rng.uniform(-3.0, 3.0, (50, 1))
    batch = np.array(tried_seeds(m, rep, etas)).T
    for eta, seeds in zip(etas, batch):
        assert list(np.concatenate(tried_seeds(m, rep, eta[None, :]))) == list(seeds)


def test_the_unit_image_directions_are_cached_read_only_and_follow_the_images():
    m = random_admissible_map(n=4, seed=7, kappa=3.5)
    rep = report_for("random_admissible", lambda: m)
    directions = rep._unit_images.directions
    assert rep._unit_images is rep._unit_images
    assert directions.shape == (4, rep.sample_count) and directions.flags.c_contiguous
    assert np.array_equal(directions, (rep.images / rep.image_norms[:, None]).T)
    with pytest.raises(ValueError, match="read-only"):
        directions[0, 0] = 1.0
    # each row's factor onto |f| = 1, as read-only
    scales = rep._unit_images.scales
    assert np.array_equal(scales, rep.image_norms ** (-1.0 / m.kappa))
    with pytest.raises(ValueError, match="read-only"):
        scales[0] = 1.0
    # a report made by dataclasses.replace derives its own from its images
    flipped = dataclasses.replace(rep, images=-rep.images)
    assert np.array_equal(flipped._unit_images.directions, -directions)
    eta = np.array([0.3, 1.0, -0.8, 0.2])
    (best,), *_ = tried_seeds(m, flipped, eta[None, :])
    assert best == np.argmin(_scores(rep, _unit(eta)))


def test_the_seeds_are_those_of_the_uncached_scoring():
    maps = {**acceptance_maps(), "reflection3": reflection_map(3)}
    for name, m in maps.items():
        rep = check_hypotheses(m)
        z = np.random.default_rng(2024).standard_normal((200, m.n))
        etas = z * 10.0 ** np.linspace(-3.0, 3.0, 200)[:, None]
        omega = etas / np.array(_target_rows(m.n, etas)[1])[:, None]
        want = reference_seeds(rep, omega, inverter._SEED_ATTEMPTS)
        assert np.array_equal(np.array(tried_seeds(m, rep, etas)).T, want), name
