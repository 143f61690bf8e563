"""Evaluation and differentiation of homogeneous maps."""

import ast
import importlib
import math
import pkgutil
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hominv
from hominv import (
    BlackBox,
    InvalidInputError,
    InvalidParameterError,
    MapSpec,
    PolyMap,
    UndefinedAtOriginError,
    acceptance_maps,
    blackbox_of,
    check_hypotheses,
    complex_square_map,
    count_preimages,
    diag_map,
    eval_jacobian,
    eval_jacobian_batch,
    eval_map,
    homogeneity_residual,
    identity_map,
    injectivity_probe,
    mapping_degree,
    perturbed_radial_blackbox,
    radial_cube_map,
    radial_linear_map,
    random_admissible_map,
    random_polymap_spec,
    sample_sphere,
)
from hominv.mapcore import (
    _FD_STEP,
    _MAX_DEGREE,
    _eval_batch,
    _eval_jac_batch,
    _jacobian_batch,
    _norms,
    _row_norms,
)


def test_polymap_merges_duplicate_monomials():
    p = PolyMap(2, [[(1.0, (2, 0)), (2.0, (2, 0))], [(1.0, (1, 1))]])
    assert p.components[0] == ((3.0, (2, 0)),)


def test_polymap_drops_zero_coefficients():
    p = PolyMap(2, [[(0.0, (2, 0)), (1.0, (0, 2))], [(1.0, (1, 1))]])
    assert p.components[0] == ((1.0, (0, 2)),)


def test_polymap_orders_monomials_graded_lex_descending():
    p = PolyMap(2, [[(1.0, (0, 2)), (2.0, (1, 1)), (3.0, (2, 0))], []])
    assert [e for _, e in p.components[0]] == [(2, 0), (1, 1), (0, 2)]


def test_polymap_degree_is_max_total_degree():
    p = PolyMap(2, [[(1.0, (2, 0))], [(1.0, (1, 0))]])
    assert p.degree == 2


def test_zero_polymap_degree_convention():
    p = PolyMap(3, [[], [], []])
    assert p.degree == 1


def test_polymap_rejects_negative_exponents():
    with pytest.raises((InvalidParameterError, InvalidInputError)):
        PolyMap(2, [[(1.0, (-1, 2))], []])


@pytest.mark.parametrize("exponents", [(10**16,), (1001,), (500, 501)])
def test_polymap_rejects_a_term_degree_above_the_cap_before_allocating(exponents):
    # checked before the degree sizes the power table, so 10**16 allocates nothing
    with pytest.raises(InvalidParameterError, match="at most 1000"):
        PolyMap(len(exponents), [[(1.0, exponents)]] * len(exponents))


@pytest.mark.parametrize("terms", [
    [(float("nan"), (1,))],
    [(float("-inf"), (1,)), (1.0, (1,))],
    [(1.7976931348623157e308, (1,)), (1.7976931348623157e308, (1,))],
], ids=["nan", "inf", "merged-overflow"])
def test_polymap_rejects_a_coefficient_that_is_not_finite(terms):
    with pytest.raises(InvalidParameterError, match="not finite"):
        PolyMap(1, [terms])


def test_polymap_rejects_a_jacobian_coefficient_that_overflows():
    # d/dx1 of 1e308 x1^2 has the coefficient 2e308
    with pytest.raises(InvalidParameterError, match="Jacobian coefficient .* not finite: inf"):
        PolyMap(1, [[(1e308, (2,))]])
    with pytest.raises(InvalidParameterError, match="Jacobian coefficient"):
        PolyMap(2, [[(1.0, (0, 2))], [(-2e306, (1, 999))]])
    assert PolyMap(1, [[(8e307, (2,))]])._D.tolist() == [[1.6e308]]


def test_polymap_builds_at_the_degree_cap():
    assert PolyMap(1, [[(1.0, (1000,))]]).degree == 1000
    assert PolyMap(2, [[(1.0, (400, 600))], [(1.0, (0, 1000))]]).degree == 1000


def test_mapspec_kappa_defaults_to_degree():
    m = radial_cube_map(3)
    assert m.kappa == 3.0
    assert m.radial_exponent == 0.0


def test_mapspec_radial_weight_exponent():
    m = radial_linear_map((1.0, 2.0, 3.0), kappa=2.0)
    assert m.kappa == 2.0
    assert m.radial_exponent == pytest.approx(1.0)


def test_mapspec_rejects_nonpositive_kappa():
    with pytest.raises(InvalidParameterError):
        MapSpec(PolyMap(3, [[(1.0, (1, 0, 0))], [], []]), kappa=0.0)
    with pytest.raises(InvalidParameterError):
        MapSpec(PolyMap(3, [[(1.0, (1, 0, 0))], [], []]), kappa=-2.0)


def test_blackbox_requires_dimension():
    bb = BlackBox(eval=lambda x: np.asarray(x), declared_kappa=1.0)
    with pytest.raises(InvalidParameterError):
        MapSpec(bb)
    m = MapSpec(bb, n=3)
    assert m.n == 3 and not m.is_poly


def test_eval_identity():
    m = identity_map(3)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(eval_map(m, x), x)


def test_eval_complex_square_known_value():
    # (x, y) = (1, 2): (1 - 4, 2*1*2) = (-3, 4)
    m = complex_square_map()
    assert np.allclose(eval_map(m, np.array([1.0, 2.0])), [-3.0, 4.0])


def test_eval_radial_cube_on_axis():
    m = radial_cube_map(3)
    assert np.allclose(eval_map(m, np.array([2.0, 0.0, 0.0])), [8.0, 0.0, 0.0])


def test_eval_at_origin_is_zero():
    for m in (radial_cube_map(3), radial_linear_map((1.0, 2.0, 3.0), kappa=2.0),
              complex_square_map()):
        assert np.allclose(eval_map(m, np.zeros(m.n)), 0.0)


def test_eval_batch_matches_single():
    m = random_admissible_map(n=4, seed=7)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((17, 4))
    batch = eval_map(m, X)
    for i in range(17):
        assert np.allclose(batch[i], eval_map(m, X[i]), rtol=1e-14, atol=1e-14)


def test_eval_rejects_nonfinite_input():
    m = identity_map(3)
    with pytest.raises(InvalidInputError):
        eval_map(m, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(InvalidInputError):
        eval_map(m, np.array([np.inf, 0.0, 0.0]))


def test_eval_rejects_wrong_length():
    m = identity_map(3)
    with pytest.raises(InvalidInputError):
        eval_map(m, np.array([1.0, 2.0]))


def test_blackbox_bad_output_shape_rejected():
    # the finite-difference Jacobian must reject each shape too, not
    # broadcast a scalar or a length-1 result into a column
    for bad in (lambda x: np.zeros(2), lambda x: 1.0, lambda x: np.ones(1)):
        bb = MapSpec(BlackBox(eval=bad, declared_kappa=1.0), n=3)
        with pytest.raises(InvalidInputError):
            eval_map(bb, np.ones(3))
        with pytest.raises(InvalidInputError):
            eval_jacobian(bb, np.ones(3))
        with pytest.raises(InvalidInputError):
            eval_jacobian_batch(bb, np.ones((2, 3)))


def test_jacobian_identity():
    m = identity_map(3)
    J = eval_jacobian(m, np.array([0.3, -0.4, 1.0]))
    assert np.allclose(J, np.eye(3))
    assert np.linalg.det(J) == pytest.approx(1.0)


def test_jacobian_complex_square_closed_form():
    # Df(x, y) = [[2x, -2y], [2y, 2x]], det = 4(x^2 + y^2)
    m = complex_square_map()
    x, y = 0.7, -1.3
    J = eval_jacobian(m, np.array([x, y]))
    assert np.allclose(J, [[2 * x, -2 * y], [2 * y, 2 * x]])
    assert np.linalg.det(J) == pytest.approx(4 * (x * x + y * y))


def test_jacobian_radial_cube_determinant_closed_form():
    # Df = |xi|^2 I + 2 xi xi^T has eigenvalues |xi|^2 (twice) and 3|xi|^2,
    # so det = 3 |xi|^6 in dimension 3.
    m = radial_cube_map(3)
    xi = np.array([1.0, 2.0, 3.0])
    d = np.linalg.det(eval_jacobian(m, xi))
    assert d == pytest.approx(3.0 * 14.0**3, rel=1e-12)


def test_jacobian_at_origin_errors():
    for m in (radial_cube_map(3), radial_linear_map((1.0, 2.0, 3.0), kappa=2.0),
              blackbox_of(identity_map(3))):
        with pytest.raises(UndefinedAtOriginError):
            eval_jacobian(m, np.zeros(m.n))


def test_jacobian_batch_rejects_origin_row():
    m = radial_cube_map(3)
    X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(UndefinedAtOriginError):
        eval_jacobian_batch(m, X)


@pytest.mark.parametrize("maker", [
    lambda: radial_cube_map(3),
    lambda: radial_linear_map((1.0, 2.0, 3.0), kappa=2.0),
    lambda: blackbox_of(radial_cube_map(3)),
    lambda: blackbox_of(radial_cube_map(3), with_jacobian=True),
], ids=["plain", "weighted", "blackbox-fd", "blackbox-jacobian"])
def test_empty_batch_gives_empty_values_and_jacobians(maker):
    m = maker()
    empty = np.zeros((0, m.n))
    values = eval_map(m, empty)
    jacobians = eval_jacobian_batch(m, empty)
    assert values.shape == (0, m.n) and values.dtype == float
    assert jacobians.shape == (0, m.n, m.n) and jacobians.dtype == float


@pytest.mark.parametrize("maker", [
    lambda: radial_cube_map(3),
    lambda: radial_linear_map((1.0, 2.0, 3.0), kappa=2.0),
    lambda: random_admissible_map(n=4, seed=7, kappa=3.5),
    lambda: complex_square_map(),
])
def test_jacobian_homogeneity_order_kappa_minus_one(maker):
    # Df(tau xi) = tau^(kappa-1) Df(xi), checked entrywise to 1e-9 relative
    m = maker()
    rng = np.random.default_rng(11)
    for _ in range(8):
        xi = rng.standard_normal(m.n)
        xi /= np.linalg.norm(xi)
        tau = 10.0 ** rng.uniform(-2, 2)
        J1 = eval_jacobian(m, tau * xi)
        J0 = eval_jacobian(m, xi)
        scale = tau ** (m.kappa - 1.0)
        assert np.max(np.abs(J1 - scale * J0)) <= 1e-9 * scale * max(
            1.0, np.max(np.abs(J0))
        )


def test_symbolic_jacobian_matches_finite_differences():
    maps = [radial_cube_map(3), diag_map((1.0, 2.0, 3.0)),
            radial_linear_map((1.0, 2.0, 3.0), kappa=2.0),
            random_admissible_map(n=4, seed=7, kappa=3.5)]
    rng = np.random.default_rng(5)
    for m in maps:
        fd = blackbox_of(m)  # drops the jacobian callback: FD path
        for _ in range(50):
            w = rng.standard_normal(m.n)
            w /= np.linalg.norm(w)
            Js = eval_jacobian(m, w)
            Jf = eval_jacobian(fd, w)
            assert np.max(np.abs(Js - Jf)) <= 1e-6 * max(1.0, np.max(np.abs(Js)))


def _fd_jacobian(fn, x, n):
    """Reference: central differences one row and one column at a time."""
    h = _FD_STEP * max(1.0, float(np.linalg.norm(x)))
    J = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        J[:, j] = (np.asarray(fn(x + step), float) - np.asarray(fn(x - step), float)) / (2.0 * h)
    return J


def _recorded(m):
    """``m`` with an evaluator that appends each argument to a list."""
    calls = []

    def _eval(x):
        calls.append(np.array(x))
        return m.body.eval(x)

    return MapSpec(BlackBox(eval=_eval, declared_kappa=m.kappa), n=m.n), calls


_FD_MAPS = {name: blackbox_of(m) for name, m in acceptance_maps().items()}
_FD_MAPS["perturbed_radial_blackbox"] = perturbed_radial_blackbox()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_FD_MAPS)), st.integers(1, 50), st.floats(-3.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_batched_fd_jacobian_equals_the_per_row_loop(name, rows, log_mag, seed):
    m, calls = _recorded(_FD_MAPS[name])
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, m.n)) * 10.0 ** log_mag
    X[rng.random((rows, m.n)) < 0.3] = 0.0
    X[~X.any(axis=1), 0] = 10.0 ** log_mag  # nonzero rows only
    J = eval_jacobian_batch(m, X)
    batched_calls, calls[:] = list(calls), []
    reference = np.stack([_fd_jacobian(m.body.eval, x, m.n) for x in X])
    assert np.array_equal(J, reference)
    assert J.flags.c_contiguous
    # the same rows reach the evaluator, in the same order
    assert np.array_equal(batched_calls, calls)


def test_fd_jacobian_takes_zero_at_an_exactly_zero_shifted_row():
    # x = h e_1 shifts to the origin, where the continuous extension 0 is
    # used in place of a call; the shifted evaluator is not 0 there
    m, calls = _recorded(perturbed_radial_blackbox())
    x = np.array([_FD_STEP, 0.0, 0.0])
    J = eval_jacobian(m, x)
    assert len(calls) == 5 and all(c.any() for c in calls)
    assert np.array_equal(J[:, 0], m.body.eval(2.0 * x) / (2.0 * _FD_STEP))


def _recorded_batched(eval_fn, jacobian=None):
    """A batched order-3 body on R^3 over ``eval_fn`` (and ``jacobian``)
    whose callbacks append each argument they get to one list."""
    calls = []

    def _record(fn):
        def call(x):
            calls.append(np.array(x))
            return fn(x)
        return call

    body = BlackBox(eval=_record(eval_fn), declared_kappa=3.0,
                    jacobian=None if jacobian is None else _record(jacobian), batched=True)
    return MapSpec(body, n=3), calls


_RADIAL = perturbed_radial_blackbox()  # a batched, row-independent evaluator


def test_batched_eval_is_one_call_on_the_nonzero_rows_in_order():
    m, calls = _recorded_batched(_RADIAL.body.eval)
    X = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [-0.5, 0.0, 4.0],
                  [0.0, 0.0, 0.0], [2.0, -1.0, 0.5]])
    F = eval_map(m, X)
    assert len(calls) == 1 and np.array_equal(calls[0], X[[0, 2, 4]])
    # the origin maps to 0, not to the shifted evaluator's value there
    assert np.array_equal(F[[1, 3]], np.zeros((2, 3)))
    assert np.array_equal(F[[0, 2, 4]], _RADIAL.body.eval(X[[0, 2, 4]]))


def test_batched_fd_jacobian_is_one_call_on_the_nonzero_shifted_rows():
    m, calls = _recorded_batched(_RADIAL.body.eval)
    # the middle row's x - h e_1 is exactly the origin
    X = np.array([[1.0, 2.0, 3.0], [_FD_STEP, 0.0, 0.0], [-0.5, 0.25, 4.0]])
    J = eval_jacobian_batch(m, X)
    shifted = []
    for x in X:  # row, then column, then the + and - side
        h = _FD_STEP * max(1.0, float(np.linalg.norm(x)))
        for j in range(3):
            for side in (h, -h):
                row = x.copy()
                row[j] += side
                if row.any():
                    shifted.append(row)
    assert len(shifted) == 2 * 3 * len(X) - 1
    assert len(calls) == 1 and np.array_equal(calls[0], np.array(shifted))
    assert np.array_equal(J[1][:, 0], _RADIAL.body.eval(2.0 * X[1]) / (2.0 * _FD_STEP))


def test_batched_body_is_not_called_without_a_nonzero_row():
    body = blackbox_of(radial_cube_map(3), with_jacobian=True).body
    fd, fd_calls = _recorded_batched(body.eval)
    callback, callback_calls = _recorded_batched(body.eval, jacobian=body.jacobian)
    for m in (fd, callback):
        assert eval_map(m, np.zeros((0, 3))).shape == (0, 3)
        assert eval_jacobian_batch(m, np.zeros((0, 3))).shape == (0, 3, 3)
        assert np.array_equal(eval_map(m, np.zeros((4, 3))), np.zeros((4, 3)))
    assert fd_calls == [] and callback_calls == []


@pytest.mark.parametrize("bad", [lambda x: x[0], lambda x: x[1:], lambda x: 1.0],
                         ids=["one-row-result", "one-row-short", "scalar"])
def test_batched_body_rejects_a_result_of_the_wrong_shape(bad):
    m = MapSpec(BlackBox(eval=bad, declared_kappa=1.0, batched=True), n=3)
    for X in (np.ones(3), np.ones((2, 3))):
        with pytest.raises(InvalidInputError):
            eval_map(m, X)
    with pytest.raises(InvalidInputError):
        eval_jacobian(m, np.ones(3))
    with pytest.raises(InvalidInputError):
        eval_jacobian_batch(m, np.ones((2, 3)))


def test_batched_jacobian_callback_rejects_a_value_shaped_result():
    m = MapSpec(BlackBox(eval=lambda x: x, declared_kappa=1.0,
                         jacobian=lambda x: x, batched=True), n=3)
    with pytest.raises(InvalidInputError):
        eval_jacobian_batch(m, np.ones((2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 4.0), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.integers(0, 50), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
@example(3.0, [0.01, 0.0, 0.0], 0, 0.0, 0)
def test_batched_body_equals_the_same_evaluator_per_row_bit_for_bit(kappa, shift, rows,
                                                                    log_mag, seed):
    batched = perturbed_radial_blackbox(kappa=kappa, shift=shift)
    per_row = MapSpec(BlackBox(eval=batched.body.eval, declared_kappa=kappa), n=3)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, 3)) * 10.0 ** log_mag
    X[rng.random((rows, 3)) < 0.3] = 0.0
    assert np.array_equal(eval_map(batched, X), eval_map(per_row, X))
    X[~X.any(axis=1), 0] = 10.0 ** log_mag  # nonzero rows only
    J = eval_jacobian_batch(batched, X)
    assert np.array_equal(J, eval_jacobian_batch(per_row, X))
    assert J.flags.c_contiguous


def test_blackbox_supplied_jacobian_used_exactly():
    m = radial_cube_map(3)
    bb = blackbox_of(m, with_jacobian=True)
    w = np.array([0.3, -0.5, 0.81])
    assert np.array_equal(eval_jacobian(bb, w), eval_jacobian(m, w))


def test_homogeneity_residual_tiny_for_exact_maps():
    for m in (identity_map(3), radial_cube_map(3), complex_square_map(),
              radial_linear_map((1.0, 2.0, 3.0), kappa=2.0),
              random_admissible_map(n=4, seed=7, kappa=3.5)):
        assert homogeneity_residual(m, count=50, seed=0) < 1e-8


def test_homogeneity_residual_flags_shifted_map():
    bb = perturbed_radial_blackbox(n=3, kappa=3.0, shift=(0.01, 0.0, 0.0))
    # the shift contributes |s|(1 - tau^3)/tau^3 relative deviation; at
    # tau = 100 that is about 0.01, far above the 1e-3 alarm level
    assert homogeneity_residual(bb, count=20, seed=0, taus=[100.0]) > 1e-3
    assert homogeneity_residual(bb, count=20, seed=0) > 1e-3


def test_homogeneity_residual_respects_declared_order():
    # right body, wrong declared order: the residual must blow up
    body = BlackBox(eval=lambda x: np.linalg.norm(x) ** 2 * np.asarray(x),
                    declared_kappa=2.0)
    m = MapSpec(body, n=3)
    assert homogeneity_residual(m, count=20, seed=0) > 1e-2


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
def test_homogeneity_residual_rejects_a_tau_that_is_not_positive_and_finite(tau):
    # these used to return nan, with a RuntimeWarning for all but nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="tau values must be positive"):
            homogeneity_residual(identity_map(3), count=5, taus=[2.0, tau])


def test_every_seeded_entry_point_rejects_a_negative_seed():
    m = complex_square_map()
    rep = check_hypotheses(m, count=50)
    for call in (lambda: sample_sphere(3, 10, seed=-1),
                 lambda: check_hypotheses(m, count=50, seed=-1),
                 lambda: homogeneity_residual(m, count=5, seed=-1),
                 lambda: count_preimages(m, [1.0, 0.0], starts=8, report=rep, seed=-1),
                 lambda: mapping_degree(m, [1.0, 0.0], starts=8, report=rep, seed=-1),
                 lambda: random_admissible_map(n=3, seed=-1),
                 lambda: random_polymap_spec(-1)):
        with pytest.raises(InvalidParameterError, match="seed must be a nonnegative integer"):
            call()


@pytest.mark.parametrize("seed", [1.7, 0.9, 2.0, np.float64(1.0), "1"])
def test_a_seed_that_is_not_an_integer_is_rejected_not_truncated(seed):
    # int() would draw the stream of the truncated seed and record that seed
    with pytest.raises(InvalidParameterError, match="^seed must be an integer$"):
        sample_sphere(3, 4, seed=seed)
    with pytest.raises(InvalidParameterError, match="^seed must be an integer$"):
        check_hypotheses(identity_map(3), count=50, seed=seed)


_COUNTED_CALLS = {
    "sample_sphere": ("count", lambda m, rep, v: sample_sphere(3, v)),
    "check_hypotheses": ("count", lambda m, rep, v: check_hypotheses(m, count=v)),
    "homogeneity_residual": ("count", lambda m, rep, v: homogeneity_residual(m, count=v)),
    "count_preimages": ("starts", lambda m, rep, v: count_preimages(m, [1.0, 0.0, 0.0],
                                                                    starts=v, report=rep)),
    "mapping_degree": ("starts", lambda m, rep, v: mapping_degree(m, [1.0, 0.0, 0.0], starts=v,
                                                                  report=rep)),
    "injectivity_probe": ("trials", lambda m, rep, v: injectivity_probe(m, trials=v,
                                                                        report=rep)),
}


@pytest.fixture(scope="module")
def identity_report():
    return check_hypotheses(identity_map(3), count=50)


@pytest.mark.parametrize("value", [2.5, 300.7, 2.0, np.float64(3.0), "2", 0, -1])
@pytest.mark.parametrize("call", sorted(_COUNTED_CALLS))
def test_every_count_is_a_positive_integer_not_truncated(call, value, identity_report):
    # a float count raised numpy's TypeError, or ran on its truncation
    name, run = _COUNTED_CALLS[call]
    rule = "an integer" if isinstance(value, (float, str)) else ">= 1"
    with pytest.raises(InvalidParameterError, match=f"^{name} must be {rule}$"):
        run(identity_map(3), identity_report, value)


@pytest.mark.parametrize("call", sorted(_COUNTED_CALLS))
def test_a_numpy_integer_count_counts_as_its_value(call, identity_report):
    # the repr shows a numpy integer kept in place of an int, as in a
    # report's sample_count, which JSON cannot serialize
    _, run = _COUNTED_CALLS[call]
    got, want = (run(identity_map(3), identity_report, v) for v in (np.int64(3), 3))
    assert repr(got) == repr(want)


_BB = BlackBox(eval=lambda x: np.asarray(x), declared_kappa=1.0)
_LINEAR2 = [[(1.0, (1, 0))], [(1.0, (0, 1))]]


@pytest.mark.parametrize("build, message", [
    (lambda: PolyMap(2, [[(1.0, (1.5, 0))], [(1.0, (0, 1))]]), "exponent must be an integer"),
    (lambda: PolyMap(2, [[(1.0, (1.0, 0))], [(1.0, (0, 1))]]), "exponent must be an integer"),
    (lambda: PolyMap(2, [[(1.0, ("1", 0))], [(1.0, (0, 1))]]), "exponent must be an integer"),
    (lambda: PolyMap(2, [[(1.0, (-1, 0))], [(1.0, (0, 1))]]), "exponents must be nonnegative"),
    (lambda: PolyMap(2.5, _LINEAR2), "dimension n must be an integer"),
    (lambda: PolyMap(np.float64(2.0), _LINEAR2), "dimension n must be an integer"),
    (lambda: PolyMap(0, []), "dimension n must be >= 1"),
    (lambda: MapSpec(PolyMap(2, _LINEAR2), n=2.5), "dimension n must be an integer"),
    (lambda: MapSpec(_BB, n=2.5), "dimension n must be an integer"),
    (lambda: MapSpec(_BB, n="3"), "dimension n must be an integer"),
    (lambda: MapSpec(_BB, n=0), "dimension n must be >= 1"),
    (lambda: sample_sphere(2.5, 10), "dimension n must be an integer"),
    (lambda: sample_sphere(0, 10), "dimension n must be >= 1"),
    (lambda: check_hypotheses(identity_map(3), count=2.5), "count must be an integer"),
], ids=["exponent-1.5", "exponent-1.0", "exponent-str", "exponent-negative", "polymap-n-2.5",
        "polymap-n-float64", "polymap-n-0", "mapspec-poly-n-2.5", "mapspec-blackbox-n-2.5",
        "mapspec-blackbox-n-str", "mapspec-blackbox-n-0", "sample-sphere-n-2.5",
        "sample-sphere-n-0", "check-count-2.5"])
def test_a_dimension_or_exponent_that_is_not_an_integer_is_rejected_not_truncated(build, message):
    # int() built x1 from the exponent 1.5 and n = 2 from 2.5, and took n = "3"
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        build()


def test_a_numpy_integer_dimension_or_exponent_counts_as_its_value():
    p = PolyMap(np.int64(2), [[(1.0, (np.int64(1), 0))], [(1.0, (0, np.int32(1)))]])
    assert p == PolyMap(2, _LINEAR2) and type(p.n) is int
    assert type(MapSpec(_BB, n=np.int64(3)).n) is int
    assert sample_sphere(np.int64(3), 4).n == 3


def test_every_seeded_stream_has_its_own_salt():
    # two streams with one salt would draw the same numbers from one seed
    salts = {}
    for info in pkgutil.iter_modules(hominv.__path__):
        module = importlib.import_module(f"hominv.{info.name}")
        salts.update({f"{info.name}.{k}": v for k, v in vars(module).items()
                      if k.startswith("_SALT_")})
    assert len(salts) >= 7, salts
    assert all(type(v) is int for v in salts.values()), salts
    assert len(set(salts.values())) == len(salts), salts


def test_python_and_numpy_integer_seeds_draw_the_same_stream():
    ref = sample_sphere(3, 4, seed=1)
    for seed in (np.int64(1), np.uint8(1), np.array(1)):
        sample = sample_sphere(3, 4, seed=seed)
        assert np.array_equal(sample.points, ref.points) and sample.seed == 1
        assert type(sample.seed) is int
    assert check_hypotheses(identity_map(3), count=50, seed=np.int32(1)).seed == 1


def test_weighted_poly_evaluation_is_stable_at_extreme_scales():
    # |xi|^(kappa-d) P(xi) evaluated as (r**kappa) P(xi/r): no overflow for
    # inputs whose direct monomial evaluation would degrade
    m = radial_linear_map((1.0, 2.0, 3.0), kappa=2.0)
    x = np.array([1e150, 1e150, 1e150])
    v = eval_map(m, x)
    assert np.all(np.isfinite(v))
    u = x / np.linalg.norm(x)
    expected = np.linalg.norm(x) ** 2 * eval_map(m, u)
    assert np.allclose(v, expected, rtol=1e-12)


def test_polymap_equality_on_canonical_form():
    a = PolyMap(2, [[(1.0, (2, 0)), (1.0, (0, 2))], [(2.0, (1, 1))]])
    b = PolyMap(2, [[(1.0, (0, 2)), (0.5, (2, 0)), (0.5, (2, 0))], [(2.0, (1, 1))]])
    assert a == b


def _term_by_term(body, X):
    """Values and Jacobian of a polynomial body summed one term at a time,
    with the sums of the absolute term magnitudes of every entry."""
    B, n = X.shape
    F, F_mag = np.zeros((B, n)), np.zeros((B, n))
    J, J_mag = np.zeros((B, n, n)), np.zeros((B, n, n))
    for i, terms in enumerate(body.components):
        for c, e in terms:
            term = c * np.prod([X[:, k] ** e[k] for k in range(n)], axis=0)
            F[:, i] += term
            F_mag[:, i] += np.abs(term)
            for j in range(n):
                if e[j]:
                    d = list(e)
                    d[j] -= 1
                    part = c * e[j] * np.prod([X[:, k] ** d[k] for k in range(n)], axis=0)
                    J[:, i, j] += part
                    J_mag[:, i, j] += np.abs(part)
    return F, F_mag, J, J_mag


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 100]), st.integers(0, 2**32 - 1))
def test_polymap_kernel_matches_term_by_term_sums(spec_seed, rows, x_seed):
    # random_polymap_spec covers n = 1, empty components and weighted bodies
    body = random_polymap_spec(spec_seed).body
    rng = np.random.default_rng(x_seed)
    X = rng.standard_normal((rows, body.n)) * 10.0 ** rng.uniform(-2, 2, size=(rows, 1))
    X[rng.random((rows, body.n)) < 0.25] = 0.0
    F, F_mag, J, J_mag = _term_by_term(body, X)
    assert body.evaluate(X).shape == (rows, body.n)
    assert body.jacobian(X).shape == (rows, body.n, body.n)
    assert np.all(np.abs(body.evaluate(X) - F) <= 1e-13 * F_mag)
    assert np.all(np.abs(body.jacobian(X) - J) <= 1e-13 * J_mag)


# The kernel and the weighted wrappers as they were before values and
# Jacobians shared one power table, kept as the reference the shared kernel
# must match bit for bit.  Each call builds its own table by the kernel's
# rule: X**k is X**(k-1) * X, and a one-row batch is two equal rows.


def _ref_basis(body, X, index):
    Y = np.repeat(X, 2, axis=0) if len(X) == 1 else X
    P = [np.ones(Y.T.shape), Y.T]
    while len(P) <= body.degree:
        P.append(P[-1] * Y.T)
    P = np.concatenate(P)
    out = P.take(index[0], axis=0)
    for j in range(1, body.n):
        out *= P.take(index[j], axis=0)
    return out.T


def _ref_evaluate(body, X):
    return (_ref_basis(body, X, body._E) @ body._C.T)[:len(X)]


def _ref_jacobian(body, X):
    F = (_ref_basis(body, X, body._dE) @ body._D.T)[:len(X)]
    return F.reshape(X.shape[0], body.n, body.n)


def _ref_eval_batch(m, X):
    body = m.body
    if m.radial_exponent == 0.0:
        return _ref_evaluate(body, X)
    r = _norms(X)
    out = np.zeros((X.shape[0], m.n))
    pos = r > 0.0
    if np.any(pos):
        U = X[pos] / r[pos, None]
        out[pos] = (r[pos] ** m.kappa)[:, None] * _ref_evaluate(body, U)
    return out


def _ref_jacobian_batch(m, X):
    body = m.body
    if m.radial_exponent == 0.0:
        return _ref_jacobian(body, X)
    r = _norms(X)
    U = X / r[:, None]
    J = _ref_jacobian(body, U) + m.radial_exponent * (
        _ref_evaluate(body, U)[:, :, None] * U[:, None, :]
    )
    return (r ** (m.kappa - 1.0))[:, None, None] * J


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0, 1, 2, 7, 64, 1000]),
       st.floats(-100.0, 100.0), st.floats(0.0, 100.0), st.floats(0.0, 0.5),
       st.sampled_from(["C", "F", "strided"]), st.integers(0, 2**32 - 1))
@example(0, 1000, 0.0, 100.0, 0.3, "C", 0)
@example(1, 64, 90.0, 10.0, 0.0, "F", 1)
def test_kernels_match_the_unshared_kernel_bit_for_bit(spec_seed, rows, center, spread,
                                                       zero_share, layout, x_seed):
    # random_polymap_spec covers n = 1, empty components, plain and weighted
    # bodies; row magnitudes stay within 1e-100 to 1e100
    m = random_polymap_spec(spec_seed)
    rng = np.random.default_rng(x_seed)
    lo, hi = max(-100.0, center - spread), min(100.0, center + spread)
    scale = 10.0 ** rng.uniform(lo, hi, rows)
    Y = rng.uniform(-1.0, 1.0, (rows, m.n)) * scale[:, None]
    Y[rng.random((rows, m.n)) < zero_share] = 0.0
    Y[~Y.any(axis=1), 0] = scale[~Y.any(axis=1)]  # nonzero rows for the Jacobians
    X = Y.copy()
    X[rng.random(rows) < zero_share] = 0.0  # and zero rows for the values
    if layout == "F":
        X, Y = np.asfortranarray(X), np.asfortranarray(Y)
    elif layout == "strided":
        X, Y = np.repeat(X, 2, axis=0)[::2], np.repeat(Y, 2, axis=0)[::2]
    with np.errstate(all="ignore"):
        assert _same(_eval_batch(m, X), _ref_eval_batch(m, X))
        F, J = _eval_jac_batch(m, Y)
        assert _same(F, _ref_eval_batch(m, Y))
        assert _same(J, _ref_jacobian_batch(m, Y))
        assert _same(_eval_batch(m, Y), F)
        assert _same(_jacobian_batch(m, Y), J)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.integers(1, 140), st.integers(0, 2**32 - 1))
@example(3, False, 130, 0)
@example(3, True, 70, 1)
def test_a_row_gets_the_same_bits_at_every_batch_size(spec_seed, black_box, rows, x_seed):
    # random_polymap_spec covers n = 1, plain and weighted bodies; its
    # batched black box takes the 2n shifted rows of its finite differences
    # through the polynomial kernel
    m = random_polymap_spec(spec_seed)
    m = blackbox_of(m) if black_box else m
    rng = np.random.default_rng(x_seed)
    X = rng.standard_normal((rows, m.n)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))

    def kernels(Y):
        return (eval_map(m, Y), eval_jacobian_batch(m, Y), *_eval_jac_batch(m, Y))

    whole = kernels(X)
    for size in (1, 2, 3, 7, 64):
        chunks = [kernels(X[i:i + size]) for i in range(0, rows, size)]
        for got, want in zip(zip(*chunks), whole):
            assert _same(np.concatenate(got), want)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, _MAX_DEGREE), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
@example(_MAX_DEGREE, 2, 3, 0)
@example(_MAX_DEGREE - 1, 1, 1, 1)
def test_power_table_is_within_gamma_of_the_exact_powers(degree, n, rows, x_seed):
    # a product of k factors is within gamma_{k-1} |x**k| of the exact power
    # (Higham, ASNA, Lemma 3.1), gamma_m = m u / (1 - m u) with u = 2**-53,
    # while every power stays a normal float
    body = PolyMap(n, [[(1.0, (degree,) + (0,) * (n - 1))]] + [[]] * (n - 1))
    rng = np.random.default_rng(x_seed)
    bound = 1000.0 / degree
    X = rng.choice([-1.0, 1.0], (rows, n)) * 2.0 ** rng.uniform(-bound, bound, (rows, n))
    P = body._power_table(X).reshape(degree + 1, n, -1)
    for j in range(n):
        for b in range(rows):
            exact = Fraction(1)
            for k in range(degree + 1):
                # |p/q - x**k| <= m/(2**53 - m) |x**k|, cleared of denominators
                (p, q), m = P[k, j, b].as_integer_ratio(), max(k - 1, 0)
                assert (abs(p * exact.denominator - exact.numerator * q) * (2**53 - m)
                        <= m * abs(exact.numerator) * q)
                exact *= Fraction(X[b, j])


def test_shared_kernel_builds_one_power_table(monkeypatch):
    built = []
    for m in (radial_cube_map(3), random_admissible_map(n=4, seed=7, kappa=3.5)):
        original = type(m.body)._power_table
        monkeypatch.setattr(type(m.body), "_power_table",
                            lambda self, X: built.append(len(X)) or original(self, X))
        _eval_jac_batch(m, np.ones((5, m.n)))
        monkeypatch.undo()
    assert built == [5, 5]


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e-160, 1e-155, 1e155, 1e160, 1e200, 1e300])
def test_weighted_body_at_extreme_magnitudes_matches_hypot(scale):
    # f(xi) = |xi|**(kappa-1) diag(d) xi and
    # Df(xi) = |xi|**(kappa-1) (diag(d) + (kappa-1) diag(d) u u^T), u = xi/|xi|
    d, kappa = np.array([1.0, 2.0, 3.0]), 0.5
    m = radial_linear_map(tuple(d), kappa=kappa)
    rng = np.random.default_rng(7)
    X = np.vstack([[0.6, 0.8, 0.0], rng.standard_normal((5, 3))]) * scale
    # no RuntimeWarning either: the suite makes them errors
    batch = zip(eval_map(m, X), eval_jacobian_batch(m, X))
    single = [(eval_map(m, x), eval_jacobian(m, x)) for x in X]
    for x, (f, jac), (f1, jac1) in zip(X, batch, single):
        r = math.hypot(*x)
        u = np.array([v / r for v in x])
        f_ref = r ** kappa * d * u
        j_ref = r ** (kappa - 1.0) * (np.diag(d) + (kappa - 1.0) * np.outer(d * u, u))
        for value, ref in ((f, f_ref), (jac, j_ref), (f1, f_ref), (jac1, j_ref)):
            assert np.all(np.isfinite(value))
            assert np.max(np.abs(value - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_norms_rescale_only_rows_out_of_range():
    X = np.array([[0.6, 0.8, 0.0], [1e-170, 0.0, 0.0], [3e-160, -4e-160, 0.0],
                  [1e160, 1e160, 0.0], [0.0, 0.0, 0.0], [1.5e-154, 2e-154, 0.0],
                  [-7.0, 2.5, 1e-3], [1e300, -1e300, 1e300]])
    r = _norms(X)  # no RuntimeWarning: the suite makes them errors
    hyp = np.array([math.hypot(*x) for x in X])
    assert np.all(np.abs(r - hyp) <= 2 * np.spacing(hyp))
    in_range = [0, 5, 6]
    assert np.array_equal(r[in_range], _row_norms(X[in_range]))
    assert r[4] == 0.0


def _mixed_rows(seed, rows, n):
    """Rows of every scale: standard normal rows times 2**k, k from -1100 to
    1020 a row, some entries zero, and a few rows with an inf or a NaN."""
    rng = np.random.default_rng(seed)
    X = np.ldexp(rng.standard_normal((rows, n)), rng.integers(-1100, 1021, (rows, 1)))
    X[rng.random((rows, n)) < 0.2] = 0.0
    X[rng.random(rows) < 0.1, 0] = rng.choice([np.inf, -np.inf, np.nan])
    return X


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6))
def test_norms_keep_the_row_norms_bits_on_every_normal_row(seed, rows, n):
    # whatever other rows share the batch
    X = _mixed_rows(seed, rows, n)
    got = _norms(X)
    with np.errstate(over="ignore"):
        plain = _row_norms(X)
    normal = np.isfinite(plain) & (plain > 2.0**-511)  # the sum of squares is normal
    assert np.array_equal(got[normal], plain[normal])
    assert np.array_equal(_norms(X[normal]), plain[normal])  # and among normal rows only
    assert not np.isnan(got[~np.isnan(X).any(axis=1)]).any()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6))
def test_norms_give_a_row_the_same_bits_alone_and_in_a_batch(seed, rows, n):
    X = _mixed_rows(seed, rows, n)
    batch = _norms(X)
    assert batch.shape == (rows,)
    for x, r in zip(X, batch):
        alone = _norms(x)
        assert alone.shape == () and np.array_equal(alone, r, equal_nan=True)
        assert np.array_equal(_norms(x[None, :]), [r], equal_nan=True)
    assert np.array_equal(_norms(X.reshape(rows, 1, n)), batch[:, None], equal_nan=True)


def test_norms_of_3_4_12_scaled_by_every_power_of_two_are_13_so_scaled():
    k = np.arange(-1070, 1021)
    for row in ((3.0, 4.0, 12.0), (-12.0, 3.0, -4.0)):
        X = np.ldexp(np.array(row), k[:, None])
        assert np.array_equal(_norms(X), np.ldexp(13.0, k))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 50), st.integers(1, 6),
       st.sampled_from([-1000, 1000]))
def test_norms_of_normal_rows_scaled_by_a_power_of_two_scale_exactly(seed, rows, n, k):
    X = np.random.default_rng(seed).standard_normal((rows, n))
    Y = np.ldexp(X, k)
    exact = (np.ldexp(Y, -k) == X).all(axis=1)  # no entry lost bits to underflow
    assert np.array_equal(_norms(Y)[exact], np.ldexp(_norms(X), k)[exact])


def test_norms_of_zero_infinite_and_nan_rows():
    X = np.array([[0.0, 0.0, 0.0], [np.inf, 1.0, 0.0], [0.0, -np.inf, 1e300],
                  [np.nan, 1.0, 0.0], [5e-324, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]])
    r = _norms(X)  # no RuntimeWarning: the suite makes them errors
    assert r[0] == 0.0 and r[1] == r[2] == np.inf and np.isnan(r[3])
    assert r[4] == 5e-324 and r[5] == np.inf  # the norm itself overflows
    assert _norms(np.empty((0, 3))).shape == (0,)


def _norm_calls(tree):
    """Every call in ``tree`` of ``np.linalg.norm``, ``math.hypot`` or another
    ``hypot``, or of a bare ``norm``."""
    return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and re.search(r"(^|\.)(linalg\.norm|hypot)$|^norm$", ast.unparse(node.func))}


def test_every_norm_in_the_package_goes_through_mapcore():
    # mapcore._row_norms and mapcore._norms are the package's only Euclidean
    # norms; the example bodies that catalog.py's makers define stand for a
    # user's own code
    found = []
    for path in sorted(Path(hominv.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        calls = _norm_calls(tree)
        if path.name == "catalog.py":
            for top in tree.body:
                for node in ast.walk(top) if isinstance(top, ast.FunctionDef) else ():
                    if node is not top and isinstance(node, (ast.FunctionDef, ast.Lambda)):
                        calls -= _norm_calls(node)
        found += sorted(f"{path.name}:{node.lineno}" for node in calls)
    assert found == []
