"""The shared Newton helpers: the singularity test, the one Newton loop and
the batched polish."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hominv import (
    BlackBox,
    MapSpec,
    SingularJacobianError,
    acceptance_maps,
    axis_cube_map,
    eval_jacobian,
    eval_map,
)
from hominv._newton import (
    SINGULAR_RATIO,
    _diverge_radius,
    _nonsingular,
    _polish,
    _row_norms,
    newton_batch,
    solve_guarded,
)
from hominv.mapcore import _NORM_SAFE, _norms

_MAPS = acceptance_maps()


def _scalar_polish(m, x, target, rounds=2):
    """The per-row polish that the batched one replaced: a couple of extra
    Newton steps on one point, keeping only strict improvements."""
    best = x
    best_res = float(np.linalg.norm(eval_map(m, best) - target))
    for _ in range(rounds):
        if best_res == 0.0:
            break
        J = eval_jacobian(m, best)
        try:
            dx = solve_guarded(J, eval_map(m, best) - target)
        except SingularJacobianError:
            break
        cand = best - dx
        res = float(np.linalg.norm(eval_map(m, cand) - target))
        if res < best_res:
            best, best_res = cand, res
        else:
            break
    return best


def _problem(name, seed, near, far):
    """A target ``f(root)`` and rows at relative distances from 0 to 1e-1 of
    the root (``near``) or at random points of radius 1e-1 to 1e1 (``far``)."""
    m = _MAPS[name]
    rng = np.random.default_rng(seed)

    def directions(k):
        z = rng.standard_normal((k, m.n))
        return z / np.linalg.norm(z, axis=1)[:, None]

    root = directions(1)[0] * 10.0 ** rng.uniform(-1.0, 1.0)
    target = eval_map(m, root)
    offsets = rng.choice([0.0, 1e-15, 1e-10, 1e-6, 1e-3, 1e-1], size=near)
    rows_near = root * (1.0 + offsets[:, None] * rng.standard_normal((near, m.n)))
    rows_far = directions(far) * 10.0 ** rng.uniform(-1.0, 1.0, size=(far, 1))
    return m, target, np.vstack([rows_near, rows_far])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_MAPS)), st.integers(0, 2**32 - 1),
       st.integers(0, 6), st.integers(0, 6))
def test_batched_polish_matches_scalar_polish_row_by_row(name, seed, near, far):
    m, target, rows = _problem(name, seed, near, far)
    X, res = _polish(m, rows, target)
    assert X.shape == rows.shape and res.shape == (len(rows),)
    # a row equals the scalar polish of that row alone
    for x, row in zip(X, rows):
        assert np.array_equal(x, _scalar_polish(m, row, target))
    # no row's residual rises
    before = np.array([np.linalg.norm(r) for r in eval_map(m, rows) - target])
    assert np.all(res <= before)
    # each returned residual is |f(x) - target| at the returned row, up to the
    # rounding of evaluating f
    F = eval_map(m, X)
    scale = np.linalg.norm(F, axis=1) + np.linalg.norm(target)
    assert np.all(np.abs(res - np.linalg.norm(F - target, axis=1)) <= 1e-13 * scale)
    # a row's result does not depend on the other rows of its batch, to the bit
    if len(rows):
        for i, row in enumerate(rows):
            alone, _ = _polish(m, row[None, :], target)
            assert np.array_equal(alone[0], X[i])
        order = np.random.default_rng(seed).permutation(len(rows))
        shuffled, _ = _polish(m, np.vstack([rows[order], rows[:1]]), target)
        assert np.array_equal(shuffled[:-1], X[order])


def test_polish_of_an_empty_batch_is_empty():
    m = _MAPS["random_admissible4"]
    X, res = _polish(m, np.zeros((0, 4)), np.ones(4))
    assert X.shape == (0, 4) and res.shape == (0,)


def test_polish_keeps_an_exact_root_untouched():
    m = _MAPS["diag123"]
    root = np.array([0.5, -1.0, 2.0])
    X, res = _polish(m, root[None, :], eval_map(m, root))
    assert np.array_equal(X[0], root) and res[0] == 0.0


def test_polish_does_not_take_a_step_that_only_ties_the_residual():
    # f(x) = x with a Jacobian callback that misleads Newton: from 1.5 toward
    # 1 the step lands on 0.5, at the same residual 0.5, and is not taken
    m = MapSpec(BlackBox(eval=lambda x: x, declared_kappa=1.0,
                         jacobian=lambda x: np.array([[0.5 if x[0] > 1.0 else 1.0 / 3.0]])),
                n=1)
    X, res = _polish(m, np.array([[1.5]]), np.array([1.0]))
    assert X.tolist() == [[1.5]] and res.tolist() == [0.5]


def test_row_norms_equal_the_vector_norm_of_each_row():
    scales = 10.0 ** np.linspace(-150.0, 150.0, 500)
    R = np.random.default_rng(5).standard_normal((500, 4)) * scales[:, None]
    assert np.array_equal(_row_norms(R), [np.linalg.norm(r) for r in R])


def test_nonsingular_agrees_on_one_matrix_and_on_a_stack():
    # the test is relative to the row norms: a tiny but well-conditioned
    # determinant passes, and so does a huge one; a nearly dependent row
    # does not
    J = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13]),
                  [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-13]],
                  np.ones((3, 3)), np.full((3, 3), np.nan), 1e200 * np.eye(3)])
    with np.errstate(invalid="ignore", over="ignore"):
        stacked = _nonsingular(J)
        singles = [bool(_nonsingular(j)) for j in J]
    assert stacked.tolist() == [True, True, False, False, False, True]
    assert singles == stacked.tolist()
    for j in J[~stacked]:
        with pytest.raises(SingularJacobianError), np.errstate(invalid="ignore", over="ignore"):
            solve_guarded(j, np.ones(3))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.lists(st.integers(-900, 900), min_size=5, max_size=5), min_size=1,
                max_size=4))
def test_nonsingular_does_not_depend_on_the_scale_of_the_rows(n, seed, singular, exponents):
    # an orthogonal matrix, or one whose last row is half its first, with
    # its rows scaled by 2**k, k in [-900, 900]: the verdict of the matrix
    # as given, one matrix at a time and for the stack, with no RuntimeWarning
    J = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    singular &= n > 1
    if singular:
        J[-1] = 0.5 * J[0]
    scaled = np.stack([np.ldexp(J, np.array(k[:n])[:, None]) for k in exponents])
    assert bool(_nonsingular(J)) is not singular
    assert [bool(_nonsingular(j)) for j in scaled] == [not singular] * len(scaled)
    assert _nonsingular(scaled).tolist() == [not singular] * len(scaled)


def _two_path_nonsingular(J):
    """The singularity test that the one on unit rows replaced: a matrix whose
    row norms all lie in ``(1/s, s)`` tested as given, any other with each
    row scaled by the power of two that brings its norm into ``[0.5, 1)``."""
    n = J.shape[-1]
    s = min(2.0 ** (960 // n), _NORM_SAFE)
    if not (np.maximum.reduce(np.abs(J), axis=None, initial=0.0) < s / n
            and np.minimum.reduce(r := _row_norms(J), axis=None, initial=1.0) > 1.0 / s):
        r = _norms(J)
        e = np.where(((r < s) & (r > 1.0 / s)).all(axis=-1, keepdims=True), 0, np.frexp(r)[1])
        J, r = np.ldexp(J, -e[..., None]), np.ldexp(r, -e)
    return np.abs(np.linalg.det(J)) > SINGULAR_RATIO * r.prod(axis=-1)


def _conditioned(rng, n, size):
    """``size`` matrices ``U diag(1, ..., 1, 10**u) V``, ``U`` and ``V``
    orthogonal and ``u`` uniform in [-16, -8], so that their ratios
    ``|det J| / prod |J_i|`` fall on either side of ``SINGULAR_RATIO``."""
    U = np.linalg.qr(rng.standard_normal((size, n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((size, n, n)))[0]
    s = np.ones((size, n))
    s[:, -1] = 10.0 ** rng.uniform(-16.0, -8.0, size)
    return U * s[:, None, :] @ V


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_nonsingular_agrees_with_the_two_path_test_away_from_the_threshold(n, size, seed):
    # matrices whose ratio is at least 10x away from SINGULAR_RATIO, with
    # their rows scaled by 2**k, k in [-900, 900]: the same verdict one
    # matrix at a time and for the stack, with no RuntimeWarning
    rng = np.random.default_rng(seed)
    J = _conditioned(rng, n, size)
    ratio = np.abs(np.linalg.det(J)) / np.prod(np.linalg.norm(J, axis=-1), axis=-1)
    J = J[(ratio > 10.0 * SINGULAR_RATIO) | (ratio < 0.1 * SINGULAR_RATIO)]
    J = np.ldexp(J, rng.integers(-900, 901, size=J.shape[:-1])[..., None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _two_path_nonsingular(J)
        assert _nonsingular(J).tolist() == expected.tolist()
        assert [bool(_nonsingular(j)) for j in J] == expected.tolist()
        assert [bool(_two_path_nonsingular(j)) for j in J] == expected.tolist()


@pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [np.nan] * 3, [np.inf] * 3, [-np.inf] * 3,
                                 [0.5, np.inf, 0.0], [0.5, np.nan, 0.0]],
                         ids=["zero", "nan", "inf", "-inf", "one inf", "one nan"])
def test_nonsingular_is_false_on_a_zero_nan_or_inf_row_with_no_warning(row):
    # three orthogonal matrices whose last row is replaced, after one left as it is
    J = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 3, 3)))[0]
    J[1:, 2] = row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _nonsingular(J).tolist() == [True, False, False, False]
        assert [bool(_nonsingular(j)) for j in J] == [True, False, False, False]
    with np.errstate(all="ignore"):
        assert _two_path_nonsingular(J).tolist() == [True, False, False, False]


@pytest.mark.parametrize("scale", [2.0**400, 1.0, 2.0**-400], ids=["2**400", "1", "2**-400"])
def test_solve_guarded_names_the_ratio_it_compared_and_the_threshold(scale):
    # the ratio of this matrix is 1e-13 / sqrt(2) at every scale; its
    # determinant overflows at 2**400 and underflows at 2**-400
    J = scale * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-13]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobianError, match=r"= 7\.071e-14 .* threshold 1e-12$"):
            solve_guarded(J, np.ones(3))


def _scalar_newton(m, x0, target, tol, radius_cap, max_iter):
    """The scalar corrector that ``newton_batch`` replaced in the path
    tracker, with its divergence radius (1e12) made a parameter and a point
    at the origin, where it raised, leaving as singular."""
    x = np.array(x0, dtype=float)
    scale = tol * max(1.0, float(np.linalg.norm(target)))
    for it in range(max_iter + 1):
        r = eval_map(m, x) - target
        if float(np.linalg.norm(r)) <= scale:
            return x, True, it, "converged"
        if it == max_iter:
            break
        if not x.any():
            return x, False, it, "singular"
        J = eval_jacobian(m, x)
        try:
            dx = solve_guarded(J, r)
        except SingularJacobianError:
            return x, False, it, "singular"
        x = x - dx
        if not np.all(np.isfinite(x)) or float(np.linalg.norm(x)) > radius_cap:
            return x, False, it, "diverged"
    return x, False, max_iter, "no-convergence"


_NEWTON_MAPS = dict(_MAPS, axis_cube3=axis_cube_map(3))


def _newton_problem(name, seed, near, far, planar, per_row):
    """Targets ``f(root)``, one for all rows or one per row, and rows near
    their root (relative distance 0 to 1e-1), far from it (radius 1e-1 to
    1e1) and on a coordinate plane (where axis_cube3 is singular)."""
    m = _NEWTON_MAPS[name]
    rng = np.random.default_rng(seed)
    count = near + far + planar

    def directions(k):
        z = rng.standard_normal((k, m.n))
        return z / np.linalg.norm(z, axis=1)[:, None]

    k = count if per_row else 1
    roots = directions(k) * 10.0 ** rng.uniform(-1.0, 1.0, (k, 1))
    target = eval_map(m, roots) if per_row else eval_map(m, roots[0])
    offsets = rng.choice([0.0, 1e-15, 1e-10, 1e-6, 1e-3, 1e-1], size=(near, 1))
    rows_near = roots[:near] * (1.0 + offsets * rng.standard_normal((near, m.n)))
    rows_far = directions(far + planar) * 10.0 ** rng.uniform(-1.0, 1.0, size=(far + planar, 1))
    rows_far[far:, rng.integers(0, m.n)] = 0.0
    return m, target, np.vstack([rows_near, rows_far])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_NEWTON_MAPS)), st.integers(0, 2**32 - 1),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 3), st.booleans(),
       st.sampled_from([1e12, 1.5]), st.sampled_from([1, 2, 20]))
def test_newton_batch_matches_the_scalar_loop_row_by_row(name, seed, near, far, planar,
                                                         per_row, radius_cap, max_iter):
    m, target, rows = _newton_problem(name, seed, near, far, planar, per_row)
    tol = 1e-10
    X, converged, iters, mode = newton_batch(m, rows, target, tol, radius_cap, max_iter)
    targets = np.broadcast_to(target, rows.shape)
    for i, row in enumerate(rows):
        x, ok, it, why = _scalar_newton(m, row, targets[i], tol, radius_cap, max_iter)
        assert (mode[i], iters[i], converged[i]) == (why, it, ok)
        if ok:
            assert np.array_equal(X[i], x)
    # a row's outcome does not depend on the other rows of its batch, to the bit
    for i, row in enumerate(rows):
        alone = newton_batch(m, row[None, :], targets[i][None, :], tol, radius_cap, max_iter)
        assert (alone[3][0], alone[2][0]) == (mode[i], iters[i])
        assert np.array_equal(alone[0][0], X[i])
    if len(rows):
        order = np.random.default_rng(seed).permutation(len(rows))
        shuffled = newton_batch(m, rows[order], targets[order], tol, radius_cap, max_iter)
        assert shuffled[3].tolist() == mode[order].tolist()
        assert shuffled[2].tolist() == iters[order].tolist()
        assert np.array_equal(shuffled[0], X[order])


def test_newton_batch_of_no_rows_is_empty():
    X, converged, iters, mode = newton_batch(_MAPS["diag123"], np.zeros((0, 3)), np.ones(3),
                                             1e-10, 1e12)
    assert X.shape == (0, 3) and converged.shape == iters.shape == mode.shape == (0,)


def test_newton_batch_stops_a_row_at_the_origin_as_singular():
    # f(x) = x has a Jacobian at the origin too, but a homogeneous map in
    # general has none there, so a row at the origin always stops
    m = _MAPS["identity3"]
    X, converged, iters, mode = newton_batch(m, np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
                                             np.array([1.0, 2.0, 3.5]), 1e-10, 1e12)
    assert mode.tolist() == ["singular", "converged"] and iters.tolist() == [0, 1]
    assert converged.tolist() == [False, True]


def test_the_divergence_radius_is_110_times_the_unit_brackets_upper_end():
    # (1 / 0.25)**(1 / 2) = 2
    assert _diverge_radius(SimpleNamespace(c0_empirical=0.25, kappa=2.0)) == 220.0
    assert _diverge_radius(SimpleNamespace(c0_empirical=1e-26, kappa=2.0)) == 110.0 * 1e13
    # an upper end of 1e1200 is no finite radius: the largest float, which
    # only a step that is not finite leaves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius = _diverge_radius(SimpleNamespace(c0_empirical=1e-300, kappa=0.25))
    assert radius == np.finfo(float).max
