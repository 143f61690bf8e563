"""Sphere sampling, extrema estimation, and the hypothesis verdicts."""

import dataclasses
import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hominv import (
    BlackBox,
    InvalidInputError,
    InvalidParameterError,
    NoBracketError,
    PolyMap,
    MapSpec,
    PreconditionError,
    SphereSample,
    UndefinedAtOriginError,
    acceptance_maps,
    axis_cube_map,
    blackbox_of,
    check_hypotheses,
    check_jacobian_nonvanishing,
    coercivity_bracket,
    complex_square_map,
    diag_map,
    estimate_extrema,
    eval_jacobian_batch,
    eval_map,
    homogeneity_residual,
    identity_map,
    invert,
    parse_map,
    perturbed_radial_blackbox,
    radial_cube_map,
    radial_linear_map,
    random_admissible_map,
    random_polymap_spec,
    reflection_map,
    sample_sphere,
)
from hominv import hypotheses
from hominv.mapcore import (_eval_batch, _eval_jac_batch, _jacobian_batch, _norms, _rng,
                            _unit_directions)


def zero_map(n=3):
    return MapSpec(PolyMap(n, [[] for _ in range(n)]))


# ---------------------------------------------------------------- sampling


def test_sample_sphere_unit_norms():
    s = sample_sphere(3, 500, seed=1)
    assert np.allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)
    assert len(np.unique(s.points, axis=0)) == s.count
    assert s.count == 500 and s.n == 3 and s.seed == 1


def test_sample_sphere_deterministic():
    a = sample_sphere(3, 1000, seed=7)
    b = sample_sphere(3, 1000, seed=7)
    assert np.array_equal(a.points, b.points)


def test_sample_sphere_nested_prefix():
    # the first N1 points of a larger draw coincide with the smaller draw,
    # which is what makes the sampled extrema monotone in N
    small = sample_sphere(3, 400, seed=5)
    big = sample_sphere(3, 1600, seed=5)
    assert np.array_equal(big.points[:400], small.points)


def test_covering_radius_below_p15_at_1e4():
    # the largest nearest-neighbour gap of a default-size sample at n = 3
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    s = sample_sphere(3, 10_000, seed=0)
    dists, _ = cKDTree(s.points).query(s.points, k=2)
    assert 0.0 < float(dists[:, 1].max()) < 0.15


def test_sample_sphere_in_one_dimension_keeps_both_points():
    s = sample_sphere(1, 10_000, seed=0)
    assert s.count == 2 and sorted(s.points.ravel()) == [-1.0, 1.0]


def test_sample_sphere_in_one_dimension_is_plus_then_minus_for_every_seed():
    # S^0 = {+1, -1}: the sample is both points in that order, drawn from no
    # generator, so no seed can miss one of them or swap them
    for count in (1, 2, 10_000):
        for seed in range(8):
            s = sample_sphere(1, count, seed)
            assert s.points.tolist() == [[1.0], [-1.0]][:count] and s.count == min(count, 2)


def test_sample_sphere_rejects_bad_arguments():
    with pytest.raises(InvalidParameterError):
        sample_sphere(0, 10)
    with pytest.raises(InvalidParameterError):
        sample_sphere(3, 0)


_MEMO = hypotheses._drawn_sample


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2040, 2056), st.integers(0, 2**32 - 1))
@example(1, 2048, 0)
@example(3, 2048, 0)
def test_the_sample_memo_is_value_transparent(n, count, seed):
    sample_sphere(n, count, seed)
    warm = sample_sphere(n, count, seed)
    _MEMO.cache_clear()
    cold = sample_sphere(n, count, seed)
    drawn = count if n > 1 else 2
    fresh = _unit_directions(_rng(seed, hypotheses._SALT_SPHERE), drawn, n)
    assert warm is not cold and sample_sphere(n, count, seed) is cold
    for s in (warm, cold):
        assert s.points.shape == fresh.shape and s.points.tobytes() == fresh.tobytes()
        assert not s.points.flags.writeable
        assert (s.count, s.n, s.seed) == (drawn, n, seed)


def test_the_sample_memo_keys_on_the_capped_count_and_the_int_seed():
    assert sample_sphere(1, 2, 5) is sample_sphere(1, 10_000, 5)
    assert sample_sphere(np.int64(3), np.int32(40), np.uint8(5)) is sample_sphere(3, 40, 5)
    # a smaller count is drawn on its own, not served as a larger sample's prefix
    big, small = sample_sphere(3, 40, 5), sample_sphere(3, 20, 5)
    assert not np.shares_memory(big.points, small.points)
    assert np.array_equal(big.points[:20], small.points)


def test_the_sample_memo_keeps_the_four_latest_keys():
    _MEMO.cache_clear()
    keys = [(3, 10, seed) for seed in range(6)]
    samples = [sample_sphere(*key) for key in keys]
    info = _MEMO.cache_info()
    assert info.maxsize == info.currsize == 4 and info.misses == 6
    assert all(sample_sphere(*key) is s for key, s in zip(keys[2:], samples[2:]))
    assert sample_sphere(*keys[0]) is not samples[0]
    assert _MEMO.cache_info().currsize == 4


@pytest.mark.parametrize("args, message", [
    ((0, 10, 0), "dimension n must be >= 1"),
    ((2.5, 10, 0), "dimension n must be an integer"),
    ((0, 0, -1), "dimension n must be >= 1"),
    ((3, 0, 0), "count must be >= 1"),
    ((3, 2.5, 0), "count must be an integer"),
    ((3, 0, -1), "count must be >= 1"),
    ((3, 10, -1), "seed must be a nonnegative integer"),
    ((3, 10, 1.5), "seed must be an integer"),
    ((1, 10, -1), "seed must be a nonnegative integer"),
])
def test_an_invalid_sample_request_raises_and_leaves_no_entry(args, message):
    _MEMO.cache_clear()
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        sample_sphere(*args)
    assert _MEMO.cache_info().currsize == 0


@pytest.mark.parametrize("m", [identity_map(3), complex_square_map(),
                               random_admissible_map(n=4, seed=7),
                               blackbox_of(random_admissible_map(n=4, seed=7))],
                         ids=["identity3", "complex_square", "random_admissible4", "blackbox4"])
@pytest.mark.parametrize("seed", [0, 3])
def test_a_check_on_a_memoized_sample_is_the_check_on_a_fresh_one(m, seed):
    check_hypotheses(m, count=2048, seed=seed)
    warm = check_hypotheses(m, count=2048, seed=seed)
    _MEMO.cache_clear()
    cold = check_hypotheses(m, count=2048, seed=seed)
    assert warm.sample is not cold.sample
    assert json.dumps(warm.to_json_dict()) == json.dumps(cold.to_json_dict())
    assert warm.images.tobytes() == cold.images.tobytes()
    assert warm.image_norms.tobytes() == cold.image_norms.tobytes()


def test_a_per_row_black_box_gets_read_only_rows():
    # its argument is a view of the shared sample's row: a callback that
    # wrote into it once changed report.sample.points without a word
    def body(x):
        x *= 2.0
        return np.array(x)

    m = MapSpec(BlackBox(eval=body, declared_kappa=1.0), n=3)
    with pytest.raises(ValueError, match="read-only"):
        check_hypotheses(m, count=50, seed=4)
    fresh = _unit_directions(_rng(4, hypotheses._SALT_SPHERE), 50, 3)
    assert sample_sphere(3, 50, 4).points.tobytes() == fresh.tobytes()


# ------------------------------------------------------------------ extrema


def test_extrema_radial_cube_unit():
    s = sample_sphere(3, 2000, seed=0)
    ext = estimate_extrema(radial_cube_map(3), s)
    assert ext.c0 == pytest.approx(1.0, abs=1e-6)
    assert ext.c_max == pytest.approx(1.0, abs=1e-6)


def test_extrema_identity_unit():
    s = sample_sphere(3, 1000, seed=0)
    ext = estimate_extrema(identity_map(3), s)
    assert ext.c0 == pytest.approx(1.0, abs=1e-9)
    assert ext.c_max == pytest.approx(1.0, abs=1e-9)


def test_extrema_diag_matches_singular_values():
    # |diag(1,2,3) w| over the sphere ranges over [1, 3] (the extreme
    # singular values), attained at the first and last axes
    s = sample_sphere(3, 1000, seed=0)
    ext = estimate_extrema(diag_map((1.0, 2.0, 3.0)), s)
    assert ext.c0 == pytest.approx(1.0, abs=1e-4)
    assert ext.c_max == pytest.approx(3.0, abs=1e-4)
    assert abs(ext.argmin[0]) == pytest.approx(1.0, abs=1e-4)
    assert abs(ext.argmax[2]) == pytest.approx(1.0, abs=1e-4)


def test_refined_extrema_bracket_sampled_values():
    s = sample_sphere(4, 1500, seed=3)
    m = random_admissible_map(n=4, seed=7)
    ext = estimate_extrema(m, s)
    assert ext.c0 <= ext.c0_sampled + 1e-15
    assert ext.c_max >= ext.c_max_sampled - 1e-15


@pytest.mark.parametrize("norms", [np.ones(5), np.ones((100, 1)), np.ones((100, 3))],
                         ids=["too-few", "column", "matrix"])
def test_estimate_extrema_rejects_image_norms_of_another_shape(norms):
    # one norm per sample point, or the arg-extrema index another sample
    with pytest.raises(InvalidInputError, match="image_norms"):
        estimate_extrema(radial_cube_map(3), sample_sphere(3, 100, seed=0), image_norms=norms)


def test_sampled_extrema_monotone_in_nested_samples():
    m = diag_map((1.0, 2.0, 3.0))
    prev_min, prev_max = np.inf, -np.inf
    for count in (500, 1000, 2000, 4000):
        s = sample_sphere(3, count, seed=11)
        ext = estimate_extrema(m, s)
        assert ext.c0_sampled <= prev_min + 1e-15
        assert ext.c_max_sampled >= prev_max - 1e-15
        prev_min, prev_max = ext.c0_sampled, ext.c_max_sampled


def test_reported_extrema_monotone_within_refinement_slack():
    # the reported values include local refinement, which is deterministic
    # but starts from sample-dependent points; monotonicity holds up to the
    # refinement's own convergence tolerance
    m = random_admissible_map(n=4, seed=7)
    prev_min, prev_max = np.inf, -np.inf
    for count in (500, 1000, 2000):
        rep = check_hypotheses(m, count=count, seed=11)
        assert rep.c0_empirical <= prev_min + 1e-9
        assert rep.c_empirical >= prev_max - 1e-9
        prev_min, prev_max = rep.c0_empirical, rep.c_empirical


# ------------------------------------------------------------ Jacobian check


def test_jacobian_check_complex_square_value():
    # det Df = 4(x^2 + y^2) = 4 on the unit circle
    s = sample_sphere(2, 2000, seed=0)
    chk = check_jacobian_nonvanishing(complex_square_map(), s)
    assert chk.verdict == "pass"
    assert chk.min_abs_det == pytest.approx(4.0, abs=1e-6)


def test_jacobian_check_identity():
    s = sample_sphere(3, 1000, seed=0)
    chk = check_jacobian_nonvanishing(identity_map(3), s)
    assert chk.verdict == "pass"
    assert chk.min_abs_det == pytest.approx(1.0, abs=1e-9)


def test_jacobian_check_axis_cube_fails():
    # det Df = 27 (x1 x2 x3)^2 vanishes on the coordinate planes; the
    # refinement must drive the sampled minimum below the 1e-12 tolerance
    s = sample_sphere(3, 10_000, seed=0)
    chk = check_jacobian_nonvanishing(axis_cube_map(3), s)
    assert chk.verdict == "fail"
    assert chk.min_abs_det < 1e-12


def _exact_det_and_permanent(A):
    det = perm = Fraction(0)
    for p in permutations(range(len(A))):
        prod = math.prod((Fraction(A[i][p[i]]) for i in range(len(A))), start=Fraction(1))
        inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
        det += -prod if inversions % 2 else prod
        perm += abs(prod)
    return det, perm


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 50), st.floats(0.0, 0.4), st.integers(0, 2**32 - 1))
@example(3, 50, 0.2, 0)
@example(4, 50, 0.0, 1)
def test_closed_form_det_is_within_the_summed_products_bound(n, count, zero_share, seed):
    # entries of magnitude 1e-30 to 1e30 with zeros, zero rows and repeated
    # rows: each determinant is within 16 eps perm(|J|) of the exact one,
    # taken in rationals from the float entries (Higham, ASNA §3)
    rng = np.random.default_rng(seed)
    J = (rng.choice([-1.0, 1.0], (count, n, n)) * 10.0 ** rng.uniform(-30.0, 30.0, (count, n, n)))
    J[rng.random((count, n, n)) < zero_share] = 0.0
    for k, kind in enumerate(rng.integers(0, 3, count)):
        i, j = rng.integers(0, n, 2)
        if kind == 1:
            J[k, i] = 0.0
        elif kind == 2:
            J[k, i] = J[k, j]
    got = hypotheses._det(J)
    assert got.shape == (count,)
    for d, A in zip(got, J.tolist()):
        exact, perm = _exact_det_and_permanent(A)
        assert abs(Fraction(d) - exact) <= 16 * Fraction(np.finfo(float).eps) * perm


@pytest.mark.parametrize("n", [5, 6])
def test_det_from_five_dimensions_on_is_lapacks(n):
    J = np.random.default_rng(n).standard_normal((300, n, n)) * 10.0 ** np.arange(n)
    assert np.array_equal(hypotheses._det(J), np.linalg.det(J))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_of_an_empty_stack_is_empty(n):
    got = hypotheses._det(np.empty((0, n, n)))
    assert got.shape == (0,) and got.dtype == float


def test_a_closed_form_that_overflows_takes_lapacks_value():
    # 1e160 * 1e160 overflows: the closed form of the first matrix is
    # inf - inf = nan, where LAPACK gives about 1.56e304.  A nan row would
    # win np.argmin and hide the second matrix's determinant of 1e-13.
    J = np.array([[[1.0, 0.0, 0.0], [0.0, 1e160, 1e160], [0.0, 1e160, 1e160 * (1.0 + 2.0**-52)]],
                  np.diag([1e-3, 1.0, 1e-10])])
    dets = hypotheses._det(J)  # no RuntimeWarning: the suite makes them errors
    assert dets[0] == np.linalg.det(J[:1])[0] and np.isfinite(dets[0])
    sample = sample_sphere(3, 2, seed=0)
    chk = check_jacobian_nonvanishing(identity_map(3), sample, _dets=hypotheses._det(J))
    # the refinement starts at the second sample point, where the identity's
    # determinant is 1 everywhere, so it stays there
    assert np.allclose(chk.argmin, sample.points[1], rtol=0.0, atol=1e-15)
    assert chk.min_abs_det == abs(dets[1]) == pytest.approx(1e-13, rel=1e-15)
    assert chk.verdict == "fail"


# The sample scan as it was before the closed forms, one LAPACK factorization
# per row, kept as the reference the closed-form scan must match.  Only the
# maps whose |det Df| is constant on the sphere, where rounding alone picks
# the sampled argmin, may move: min |det Df| by at most 4 ulps there.
_DET_SCAN_MAPS = {**acceptance_maps(), "reflection3": reflection_map(3),
                  "axis_cube3": axis_cube_map(3), "complex_square": complex_square_map(),
                  "random_admissible5": random_admissible_map(n=5, seed=5),
                  "blackbox_radial_cube3": blackbox_of(radial_cube_map(3))}
_CONSTANT_DET = {"complex_square", "radial_cube3", "radial_linear123", "blackbox_radial_cube3"}


@pytest.mark.parametrize("name", sorted(_DET_SCAN_MAPS))
def test_report_matches_the_lapack_det_scan(name, monkeypatch):
    m = _DET_SCAN_MAPS[name]
    count = 2000 if name.startswith("blackbox") else None
    for seed in range(6):
        got = check_hypotheses(m, count=count, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(hypotheses, "_det", np.linalg.det)
            want = check_hypotheses(m, count=count, seed=seed)
        assert (got.status, got.reasons) == (want.status, want.reasons)
        got_json, want_json = got.to_json_dict(), want.to_json_dict()
        if name in _CONSTANT_DET:
            ulps = abs(int(np.float64(got_json.pop("min_abs_det_j")).view(np.int64))
                       - int(np.float64(want_json.pop("min_abs_det_j")).view(np.int64)))
            assert ulps <= 4
            del got_json["argmin_det"], want_json["argmin_det"]
        assert got_json == want_json


def test_the_check_factorizes_no_stack_of_jacobians(monkeypatch):
    # the sample scan is elementwise; LAPACK sees only the refinement's
    # rungs, each call's as one stack of exactly its rung count right after
    # it is asked for (one matrix at the start of the walk, a line search's
    # ladder after that), and its gradients, 2n matrices each
    log = []
    lapack = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: log.append(("det", np.shape(a))) or lapack(a))
    refine = hypotheses._refine_on_sphere

    def logged(rungs_fn, w0, mode, **kw):
        return refine(lambda W: log.append(("rungs", len(W))) or rungs_fn(W), w0, mode, **kw)

    monkeypatch.setattr(hypotheses, "_refine_on_sphere", logged)
    for m in (random_admissible_map(n=4, seed=7, kappa=3.5), radial_cube_map(3)):
        log.clear()
        report = check_hypotheses(m)
        assert report.status == "pass"
        stacks = [(i, shape) for i, (kind, shape) in enumerate(log) if kind == "det"]
        assert stacks and ("det", (2 * m.n, m.n, m.n)) in log
        for i, (count, *square) in stacks:
            assert square == [m.n, m.n] and count != report.sample_count
            assert count == 2 * m.n or log[i - 1] == ("rungs", count)
        assert any(shape[0] not in (1, 2 * m.n) for _, shape in stacks)  # a ladder


# The sample scan as one block of all the rows, kept as the reference the
# blocked scan must match to the bit: one kernel call, the library's row
# norms, and the determinants of the whole stack.
def _whole_batch_scan(m, X):
    F, J = _eval_jac_batch(m, X)
    return F, _norms(F), hypotheses._det(J)


_ROWS = hypotheses._SCAN_ROWS

_POLY_MAPS = st.one_of(st.builds(random_polymap_spec, st.integers(0, 2**32 - 1), n_max=st.just(6)),
                       st.builds(random_admissible_map, n=st.integers(1, 6),
                                 seed=st.integers(0, 2**32 - 1)))

_PERTURBED = st.builds(perturbed_radial_blackbox, kappa=st.floats(1.0, 4.0),
                       shift=st.tuples(*[st.floats(-0.05, 0.05)] * 3))


def _recording_blackbox(m, with_jacobian, batched, log):
    def body(x):
        log.append(("eval", np.array(x).tobytes()))
        return eval_map(m, x)

    def jac(x):
        log.append(("jacobian", np.array(x).tobytes()))
        return eval_jacobian_batch(m, x) if batched else eval_jacobian_batch(m, x[None, :])[0]

    return MapSpec(BlackBox(eval=body, declared_kappa=m.kappa, batched=batched,
                            jacobian=jac if with_jacobian else None), n=m.n)


_RADIAL4 = random_admissible_map(n=4, seed=7)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_POLY_MAPS,
                 st.builds(blackbox_of, _POLY_MAPS, with_jacobian=st.booleans()),
                 _PERTURBED,
                 st.builds(_recording_blackbox, _POLY_MAPS, st.booleans(), st.just(False),
                           st.builds(list))),
       st.sampled_from([1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 7]),
       st.integers(0, 2**32 - 1))
@example(random_admissible_map(n=6, seed=1), 3 * _ROWS + 7, 0)
@example(random_polymap_spec(6, n_max=6), _ROWS + 1, 0)  # n = 2, weighted; a one-row last block
@example(random_polymap_spec(5, n_max=6), _ROWS + 1, 0)  # n = 6, plain
@example(blackbox_of(_RADIAL4), 1, 0)  # batched black boxes at every count
@example(blackbox_of(_RADIAL4), 2, 0)
@example(blackbox_of(_RADIAL4), _ROWS - 1, 0)
@example(blackbox_of(_RADIAL4), _ROWS, 0)
@example(blackbox_of(_RADIAL4), _ROWS + 1, 0)
@example(blackbox_of(_RADIAL4), 3 * _ROWS + 7, 0)
@example(blackbox_of(_RADIAL4, with_jacobian=True), 1, 0)
@example(blackbox_of(_RADIAL4, with_jacobian=True), 2, 0)
@example(blackbox_of(_RADIAL4, with_jacobian=True), _ROWS - 1, 0)
@example(blackbox_of(_RADIAL4, with_jacobian=True), _ROWS, 0)
@example(blackbox_of(_RADIAL4, with_jacobian=True), _ROWS + 1, 0)
@example(blackbox_of(_RADIAL4, with_jacobian=True), 3 * _ROWS + 7, 0)
@example(perturbed_radial_blackbox(), 3 * _ROWS + 7, 0)
@example(_recording_blackbox(_RADIAL4, False, False, []), _ROWS + 1, 0)  # per-row bodies
@example(_recording_blackbox(_RADIAL4, True, False, []), _ROWS + 1, 0)
def test_blocked_scan_equals_the_whole_batch_scan(m, count, seed):
    if not getattr(m.body, "batched", True):
        count = min(count, _ROWS + 1)  # a per-row body makes a call a row
    X = sample_sphere(m.n, count, seed).points
    got = hypotheses._sample_scan(m, X)
    for g, w in zip(got, _whole_batch_scan(m, X)):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_the_scan_stops_its_determinants_at_the_first_block_that_overflows():
    # f1 overflows where x1 + x2 > 1.06, as in the first block
    m = parse_map("n = 3; f1 = 1.7e308 x1 + 1.7e308 x2; f2 = x2; f3 = x3")
    X = sample_sphere(3, 3 * _ROWS + 7, seed=0).points
    with np.errstate(all="ignore"):
        images, norms, dets = hypotheses._sample_scan(m, X)
        want = _whole_batch_scan(m, X)
        everything = hypotheses._sample_scan(m, X, dets="all")
    assert dets is None and not np.isfinite(images[:_ROWS]).all()
    assert np.array_equal(images, want[0]) and np.array_equal(norms, want[1])
    for g, w in zip(everything, want):
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("bad, error", [(0.0, UndefinedAtOriginError), (np.nan, InvalidInputError)])
def test_a_hand_made_sample_is_checked_before_the_scan(bad, error):
    s = sample_sphere(3, 10, seed=0)
    points = s.points.copy()
    points[4] = bad
    for m in (radial_cube_map(3), blackbox_of(radial_cube_map(3))):
        for check in (estimate_extrema, check_jacobian_nonvanishing):
            with pytest.raises(error):
                check(m, SphereSample(points, s.count, s.n, s.seed))


def test_the_check_evaluates_and_factorizes_at_most_one_block_at_a_time(monkeypatch):
    # no kernel call and no np.linalg.det call sees more than one block of
    # the sample, whose default size at n = 5 is 24 blocks and 848 rows
    rows, stacks = [], []
    table = PolyMap._power_table
    lapack = np.linalg.det
    monkeypatch.setattr(PolyMap, "_power_table", lambda body, X: rows.append(len(X))
                        or table(body, X))
    monkeypatch.setattr(np.linalg, "det", lambda a: stacks.append(len(a)) or lapack(a))
    for m in (random_admissible_map(n=5, seed=5), random_admissible_map(n=4, seed=7),
              axis_cube_map(3), diag_map((1.0, 2.0, 3.0))):
        rows.clear()
        report = check_hypotheses(m)
        assert report.sample_count > _ROWS
        assert max(rows) == _ROWS and rows.count(_ROWS) == report.sample_count // _ROWS
    assert max(stacks) == _ROWS  # the n = 5 sample's blocks and the refinement
    for m in (random_admissible_map(n=5, seed=5), axis_cube_map(3)):
        rows.clear()
        sample = sample_sphere(m.n, 3 * _ROWS + 7, seed=1)
        estimate_extrema(m, sample)
        check_jacobian_nonvanishing(m, sample)
        assert max(rows) == _ROWS


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.builds(random_polymap_spec, st.integers(0, 2**32 - 1), n_max=st.just(6)),
                 st.builds(random_admissible_map, n=st.integers(1, 6),
                           seed=st.integers(0, 2**32 - 1))),
       st.sampled_from([1, _ROWS, _ROWS + 1]), st.integers(0, 2**32 - 1))
def test_the_values_only_scan_keeps_the_scans_images_and_norms(m, count, seed):
    X = sample_sphere(m.n, count, seed).points
    images, norms, dets = hypotheses._sample_scan(m, X, dets=None)
    want = hypotheses._sample_scan(m, X)
    assert dets is None
    assert np.array_equal(images, want[0]) and np.array_equal(norms, want[1])


@pytest.mark.parametrize("m", [random_admissible_map(n=4, seed=7), diag_map((1.0, 2.0, 3.0))],
                         ids=["weighted", "plain"])
def test_estimate_extrema_alone_scans_the_sample_for_values_only(m, monkeypatch):
    # every block of the sample is evaluated, and none is differentiated;
    # the refinement's Jacobians are of its rungs, a few dozen rows a call
    values, jacobians = [], []
    evaluate, jacobian = PolyMap.evaluate, PolyMap.jacobian
    monkeypatch.setattr(PolyMap, "evaluate", lambda body, X, _table=None: values.append(len(X))
                        or evaluate(body, X, _table))
    monkeypatch.setattr(PolyMap, "jacobian", lambda body, X, _table=None: jacobians.append(len(X))
                        or jacobian(body, X, _table))
    sample = sample_sphere(m.n, 2 * _ROWS, seed=2)
    got = estimate_extrema(m, sample)
    assert values.count(_ROWS) == 2 and jacobians and max(jacobians) < 100
    monkeypatch.undo()
    want = estimate_extrema(m, sample, image_norms=hypotheses._sample_scan(m, sample.points)[1])
    for field in ("c0", "c_max", "argmin", "argmax", "c0_sampled", "c_max_sampled"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


# The sphere refinement as it was before its line searches were batched, one
# point a call, kept as the reference the ladder walk must match to the bit.
def _reference_retract(w, step, g):
    cand = w + step * g
    nrm = float(np.linalg.norm(cand))
    return cand / nrm if nrm > 0.0 else None


def _reference_refine(value_fn, w0, mode, grad_fn, max_iter=200, step_tol=1e-10):
    w = np.array(w0, dtype=float)
    w /= np.linalg.norm(w)
    best = float(value_fn(w))
    sgn = 1.0 if mode == "max" else -1.0
    t = 1.0
    for _ in range(max_iter):
        g = grad_fn(w)
        g = g - np.dot(g, w) * w
        gn = float(np.linalg.norm(g))
        if gn == 0.0 or not np.isfinite(gn):
            break
        t = min(t * 4.0, 1e8)
        moved = False
        while t * gn >= step_tol:
            cand = _reference_retract(w, sgn * t, g)
            val = None if cand is None else float(value_fn(cand))
            if val is not None and sgn * (val - best) > 0.0:
                while t * gn >= step_tol:
                    cand2 = _reference_retract(w, sgn * t * 0.5, g)
                    val2 = None if cand2 is None else float(value_fn(cand2))
                    if val2 is not None and sgn * (val2 - val) > 0.0:
                        t, cand, val = t * 0.5, cand2, val2
                    else:
                        break
                w, best = cand, val
                moved = True
                break
            t *= 0.5
        if not moved:
            break
    return w, best


def _reference_norm_walk(m, w0, mode):
    def sq(w):
        v = _eval_batch(m, w[None, :])[0]
        return float(v @ v)

    def grad(w):
        F, J = _eval_jac_batch(m, w[None, :])
        return 2.0 * (J[0].T @ F[0])

    return _reference_refine(sq, w0, mode, grad)


def _reference_det_walk(m, w0):
    def abs_dets(W):
        return np.abs(np.linalg.det(_jacobian_batch(m, W)))

    return _reference_refine(lambda w: float(abs_dets(w[None, :])[0]), w0, "min",
                             lambda w: hypotheses._fd_tangent_gradient(abs_dets, w))


def _walk(m, w0, walk, reference=False):
    """``(point, value)`` of the ``"min"``, ``"max"`` or ``"det"`` walk."""
    if walk == "det":
        return (_reference_det_walk if reference else hypotheses._refine_det)(m, w0)
    return (_reference_norm_walk if reference else hypotheses._refine_norm)(m, w0, walk)


def _walk_start(m, walk, sampled, seed):
    """The check's start, the sampled arg-extremum of a 300-point sample, or
    a random unit point."""
    if not sampled:
        w = np.random.default_rng(seed).standard_normal(m.n)
        return w / np.linalg.norm(w)
    X = sample_sphere(m.n, 300, seed).points
    if walk == "det":
        return X[np.argmin(np.abs(np.linalg.det(_jacobian_batch(m, X))))]
    norms = np.linalg.norm(_eval_batch(m, X), axis=1)
    return X[np.argmax(norms) if walk == "max" else np.argmin(norms)]


def _bits(point_and_value):
    w, v = point_and_value
    return np.append(w, v).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.builds(random_polymap_spec, st.integers(0, 2**32 - 1), n_max=st.just(6)),
                 st.builds(random_admissible_map, n=st.integers(1, 6),
                           seed=st.integers(0, 2**32 - 1)),
                 _PERTURBED),
       st.sampled_from(["min", "max", "det"]), st.booleans(), st.integers(0, 2**32 - 1))
@example(random_admissible_map(n=4, seed=7), "min", True, 0)
@example(random_admissible_map(n=4, seed=7), "max", True, 0)
@example(random_admissible_map(n=4, seed=7), "det", True, 0)
@example(random_admissible_map(n=6, seed=6), "det", False, 1)
@example(axis_cube_map(3), "det", True, 0)  # walks down to a zero of det Df
@example(perturbed_radial_blackbox(), "min", True, 3)
def test_the_ladder_walk_equals_the_reference_walk_bit_for_bit(m, walk, sampled, seed):
    w0 = _walk_start(m, walk, sampled, seed)
    assert _bits(_walk(m, w0, walk)) == _bits(_walk(m, w0, walk, reference=True))


_BLACKBOXES = pytest.mark.parametrize("with_jacobian, batched",
                                      [(False, False), (True, False), (False, True),
                                       (True, True)],
                                      ids=["differences", "callback", "batched-differences",
                                           "batched-callback"])


def _rows_read(log, n):
    """Every ``(kind, row)`` that the calls in a recording black box's log
    were given, a row as its bytes: a batched call gives many."""
    return {(kind, row.tobytes()) for kind, x in log for row in np.frombuffer(x).reshape(-1, n)}


def _counting_ladders(monkeypatch):
    """The length of every ladder ``_refine_on_sphere`` evaluates from now on,
    its start point included, in a list."""
    ladders = []
    refine = hypotheses._refine_on_sphere
    monkeypatch.setattr(hypotheses, "_refine_on_sphere", lambda rungs_fn, w0, mode: refine(
        lambda W: ladders.append(len(W)) or rungs_fn(W), w0, mode))
    return ladders


@_BLACKBOXES
@pytest.mark.parametrize("walk", ["min", "max", "det"])
def test_a_blackbox_walk_makes_the_reference_calls(walk, with_jacobian, batched, monkeypatch):
    # a black box, per-row or batched, walks as a polynomial body does, each
    # ladder in one kernel call: every row the one-point reference evaluates
    # is among the ladder walk's rows, and the result is the reference's
    log = []
    m = _recording_blackbox(random_admissible_map(n=4, seed=7), with_jacobian, batched, log)
    w0 = _walk_start(m, walk, True, 2)
    ladders = _counting_ladders(monkeypatch)
    log.clear()
    got = _walk(m, w0, walk)
    calls = log[:]
    log.clear()
    want = _walk(m, w0, walk, reference=True)
    assert len(log) > 50 and _rows_read(log, m.n) <= _rows_read(calls, m.n)
    assert _bits(got) == _bits(want)
    if batched:
        # a |f|**2 ladder is one call for the values and one for the
        # Jacobians; a det ladder one for its Jacobians and, at the accepted
        # rung, one for its gradient's 2n points.  28 to 46 calls here, where
        # one rung a call made 82 to 136
        assert len(calls) <= 2 * len(ladders)


@_BLACKBOXES
def test_a_blackbox_check_makes_the_reference_calls(with_jacobian, batched, monkeypatch):
    log = []
    m = _recording_blackbox(radial_linear_map((1.0, 2.0, 3.0), kappa=2.0), with_jacobian,
                            batched, log)
    got = check_hypotheses(m, count=300, seed=1)
    calls = log[:]
    log.clear()
    monkeypatch.setattr(hypotheses, "_refine_norm", _reference_norm_walk)
    monkeypatch.setattr(hypotheses, "_refine_det", _reference_det_walk)
    want = check_hypotheses(m, count=300, seed=1)
    assert _rows_read(log, m.n) <= _rows_read(calls, m.n)
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("name, tables", [("random_admissible4", 84), ("radial_linear123", 45)])
def test_the_refinement_makes_one_kernel_call_a_step_and_two_a_det_step(name, tables,
                                                                        monkeypatch):
    # one kernel call starts each walk; then each iteration of a |f|**2 walk
    # makes at most one (its ladder, whose rows carry the next gradient), and
    # each of the det walk at most two (its gradient's 2n points and its
    # ladder).  One point a call made 261 and 159 calls.
    calls, walks = [], []  # every power table; each walk's tables and iterations
    table = PolyMap._power_table
    monkeypatch.setattr(PolyMap, "_power_table", lambda body, X: calls.append(len(X))
                        or table(body, X))
    refine = hypotheses._refine_on_sphere

    def counted(rungs_fn, w0, mode, **kw):
        def rungs(W):
            value, grad = rungs_fn(W)

            def counted_grad(k):
                walks[-1][1] += 1
                return grad(k)
            return value, counted_grad
        walks.append([len(calls), 0])
        point_and_value = refine(rungs, w0, mode, **kw)
        walks[-1][0] = len(calls) - walks[-1][0]
        return point_and_value

    monkeypatch.setattr(hypotheses, "_refine_on_sphere", counted)
    check_hypotheses(acceptance_maps()[name])
    assert len(calls) == tables
    assert len(walks) == 3  # min and max of |f|**2, then min of |det Df|
    for (walk_tables, iterations), per_iteration in zip(walks, (1, 1, 2)):
        assert 0 < walk_tables <= 1 + per_iteration * iterations


# ------------------------------------------------------------- aggregation


def test_check_hypotheses_radial_cube_passes():
    rep = check_hypotheses(radial_cube_map(3), count=2000, seed=0)
    assert rep.overall == "pass" and rep.status == "pass"
    assert rep.reasons == ()
    assert rep.homogeneity_residual < 1e-10


def test_check_hypotheses_complex_square_warns():
    rep = check_hypotheses(complex_square_map(), count=2000, seed=0)
    assert rep.status == "hypotheses-met-but-n<3"
    assert rep.overall == "fail"
    assert "dimension-below-3" in rep.reasons


def test_check_hypotheses_axis_cube_fails_on_jacobian():
    rep = check_hypotheses(axis_cube_map(3), count=2000, seed=0)
    assert rep.status == "fail"
    assert "jacobian-vanishes" in rep.reasons


def test_check_hypotheses_zero_map_fails_on_vanishing():
    rep = check_hypotheses(zero_map(3), count=500, seed=0)
    assert rep.status == "fail"
    assert "vanishes-on-sphere" in rep.reasons


def test_check_hypotheses_flags_inhomogeneous_blackbox():
    rep = check_hypotheses(perturbed_radial_blackbox(), count=500, seed=0)
    assert rep.status == "fail"
    assert "homogeneity-residual" in rep.reasons


def _scaled_radial_cube(scale):
    return MapSpec(PolyMap(3, [[(scale * c, e) for c, e in terms]
                               for terms in radial_cube_map(3).body.components]))


@pytest.mark.parametrize("m", [
    # |f|**2, which the refinement walks, overflows off the plane x1 = 0: C = inf
    parse_map("n = 3; f1 = 1e200 x1^3 + x2^3; f2 = x2^3; f3 = x3^3"),
    # finite, moderate |f| with a determinant of 3e360 on the sphere
    _scaled_radial_cube(1e120),
], ids=["norms-overflow", "det-overflows"])
def test_a_report_with_values_that_are_not_finite_fails(m):
    # the images are finite, but a value that is not finite is no verdict:
    # nan > HOMOGENEITY_TOL is false and inf > DET_TOL is true
    with np.errstate(all="ignore"):
        rep = check_hypotheses(m, count=500, seed=0)
    assert (rep.status, rep.overall, rep.reasons) == ("fail", "fail", ("non-finite-values",))
    with pytest.raises(PreconditionError, match="non-finite-values"):
        invert(m, np.array([1.0, 2.0, 3.0]), report=rep)


def test_images_above_1e154_have_finite_norms_and_still_fail():
    # the sample's norms are finite, and so are c0, min|det Df| and the
    # residual; C stays inf because the refinement walks |f|**2, whose value
    # and gradient overflow, so the map fails for non-finite-values only
    m = parse_map("n = 3; f1 = 1e200 x1^3 + x2^3; f2 = x2^3; f3 = x3^3")
    with np.errstate(over="ignore", invalid="ignore"):  # the refinement's |f|**2
        rep = check_hypotheses(m)
    assert np.isfinite(rep.images).all() and np.isfinite(rep.image_norms).all()
    assert rep.image_norms.max() > 1e199
    assert np.array_equal(rep.image_norms, _norms(rep.images))
    assert (rep.status, rep.reasons) == ("fail", ("non-finite-values",))
    assert np.isfinite([rep.c0_empirical, rep.min_abs_det_j, rep.homogeneity_residual]).all()
    assert rep.c_empirical == np.inf


def test_an_infinite_image_keeps_the_report_of_values_that_are_not_finite():
    # a NaN image entry counts as 0 and an infinite one keeps C = inf; the
    # scaled norm of the largest finite float would read C = 1.8e308
    m = parse_map("n = 3; f1 = 1.7e308 x1 + 1.7e308 x2; f2 = x2; f3 = x3")
    with np.errstate(over="ignore"):  # the map itself overflows
        rep = check_hypotheses(m)
    assert rep.status == "fail"
    assert rep.reasons == ("non-finite-values", "vanishes-on-sphere", "homogeneity-residual",
                           "jacobian-vanishes")
    assert (rep.c0_empirical, rep.c_empirical, rep.min_abs_det_j) == (0.0, np.inf, 0.0)


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_blackbox_with_nonfinite_images_is_called_for_the_images_only(with_jacobian):
    calls, jac_calls = [], []

    def body(x):
        calls.append(np.array(x))
        return np.array([np.nan, 0.0, 1.0])

    def jac(x):
        jac_calls.append(np.array(x))
        return np.eye(3)

    m = MapSpec(BlackBox(eval=body, declared_kappa=1.0,
                         jacobian=jac if with_jacobian else None), n=3)
    for count in (40, _ROWS + 1):  # one block, and two
        calls.clear()
        report = check_hypotheses(m, count=count, seed=0)
        assert "non-finite-values" in report.reasons
        # one call a sample row, in order: no finite-difference rows and no callback
        assert np.array_equal(np.array(calls), report.sample.points)
        assert jac_calls == []


@pytest.mark.parametrize("kappa, shift", [(3.0, (0.01, 0.0, 0.0)), (3.0, (0.0, 0.0, 0.0)),
                                          (3.5, (0.0, -0.02, 0.01)), (1.5, (0.0, 0.0, 0.0))])
def test_batched_blackbox_report_equals_the_per_row_report(kappa, shift):
    batched = perturbed_radial_blackbox(kappa=kappa, shift=shift)
    per_row = MapSpec(BlackBox(eval=batched.body.eval, declared_kappa=kappa), n=3)
    got = check_hypotheses(batched, count=2000, seed=4)
    want = check_hypotheses(per_row, count=2000, seed=4)
    assert got.to_json_dict() == want.to_json_dict()
    assert np.array_equal(got.images, want.images)


@pytest.mark.parametrize("name", sorted(acceptance_maps()))
def test_blackbox_of_reports_as_its_map(name):
    # The finite-difference report is held to tolerances, not to the bits:
    # its Jacobians are differences, so the refinement of |f| takes other
    # steps (c0 on random_admissible4 can differ in its last digit).  The
    # exact-Jacobian body reaches the polynomial's own kernels on the same
    # rows, so its report is the polynomial's.
    m = acceptance_maps()[name]
    want = check_hypotheses(m, count=2000, seed=4)
    fd = check_hypotheses(blackbox_of(m), count=2000, seed=4)
    for got, ref, rel in ((fd.c0_empirical, want.c0_empirical, 1e-12),
                          (fd.c_empirical, want.c_empirical, 1e-12),
                          (fd.min_abs_det_j, want.min_abs_det_j, 1e-6)):
        assert abs(got - ref) <= rel * ref
    assert (fd.status, fd.reasons) == (want.status, want.reasons)
    exact = check_hypotheses(blackbox_of(m, with_jacobian=True), count=2000, seed=4)
    assert exact.to_json_dict() == want.to_json_dict()


def test_blackbox_check_makes_a_bounded_number_of_evaluator_calls(monkeypatch):
    # a batched body's sample scan, finite-difference sample Jacobians and
    # homogeneity residual take one or two calls each; a per-row body took
    # 14 390 calls here, one a row.  The sphere refinement makes at most two
    # calls a ladder (values and Jacobians, or a det ladder's Jacobians and
    # its accepted rung's 2n gradient points): 7 calls on 4 ladders here, 11
    # in all, where one rung a call made 28, 32 in all
    inner = blackbox_of(radial_cube_map(3)).body
    rows = []

    def _eval(x):
        rows.append(len(x))
        return inner.eval(x)

    m = MapSpec(BlackBox(eval=_eval, declared_kappa=3.0, batched=True), n=3)
    ladders = _counting_ladders(monkeypatch)
    report = check_hypotheses(m, count=2000, seed=0)
    assert report.status == "pass"
    assert rows[0] == 2000  # the sample scan
    assert rows.count(2 * 3 * 2000) == 1  # the sample's Jacobians
    assert rows[-2:] == [106, 106]  # the homogeneity residual, 100 rows + ladder
    refinement = rows[1:-2]
    refinement.remove(2 * 3 * 2000)
    assert len(refinement) <= 2 * len(ladders) and len(rows) <= 11


@pytest.mark.parametrize("with_jacobian", [False, True], ids=["differences", "callback"])
def test_a_blackbox_check_calls_its_evaluator_with_one_block_at_most(with_jacobian):
    # the sample scan hands a batched body one block of the sample a call,
    # and its finite differences the 2n shifted rows of one block; one call
    # on the whole sample passed 180 000 rows to eval here
    log = []
    m = _recording_blackbox(radial_linear_map((1.0, 2.0, 3.0), kappa=2.0), with_jacobian,
                            True, log)
    report = check_hypotheses(m)
    assert report.status == "pass" and report.sample_count > 2 * 3 * _ROWS
    rows = {"eval": [], "jacobian": []}
    for kind, x in log:  # x holds the call's rows of three floats, as bytes
        rows[kind].append(len(x) // (3 * 8))
    assert max(rows["eval"]) == (_ROWS if with_jacobian else 2 * 3 * _ROWS)
    assert max(rows["jacobian"], default=0) == (_ROWS if with_jacobian else 0)


_SHARED_SCAN_MAPS = {**acceptance_maps(), "axis_cube3": axis_cube_map(3),
                     "complex_square": complex_square_map(), "zero3": zero_map(3),
                     **{f"random{k}": random_polymap_spec(k) for k in range(6)}}


@pytest.mark.parametrize("name", sorted(_SHARED_SCAN_MAPS))
def test_report_equals_the_separate_checks_bit_for_bit(name):
    # the report reads images and Jacobians from one shared call; the public
    # functions compute them apart
    m, count, seed = _SHARED_SCAN_MAPS[name], 800, 3
    report = check_hypotheses(m, count=count, seed=seed)
    sample = sample_sphere(m.n, count, seed)
    images = eval_map(m, sample.points)
    norms = _norms(images)
    ext = estimate_extrema(m, sample, image_norms=norms)
    jac = check_jacobian_nonvanishing(m, sample)
    assert np.array_equal(report.images, images)
    assert np.array_equal(report.image_norms, norms)
    assert (report.c0_empirical, report.c_empirical, report.min_abs_det_j) == (
        ext.c0, ext.c_max, jac.min_abs_det)
    for got, want in ((report.argmin_f, ext.argmin), (report.argmax_f, ext.argmax),
                      (report.argmin_det, jac.argmin)):
        assert np.array_equal(got, want)
    assert report.homogeneity_residual == homogeneity_residual(m, count=100, seed=seed)


def test_report_matches_only_its_map():
    rep = check_hypotheses(radial_cube_map(3), count=500)
    assert rep.matches(radial_cube_map(3))
    assert not rep.matches(diag_map((1.0, 2.0, 3.0)))
    assert not rep.matches(MapSpec(radial_cube_map(3).body, kappa=4.0))
    assert "fingerprint" not in rep.to_json_dict()
    bb = blackbox_of(radial_cube_map(3), with_jacobian=True)
    bb_rep = check_hypotheses(bb, count=500)
    assert bb_rep.matches(bb)
    assert not bb_rep.matches(blackbox_of(radial_cube_map(3), with_jacobian=True))
    assert not bb_rep.matches(radial_cube_map(3))


def test_report_matches_a_black_box_by_value():
    bb = blackbox_of(radial_cube_map(3), with_jacobian=True)
    rep = check_hypotheses(bb, count=500)
    body = bb.body
    twin = BlackBox(eval=body.eval, declared_kappa=body.declared_kappa,
                    jacobian=body.jacobian, batched=body.batched)
    assert twin is not body
    assert rep.matches(MapSpec(twin, n=3))
    per_row = BlackBox(eval=body.eval, declared_kappa=body.declared_kappa,
                       jacobian=body.jacobian, batched=not body.batched)
    assert not rep.matches(MapSpec(per_row, n=3))


def test_report_caches_image_norms():
    rep = check_hypotheses(random_admissible_map(n=4, seed=7, kappa=3.5), count=600)
    assert np.array_equal(rep.image_norms, _norms(rep.images))
    assert rep.c0_empirical <= rep.image_norms.min()
    assert rep.c_empirical >= rep.image_norms.max()
    assert "image_norms" not in rep.to_json_dict()


def test_check_hypotheses_deterministic():
    a = check_hypotheses(radial_linear_map((1.0, 2.0, 3.0), kappa=2.0), count=1500, seed=3)
    b = check_hypotheses(radial_linear_map((1.0, 2.0, 3.0), kappa=2.0), count=1500, seed=3)
    assert a.to_json_dict() == b.to_json_dict()


def test_report_json_dict_key_order():
    rep = check_hypotheses(identity_map(3), count=300, seed=0)
    keys = list(rep.to_json_dict().keys())
    assert keys == [
        "n", "kappa", "sample_count", "seed", "c0_empirical", "c_empirical",
        "min_abs_det_j", "homogeneity_residual", "n_verdict",
        "overall", "status", "reasons", "notes", "argmin_f", "argmax_f",
        "argmin_det",
    ]


def test_report_json_dict_holds_exactly_the_repr_fields():
    rep = check_hypotheses(blackbox_of(diag_map((1.0, 2.0, 3.0))), count=300, seed=0)
    doc = rep.to_json_dict()
    assert list(doc) == [f.name for f in dataclasses.fields(rep) if f.repr]
    assert json.loads(json.dumps(doc)) == doc


# ------------------------------------------------------------------ bracket


def test_bracket_radial_cube():
    rep = check_hypotheses(radial_cube_map(3), count=2000, seed=0)
    eta = np.array([0.0, 0.0, 8.0])
    r_lo, r_hi = coercivity_bracket(rep, eta, 3.0)
    assert r_lo == pytest.approx(2.0, abs=1e-6)
    assert r_hi == pytest.approx(2.0, abs=1e-6)


def test_bracket_identity():
    rep = check_hypotheses(identity_map(3), count=2000, seed=0)
    r_lo, r_hi = coercivity_bracket(rep, np.array([3.0, 4.0, 0.0]), 1.0)
    assert r_lo == pytest.approx(5.0, abs=1e-6)
    assert r_hi == pytest.approx(5.0, abs=1e-6)


def test_bracket_diag_contains_true_preimage():
    rep = check_hypotheses(diag_map((1.0, 2.0, 3.0)), count=4000, seed=0)
    r_lo, r_hi = coercivity_bracket(rep, np.array([0.0, 0.0, 3.0]), 1.0)
    assert r_lo == pytest.approx(1.0, abs=1e-4)
    assert r_hi == pytest.approx(3.0, abs=1e-4)
    # the true preimage (0, 0, 1) has norm 1; the bracket must contain it
    # up to the standard slack
    assert r_lo - 1e-9 * r_hi <= 1.0 <= r_hi + 1e-9 * r_hi


def test_bracket_rejects_zero_target():
    rep = check_hypotheses(identity_map(3), count=300, seed=0)
    with pytest.raises(InvalidInputError):
        coercivity_bracket(rep, np.zeros(3), 1.0)


def test_bracket_rejects_an_order_other_than_the_reports():
    rep = check_hypotheses(radial_cube_map(3), count=300, seed=0)
    eta = np.array([0.0, 0.0, 8.0])
    for kappa in (2.0, 3.0 + 1e-12, float("nan")):
        with pytest.raises(InvalidParameterError, match="order the report was computed at"):
            coercivity_bracket(rep, eta, kappa)
    assert coercivity_bracket(rep, eta, 3) == coercivity_bracket(rep, eta, np.float32(3.0))


def test_bracket_requires_positive_minimum():
    rep = check_hypotheses(zero_map(3), count=300, seed=0)
    with pytest.raises(NoBracketError):
        coercivity_bracket(rep, np.array([1.0, 0.0, 0.0]), 1.0)
