"""Sphere sampling, extrema estimation, and the hypothesis verdicts."""

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
    acceptance_maps,
    axis_cube_map,
    blackbox_of,
    check_hypotheses,
    check_jacobian_nonvanishing,
    coercivity_bracket,
    complex_square_map,
    diag_map,
    estimate_extrema,
    eval_map,
    homogeneity_residual,
    identity_map,
    perturbed_radial_blackbox,
    radial_cube_map,
    radial_linear_map,
    random_admissible_map,
    random_polymap_spec,
    sample_sphere,
)
from hominv.hypotheses import _distinct_unit_rows, _has_repeated_rows


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


# few distinct coordinates, so that repeated rows are common; -0.0 and 0.0
# are the same point although their bytes differ
_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])

# The tests named for the covering radius check the repeated-row test that
# took over from the covering-radius search's flag: a sample has a repeated
# row exactly when some row's nearest-neighbour gap is zero.


def _brute_repeated(P):
    """Every pair in blocks: squared differences summed in coordinate order;
    True when some row's nearest other row is at distance zero."""
    for a in range(0, len(P), 256):
        rows = P[a:a + 256]
        d = np.zeros((len(rows), len(P)))
        for c in range(P.shape[1]):
            diff = rows[:, None, c] - P[None, :, c]
            d += diff * diff
        d[np.arange(len(rows)), a + np.arange(len(rows))] = np.inf
        if np.any(d == 0.0):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_COORD, min_size=n, max_size=n), min_size=2, max_size=12)))
@example([[0.0, 1.0], [-0.0, 1.0]])
@example([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]])
@example([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
def test_covering_radius_flags_repeated_rows_and_matches_brute_force(rows):
    P = np.array(rows, dtype=float)
    expected = len(np.unique(P, axis=0)) < len(P)
    assert _has_repeated_rows(P) == expected == _brute_repeated(P)


def test_covering_radius_finds_a_repeat_among_rows_sharing_a_first_coordinate():
    # every row shares its first coordinate, so only the sort by every
    # column tells the rows apart; the last row repeats the first
    rows = np.column_stack([np.full(200, 0.5), np.linspace(0.0, 1e-3, 200)])
    assert not _has_repeated_rows(rows)
    assert _has_repeated_rows(np.vstack([rows, rows[:1]]))
    # -0.0 and 0.0 are the same point, in the first column and elsewhere
    assert _has_repeated_rows(np.array([[0.0, 1.0], [0.5, 0.5], [-0.0, 1.0]]))
    assert _has_repeated_rows(np.array([[0.5, 0.0], [0.5, 1.0], [0.5, -0.0]]))


def test_covering_radius_of_equal_rows_is_zero():
    P = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    assert _has_repeated_rows(P) and _brute_repeated(P)
    assert not _has_repeated_rows(P[:1])


def test_has_repeated_rows_in_one_dimension():
    assert not _has_repeated_rows(np.array([[1.0], [-1.0]]))
    assert _has_repeated_rows(np.array([[1.0], [-1.0], [1.0]]))
    assert _has_repeated_rows(np.array([[0.0], [-0.0]]))


def test_covering_radius_below_p15_at_1e4():
    # the largest nearest-neighbour gap of a default-size sample at n = 3
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    s = sample_sphere(3, 10_000, seed=0)
    dists, _ = cKDTree(s.points).query(s.points, k=2)
    assert 0.0 < float(dists[:, 1].max()) < 0.15


_KD_CASES = ([(n, 10_000 * n, seed) for n in (2, 3, 4) for seed in range(5)]
             + [(n, 2000, 0) for n in (2, 3, 4)] + [(5, 5000, 0)])


@pytest.mark.parametrize("n,count,seed", _KD_CASES)
def test_covering_radius_equals_the_kd_tree_to_the_bit(n, count, seed):
    # on full-size samples, and on them with one row repeated, the
    # repeated-row test agrees with a k-d tree's zero nearest-neighbour gap
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    s = sample_sphere(n, count, seed)
    rng = np.random.default_rng(seed)
    copied = np.insert(s.points, rng.integers(0, count + 1), s.points[rng.integers(0, count)],
                       axis=0)
    for P in (s.points, copied):
        dists, _ = cKDTree(P).query(P, k=2)
        assert _has_repeated_rows(P) == bool(np.any(dists[:, 1] == 0.0))
    assert not _has_repeated_rows(s.points) and _has_repeated_rows(copied)


def _point_set(n, N, seed, kinds):
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((N, n))
    P /= np.linalg.norm(P, axis=1)[:, None]
    if "caps" in kinds:  # three tight clusters
        centres = P[rng.integers(0, N, 3)]
        P = centres[rng.integers(0, 3, N)] + 1e-3 * rng.standard_normal((N, n))
    if "far" in kinds:  # isolated rows
        far = rng.choice(N, min(N, 3), replace=False)
        P[far] = 10.0 * np.arange(1, len(far) + 1)[:, None] * P[far]
    if "duplicates" in kinds:  # copies, and copies with -0.0 for 0.0
        src, dst = rng.integers(0, N, (2, N // 10 + 1))
        P[src, 0] = np.where(rng.random(len(src)) < 0.5, 0.0, P[src, 0])
        P[dst] = P[src]
        P[dst, 0] = np.where(P[src, 0] == 0.0, -0.0, P[dst, 0])
    if "ties" in kinds:  # half the rows share their first coordinate
        P[rng.random(N) < 0.5, 0] = 0.25
    return P


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), N=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1),
       kinds=st.sets(st.sampled_from(["caps", "far", "duplicates", "ties"])))
@example(n=3, N=2, seed=0, kinds=set())
@example(n=2, N=3000, seed=1, kinds={"far", "duplicates", "ties"})
@example(n=4, N=500, seed=2, kinds={"caps", "duplicates"})
def test_covering_radius_equals_the_brute_force_on_hard_point_sets(n, N, seed, kinds):
    P = _point_set(n, N, seed, kinds)
    assert _has_repeated_rows(P) == _brute_repeated(P)


@pytest.mark.parametrize("n,N,kinds", [
    (9, 1500, set()),
    (12, 1200, {"far", "ties"}),
    (12, 800, {"caps", "duplicates"}),
    (16, 600, {"duplicates", "far"}),
    (400, 60, {"duplicates", "ties"}),
])
def test_covering_radius_equals_the_brute_force_in_many_dimensions(n, N, kinds):
    P = _point_set(n, N, n, kinds)
    assert _has_repeated_rows(P) == _brute_repeated(P)


def _rare_path_loop(block, rng, count):
    """The per-row rare path of ``sample_sphere`` that ``_distinct_unit_rows``
    replaced, kept as its reference; like it, it stops drawing once ``n = 1``
    has both of its points."""
    seen, rows = {}, []

    def push(row):
        nrm = float(np.linalg.norm(row))
        if nrm <= 1e-12 or not np.isfinite(nrm):
            return
        u = row / nrm
        key = u.tobytes()
        if key not in seen:
            seen[key] = None
            rows.append(u)

    for row in block:
        push(row)
    n, attempts = block.shape[1], 0
    while len(rows) < count and attempts < 64 and not (n == 1 and len(rows) == 2):
        for row in rng.standard_normal((count - len(rows), n)):
            push(row)
        attempts += 1
    return np.asarray(rows).reshape(-1, block.shape[1])


# zero, tiny, non-finite and signed-zero coordinates among ordinary ones
_RARE_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-13, 1e-300, np.inf, np.nan]),
    st.floats(-3.0, 3.0),
)


@st.composite
def _rare_blocks(draw):
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(_RARE_COORD, min_size=n, max_size=n),
                         min_size=1, max_size=count))
    # repeats of drawn rows, some with the sign of their zeros flipped
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=count - len(rows))):
        flip = draw(st.booleans())
        rows.append([(-c if flip and c == 0.0 else c) for c in rows[k]])
    return np.array(rows, dtype=float), count, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_rare_blocks())
@example((np.zeros((1, 1)), 3, 0))
@example((np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]), 3, 1))
def test_distinct_unit_rows_equals_the_per_row_loop(case):
    block, count, seed = case
    ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ours = _distinct_unit_rows(block, ours_rng, count)
    ref = _rare_path_loop(block, ref_rng, count)
    assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()
    # the same draws were taken
    assert ours_rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_sphere_in_one_dimension_keeps_both_points():
    s = sample_sphere(1, 10_000, seed=0)
    assert s.count == 2 and sorted(s.points.ravel()) == [-1.0, 1.0]


class _CountingGenerator:
    """A generator that counts the rows it is asked to draw."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def standard_normal(self, shape):
        self.draws += 1
        return self.rng.standard_normal(shape)


def test_distinct_unit_rows_stops_drawing_once_one_dimension_has_both_points():
    # S^0 = {-1, 1}: no top-up round can add a row once both are kept
    block = np.array([[2.0], [-0.5], [3.0]])
    rng = _CountingGenerator(0)
    rows = _distinct_unit_rows(block, rng, 10_000)
    assert rows.tolist() == [[1.0], [-1.0]] and rng.draws == 0
    # a draw of one sign keeps drawing until the other sign comes
    rng = _CountingGenerator(0)
    rows = _distinct_unit_rows(np.array([[2.0], [3.0]]), rng, 10_000)
    assert sorted(rows.ravel()) == [-1.0, 1.0] and rng.draws == 1


def test_sample_sphere_rejects_bad_arguments():
    with pytest.raises(InvalidParameterError):
        sample_sphere(0, 10)
    with pytest.raises(InvalidParameterError):
        sample_sphere(3, 0)


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
    report = check_hypotheses(m, count=40, seed=0)
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
    # steps (c0 on random_admissible4 can differ in its last digit).
    # Nor does a blackbox_of body match itself declared per row: a one-row
    # polynomial evaluation rounds differently from a batched one.  The
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


def test_blackbox_check_makes_a_bounded_number_of_evaluator_calls():
    # a batched body's sample scan, finite-difference sample Jacobians and
    # homogeneity residual take one or two calls each; a per-row body took
    # 14 390 calls here, one a row.  The sphere refinement calls with one
    # point (or its 2n shifted rows) at a time, 33 calls here.
    inner = blackbox_of(radial_cube_map(3)).body
    rows = []

    def _eval(x):
        rows.append(len(x))
        return inner.eval(x)

    m = MapSpec(BlackBox(eval=_eval, declared_kappa=3.0, batched=True), n=3)
    report = check_hypotheses(m, count=2000, seed=0)
    assert report.status == "pass"
    assert rows[0] == 2000  # the sample scan
    assert rows.count(2 * 3 * 2000) == 1  # the sample's Jacobians
    assert rows[-2:] == [106, 106]  # the homogeneity residual, 100 rows + ladder
    refinement = rows[1:-2]
    refinement.remove(2 * 3 * 2000)
    assert max(refinement) <= 2 * 3
    assert len(rows) <= 48


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
    norms = np.linalg.norm(images, axis=1)
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


def test_report_caches_image_norms():
    rep = check_hypotheses(random_admissible_map(n=4, seed=7, kappa=3.5), count=600)
    assert np.array_equal(rep.image_norms, np.linalg.norm(rep.images, axis=1))
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


def test_bracket_requires_positive_minimum():
    rep = check_hypotheses(zero_map(3), count=300, seed=0)
    with pytest.raises(NoBracketError):
        coercivity_bracket(rep, np.array([1.0, 0.0, 0.0]), 1.0)
