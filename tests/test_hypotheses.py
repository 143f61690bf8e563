"""Sphere sampling, extrema estimation, and the hypothesis verdicts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hominv import (
    InvalidInputError,
    InvalidParameterError,
    NoBracketError,
    PolyMap,
    MapSpec,
    axis_cube_map,
    blackbox_of,
    certify_c0_lower,
    check_hypotheses,
    check_jacobian_nonvanishing,
    coercivity_bracket,
    complex_square_map,
    diag_map,
    estimate_extrema,
    identity_map,
    perturbed_radial_blackbox,
    poly_lipschitz_bound,
    radial_cube_map,
    radial_linear_map,
    random_admissible_map,
    sample_sphere,
)
from hominv.hypotheses import _covering_radius


def zero_map(n=3):
    return MapSpec(PolyMap(n, [[] for _ in range(n)]))


# ---------------------------------------------------------------- sampling


def test_sample_sphere_unit_norms():
    s = sample_sphere(3, 500, seed=1)
    assert np.allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)
    assert s.count == 500 and s.n == 3 and s.seed == 1


def test_sample_sphere_deterministic():
    a = sample_sphere(3, 1000, seed=7)
    b = sample_sphere(3, 1000, seed=7)
    assert np.array_equal(a.points, b.points)
    assert a.covering_radius_estimate == b.covering_radius_estimate


def test_sample_sphere_nested_prefix():
    # the first N1 points of a larger draw coincide with the smaller draw,
    # which is what makes the sampled extrema monotone in N
    small = sample_sphere(3, 400, seed=5)
    big = sample_sphere(3, 1600, seed=5)
    assert np.array_equal(big.points[:400], small.points)


def test_covering_radius_matches_brute_force():
    s = sample_sphere(3, 400, seed=2)
    D = cdist(s.points, s.points)
    np.fill_diagonal(D, np.inf)
    brute = float(D.min(axis=1).max())
    assert s.covering_radius_estimate == pytest.approx(brute, rel=1e-12)


# few distinct coordinates, so that repeated rows are common; -0.0 and 0.0
# are the same point although their bytes differ
_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_COORD, min_size=n, max_size=n), min_size=2, max_size=12)))
@example([[0.0, 1.0], [-0.0, 1.0]])
@example([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]])
@example([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
def test_covering_radius_flags_repeated_rows_and_matches_brute_force(rows):
    P = np.array(rows, dtype=float)
    radius, repeated = _covering_radius(P)
    assert repeated == (len(np.unique(P, axis=0)) < len(P))
    D = cdist(P, P)
    np.fill_diagonal(D, np.inf)
    assert radius == pytest.approx(float(D.min(axis=1).max()), rel=1e-12, abs=0.0)


def test_covering_radius_single_point_falls_back_to_diameter():
    assert _covering_radius(np.array([[0.0, 1.0, 0.0]])) == (2.0, False)


def test_covering_radius_below_p15_at_1e4():
    s = sample_sphere(3, 10_000, seed=0)
    assert s.covering_radius_estimate < 0.15


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


# -------------------------------------------------------------- certificates


def test_certify_radial_cube():
    s = sample_sphere(3, 100_000, seed=0)
    lower = certify_c0_lower(radial_cube_map(3), s, lipschitz_bound=3.0)
    assert lower > 0.9


def test_certify_identity():
    s = sample_sphere(3, 100_000, seed=0)
    lower = certify_c0_lower(identity_map(3), s, lipschitz_bound=1.0)
    assert lower > 0.9


def test_certify_zero_map_is_zero():
    s = sample_sphere(3, 500, seed=0)
    assert certify_c0_lower(zero_map(3), s, lipschitz_bound=1.0) == 0.0


def test_certify_rejects_nonpositive_lipschitz():
    s = sample_sphere(3, 100, seed=0)
    with pytest.raises(InvalidParameterError):
        certify_c0_lower(radial_cube_map(3), s, lipschitz_bound=0.0)
    with pytest.raises(InvalidParameterError):
        certify_c0_lower(radial_cube_map(3), s, lipschitz_bound=-1.0)


def test_report_c0_lower_equals_certificate_on_its_sample():
    for m in (identity_map(3), radial_cube_map(3)):
        rep = check_hypotheses(m, count=20_000, seed=2)
        assert rep.c0_lower == certify_c0_lower(m, rep.sample)
    assert check_hypotheses(identity_map(3), count=20_000, seed=2).c0_lower > 0.0


def test_certificate_never_exceeds_empirical_minimum():
    s = sample_sphere(3, 5000, seed=4)
    for m in (radial_cube_map(3), diag_map((1.0, 2.0, 3.0))):
        ext = estimate_extrema(m, s)
        assert certify_c0_lower(m, s) <= ext.c0 + 1e-15


def test_poly_lipschitz_bound_values():
    # sum over monomials of |coeff| * degree
    assert poly_lipschitz_bound(radial_cube_map(3)) == 27.0
    assert poly_lipschitz_bound(identity_map(3)) == 3.0
    with pytest.raises(InvalidParameterError):
        poly_lipschitz_bound(blackbox_of(identity_map(3)))


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
        "c0_lower", "min_abs_det_j", "homogeneity_residual", "n_verdict",
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
