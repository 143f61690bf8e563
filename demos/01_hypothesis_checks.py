"""
Checking the inversion hypotheses on sample maps
================================================

Walks through the diagnostic pipeline that every map goes through
before inversion: sphere sampling, image-norm extrema and the
coercivity bracket they give, the Jacobian nonvanishing test, and the
aggregated verdict.  Run from anywhere; map files are resolved relative to this
script.
"""

from pathlib import Path

import numpy as np

from hominv import (
    blackbox_of,
    check_hypotheses,
    check_jacobian_nonvanishing,
    coercivity_bracket,
    estimate_extrema,
    homogeneity_residual,
    parse_map,
    perturbed_radial_blackbox,
    sample_sphere,
)

MAPS = Path(__file__).parent / "maps"

# ---------------------------------------------------------------
# 1. A well-behaved map: the radial cube f(x) = |x|^2 x in R^3.
#    On the unit sphere |f| is identically 1, so both norm extrema
#    should land on 1 and the coercivity bracket is tight.
# ---------------------------------------------------------------

m = parse_map((MAPS / "radial_cube3.map").read_text())
print("radial cube: n =", m.n, " kappa =", m.kappa)

sample = sample_sphere(m.n, 4000, seed=0)
print("sphere sample: count =", sample.count, " n =", sample.n)

ext = estimate_extrema(m, sample)
print("sampled extrema:  c0 =", ext.c0_sampled, " C =", ext.c_max_sampled)
print("refined extrema:  c0 =", ext.c0, " C =", ext.c_max)

# Here |f| is constant on the sphere, so there is nothing to refine.
# On diag(1, 2, 3) it ranges over [1, 3].  Samples of one seed are
# nested, so the sampled minimum can only fall and the sampled maximum
# only rise as the sample grows; the projected-gradient refinement
# then walks from the sampled arg-extrema to 1 and 3 at every size.
# Both are estimates, not certified bounds.
diag = parse_map((MAPS / "diag123.map").read_text())
for count in (100, 1000, 10000):
    e = estimate_extrema(diag, sample_sphere(diag.n, count, seed=0))
    print("diag123, N =", count, ": sampled", (e.c0_sampled, e.c_max_sampled),
          " refined", (e.c0, e.c_max))

jc = check_jacobian_nonvanishing(m, sample)
print("min |det Df| on the sphere:", jc.min_abs_det, " verdict:", jc.verdict)

report = check_hypotheses(m, count=4000)
print("aggregated status:", report.status, " reasons:", report.reasons)

# By homogeneity c0 |xi|^3 <= |f(xi)| <= C |xi|^3, so every preimage
# of eta lies in the shell r_lo <= |xi| <= r_hi.  Here |f| = 1 on the
# sphere, so the shell is the single radius |eta|^(1/3) = 2.
eta = np.array([0.0, 0.0, 8.0])
print("coercivity bracket for eta =", eta, ":",
      coercivity_bracket(report, eta, m.kappa))
print()

# ---------------------------------------------------------------
# 2. The planar square map (x^2 - y^2, 2xy).  Every pointwise test
#    passes, but the dimension is 2, so the verdict is only a
#    warning: global injectivity is not guaranteed down here (demo
#    03 shows it actually failing).
# ---------------------------------------------------------------

m2 = parse_map((MAPS / "complex_square.map").read_text())
report2 = check_hypotheses(m2, count=4000)
print("planar square status:", report2.status, " reasons:", report2.reasons)
print("  c0 =", report2.c0_empirical, " C =", report2.c_empirical,
      " min|det Df| =", report2.min_abs_det_j)
print()

# ---------------------------------------------------------------
# 3. The componentwise cube (x1^3, x2^3, x3^3).  Its Jacobian
#    determinant 27 (x1 x2 x3)^2 vanishes on the coordinate planes,
#    which cross the sphere, so the check must fail.  The sampled
#    minimum alone can miss this; the projected-gradient refinement
#    drives |det| down to the zero set.
# ---------------------------------------------------------------

m3 = parse_map((MAPS / "axis_cube3.map").read_text())
report3 = check_hypotheses(m3, count=4000)
print("axis cube status:", report3.status, " reasons:", report3.reasons)
print("  refined min|det Df| =", report3.min_abs_det_j)
print()

# ---------------------------------------------------------------
# 4. A black box that lies about its homogeneity: |x|^2 x plus a
#    constant shift of 0.01.  An honest wrapper of the radial cube
#    sits at rounding level; the shifted one blows up, because at
#    tau = 1e-3 the true image shrinks by tau^3 = 1e-9 while the
#    additive shift stays put, so the relative deviation grows like
#    0.01 / tau^3.  Small tau magnifies additive cheating.
# ---------------------------------------------------------------

honest = blackbox_of(parse_map((MAPS / "radial_cube3.map").read_text()))
print("honest blackbox scaling residual:   ",
      homogeneity_residual(honest, count=50, seed=0))

m4 = perturbed_radial_blackbox()
print("perturbed blackbox scaling residual:",
      homogeneity_residual(m4, count=50, seed=0))
report4 = check_hypotheses(m4, count=4000)
print("perturbed blackbox status:", report4.status, " reasons:", report4.reasons)
