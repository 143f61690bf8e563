"""Empirical verification of the global-invertibility hypotheses.

For a positively homogeneous map of order ``kappa`` on ``R^n \\ {0}``, global
bijectivity (with a homogeneous inverse of order ``1/kappa``) is guaranteed
when the map is continuously differentiable off the origin, its Jacobian
determinant never vanishes there, and ``n >= 3``.  Everything can be decided
on the unit sphere: writing ``c0 = min_{|w|=1} |f(w)|`` and
``C = max_{|w|=1} |f(w)|``, homogeneity gives the coercivity estimate
``c0 |xi|**kappa <= |f(xi)| <= C |xi|**kappa``, so any preimage of a target
``eta`` satisfies ``(|eta|/C)**(1/kappa) <= |xi| <= (|eta|/c0)**(1/kappa)``.

This module samples the sphere, estimates ``c0``, ``C``, and
``min |det Df|`` with local refinement, measures the homogeneity residual,
and aggregates the verdicts into a :class:`HypothesisReport`.  Every body's
sample, polynomial or black box, is scanned in blocks of ``_SCAN_ROWS``
rows: each block's images, their norms and its Jacobian determinants, with
no stack of the whole sample's Jacobians and no evaluator call of more than
one block.  The refinement evaluates each line search's ladder of steps in
one batch, whatever the body.
In dimension 2 the checks can all pass while injectivity still fails (the
planar squaring map is the canonical example), so ``n >= 3`` is reported as
its own gate.

All estimates are empirical: sampled quantities refined by projected
gradient, not certified bounds.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NoBracketError,
    PreconditionError,
    UndefinedAtOriginError,
)
from .mapcore import (
    MapSpec,
    PolyMap,
    _as_matrix,
    _eval_batch,
    _eval_jac_batch,
    _integer,
    _jacobian_batch,
    _norms,
    _rng,
    _row_norms,
    _seed,
    _unit_directions,
    homogeneity_residual,
)

__all__ = [
    "SphereSample",
    "ExtremaEstimate",
    "JacobianCheck",
    "HypothesisReport",
    "sample_sphere",
    "estimate_extrema",
    "check_jacobian_nonvanishing",
    "check_hypotheses",
    "coercivity_bracket",
    "DEFAULT_SAMPLES_PER_DIM",
    "HOMOGENEITY_TOL",
    "DET_TOL",
]

_SALT_SPHERE = 131

#: default sphere-sample budget: 10**4 points per dimension (pragmatic; there
#: is no principled modulus of continuity to size the sample from)
DEFAULT_SAMPLES_PER_DIM = 10_000

#: verdict threshold for the sampled homogeneity residual; exactly
#: homogeneous maps measure ~1e-15, declared-order mismatches measure >= 1e-3
HOMOGENEITY_TOL = 1e-8

#: verdict threshold for min |det Df| on the sphere
DET_TOL = 1e-12

#: rows per block of the sample scan (``_sample_scan``): a block's power
#: table, basis, Jacobians and determinants stay in cache.  On a 2-core
#: Haswell machine the scan of random_admissible4's 40 000 rows took 16.4,
#: 15.2, 13.4, 13.9 and 20.8 ms at 512, 1024, 2048, 4096 and 8192 rows per
#: block, and 31 ms in one block
_SCAN_ROWS = 2048

_REFINE_MAX_ITER = 200
_REFINE_STEP_TOL = 1e-10

#: coordinate step of the refinement's central-difference tangent gradient
_FD_GRADIENT_STEP = 1e-6

#: report status when every analytic check passed but ``n < 3``
_STATUS_WARN = "hypotheses-met-but-n<3"

_UnitImages = namedtuple("_UnitImages", "directions unusable usable scales")


@dataclass(frozen=True)
class SphereSample:
    """A seeded sample of the unit sphere ``S^{n-1}``.

    For ``n = 1`` the sphere is ``{+1, -1}`` and the sample is ``[+1, -1]``
    (or ``[+1]``), whatever the seed, so ``count`` saturates at 2.  A sample
    from :func:`sample_sphere` is shared: every call with its ``(n, count,
    seed)`` returns the same object, so its ``points`` are read-only.
    """

    points: np.ndarray
    count: int
    n: int
    seed: int


def sample_sphere(n: int, count: int, seed: int = 0) -> SphereSample:
    """Draw ``count`` unit vectors from a seeded generator.

    Normalized standard-Gaussian rows; for a fixed seed the samples are
    nested: the first ``k`` points of a larger draw coincide with a smaller
    draw's points, which makes sampled extrema monotone in ``count``.  In
    R^1 the sample is ``+1, -1`` and nothing is drawn.

    The sample is drawn once per process for each key ``(n, count, seed)``,
    with ``count`` after the R^1 cap and ``seed`` as an ``int``, and the
    four most recently used samples are kept (``_drawn_sample``): a repeated
    call returns the same :class:`SphereSample`, whose ``points`` are
    read-only.  Only an exact key is served, never a prefix of a larger
    sample.  The memo holds at most four samples of ``8 * count * n``
    bytes each; at the default count a sample takes 0.72 MB at ``n = 3``
    and 1.28 MB at ``n = 4``, so four take 2.9 MB and 5.1 MB.
    """
    n = _integer(n, 1, "dimension n")
    count = _integer(count, 1, "count")
    count = min(count, 2) if n == 1 else count
    return _drawn_sample(n, count, _seed(seed))


@lru_cache(maxsize=4)
def _drawn_sample(n: int, count: int, seed: int) -> SphereSample:
    """The sample of :func:`sample_sphere` for checked ``(n, count, seed)``,
    its points made read-only so that every caller can share it."""
    points = _unit_directions(_rng(seed, _SALT_SPHERE), count, n)
    points.flags.writeable = False
    return SphereSample(points, count, n, seed)


def _fd_tangent_gradient(values_fn, w: np.ndarray) -> np.ndarray:
    """Central differences at ``w``, step ``_FD_GRADIENT_STEP``, along each
    coordinate of ``values_fn``, which maps a batch of unit rows to their
    values: the ``2n`` shifted points are put back on the sphere and
    evaluated in one call."""
    steps = _FD_GRADIENT_STEP * np.eye(len(w))
    shifted = np.vstack([w + steps, w - steps])
    v = values_fn(shifted / _row_norms(shifted)[:, None])
    return (v[:len(w)] - v[len(w):]) / (2.0 * _FD_GRADIENT_STEP)


def _refine_on_sphere(rungs_fn, w0: np.ndarray, mode: str):
    """Projected-gradient extremum refinement constrained to the unit sphere.

    ``rungs_fn`` maps an ``(L, n)`` batch of unit rows to ``(values,
    grad)``: the array of the ``L`` rows' scalar values, and ``grad(k)``,
    the gradient at row ``k``, whose tangent part is used.

    Each iteration steps along the (ascending or descending) tangent
    gradient ``g``.  Its line search is a ladder of steps ``t, t/2, t/4,
    ...``, from four times the last accepted step (at most ``1e8``; 1 before
    the first) down to the first ``t`` with ``t |g| < _REFINE_STEP_TOL``;
    each rung ``w + t g`` (``w - t g`` to descend) is put back on the
    sphere; ``g`` is tangent, so a rung's norm is at least about 1.  The
    whole ladder is one ``rungs_fn`` call.  The first rung that improves on the
    current value is taken, then halved while each halving improves on the
    last, so the accepted point sits near the ray's one-dimensional optimum
    instead of zigzagging across it.  The walk stops when no rung improves,
    the gradient vanishes, or after ``_REFINE_MAX_ITER`` iterations.
    Returns ``(point, value)``, the value a Python float.  The kernels give
    a row the same bits in every batch, so this is bit for bit the line
    search that evaluates one step at a time.
    """
    w = np.array(w0, dtype=float)
    w /= _row_norms(w)
    values, grad = rungs_fn(w[None, :])
    best, k = float(values[0]), 0
    sgn = 1.0 if mode == "max" else -1.0
    t = 1.0
    for _ in range(_REFINE_MAX_ITER):
        g = grad(k)
        g = g - np.dot(g, w) * w
        gn = float(_row_norms(g))
        if gn == 0.0 or not np.isfinite(gn):
            break
        steps = [min(t * 4.0, 1e8)]
        while steps[-1] * gn >= _REFINE_STEP_TOL:
            steps.append(steps[-1] * 0.5)
        # rungs 0 .. last - 1 meet the tolerance; rung ``last`` is read only
        # as the halving of rung last - 1
        last = len(steps) - 1
        if last == 0:
            break
        W = w + (sgn * np.array(steps))[:, None] * g
        W /= _row_norms(W)[:, None]
        values, grad = rungs_fn(W)
        vals = values.tolist()
        for k in range(last):
            if sgn * ((val := vals[k]) - best) > 0.0:
                # shrink the improving step while shrinking keeps helping
                while k < last and sgn * (vals[k + 1] - val) > 0.0:
                    k, val = k + 1, vals[k + 1]
                break
        else:  # no rung improves
            break
        w, best, t = W[k], val, steps[k]
    return np.array(w), best


def _refine_norm(m: MapSpec, w0: np.ndarray, mode: str):
    """Refine ``|f(w)|**2`` from ``w0`` (``mode`` ``"min"`` or ``"max"``) with
    its exact gradient ``2 Df(w)^T f(w)``.  Each ladder, whatever the body,
    is one :func:`_eval_jac_batch` call, whose rows also give the accepted
    rung's gradient.  The refinement evaluates unit vectors only, so the
    unvalidated kernels serve."""

    def rungs(W):
        F, J = _eval_jac_batch(m, W)
        return (F[:, None, :] @ F[:, :, None])[:, 0, 0], lambda k: 2.0 * (J[k].T @ F[k])

    return _refine_on_sphere(rungs, w0, mode)


def _refine_det(m: MapSpec, w0: np.ndarray):
    """Refine ``|det Df(w)|`` down from ``w0`` with a finite-difference
    tangent gradient.  Each ladder, whatever the body, takes one Jacobian
    call and one stacked ``np.linalg.det``; so does the gradient's ``2n``
    points, taken at the accepted rung only."""

    def abs_dets(W):
        return np.abs(np.linalg.det(_jacobian_batch(m, W)))

    def rungs(W):
        return abs_dets(W), lambda k: _fd_tangent_gradient(abs_dets, W[k])

    return _refine_on_sphere(rungs, w0, "min")


@dataclass(frozen=True)
class ExtremaEstimate:
    """Sphere extrema of ``|f|``: refined values plus the raw sampled ones.

    ``c0`` / ``c_max`` come from projected-gradient descent/ascent of
    ``|f(w)|**2`` started at the sampled arg-extrema; refinement can only
    widen the sampled estimate (``c0 <= c0_sampled``, ``c_max >=
    c_max_sampled``).
    """

    c0: float
    c_max: float
    argmin: np.ndarray
    argmax: np.ndarray
    c0_sampled: float
    c_max_sampled: float


def estimate_extrema(m: MapSpec, sample: SphereSample,
                     image_norms: np.ndarray | None = None) -> ExtremaEstimate:
    """Estimate ``min`` and ``max`` of ``|f|`` over the unit sphere.

    Evaluates ``|f|`` on the sample by the blocked scan of
    :func:`_sample_scan`, values only, whatever the body (or reuses
    ``image_norms``, the precomputed norms of the sample's images, one per
    sample point), then refines both arg-extrema with projected gradient on
    ``|f(w)|**2`` using the exact gradient ``2 Df(w)^T f(w)``.  Each line
    search takes ``f`` and ``Df`` at all its steps in one call, whatever the
    body, and the accepted step's rows give the next gradient
    (:func:`_refine_norm`).
    """
    if sample.n != m.n:
        raise InvalidInputError("sample dimension disagrees with the map")
    if image_norms is None:
        mags = _scan(m, sample, dets=None)[1]
    else:
        mags = np.asarray(image_norms, dtype=float)
        if mags.shape != (len(sample.points),):
            raise InvalidInputError("image_norms must hold one norm per sample point")
    i0 = int(np.argmin(mags))
    i1 = int(np.argmax(mags))

    w_min, v_min = _refine_norm(m, sample.points[i0], "min")
    w_max, v_max = _refine_norm(m, sample.points[i1], "max")
    c0 = min(float(np.sqrt(max(v_min, 0.0))), float(mags[i0]))
    c_max = max(float(np.sqrt(max(v_max, 0.0))), float(mags[i1]))
    return ExtremaEstimate(
        c0=c0,
        c_max=c_max,
        argmin=w_min,
        argmax=w_max,
        c0_sampled=float(mags[i0]),
        c_max_sampled=float(mags[i1]),
    )


@dataclass(frozen=True)
class JacobianCheck:
    """Minimum of ``|det Df|`` over the sphere sample, after refinement."""

    min_abs_det: float
    argmin: np.ndarray
    verdict: str  # "pass" | "fail"


def _det(J: np.ndarray) -> np.ndarray:
    """Determinants of a ``(B, n, n)`` stack, in closed form for ``n <= 4``.

    ``n = 2`` is ``ad - bc``, ``n = 3`` the cofactor expansion along the
    first row, and ``n = 4`` the Laplace expansion by the complementary 2x2
    minors of rows (0, 1) and (2, 3): one elementwise pass over the stack
    instead of an LU factorization per matrix.  Each value is within
    ``16 eps perm(|J|)`` of the exact determinant (the standard bound for
    summed products, Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3).  A matrix whose closed form is not finite, as when an
    intermediate product overflows to ``inf - inf``, takes LAPACK's value;
    so does every matrix for ``n >= 5``.
    """
    n = J.shape[-1]
    if n > 4:
        return np.linalg.det(J)
    a = J.transpose(1, 2, 0)  # a[i, j] is entry (i, j) of every matrix

    def minor(r0, r1, c0, c1):
        return a[r0, c0] * a[r1, c1] - a[r0, c1] * a[r1, c0]

    with np.errstate(over="ignore", invalid="ignore"):
        if n == 1:
            d = a[0, 0].copy()
        elif n == 2:
            d = minor(0, 1, 0, 1)
        elif n == 3:
            d = (a[0, 0] * minor(1, 2, 1, 2) - a[0, 1] * minor(1, 2, 0, 2)
                 + a[0, 2] * minor(1, 2, 0, 1))
        else:
            d = (minor(0, 1, 0, 1) * minor(2, 3, 2, 3) - minor(0, 1, 0, 2) * minor(2, 3, 1, 3)
                 + minor(0, 1, 0, 3) * minor(2, 3, 1, 2) + minor(0, 1, 1, 2) * minor(2, 3, 0, 3)
                 - minor(0, 1, 1, 3) * minor(2, 3, 0, 2) + minor(0, 1, 2, 3) * minor(2, 3, 0, 1))
    bad = ~np.isfinite(d)
    if bad.any():
        d[bad] = np.linalg.det(J[bad])
    return d


def _sample_scan(m: MapSpec, X: np.ndarray, dets: str | None = "finite"):
    """Images, their norms and the Jacobian determinants of any body at a
    finite ``(N, n)`` batch of nonzero rows, ``(images, image_norms,
    dets)``, walked in blocks of ``_SCAN_ROWS`` rows.

    Each block's images, their norms (:func:`~hominv.mapcore._norms`, so
    an image above about ``1e154`` keeps a finite norm) and ``_det`` of its
    Jacobians are written into arrays of ``N`` rows; so no ``(N, n, n)``
    stack and no ``N``-row kernel temporary is allocated, and no evaluator
    call sees more than one block's rows (or, for a black box's finite
    differences, their ``2n`` shifted rows each).  A polynomial body's
    block takes one ``_eval_jac_batch`` call, which shares its power table;
    a black box's takes ``_eval_batch``, then ``_jacobian_batch`` only when
    its determinants are wanted.  The kernels round a row alike at every
    batch size, so the result is bit for bit that of one block of ``N``
    rows (for a black box, when its evaluator does too).  ``dets`` names which
    determinants are computed: ``"all"``, ``"finite"`` (up to the first
    block whose images are not all finite; from there on none, and the
    returned ``dets`` is None) or None (none: every block takes
    ``_eval_batch``, and the returned ``dets`` is None).
    """
    N = len(X)
    poly = isinstance(m.body, PolyMap)
    images = np.empty((N, m.n))
    image_norms = np.empty(N)
    out = None if dets is None else np.empty(N)
    for lo in range(0, N, _SCAN_ROWS):
        block = slice(lo, lo + _SCAN_ROWS)
        if out is not None and poly:
            F, J = _eval_jac_batch(m, X[block])
        else:
            F, J = _eval_batch(m, X[block]), None
        if out is not None:
            if dets == "all" or np.isfinite(F).all():
                out[block] = _det(_jacobian_batch(m, X[block]) if J is None else J)
            else:
                out = None
        images[block] = F
        image_norms[block] = _norms(F)
    return images, image_norms, out


def _scan(m: MapSpec, sample: SphereSample, dets: str | None = "all"):
    """``_sample_scan`` of a caller's sample, every determinant included
    unless ``dets`` says otherwise; its points are held to the rules of
    :func:`~hominv.mapcore.eval_jacobian_batch`."""
    X, _ = _as_matrix(sample.points, m.n, "sample points")
    if not X.any(axis=1).all():
        raise UndefinedAtOriginError("a sphere sample cannot hold the origin")
    return _sample_scan(m, X, dets)


def check_jacobian_nonvanishing(m: MapSpec, sample: SphereSample, *,
                                _dets: np.ndarray | None = None) -> JacobianCheck:
    """Search the sphere for a vanishing Jacobian determinant.

    Evaluates ``det Df`` on every sample point, then drives the smallest
    ``|det|`` further down with projected-gradient minimization of
    ``|det(Df(w))|`` (:func:`_refine_det`: a finite-difference tangent
    gradient, whose ``2n`` points take one Jacobian call and one stacked
    ``np.linalg.det``, and every body's line searches likewise, each ladder
    of steps in one call).  The absolute value, not its square, is
    minimized: where the determinant vanishes to order ``p`` along the
    sphere, ``|det|`` is conditioned like ``t**p`` instead of ``t**(2p)``,
    and the descent actually reaches the zero set.
    The verdict is ``"pass"`` iff the refined minimum stays above
    ``DET_TOL``; by homogeneity of ``Df`` this settles the sign question on
    every sphere ``|xi| = r`` at once.  ``_dets`` are the sample's
    determinants when the caller has computed them; else they come from the
    blocked scan of :func:`_sample_scan`, whatever the body, which evaluates
    the sample's images too.

    The sample's determinants take the closed forms of ``_det`` for
    ``n <= 4``: one elementwise pass over each block.  ``n >= 5``, a sample
    row whose closed form is not finite, and the refinement's stacks (a
    start point, a line search's rungs, a gradient's ``2n`` points) take
    ``np.linalg.det``: on a few dozen matrices or fewer the closed form
    costs more than LAPACK, and the refinement's values keep LAPACK's bits.
    LAPACK and the kernels give each point the bits it gets alone, so a
    stack rounds as its single points would.
    """
    if sample.n != m.n:
        raise InvalidInputError("sample dimension disagrees with the map")
    if _dets is None:
        _dets = _scan(m, sample)[2]
    dets = np.abs(_dets)
    i0 = int(np.argmin(dets))

    w_min, v = _refine_det(m, sample.points[i0])
    min_det = min(float(max(v, 0.0)), float(dets[i0]))
    verdict = "pass" if min_det > DET_TOL else "fail"
    return JacobianCheck(min_abs_det=min_det, argmin=w_min, verdict=verdict)


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Aggregated verdicts for one map.

    ``overall`` is ``"pass"`` iff every sub-check passes, *including* the
    dimension gate ``n >= 3``.  ``status`` distinguishes the interesting
    middle ground: ``"hypotheses-met-but-n<3"`` means every analytic check
    passed but the dimension gate did not, in which case global injectivity
    is NOT implied (the planar squaring map passes all analytic checks and
    is two-to-one).  ``reasons`` lists the failed checks.

    The originating sphere sample, the image values and their row norms
    ``image_norms`` are attached (not serialized) so that downstream
    consumers can reuse them: :func:`~hominv.inverter.invert` scores every
    sample row's alignment with its target against the unit image
    directions that the report derives from ``images`` and ``image_norms``
    on first use and then keeps (``_unit_images``).  So is the ``body`` of
    the map the report was computed for: with ``n`` and ``kappa`` it names
    that map (see :meth:`matches`).  :meth:`to_json_dict` serializes the
    other fields, in their order: exactly the fields shown by ``repr``
    (:func:`_json_fields`).
    ``image_norms`` are :func:`~hominv.mapcore._norms` of the images, so an
    image of any finite size has a finite norm.  The ``sample`` is the one
    :func:`sample_sphere` keeps for its ``(n, count, seed)``: several
    reports may share it, and its points are read-only.
    """

    n: int
    kappa: float
    sample_count: int
    seed: int
    c0_empirical: float
    c_empirical: float
    min_abs_det_j: float
    homogeneity_residual: float
    n_verdict: str
    overall: str
    status: str
    reasons: tuple
    notes: tuple
    argmin_f: np.ndarray
    argmax_f: np.ndarray
    argmin_det: np.ndarray
    sample: SphereSample = field(repr=False)
    images: np.ndarray = field(repr=False)
    image_norms: np.ndarray = field(repr=False)
    body: object = field(repr=False)

    def matches(self, m: MapSpec) -> bool:
        """True when this report was computed for ``m``: same dimension,
        order and body, read from the report's own ``n``, ``kappa`` and
        ``body``.  Bodies compare by value: a :class:`PolyMap` by its terms, a
        :class:`~hominv.mapcore.BlackBox` by its callables, declared order
        and ``batched``."""
        return (self.n, self.kappa, self.body) == (m.n, float(m.kappa), m.body)

    @cached_property
    def _unit_images(self) -> _UnitImages:
        """The sample's unit image directions ``images / image_norms`` as a
        read-only C-contiguous ``(n, N)`` array, zero on the ``unusable``
        rows (an index list), the ``usable`` mask, and each row's ``scales``
        ``image_norms**(-1/kappa)``, which put a sample point on ``|f| = 1``
        by homogeneity.  A row is usable when its scale is finite and
        positive, so its image norm is too.  Built on first use from this
        report's own fields, so a report made by ``dataclasses.replace``
        builds its own."""
        norms = self.image_norms
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scales = norms ** (-1.0 / self.kappa)
            directions = np.ascontiguousarray((self.images / norms[:, None]).T)
        usable = np.isfinite(scales) & (scales > 0.0)
        unusable = np.flatnonzero(~usable)
        directions[:, unusable] = 0.0
        directions.flags.writeable = scales.flags.writeable = False
        return _UnitImages(directions, unusable, usable, scales)

    def to_json_dict(self) -> dict:
        """This report's JSON object, by the rule of :func:`_json_fields`."""
        return _json_fields(self)


def _json_fields(result) -> dict:
    """The JSON object of a dataclass ``result``: its ``repr`` fields by
    name, in field order, leaving out a field that is None.  Every result
    of the package serializes by this rule."""
    return {f.name: _json_value(value) for f in fields(result)
            if f.repr and (value := getattr(result, f.name)) is not None}


def _json_value(value):
    """``value`` as JSON: an array or a tuple as a list, a named tuple as an
    object of its fields, each entry converted in turn."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "_fields"):
        return {name: _json_value(v) for name, v in zip(value._fields, value)}
    return [_json_value(v) for v in value] if isinstance(value, tuple) else value


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError("tol must lie in (0, 1)")


def _require_report(m: MapSpec, report: HypothesisReport | None, force: bool,
                    allow_warn: bool = False) -> HypothesisReport:
    """``report`` when it is ``m``'s own and passed (or, with ``allow_warn``,
    only warned), or ``force`` is set; with ``force`` and no report, a fresh
    one whose verdict is ignored."""
    if report is None:
        if not force:
            raise PreconditionError("hypotheses not checked: run the hypothesis checks first, or "
                                    "force the computation to proceed at your own risk")
        # forcing an unchecked map still needs the sample and the sphere
        # extrema, so run the checks here and ignore the verdict
        return check_hypotheses(m)
    if not report.matches(m):
        raise PreconditionError("the hypothesis report was computed for a different map "
                                "(dimension, order or body differ); check this map and pass "
                                "its own report")
    acceptable = ("pass", _STATUS_WARN) if allow_warn else ("pass",)
    if report.status not in acceptable and not force:
        raise PreconditionError(f"hypothesis check did not pass (status '{report.status}', "
                                f"reasons {list(report.reasons)}); force the computation to "
                                f"override")
    return report


def check_hypotheses(m: MapSpec, count: int | None = None, seed: int = 0) -> HypothesisReport:
    """Run every hypothesis check on one map and aggregate the verdicts.

    Parameters
    ----------
    m : MapSpec
    count : int, optional
        Sphere-sample size; defaults to ``DEFAULT_SAMPLES_PER_DIM * n``.
    seed : int
        Root seed; the whole report is a deterministic function of
        ``(m, count, seed)``.

    Checks performed: finite image values, and finite ``c0``, ``C``,
    ``min|det Df|`` and homogeneity residual; positive minimum of ``|f|`` on the
    sphere (rejects the zero map), sampled homogeneity residual against
    ``HOMOGENEITY_TOL``, and nonvanishing Jacobian determinant against
    ``DET_TOL``; plus the dimension gate ``n >= 3``, reported separately.

    The images, their norms and the Jacobian determinants at the sample,
    for a polynomial body or a black box alike, come from one scan in blocks
    of ``_SCAN_ROWS`` rows (:func:`_sample_scan`), which builds no stack of
    the sample's Jacobians; the determinants are computed only while the
    images are finite, so they exist exactly when every image is finite.
    """
    defaulted = count is None
    n_points = DEFAULT_SAMPLES_PER_DIM * m.n if count is None else count
    sample = sample_sphere(m.n, n_points, seed)
    images, image_norms, dets = _sample_scan(m, sample.points)
    finite_ok = dets is not None
    if finite_ok:
        ext = estimate_extrema(m, sample, image_norms=image_norms)
        jac = check_jacobian_nonvanishing(m, sample, _dets=dets)
        resid = homogeneity_residual(m, count=100, seed=seed)
    else:
        # a NaN entry counts as 0, and a row with an infinite entry keeps an
        # infinite norm, so an infinite image reads as C = inf
        c = float(np.max(_norms(np.where(np.isnan(images), 0.0, images))))
        ext = ExtremaEstimate(0.0, c, sample.points[0], sample.points[0], 0.0, c)
        jac = JacobianCheck(0.0, sample.points[0], "fail")
        resid = float("inf")

    notes = []
    if defaulted:
        notes.append(
            f"sample size defaulted to {DEFAULT_SAMPLES_PER_DIM} * n = {n_points} (pragmatic choice)"
        )

    reasons = []
    # a value that is not finite compares as no verdict: nan > tol is false
    values = (ext.c0, ext.c_max, jac.min_abs_det, resid)
    if not (finite_ok and np.isfinite(values).all()):
        reasons.append("non-finite-values")
    if ext.c0 <= 0.0:
        reasons.append("vanishes-on-sphere")
    if resid > HOMOGENEITY_TOL:
        reasons.append("homogeneity-residual")
    if jac.verdict != "pass":
        reasons.append("jacobian-vanishes")
    core_ok = not reasons
    n_ok = m.n >= 3
    if not n_ok:
        reasons.append("dimension-below-3")
    overall = "pass" if (core_ok and n_ok) else "fail"
    status = "pass" if overall == "pass" else (_STATUS_WARN if core_ok else "fail")

    return HypothesisReport(
        n=m.n,
        kappa=float(m.kappa),
        sample_count=sample.count,
        seed=sample.seed,
        c0_empirical=ext.c0,
        c_empirical=ext.c_max,
        min_abs_det_j=jac.min_abs_det,
        homogeneity_residual=resid,
        n_verdict="pass" if n_ok else "fail",
        overall=overall,
        status=status,
        reasons=tuple(reasons),
        notes=tuple(notes),
        argmin_f=ext.argmin,
        argmax_f=ext.argmax,
        argmin_det=jac.argmin,
        sample=sample,
        images=images,
        image_norms=image_norms,
        body=m.body,
    )


def _target_rows(n: int, etas, ndim: int = 2) -> tuple[np.ndarray, list[float]]:
    """One target (``ndim=1``) or a batch as a ``(B, n)`` array of finite
    targets, with the list of each row's norm: :func:`~hominv.mapcore._norms`,
    which does not underflow at tiny ``|eta|``.  A target whose norm
    overflows, though each component is finite, is rejected too."""
    E = np.asarray(etas, dtype=float)
    if E.ndim not in (1, ndim) or E.shape[-1] != n:
        raise InvalidInputError(f"eta must be a vector of length {n}")
    if not np.all(np.isfinite(E)):
        raise InvalidInputError("eta contains non-finite components")
    E = E.reshape(-1, n)
    norms = _norms(E).tolist()
    if np.inf in norms:
        raise InvalidInputError("eta is too large: its norm overflows")
    return E, norms


def _radius(ratio: float, kappa: float) -> float:
    """``ratio**(1/kappa)``: the radius at which an order-``kappa`` map
    reaches ``ratio`` times its values on the unit sphere, a preimage's norm
    or a bracket end.  A radius that overflows is rejected: its target is
    too large to invert; so is one of a positive ratio that underflows to 0,
    whose target is too small.  A ratio of 0 (a lower bracket end at
    ``C = inf``) has the radius 0."""
    try:
        r = float(ratio) ** (1.0 / kappa)
    except OverflowError:
        r = np.inf
    if r == np.inf:
        raise InvalidInputError("eta is too large: its preimage's norm overflows")
    if r == 0.0 and ratio > 0.0:
        raise InvalidInputError("eta is too small: its preimage's norm underflows")
    return r


def _bracket(report: HypothesisReport, mag: float) -> tuple[float, float]:
    """The coercivity bracket of every target of norm ``mag > 0``, at the
    report's order."""
    if report.c0_empirical <= 0.0:
        raise NoBracketError(
            "no coercivity bracket: the empirical minimum of |f| on the sphere is zero"
        )
    return (_radius(mag / report.c_empirical, report.kappa),
            _radius(mag / report.c0_empirical, report.kappa))


def coercivity_bracket(report: HypothesisReport, eta, kappa: float) -> tuple[float, float]:
    """Radial bracket ``(r_lo, r_hi)`` containing every preimage of ``eta``.

    From ``c0 |xi|**kappa <= |f(xi)| <= C |xi|**kappa``::

        r_lo = (|eta| / C)**(1/kappa),   r_hi = (|eta| / c0)**(1/kappa)

    Uses the report's empirical extrema, so containment holds up to their
    estimation error (tests allow ``1e-9 * r_hi`` of slack).  ``kappa``
    must be the order the report was computed at, ``report.kappa``.

    Raises
    ------
    InvalidParameterError
        When ``kappa`` is not ``report.kappa``.
    NoBracketError
        When ``c0_empirical`` is zero (e.g. the zero map).
    InvalidInputError
        For ``eta = 0``, malformed input, or a bracket end that overflows
        or underflows to 0.
    """
    if float(kappa) != report.kappa:
        raise InvalidParameterError(f"kappa {kappa} is not the order the report was computed at "
                                    f"({report.kappa})")
    _, (mag,) = _target_rows(report.n, eta, ndim=1)
    if mag == 0.0:
        raise InvalidInputError("eta must be nonzero (the origin's preimage is the origin)")
    return _bracket(report, mag)
