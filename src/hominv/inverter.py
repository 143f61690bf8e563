"""Global inversion by homotopy continuation along origin-avoiding paths.

For an admissible map (homogeneous of order ``kappa``, continuously
differentiable off the origin, nonvanishing Jacobian determinant, ``n >= 3``)
the restriction to ``R^n \\ {0}`` is a covering map onto ``R^n \\ {0}``, and
bijectivity makes every path lift unique.  Homogeneity reduces the lift to
the unit sphere: a path on ``|eta| = 1`` lifts into the level set
``|f| = 1``, and one radial rescale ends it.  The inverter exploits this on
a batch of targets at once (:func:`invert` is a batch of one):

1. reduce each target to the unit sphere, ``omega = eta / |eta|``;
2. score every sample row ``w_i`` by how well its image aligns with
   ``omega``, ``omega . f(w_i) / |f(w_i)|``: one product of ``omega`` with
   the unit image directions the report caches.  A candidate seed is a row
   of highest score (ties in sample order): round 0 takes the best one, and
   only a target still unsolved after it ranks its next
   ``_SEED_ATTEMPTS - 1``.  Homogeneity puts the seed on the level set
   ``|f| = 1``: ``xi0 = w_i |f(w_i)|**(-1/kappa)`` has the unit image
   ``f(w_i) / |f(w_i)|``.  A row whose factor ``|f(w_i)|**(-1/kappa)`` is
   zero or not finite (its image zero, not finite, or too far from 1 for
   the factor to be a float) is never a seed;
3. join the seed's unit image to ``omega`` by the great-circle arc on the
   unit sphere, which never crosses the origin; both ends are unit, so the
   path carries no magnitude;
4. track every target's path in lock-step, each with its own ``t`` and
   step size: an Euler predictor ``dxi = Df^{-1} dgamma``, then one Newton
   correction (at most ``_MAX_NEWTON`` iterations) of all live paths.  The
   first step, ``_INITIAL_STEP``, is the whole path.  A failed correction
   halves the step, an accepted one of at most 3 Newton iterations doubles
   it, and no step runs past ``t = 1``; one that would stop within 1e-12
   of it ends on it.  Bijectivity makes any point the corrector converges
   to the one lift, so a long step may fail but cannot land on a wrong
   preimage, and a path is typically tracked in one step.  A path whose
   step falls below ``_MIN_STEP`` stops.  Round ``a`` tracks each target
   still unsolved from its ``a``-th seed;
5. polish: up to two more Newton steps, each kept only when it strictly
   lowers the residual, and rescale the preimage on ``|f| = 1`` radially by
   ``|eta|**(1/kappa)``; a radius that overflows is rejected.

A path is accepted when ``|f(xi) - eta| <= tol * |eta|``: ``tol`` is
relative, as in the corrector and the preimage search, and is the solvers'
one tuning keyword.  The corrector gives up on a row past
:func:`~hominv._newton._diverge_radius`, a multiple of the upper end of the
unit target's coercivity bracket, so no rule of the tracker holds an
absolute scale.  The step policy is fixed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._newton import (_diverge_radius, _nonsingular, _polish, _singular_error, newton_batch,
                      solve_guarded)
from .errors import ContinuationFailedError, InvalidInputError, SingularJacobianError
from .hypotheses import (HypothesisReport, _bracket, _check_tol, _json_fields, _radius,
                         _require_report, _target_rows)
from .mapcore import (MapSpec, _eval_batch, _jacobian_batch, _norms, _row_norms, _taus,
                      eval_jacobian)

__all__ = ["InversionResult", "invert", "inverse_homogeneity_check", "roundtrip_check",
           "inverse_jacobian"]

_ANTIPODAL_TOL = 1e-8
# the step policy of steps 2 and 4, read at call time: first step in t (the
# whole path), smallest step, corrector iterations per step, candidate seeds
# per target
_INITIAL_STEP = 1.0
_MIN_STEP = 1e-8
_MAX_NEWTON = 20
_SEED_ATTEMPTS = 16


@dataclass(frozen=True)
class InversionResult:
    """A computed preimage.

    ``residual`` is the absolute defect ``|f(xi) - eta|`` (success means it
    is at most ``tol * |eta|``); ``bracket`` the coercivity bracket
    the preimage radius must fall in; ``steps`` the number of accepted
    continuation steps and ``newton_iters_total`` the corrector iterations
    spent on the successful seed.  ``path_waypoints``, recorded when tracing
    is requested, lists ``(t, gamma(t), xi(t))`` named tuples, with fields
    ``t``, ``gamma`` and ``xi``, for the unit-reduced problem that the
    tracker actually solves: each ``gamma`` is a unit vector and each ``xi``
    a point of the level set ``|f| = 1``.
    """

    xi: np.ndarray
    residual: float
    steps: int
    newton_iters_total: int
    bracket: tuple[float, float]
    path_waypoints: Optional[tuple] = None

    def to_json_dict(self, eta=None) -> dict:
        """This result's JSON object, by the rule of
        :func:`~hominv.hypotheses._json_fields`, after the target ``eta``
        when one is given."""
        out: dict = {} if eta is None else {"eta": [float(v) for v in eta]}
        out.update(_json_fields(self))
        return out


#: one recorded point of a traced path: ``(t, gamma(t), xi(t))``
_Waypoint = namedtuple("_Waypoint", "t gamma xi")
_Paths = namedtuple("_Paths", "antipodal blocked ends")


def _paths(start: np.ndarray, end: np.ndarray) -> _Paths:
    """The paths on the unit sphere from each unit row of ``start`` (``t =
    0``) to the same unit row of ``end`` (``t = 1``): great-circle arcs from
    ``ends[:, k]`` to ``ends[:, k + 1]``, two for an ``antipodal`` path (via a
    waypoint orthogonal to its start), else one.  ``blocked`` marks
    antipodal endpoints in ``R^1``, which no path joins without crossing the
    origin."""
    antipodal = (start * end).sum(axis=1) <= -1.0 + _ANTIPODAL_TOL
    blocked = antipodal & (start.shape[1] == 1)
    antipodal ^= blocked
    # the waypoint of an antipodal path: Gram--Schmidt on the coordinate axis
    # least aligned with its start (lowest index on ties)
    waypoint = end.copy()
    for i in np.flatnonzero(antipodal):
        w = np.zeros(start.shape[1])
        w[np.argmin(np.abs(start[i]))] = 1.0
        w -= float(np.dot(w, start[i])) * start[i]
        waypoint[i] = w / _row_norms(w)
    return _Paths(antipodal, blocked, np.array([start, waypoint, end]).transpose(1, 0, 2))


def _path_points(p: _Paths, t: np.ndarray) -> np.ndarray:
    """``gamma(t)`` on every path, one ``t`` per path: the normalized chord
    ``((1 - s) a + s b) / |(1 - s) a + s b|`` of its segment ``a, b``, the
    great-circle arc reparametrized, at ``s = t`` (``2t`` or ``2t - 1`` on
    the halves of an antipodal path)."""
    if np.count_nonzero(p.antipodal):
        k = (p.antipodal & (t > 0.5)).astype(np.intp)
        s = np.where(p.antipodal, 2.0 * t - k, t)
        r = np.arange(len(t))
        a, b = p.ends[r, k], p.ends[r, k + 1]
    else:
        s, a, b = t, p.ends[:, 0], p.ends[:, 1]
    v = (1.0 - s)[:, None] * a + s[:, None] * b
    return v / _row_norms(v)[:, None]


def _track(m: MapSpec, p: _Paths, xi0: np.ndarray, tol: float, radius: float, trace: bool):
    """Track ``f(xi(t)) = gamma(t)`` from ``xi(0) = xi0[i]`` to ``t = 1`` on
    every path at once, each with its own ``t`` and step size, by the step
    policy of step 4 in the module docstring: the first step tries the whole
    path, and only a path whose correction fails there takes more.  A
    correction diverges past ``radius``.
    Returns ``(xi, t, steps, newton, why, waypoints)`` per path; ``why`` is
    ``""`` at ``t = 1``, ``"antipodal"`` for a blocked path, the
    :class:`SingularJacobianError` of a singular Jacobian on the path, or the
    mode of the last failed correction when the step fell below ``_MIN_STEP``.
    """
    P = len(xi0)
    X, T, why = np.array(xi0, dtype=float), np.zeros(P), np.full(P, "", dtype=object)
    steps, newton, ns, nt = np.zeros((4, P), dtype=int)
    # the paths still tracked, compressed; a path that stops is written out
    live, x, t, g, step = np.arange(P), X, T, _path_points(p, T), np.full(P, _INITIAL_STEP)
    waypoints = [[_Waypoint(0.0, g[i].copy(), x[i].copy())] for i in range(P)] if trace else None

    def stop(rows, reasons):
        nonlocal live, x, t, g, step, ns, nt, p
        if np.count_nonzero(rows) == rows.size:
            # every path stops: nothing is left to compress
            X[live], T[live], why[live], steps[live], newton[live] = x, t, reasons, ns, nt
            live = live[:0]
            return
        out = live[rows]
        X[out], T[out], why[out] = x[rows], t[rows], reasons
        steps[out], newton[out], keep = ns[rows], nt[rows], ~rows
        live, x, t, g, step, ns, nt = (v[keep] for v in (live, x, t, g, step, ns, nt))
        p = _Paths._make(v[keep] for v in p)

    if np.count_nonzero(p.blocked):
        stop(p.blocked, "antipodal")
    while live.size:
        # the last step ends exactly on t = 1, never a rounding distance short
        step = np.minimum(step, 1.0 - t)
        t_next = np.where(1.0 - t - step < 1e-12, 1.0, t + step)
        g_next = _path_points(p, t_next)
        # the current points sit on their paths, so a singular Jacobian there
        # is genuine evidence against the hypotheses
        J = _jacobian_batch(m, x)
        good = _nonsingular(J)
        if np.count_nonzero(good) < good.size:
            stop(~good, [_singular_error(j) for j in J[~good]])
            if not live.size:
                break
            J, t_next, g_next = J[good], t_next[good], g_next[good]
        predictor = x + np.linalg.solve(J, (g_next - g)[:, :, None])[:, :, 0]
        x_new, ok, iters, mode = newton_batch(m, predictor, g_next, tol, radius, _MAX_NEWTON)
        # a correction that "converged" onto the origin failed: Df is undefined there
        accept = ok & x_new.any(axis=1)
        every = np.count_nonzero(accept) == accept.size
        if not every:
            x_new, g_next = (np.where(accept[:, None], new, old)
                              for new, old in ((x_new, x), (g_next, g)))
            t_next = np.where(accept, t_next, t)
        x, t, g, ns, nt = x_new, t_next, g_next, ns + accept, nt + iters
        step = step * np.where(accept, 1.0 + (iters <= 3), 0.5)
        if trace:
            for i in np.flatnonzero(accept):
                waypoints[live[i]].append(_Waypoint(float(t[i]), g[i].copy(), x[i].copy()))
        out = t >= 1.0
        if not every:
            out |= step < _MIN_STEP
        if np.count_nonzero(out):
            stop(out, np.where(t >= 1.0, "", np.where(ok, "singular", mode))[out])
    return X, T, steps, newton, why, waypoints


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest ``scores`` (all of them when ``k`` exceeds
    their number), largest first, ties in index order: the same list as
    ``np.argsort(-scores, kind="stable")[:k]`` without sorting every score.
    ``scores`` must hold no NaN."""
    k = min(k, len(scores))
    # the k-th largest of a prefix is at most that of all: a threshold to filter by
    head = scores[:max(k, 4096)]
    kth = np.partition(head, len(head) - k)[len(head) - k]
    candidates = np.flatnonzero(scores >= kth)
    return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]


def _scores(report: HypothesisReport, w: np.ndarray) -> np.ndarray:
    """Every sample row's score against one unit target ``w`` (step 2): one
    product with the report's unit image directions, ``-inf`` on the rows
    that are never seeds.  One target at a time, so its seeds never depend
    on its batch."""
    directions, unusable, _, _ = report._unit_images
    scores = w @ directions
    scores[unusable] = -np.inf
    return scores


def _invert_batch(m: MapSpec, etas: np.ndarray, tol: float, report: HypothesisReport,
                  trace: bool = False, *, norms) -> list:
    """Invert every row of a ``(B, n)`` array of finite targets, given this
    map's own report; a zero row returns the origin.  ``norms`` are the
    targets' norms from :func:`~hominv.hypotheses._target_rows`.  Each
    target ends with an :class:`InversionResult` or an error; the error of
    the lowest-index target that has one is raised, as inverting one at a
    time would."""
    nz = [i for i, mag in enumerate(norms) if mag]
    E, mags = etas[nz], [norms[i] for i in nz]
    brackets = [_bracket(report, mag) for mag in mags]
    radii = [_radius(mag, m.kappa) for mag in mags]
    omega = E / np.array(mags).reshape(-1, 1)
    directions, _, usable, scales = report._unit_images
    # each target's seeds in the order tried; past round 0, filled only for
    # the targets that round leaves unsolved
    seeds = np.zeros((len(nz), min(_SEED_ATTEMPTS, len(usable))), dtype=np.intp)
    seeds[:, 0] = [np.argmax(_scores(report, w)) for w in omega]
    results, errors, unsolved = [None] * len(nz), [None] * len(nz), np.ones(len(nz), bool)
    for a in range(seeds.shape[1]):
        if not np.count_nonzero(unsolved):
            break
        if a == 1:
            for j in np.flatnonzero(unsolved):
                seeds[j] = _top_k(_scores(report, omega[j]), seeds.shape[1])
        rows = np.flatnonzero(unsolved & usable[seeds[:, a]])
        k = seeds[rows, a]
        X, T, steps, newton, why, waypoints = _track(
            m, _paths(directions[:, k].T, omega[rows]),
            report.sample.points[k] * scales[k][:, None], tol, _diverge_radius(report), trace)
        # step 5 on the paths that reached t = 1
        done = np.flatnonzero(why == "")
        polished, _ = _polish(m, X[done], omega[rows[done]])
        xis = np.array([radii[j] for j in rows[done]]).reshape(-1, 1) * polished
        reached = iter(zip(xis, _norms(_eval_batch(m, xis) - E[rows[done]]).tolist()))
        for i, (j, s) in enumerate(zip(rows.tolist(), k.tolist())):
            reason, last_t, last_xi = why[i], float(T[i]), X[i].copy()
            if isinstance(reason, SingularJacobianError):
                errors[j], unsolved[j] = reason, False
                continue
            if reason == "":
                last_t, (last_xi, residual) = 1.0, next(reached)
                if residual <= tol * mags[j]:
                    results[j] = InversionResult(last_xi, residual, int(steps[i]), int(newton[i]),
                                                 brackets[j], waypoints and tuple(waypoints[i]))
                    unsolved[j] = False
                    continue
                reason, message = "residual-over-tol", (
                    f"tracked to t = 1 but the rescaled residual {residual:.3e} exceeds tolerance")
            else:
                message = ("seed image antipodal to the target in R^1" if reason == "antipodal"
                           else f"continuation step underflowed below {_MIN_STEP:g} at "
                           f"t = {last_t:.6f}")
            seen = errors[j].seed_failures if errors[j] else ()
            errors[j] = ContinuationFailedError(message, last_t, last_xi, seen + ((s, reason),))
    for result, err in zip(results, errors):
        if result is None:
            raise err or ContinuationFailedError(
                "no usable seed: no sample image has a norm that scales its point onto |f| = 1")
    out = iter(results)
    return [next(out) if mag else _origin(m.n, trace) for mag in norms]


def _origin(n: int, trace: bool) -> InversionResult:
    return InversionResult(np.zeros(n), 0.0, 0, 0, (0.0, 0.0), () if trace else None)


def invert(m: MapSpec, eta, report: HypothesisReport | None = None, *, tol: float = 1e-10,
           force: bool = False, trace: bool = False) -> InversionResult:
    """Compute the unique preimage of ``eta`` under an admissible map.

    Requires a passing :class:`~hominv.hypotheses.HypothesisReport` (use
    ``force=True`` to override, e.g. to lift paths under a map that is merely
    a covering; with no report, ``force=True`` first runs a default-size
    :func:`~hominv.hypotheses.check_hypotheses` and ignores its verdict).
    ``eta = 0`` returns the origin exactly.  The path is accepted when
    ``|f(xi) - eta| <= tol * |eta|``.  The result's preimage radius always
    lies in the coercivity bracket, up to estimation slack.

    Raises
    ------
    PreconditionError
        No report, a report computed for another map (even with ``force``),
        or a non-passing one without ``force``.
    ContinuationFailedError
        No path tracked to the target from any candidate seed; carries the
        furthest waypoint reached.
    SingularJacobianError
        A numerically singular Jacobian at a point on the tracked path
        (evidence the nonvanishing-determinant hypothesis fails).
    """
    _check_tol(tol)
    E, (mag,) = _target_rows(m.n, eta, ndim=1)
    if not mag:
        return _origin(m.n, trace)
    return _invert_batch(m, E, tol, _require_report(m, report, force), trace, norms=[mag])[0]


def inverse_homogeneity_check(m: MapSpec, eta, taus, report: HypothesisReport | None = None, *,
                              tol: float = 1e-10, force: bool = False) -> float:
    """Largest relative deviation of ``invert(tau * eta)`` from
    ``tau**(1/kappa) * invert(eta)`` over the given ``tau`` values.

    For an exact inverse this is zero because the inverse of an order-``kappa``
    homogeneous bijection is homogeneous of order ``1/kappa``.  The targets
    are inverted as one batch, which gives each the bits :func:`invert`
    gives it alone, so the value is exactly that definition.  A ``tau``
    at which ``tau * eta`` rounds to zero is rejected, as a zero ``eta`` is.
    """
    _check_tol(tol)
    (e,), (mag,) = _target_rows(m.n, eta, ndim=1)
    if not mag:
        raise InvalidInputError("eta must be nonzero for a homogeneity check")
    report = _require_report(m, report, force)
    taus = _taus(taus)
    # tau * e may overflow
    etas, norms = _target_rows(m.n, np.array([e] + [tau * e for tau in taus]))
    if not all(norms):
        raise InvalidInputError("tau * eta must be nonzero for a homogeneity check: it rounds "
                                "to zero")
    base, *scaled = _invert_batch(m, etas, tol, report, norms=norms)
    base_norm = float(_norms(base.xi))
    radii = [_radius(tau, m.kappa) for tau in taus]
    return max((float(_norms(res.xi - r * base.xi)) / (r * base_norm)
                for r, res in zip(radii, scaled)), default=0.0)


def _roundtrips(m: MapSpec, etas, report: HypothesisReport | None, tol: float,
                force: bool) -> list:
    """Invert a batch of nonzero targets as one batch; returns ``(eta,
    result, |f(xi) - eta| / |eta|)`` per target, in order."""
    _check_tol(tol)
    E, norms = _target_rows(m.n, etas)
    if not all(norms):
        raise InvalidInputError("roundtrip targets must be nonzero")
    results = _invert_batch(m, E, tol, _require_report(m, report, force), norms=norms)
    return [(eta, res, res.residual / mag) for eta, res, mag in zip(E, results, norms)]


def roundtrip_check(m: MapSpec, etas, report: HypothesisReport | None = None, *,
                    tol: float = 1e-10, force: bool = False) -> float:
    """Largest relative roundtrip residual ``|f(invert(eta)) - eta| / |eta|``
    over a batch of nonzero targets."""
    return max((rel for _, _, rel in _roundtrips(m, etas, report, tol, force)), default=0.0)


def inverse_jacobian(m: MapSpec, xi) -> np.ndarray:
    """Derivative of the inverse at ``f(xi)``: the matrix inverse of
    ``Df(xi)`` (inverse function theorem).  ``xi`` is the preimage returned
    by :func:`invert`."""
    J = eval_jacobian(m, xi)
    return np.asarray(solve_guarded(J, np.eye(m.n)))
