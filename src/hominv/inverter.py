"""Global inversion by homotopy continuation along origin-avoiding paths.

For an admissible map (homogeneous of order ``kappa``, continuously
differentiable off the origin, nonvanishing Jacobian determinant, ``n >= 3``)
the restriction to ``R^n \\ {0}`` is a covering map onto ``R^n \\ {0}``, and
bijectivity makes every path lift unique.  The inverter exploits this:

1. reduce the target to the unit sphere, ``omega = eta / |eta|`` (the full
   preimage is recovered afterwards as ``|eta|**(1/kappa) * xi_unit``);
2. rank the hypothesis-check sample by how well each image direction aligns
   with ``omega``: the score of row ``i`` is ``(f(w_i) . omega) / |f(w_i)|``,
   read from the images and their norms cached on the report (rows with a
   zero or non-finite image score ``-inf`` and are never tried).  The best
   ``seed_attempts`` rows are picked with a partition around the k-th largest
   score, and only the rows at or above it are sorted (stably, so ties keep
   sample order); these are the candidate seeds ``xi0``, best-aligned first;
3. connect ``eta0 = f(xi0)`` to ``omega`` by a path that interpolates the
   magnitude geometrically and the direction along the great circle, so the
   path never crosses the origin (its magnitude is ``|eta0|**(1-t)``);
4. track the lifted path with an Euler predictor ``dxi = Df^{-1} dgamma`` and
   Newton correction, adapting the step size;
5. polish: up to two more Newton steps, each kept only when it strictly
   lowers the residual (the batched :func:`~hominv._newton._polish` on a
   batch of one row), and rescale.

Residuals are judged relative to ``max(1, |target|)`` throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._newton import _polish, newton_correct, solve_guarded
from .errors import (
    ContinuationFailedError,
    InvalidInputError,
    InvalidParameterError,
    PreconditionError,
)
from .hypotheses import _STATUS_WARN, HypothesisReport, coercivity_bracket
from .mapcore import MapSpec, eval_jacobian, eval_map

__all__ = [
    "ContinuationConfig",
    "InversionResult",
    "slerp_path",
    "invert",
    "inverse_homogeneity_check",
    "roundtrip_check",
    "inverse_jacobian",
]

_ANTIPODAL_TOL = 1e-8


@dataclass(frozen=True)
class ContinuationConfig:
    """Tuning knobs for the predictor--corrector tracker.

    ``tol`` is the relative residual target; ``initial_step`` both seeds and
    caps the adaptive step in path parameter ``t``; the step halves after a
    failed correction and doubles after three consecutive easy ones (at most
    3 Newton iterations each); dropping below ``min_step`` aborts the track.
    ``seed_attempts`` bounds how many candidate seeds are tried, best-aligned
    first.
    """

    tol: float = 1e-10
    initial_step: float = 0.1
    min_step: float = 1e-8
    max_newton: int = 20
    seed_attempts: int = 16

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise InvalidParameterError("tol must lie in (0, 1)")
        if not (0.0 < self.min_step <= self.initial_step <= 1.0):
            raise InvalidParameterError("require 0 < min_step <= initial_step <= 1")
        if self.max_newton < 1 or self.seed_attempts < 1:
            raise InvalidParameterError("max_newton and seed_attempts must be >= 1")


@dataclass(frozen=True)
class InversionResult:
    """A computed preimage.

    ``residual`` is the absolute defect ``|f(xi) - eta|`` (success means it
    is at most ``tol * max(1, |eta|)``); ``bracket`` the coercivity bracket
    the preimage radius must fall in; ``steps`` the number of accepted
    continuation steps and ``newton_iters_total`` the corrector iterations
    spent on the successful seed.  ``path_waypoints``, recorded when tracing
    is requested, lists ``(t, gamma(t), xi(t))`` for the unit-reduced problem
    that the tracker actually solves.
    """

    xi: np.ndarray
    residual: float
    steps: int
    newton_iters_total: int
    bracket: tuple[float, float]
    path_waypoints: Optional[tuple] = None

    def to_json_dict(self, eta=None) -> dict:
        out: dict = {}
        if eta is not None:
            out["eta"] = [float(v) for v in eta]
        out.update(
            {
                "xi": [float(v) for v in self.xi],
                "residual": self.residual,
                "steps": self.steps,
                "newton_iters_total": self.newton_iters_total,
                "bracket": [self.bracket[0], self.bracket[1]],
            }
        )
        if self.path_waypoints is not None:
            out["path_waypoints"] = [
                {
                    "t": t,
                    "gamma": [float(v) for v in g],
                    "xi": [float(v) for v in x],
                }
                for t, g, x in self.path_waypoints
            ]
        return out


def _orthogonal_unit(u: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to ``u``: Gram--Schmidt applied to
    the coordinate axis least aligned with ``u`` (lowest index on ties)."""
    k = int(np.argmin(np.abs(u)))
    w = np.zeros_like(u)
    w[k] = 1.0
    w = w - float(np.dot(w, u)) * u
    return w / np.linalg.norm(w)


def _slerp_dir(u0: np.ndarray, u1: np.ndarray, t: float) -> np.ndarray:
    c = float(np.clip(np.dot(u0, u1), -1.0, 1.0))
    theta = float(np.arccos(c))
    if theta < 1e-8:
        v = (1.0 - t) * u0 + t * u1
        return v / np.linalg.norm(v)
    s = np.sin(theta)
    return (np.sin((1.0 - t) * theta) * u0 + np.sin(t * theta) * u1) / s


def slerp_path(eta0, eta1, t: float) -> np.ndarray:
    """Origin-avoiding path from ``eta0`` (at ``t=0``) to ``eta1`` (at ``t=1``).

    The magnitude interpolates geometrically, ``|gamma(t)| =
    |eta0|**(1-t) |eta1|**t``, and the direction follows the great circle, so
    ``min_t |gamma(t)| = min(|eta0|, |eta1|) > 0``.  Antipodal directions
    (within ``1e-8`` of opposite) are routed through a deterministic
    intermediate waypoint orthogonal to both, giving two great-circle
    segments.  Zero endpoints are rejected.
    """
    a = np.asarray(eta0, dtype=float)
    b = np.asarray(eta1, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInputError("endpoints must be vectors of equal length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("endpoints must be finite")
    m0 = float(np.linalg.norm(a))
    m1 = float(np.linalg.norm(b))
    if m0 == 0.0 or m1 == 0.0:
        raise InvalidInputError("slerp endpoints must be nonzero")
    u0 = a / m0
    u1 = b / m1
    t = float(t)
    mag = m0 ** (1.0 - t) * m1**t
    if float(np.dot(u0, u1)) <= -1.0 + _ANTIPODAL_TOL:
        w = _orthogonal_unit(u0)
        if t <= 0.5:
            direction = _slerp_dir(u0, w, 2.0 * t)
        else:
            direction = _slerp_dir(w, u1, 2.0 * t - 1.0)
    else:
        direction = _slerp_dir(u0, u1, t)
    return mag * direction


def _continue_path(m: MapSpec, xi0: np.ndarray, eta0: np.ndarray, omega: np.ndarray,
                   cfg: ContinuationConfig, trace: bool, seed_index: int):
    """Track f(xi(t)) = gamma(t) from t=0 to t=1; returns (xi, steps, newton, waypoints).

    A step-size underflow raises :class:`ContinuationFailedError` whose
    ``seed_failures`` names ``seed_index`` and the mode of the last failed
    correction."""
    path = lambda t: slerp_path(eta0, omega, t)
    xi = np.array(xi0, dtype=float)
    t = 0.0
    gamma_t = path(0.0)
    step = cfg.initial_step
    steps = 0
    newton_total = 0
    streak = 0
    waypoints = [(0.0, gamma_t.copy(), xi.copy())] if trace else None
    while t < 1.0:
        dt = min(step, 1.0 - t)
        t_next = t + dt
        g_next = path(t_next)
        # the current point sits on the path, so a singular Jacobian here is
        # genuine evidence against the hypotheses -- let it propagate
        J = eval_jacobian(m, xi).entries
        predictor = xi + solve_guarded(J, g_next - gamma_t)
        x_new, ok, iters, mode = newton_correct(m, predictor, g_next, cfg.tol, cfg.max_newton)
        newton_total += iters
        if ok and float(np.linalg.norm(x_new)) > 0.0:
            xi = x_new
            t = t_next
            gamma_t = g_next
            steps += 1
            if trace:
                waypoints.append((t, g_next.copy(), xi.copy()))
            streak = streak + 1 if iters <= 3 else 0
            if streak >= 3:
                step = min(step * 2.0, cfg.initial_step)
                streak = 0
        else:
            step *= 0.5
            streak = 0
            if step < cfg.min_step:
                # a correction that "converged" onto the origin failed because
                # Df is undefined there
                reason = mode if not ok else "singular"
                raise ContinuationFailedError(
                    f"continuation step underflowed below {cfg.min_step:g} at t = {t:.6f}",
                    last_t=t,
                    last_xi=xi.copy(),
                    seed_failures=((seed_index, reason),),
                )
    return xi, steps, newton_total, waypoints


def _require_report(m: MapSpec, report: HypothesisReport | None, force: bool,
                    allow_warn: bool = False) -> HypothesisReport:
    if report is None:
        if not force:
            raise PreconditionError(
                "hypotheses not checked: run the hypothesis checks first, or "
                "force the computation to proceed at your own risk"
            )
        # forcing an unchecked map still needs the sample and the sphere
        # extrema, so run the checks here and ignore the verdict
        from .hypotheses import check_hypotheses

        return check_hypotheses(m)
    if not report.matches(m):
        raise PreconditionError(
            "the hypothesis report was computed for a different map (dimension, "
            "order or body differ); check this map and pass its own report"
        )
    acceptable = ("pass", _STATUS_WARN) if allow_warn else ("pass",)
    if report.status not in acceptable and not force:
        raise PreconditionError(
            f"hypothesis check did not pass (status '{report.status}', reasons "
            f"{list(report.reasons)}); force the computation to override"
        )
    return report


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest ``scores`` (all of them when ``k`` exceeds
    their number), largest first, ties in index order: the same list as
    ``np.argsort(-scores, kind="stable")[:k]`` without sorting every score.
    ``scores`` must hold no NaN."""
    n = len(scores)
    k = min(k, n)
    kth = np.partition(scores, n - k)[n - k]
    candidates = np.flatnonzero(scores >= kth)
    return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]


def invert(m: MapSpec, eta, cfg: ContinuationConfig | None = None,
           report: HypothesisReport | None = None, *, force: bool = False,
           trace: bool = False) -> InversionResult:
    """Compute the unique preimage of ``eta`` under an admissible map.

    Requires a passing :class:`~hominv.hypotheses.HypothesisReport` (use
    ``force=True`` to override, e.g. to lift paths under a map that is merely
    a covering).  ``eta = 0`` returns the origin exactly.  The result's
    preimage radius always lies in the coercivity bracket, up to estimation
    slack.

    Raises
    ------
    PreconditionError
        No report, a report computed for another map (even with ``force``),
        or a non-passing one without ``force``.
    ContinuationFailedError
        Step-size underflow on every candidate seed; carries the furthest
        waypoint reached.
    SingularJacobianError
        A numerically singular Jacobian at a point on the tracked path
        (evidence the nonvanishing-determinant hypothesis fails).
    """
    if cfg is None:
        cfg = ContinuationConfig()
    e = np.asarray(eta, dtype=float)
    if e.ndim != 1 or e.shape[0] != m.n:
        raise InvalidInputError(f"eta must be a vector of length {m.n}")
    if not np.all(np.isfinite(e)):
        raise InvalidInputError("eta contains non-finite components")
    # hypot, unlike the norm, neither underflows nor overflows at extreme |eta|
    mag = math.hypot(*e)
    if mag == 0.0:
        return InversionResult(
            xi=np.zeros(m.n),
            residual=0.0,
            steps=0,
            newton_iters_total=0,
            bracket=(0.0, 0.0),
            path_waypoints=() if trace else None,
        )
    report = _require_report(m, report, force)
    bracket = coercivity_bracket(report, e, m.kappa)
    omega = e / mag
    scale_back = mag ** (1.0 / m.kappa)

    points = report.sample.points
    images = report.images
    norms = report.image_norms
    usable = np.isfinite(norms) & (norms > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (images @ omega) / norms
    scores[~usable] = -np.inf

    failures: list[tuple[int, str]] = []
    last_failure: ContinuationFailedError | None = None
    for k in _top_k(scores, cfg.seed_attempts).tolist():
        if not usable[k]:
            continue
        try:
            xi_unit, steps, newects, waypoints = _continue_path(
                m, points[k], images[k], omega, cfg, trace, k
            )
        except ContinuationFailedError as err:
            failures.extend(err.seed_failures)
            last_failure = err
            continue
        polished, _ = _polish(m, xi_unit[None, :], omega)
        xi = scale_back * polished[0]
        residual = math.hypot(*(eval_map(m, xi) - e))
        if residual <= cfg.tol * max(1.0, mag):
            return InversionResult(
                xi=xi,
                residual=residual,
                steps=steps,
                newton_iters_total=newects,
                bracket=bracket,
                path_waypoints=tuple(waypoints) if trace else None,
            )
        failures.append((k, "residual-over-tol"))
        last_failure = ContinuationFailedError(
            f"tracked to t = 1 but the rescaled residual {residual:.3e} exceeds "
            f"tolerance",
            last_t=1.0,
            last_xi=xi,
        )
    if last_failure is not None:
        last_failure.seed_failures = tuple(failures)
        raise last_failure
    raise ContinuationFailedError("no usable seed: every sample image was zero")


def inverse_homogeneity_check(m: MapSpec, eta, taus, cfg: ContinuationConfig | None = None,
                              report: HypothesisReport | None = None, *,
                              force: bool = False) -> float:
    """Largest relative deviation of ``invert(tau * eta)`` from
    ``tau**(1/kappa) * invert(eta)`` over the given ``tau`` values.

    For an exact inverse this is zero because the inverse of an order-``kappa``
    homogeneous bijection is homogeneous of order ``1/kappa``.
    """
    base = invert(m, eta, cfg, report, force=force)
    base_norm = math.hypot(*base.xi)
    if base_norm == 0.0:
        raise InvalidInputError("eta must be nonzero for a homogeneity check")
    worst = 0.0
    e = np.asarray(eta, dtype=float)
    for tau in taus:
        tau = float(tau)
        if tau <= 0.0:
            raise InvalidParameterError("tau values must be positive")
        scaled = invert(m, tau * e, cfg, report, force=force)
        factor = tau ** (1.0 / m.kappa)
        dev = math.hypot(*(scaled.xi - factor * base.xi)) / (factor * base_norm)
        worst = max(worst, dev)
    return worst


def _roundtrips(m: MapSpec, etas, cfg: ContinuationConfig | None,
                report: HypothesisReport | None, force: bool):
    """Invert each row of a batch of nonzero targets; yields ``(eta, result,
    |f(xi) - eta| / |eta|)`` per target, in order."""
    for eta in np.atleast_2d(np.asarray(etas, dtype=float)):
        mag = math.hypot(*eta)
        if mag == 0.0:
            raise InvalidInputError("roundtrip targets must be nonzero")
        res = invert(m, eta, cfg, report, force=force)
        yield eta, res, res.residual / mag


def roundtrip_check(m: MapSpec, etas, cfg: ContinuationConfig | None = None,
                    report: HypothesisReport | None = None, *,
                    force: bool = False) -> float:
    """Largest relative roundtrip residual ``|f(invert(eta)) - eta| / |eta|``
    over a batch of nonzero targets."""
    worst = 0.0
    for _, _, rel in _roundtrips(m, etas, cfg, report, force):
        worst = max(worst, rel)
    return worst


def inverse_jacobian(m: MapSpec, xi) -> np.ndarray:
    """Derivative of the inverse at ``f(xi)``: the matrix inverse of
    ``Df(xi)`` (inverse function theorem).  ``xi`` is the preimage returned
    by :func:`invert`."""
    J = eval_jacobian(m, xi).entries
    return np.asarray(solve_guarded(J, np.eye(m.n)))
