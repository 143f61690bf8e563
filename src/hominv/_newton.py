"""Guarded linear solves and Newton iterations shared by the inverter and the
preimage counter, on the unvalidated kernels of :mod:`hominv.mapcore`.

One test, :func:`_nonsingular`, decides for one Jacobian or a stack of them
whether it is numerically singular, by the determinant of the Jacobian's
unit rows; it leaves scaling to :func:`~hominv.mapcore._norms`, so it has
one path at every scale.  :func:`newton_batch` is the one Newton
loop: the multistart of the preimage counter and the corrector of the path
tracker.  Both solve toward unit targets, and :func:`_diverge_radius` is
their one divergence rule, read from the report's coercivity bracket, so
neither holds an absolute scale.  ``_polish`` takes up to two more Newton
steps on each row of a batch and keeps a step only when it strictly lowers
that row's residual.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularJacobianError
from .mapcore import MapSpec, _eval_batch, _jacobian_batch, _norms, _row_norms

# |det J| below this multiple of the row-norm product (which bounds the
# determinant from above) counts as numerically singular; the ratio is a
# scale-free conditioning proxy
SINGULAR_RATIO = 1e-12

_POLISH_ROUNDS = 2
# a Newton row toward a unit target has diverged once it leaves this multiple
# of the upper end of the target's coercivity bracket
_DIVERGE_FACTOR = 110.0


@np.errstate(invalid="ignore")
def _hadamard_ratio(J: np.ndarray):
    """``|det J| / prod |row_i|`` of one ``n x n`` matrix, or of each matrix
    of a stack ``(..., n, n)``: the determinant of ``J`` with each row
    divided by its norm (:func:`~hominv.mapcore._norms`), at most 1 by
    Hadamard's inequality.  Scaling a row by a power of two scales its norm
    exactly, so the ratio does not depend on the scale of the rows.  A
    zero, infinite or NaN row gives NaN, with no RuntimeWarning."""
    return np.abs(np.linalg.det(J / _norms(J)[..., None]))


def _nonsingular(J: np.ndarray):
    """Whether ``J`` (one ``n x n`` matrix, or a stack ``(..., n, n)``, one
    answer per matrix) is numerically nonsingular: its
    :func:`_hadamard_ratio` above ``SINGULAR_RATIO``.  A NaN ratio fails
    the comparison."""
    return _hadamard_ratio(J) > SINGULAR_RATIO


def solve_guarded(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``J x = rhs``; raise when J is numerically singular."""
    if not _nonsingular(J):
        raise _singular_error(J)
    return np.linalg.solve(J, rhs)


def _singular_error(J: np.ndarray) -> SingularJacobianError:
    ratio = float(_hadamard_ratio(J))
    return SingularJacobianError(f"|det J| / prod |J_i| = {ratio:.3e} is not above the "
                                 f"singularity threshold {SINGULAR_RATIO:g}")


def _diverge_radius(report) -> float:
    """The divergence radius of a Newton row toward a unit target:
    ``_DIVERGE_FACTOR`` times the upper end ``(1 / c0)**(1 / kappa)`` of a
    unit target's coercivity bracket, from a report's ``c0_empirical > 0``
    and ``kappa``.  An upper end that overflows means no finite radius: the
    largest float, past which only a step that is not finite goes."""
    with np.errstate(divide="ignore", over="ignore"):
        r_hi = (1.0 / np.float64(report.c0_empirical)) ** (1.0 / report.kappa)
        return float(min(_DIVERGE_FACTOR * r_hi, np.finfo(float).max))


def newton_batch(m: MapSpec, starts: np.ndarray, target: np.ndarray, tol: float,
                 radius: float, max_iter: int = 60):
    """Newton from every row of ``starts`` toward ``target`` (one vector, or
    one row per start) until ``|f(x) - target| <= tol * max(1, |target|)``:
    ``tol`` relative at the unit targets of every caller.

    A row stops as ``"singular"`` at a numerically singular Jacobian or at
    the origin, as ``"diverged"`` when a step is not finite or leaves the
    ball of the finite ``radius`` (every caller's is
    :func:`_diverge_radius`), and as ``"no-convergence"`` after ``max_iter``
    steps.  Returns ``(X, converged, iters, mode)`` per row: last iterate
    (before a failed step), convergence, steps taken and mode.
    """
    X = np.array(starts, dtype=float)
    T = target if target.ndim == 2 else np.repeat(target[None, :], len(X), axis=0)
    iters, mode = np.full(len(X), max_iter), np.full(len(X), "no-convergence")
    # the rows still iterating, compressed; a row that stops is written out
    idx, x, t, scale = np.arange(len(X)), X, T, tol * np.maximum(1.0, _row_norms(T))

    def stop(rows, it, why) -> bool:
        """Stop ``rows`` at step ``it``; returns whether any row is left."""
        nonlocal idx, x, t, R, scale
        if np.count_nonzero(rows) == rows.size:
            iters[idx], mode[idx] = it, why
            return False
        X[idx[rows]], iters[idx[rows]], mode[idx[rows]] = x[rows], it, why
        keep = ~rows
        idx, x, t, R, scale = idx[keep], x[keep], t[keep], R[keep], scale[keep]
        return True

    for it in range(max_iter + 1):
        R = _eval_batch(m, x) - t
        done = _row_norms(R) <= scale
        if np.count_nonzero(done) and not stop(done, it, "converged") or it == max_iter:
            break
        nonzero = x.any(axis=1)
        if np.count_nonzero(nonzero) < nonzero.size and not stop(~nonzero, it, "singular"):
            break
        J = _jacobian_batch(m, x)
        good = _nonsingular(J)
        if np.count_nonzero(good) < good.size:
            if not stop(~good, it, "singular"):
                break
            J = J[good]
        x_new = x - np.linalg.solve(J, R[:, :, None])[:, :, 0]
        # a step that is not finite has a norm that is not either
        ok = _row_norms(x_new) <= radius
        if np.count_nonzero(ok) < ok.size:
            if not stop(~ok, it, "diverged"):
                break
            x_new = x_new[ok]
        x = x_new
    X[idx] = x
    return X, mode == "converged", iters, mode


def _polish(m: MapSpec, rows: np.ndarray, target: np.ndarray):
    """Up to two more Newton steps toward ``target`` (one vector for all rows,
    or one per row) on each row of a ``(B, n)`` batch of nonzero rows, keeping
    a step only when it strictly lowers that row's residual ``|f(x) - target|``.

    A row stops at its first step that does not lower its residual, or whose
    Jacobian is numerically singular, or whose candidate is not finite.
    Returns ``(polished rows, their residual norms)``.
    """
    X = np.array(rows, dtype=float)
    T = target if target.ndim == 2 else np.repeat(target[None, :], len(X), axis=0)
    R = _eval_batch(m, X) - T
    res = _row_norms(R)
    idx = np.flatnonzero(res > 0.0)
    for _ in range(_POLISH_ROUNDS):
        if idx.size == 0:
            break
        J = _jacobian_batch(m, X[idx])
        good = _nonsingular(J)
        idx = idx[good]
        cand = X[idx] - np.linalg.solve(J[good], R[idx, :, None])[:, :, 0]
        finite = np.isfinite(cand).all(axis=1)
        idx, cand = idx[finite], cand[finite]
        R_cand = _eval_batch(m, cand) - T[idx]
        res_cand = _row_norms(R_cand)
        better = res_cand < res[idx]
        idx = idx[better]
        X[idx], R[idx], res[idx] = cand[better], R_cand[better], res_cand[better]
        idx = idx[res[idx] > 0.0]
    return X, res
