"""Guarded linear solves and Newton iterations shared by the inverter and the
preimage counter, on the unvalidated kernels of :mod:`hominv.mapcore`.

One test, :func:`_nonsingular`, decides for one Jacobian or a stack of them
whether it is numerically singular.  :func:`newton_batch` is the one Newton
loop: the multistart of the preimage counter and the corrector of the path
tracker.  ``_polish`` takes up to two more Newton steps on each row of a
batch and keeps a step only when it strictly lowers that row's residual.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularJacobianError
from .mapcore import MapSpec, _eval_batch, _jacobian_batch, _row_norms

# |det J| below this multiple of the row-norm product (which bounds the
# determinant from above) counts as numerically singular; the ratio is a
# scale-free conditioning proxy
SINGULAR_RATIO = 1e-12

_POLISH_ROUNDS = 2


def _nonsingular(J: np.ndarray):
    """Whether ``J`` (one ``n x n`` matrix, or a stack ``(..., n, n)``, one
    answer per matrix) is numerically nonsingular: ``|det J|`` above
    ``SINGULAR_RATIO`` times the product of its row norms.  A determinant or
    product that is NaN or has overflowed fails the comparison."""
    det = np.abs(np.linalg.det(J))
    # np.linalg.norm(J, axis=-1) to the bit, without its per-call argument
    # handling; this runs at every continuation step
    row_norms = np.sqrt((J * J).sum(axis=-1))
    return det > SINGULAR_RATIO * row_norms.prod(axis=-1)


def solve_guarded(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``J x = rhs``; raise when J is numerically singular."""
    if not _nonsingular(J):
        raise _singular_error(J)
    return np.linalg.solve(J, rhs)


def _singular_error(J: np.ndarray) -> SingularJacobianError:
    det = abs(float(np.linalg.det(J)))
    return SingularJacobianError(f"|det J| = {det:.3e} is below the singularity threshold")


def newton_batch(m: MapSpec, starts: np.ndarray, target: np.ndarray, tol: float,
                 radius_cap, max_iter: int = 60):
    """Newton from every row of ``starts`` toward ``target`` (one vector, or
    one row per start) until ``|f(x) - target| <= tol * max(1, |target|)``.

    A row stops as ``"singular"`` at a numerically singular Jacobian or at
    the origin, as ``"diverged"`` when a step is not finite or leaves the
    ball of radius ``radius_cap`` (one value, or an array of one per start),
    and as ``"no-convergence"`` after ``max_iter`` steps.  Returns ``(X,
    converged, iters, mode)`` per row: last iterate (before a failed step),
    convergence, steps taken and mode.
    """
    X = np.array(starts, dtype=float)
    T = target if target.ndim == 2 else np.repeat(target[None, :], len(X), axis=0)
    iters, mode = np.full(len(X), max_iter), np.full(len(X), "no-convergence")
    # the rows still iterating, compressed; a row that stops is written out
    idx, x, t, scale = np.arange(len(X)), X, T, tol * np.maximum(1.0, _row_norms(T))
    cap = radius_cap  # an array is compressed with the rows; a scalar needs no copy

    def stop(rows, it, why) -> bool:
        """Stop ``rows`` at step ``it``; returns whether any row is left."""
        nonlocal idx, x, t, R, scale, cap
        if np.count_nonzero(rows) == rows.size:
            iters[idx], mode[idx] = it, why
            return False
        X[idx[rows]], iters[idx[rows]], mode[idx[rows]] = x[rows], it, why
        keep = ~rows
        idx, x, t, R, scale = idx[keep], x[keep], t[keep], R[keep], scale[keep]
        cap = cap[keep] if isinstance(cap, np.ndarray) else cap
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
        ok = _row_norms(x_new) <= cap
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
