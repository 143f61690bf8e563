"""Guarded linear solves and Newton iterations shared by the inverter and the
preimage counter.

One test, :func:`_nonsingular`, decides for a single Jacobian or a stack of
them whether it is numerically singular; :func:`solve_guarded`,
:func:`newton_batch` and :func:`_polish` all use it.  ``newton_correct`` is
the scalar corrector of the path tracker; ``newton_batch`` runs multistart
Newton on a batch of rows with a mask per row; ``_polish`` takes up to two
more Newton steps on each row of a batch and keeps a step only when it
strictly lowers that row's residual.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularJacobianError
from .mapcore import MapSpec, eval_jacobian_batch, eval_map

# |det J| below this multiple of the row-norm product (which bounds the
# determinant from above) counts as numerically singular; the ratio is a
# scale-free conditioning proxy
SINGULAR_RATIO = 1e-12

_DIVERGE_NORM = 1e12

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


def _row_norms(R: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``R``, bit for bit ``np.linalg.norm``
    of the row as a vector (the ``axis=1`` form rounds differently)."""
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


def solve_guarded(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``J x = rhs``; raise when J is numerically singular."""
    if not _nonsingular(J):
        det = abs(float(np.linalg.det(J)))
        raise SingularJacobianError(f"|det J| = {det:.3e} is below the singularity threshold")
    return np.linalg.solve(J, rhs)


def newton_correct(m: MapSpec, x0: np.ndarray, target: np.ndarray, tol: float, max_iter: int):
    """Newton iteration for ``f(x) = target`` from ``x0``.

    Returns ``(x, ok, iters, mode)`` with ``mode`` one of ``"converged"``,
    ``"singular"``, ``"diverged"``, ``"no-convergence"``.  Convergence is
    ``|f(x) - target| <= tol * max(1, |target|)``.
    """
    x = np.array(x0, dtype=float)
    scale = tol * max(1.0, float(np.linalg.norm(target)))
    for it in range(max_iter + 1):
        r = eval_map(m, x) - target
        if float(np.linalg.norm(r)) <= scale:
            return x, True, it, "converged"
        if it == max_iter:
            break
        J = eval_jacobian_batch(m, x[None, :])[0]
        try:
            dx = solve_guarded(J, r)
        except SingularJacobianError:
            return x, False, it, "singular"
        x = x - dx
        if not np.all(np.isfinite(x)) or float(np.linalg.norm(x)) > _DIVERGE_NORM:
            return x, False, it, "diverged"
    return x, False, max_iter, "no-convergence"


def newton_batch(m: MapSpec, starts: np.ndarray, target: np.ndarray, tol: float,
                 radius_cap: float, max_iter: int = 60):
    """Run Newton simultaneously from every row of ``starts``.

    Rows whose Jacobian goes numerically singular, that leave the ball of
    radius ``radius_cap``, or that fail to converge within ``max_iter`` are
    dropped.  Returns ``(roots, converged_mask)`` where ``roots`` is
    ``starts``-shaped with the final iterates.
    """
    X = np.array(starts, dtype=float)
    B, n = X.shape
    active = np.ones(B, dtype=bool)
    converged = np.zeros(B, dtype=bool)
    scale = tol * max(1.0, float(np.linalg.norm(target)))
    for _ in range(max_iter + 1):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        Xa = X[idx]
        R = eval_map(m, Xa) - target[None, :]
        res = np.linalg.norm(R, axis=1)
        done = res <= scale
        converged[idx[done]] = True
        active[idx[done]] = False
        idx = idx[~done]
        if idx.size == 0:
            continue
        Xa = X[idx]
        R = R[~done]
        # rows at the origin have no Jacobian; drop them before differentiating
        alive = np.linalg.norm(Xa, axis=1) > 0.0
        active[idx[~alive]] = False
        idx = idx[alive]
        if idx.size == 0:
            continue
        Xa, R = Xa[alive], R[alive]
        J = eval_jacobian_batch(m, Xa)
        good = _nonsingular(J)
        active[idx[~good]] = False
        idx = idx[good]
        if idx.size == 0:
            continue
        step = np.linalg.solve(J[good], R[good][:, :, None])[:, :, 0]
        Xn = Xa[good] - step
        ok = np.all(np.isfinite(Xn), axis=1) & (np.linalg.norm(Xn, axis=1) <= radius_cap)
        X[idx[ok]] = Xn[ok]
        active[idx[~ok]] = False
    return X, converged


def _polish(m: MapSpec, rows: np.ndarray, target: np.ndarray):
    """Up to two more Newton steps toward ``target`` on each row of a
    ``(B, n)`` batch of nonzero rows, keeping a step only when it strictly
    lowers that row's residual ``|f(x) - target|``.

    A row stops at its first step that does not lower its residual, or whose
    Jacobian is numerically singular, or whose candidate is not finite.
    Returns ``(polished rows, their residual norms)``.
    """
    X = np.array(rows, dtype=float)
    R = eval_map(m, X) - target
    res = _row_norms(R)
    idx = np.flatnonzero(res > 0.0)
    for _ in range(_POLISH_ROUNDS):
        if idx.size == 0:
            break
        J = eval_jacobian_batch(m, X[idx])
        good = _nonsingular(J)
        idx = idx[good]
        cand = X[idx] - np.linalg.solve(J[good], R[idx, :, None])[:, :, 0]
        finite = np.isfinite(cand).all(axis=1)
        idx, cand = idx[finite], cand[finite]
        R_cand = eval_map(m, cand) - target
        res_cand = _row_norms(R_cand)
        better = res_cand < res[idx]
        idx = idx[better]
        X[idx], R[idx], res[idx] = cand[better], R_cand[better], res_cand[better]
        idx = idx[res[idx] > 0.0]
    return X, res
