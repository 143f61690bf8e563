"""Representation and evaluation of positively homogeneous maps.

A map ``f`` on ``R^n \\ {0}`` is positively homogeneous of order ``kappa``
when ``f(tau * xi) == tau**kappa * f(xi)`` for every ``tau > 0``.  Such a map
is determined by its restriction to the unit sphere, and extending it by
``f(0) = 0`` is continuous because ``|f(xi)| <= C * |xi|**kappa`` with
``C = max_{|w|=1} |f(w)|``.

Two concrete bodies are supported:

* :class:`PolyMap` -- a vector of polynomials with a common total degree
  ``d``, optionally multiplied by the radial weight ``|xi|**(kappa - d)`` so
  that non-integer orders are representable.
* :class:`BlackBox` -- an opaque evaluator with a declared order and an
  optional Jacobian callback; central finite differences are used when the
  callback is absent.  By default its callbacks take one row at a time; a
  body declared ``batched`` takes all the nonzero rows of a batch in one
  call, so that a finite-difference Jacobian is one call on ``2n`` shifted
  rows per point.

Everything here is immutable after construction and free of side effects, so
maps can be shared between threads and evaluated concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    UndefinedAtOriginError,
)

__all__ = [
    "PolyMap",
    "BlackBox",
    "MapSpec",
    "eval_map",
    "eval_jacobian",
    "eval_jacobian_batch",
    "homogeneity_residual",
]

_EPS = float(np.finfo(float).eps)
# balances truncation against rounding for central differences
_FD_STEP = _EPS ** (1.0 / 3.0)
#: ``_norms`` keeps a row's ``_row_norms`` when it is finite and above
#: ``_NORM_LOW``: then the row's sum of squares is a normal float
_NORM_LOW = 2.0**-511
#: below this largest magnitude in a batch, no row of fewer than 2**24
#: entries has a square or a sum of squares that overflows (``_norms``)
_NORM_SAFE = 2.0**500
_SALT_HOMOGENEITY = 101
#: the largest total degree of a term; map files are held to it too
_MAX_DEGREE = 1000

Term = Tuple[float, Tuple[int, ...]]


def _as_matrix(points, n: int, name: str = "xi"):
    """Validate a point or batch of points; return ((B, n) array, was_single)."""
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
        single = True
    elif x.ndim == 2:
        single = False
    else:
        raise InvalidInputError(f"{name} must be a vector or a matrix of row vectors")
    if x.shape[1] != n:
        raise InvalidInputError(f"{name} must have {n} components, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite components")
    return x, single


def _coefficient_matrix(n: int, rows: int, entries):
    """Shared monomial basis of ``entries`` and the coefficients on it.

    ``entries`` yields ``(row, coeff, exponents)`` with no ``(row, exponents)``
    pair twice.  The ``M`` distinct monomials are numbered in order of first
    appearance.  Returns the gather index of :meth:`PolyMap._basis` (``n x M``:
    entry ``[j, m]`` is ``E[m, j] * n + j`` for the exponent matrix ``E``) and
    the ``rows x M`` coefficient matrix.
    """
    index: dict[Tuple[int, ...], int] = {}
    cells = [(r, index.setdefault(e, len(index)), c) for r, c, e in entries]
    E = np.array(list(index), dtype=np.intp).reshape(len(index), n)
    C = np.zeros((rows, len(index)))
    for r, k, c in cells:
        C[r, k] = c
    return np.ascontiguousarray(E.T * n + np.arange(n)[:, None]), C


class PolyMap:
    """A vector of multivariate polynomials in canonical form.

    Parameters
    ----------
    n : int
        Number of variables (and of components; the map is square), at
        least 1.
    components : sequence of sequences of ``(coeff, exponents)``
        One term list per component.  ``exponents`` is a length-``n`` tuple of
        nonnegative integers with a sum of at most 1000.  Terms are
        canonicalized on construction: duplicate exponent tuples are merged,
        exact-zero coefficients dropped, and monomials sorted in descending
        graded-lexicographic order.  A coefficient, given or merged, that is
        not finite, or whose product with an exponent (a Jacobian coefficient)
        overflows, raises ``InvalidParameterError``.

    ``n`` and every exponent must be a Python or numpy integer (the rule of
    :func:`_integer`): a float, even a whole one, raises
    ``InvalidParameterError`` instead of being truncated.

    Notes
    -----
    The uniform-degree invariant (every monomial shares one total degree) is
    *not* enforced here; :func:`hominv.polyparser.check_homogeneity_symbolic`
    verifies it and :func:`hominv.polyparser.parse_map` rejects violations.
    ``degree`` is the largest total degree present, or 1 for the zero map so
    that a default order is always well defined.

    Evaluation runs on a shared monomial basis.  The ``M`` distinct monomials
    of all components form an exponent matrix ``E`` (``M x n``) with
    coefficients ``C`` (``n x M``), so the values at a batch ``X`` are
    ``basis(X, E) @ C.T``.  The first partials likewise share the ``M'``
    distinct degree ``d - 1`` monomials ``E'`` with coefficients ``D``
    (``n**2 x M'``, row ``i*n + j`` holding ``dP_i/dx_j``), so the Jacobian is
    ``basis(X, E') @ D.T`` reshaped to ``(B, n, n)``.  ``basis`` reads every
    monomial from one power table ``X**k``, ``k = 0..d``, one variable's
    factors at a time.  Values and Jacobians read the same table, so where
    both are wanted at the same points the table is built once and passed
    to both.  The table is built by multiplication and a one-row batch is
    evaluated as two equal rows, so the kernel is batch-invariant: a row's
    value and Jacobian have the same bits in a batch of any size.
    ``components`` remains the canonical form that formatting and equality
    use.
    """

    __slots__ = ("n", "components", "degree", "_E", "_C", "_dE", "_D")

    def __init__(self, n: int, components: Sequence[Sequence[Term]]):
        n = _integer(n, 1, "dimension n")
        if len(components) != n:
            raise InvalidParameterError(
                f"expected {n} components for a square map, got {len(components)}"
            )
        canon = []
        for comp in components:
            acc: dict[Tuple[int, ...], float] = {}
            for coeff, exponents in comp:
                e = tuple(_integer(v, 0, "exponent", "exponents must be nonnegative")
                          for v in exponents)
                if len(e) != n:
                    raise InvalidParameterError(
                        f"exponent tuple {e} does not have length n={n}"
                    )
                if sum(e) > _MAX_DEGREE:
                    raise InvalidParameterError(
                        f"the total degree of a term must be at most {_MAX_DEGREE}"
                    )
                acc[e] = acc.get(e, 0.0) + float(coeff)
            # a sum is finite only if its terms are, and the Jacobian's
            # coefficients c * e[j] are when the largest of them is
            for e, c in acc.items():
                for what, v in (("coefficient", c), ("Jacobian coefficient", c * max(e))):
                    if not math.isfinite(v):
                        err = InvalidParameterError(f"the {what} of the monomial {e} in "
                                                    f"component {len(canon) + 1} is not "
                                                    f"finite: {v!r}")
                        err._monomial = (len(canon), e, what)  # where parse_map points
                        raise err
            terms = tuple(
                (c, e)
                for e, c in sorted(
                    acc.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
                )
                if c != 0.0
            )
            canon.append(terms)
        self.n = n
        self.components = tuple(canon)
        degrees = [sum(e) for terms in canon for _, e in terms]
        self.degree = max(degrees) if degrees else 1
        # E and E' are kept as the gather indices of _basis
        self._E, self._C = _coefficient_matrix(
            n, n, ((i, c, e) for i, terms in enumerate(canon) for c, e in terms)
        )
        self._dE, self._D = _coefficient_matrix(
            n,
            n * n,
            (
                (i * n + j, c * e[j], e[:j] + (e[j] - 1,) + e[j + 1 :])
                for i, terms in enumerate(canon)
                for c, e in terms
                for j in range(n)
                if e[j]
            ),
        )

    def _power_table(self, X: np.ndarray) -> np.ndarray:
        """The power table of a ``(B, n)`` batch: row ``k*n + j`` holds
        ``X[:, j]**k`` for ``k = 0..d``.  Values and Jacobians both read it.

        ``X**k`` is ``X**(k-1) * X``, never ``np.power``, whose rounding
        changes with the array's shape: a product of ``k`` factors, within
        ``gamma_{k-1} |x**k|`` of the exact power while no power underflows
        or overflows (Higham, *Accuracy and Stability of Numerical
        Algorithms*, §3.1), whose bits do not depend on the batch.  A
        one-row batch gets two equal columns, so that its basis product
        takes the many-row path and rounds as a row of any other batch
        does."""
        P = np.empty((self.degree + 1, self.n, len(X) + (len(X) == 1)))
        P[0], P[1] = 1.0, X.T
        for k in range(2, self.degree + 1):
            np.multiply(P[k - 1], P[1], out=P[k])
        # the column count is inferred, which an empty batch can do
        return P.reshape(len(P) * self.n, -1)

    def _basis(self, P: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Monomials of a batch as a ``(B, M)`` view, from its power table
        ``P``: ``index[j]`` picks each monomial's factor in variable ``j``, so
        the basis is ``n`` row gathers multiplied together."""
        out = P.take(index[0], axis=0)
        for j in range(1, self.n):
            out *= P.take(index[j], axis=0)
        return out.T

    def evaluate(self, points: np.ndarray, _table: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the polynomial part at a ``(B, n)`` batch; returns ``(B, n)``.

        ``_table`` is the batch's power table when the caller has built it."""
        X = np.asarray(points, dtype=float)
        P = self._power_table(X) if _table is None else _table
        return (self._basis(P, self._E) @ self._C.T)[:len(X)]

    def jacobian(self, points: np.ndarray, _table: np.ndarray | None = None) -> np.ndarray:
        """Exact derivative of the polynomial part at a ``(B, n)`` batch.

        Returns ``(B, n, n)`` with entry ``[b, i, j] = dP_i/dx_j`` obtained by
        term-wise differentiation.  ``_table`` is as in :meth:`evaluate`.
        """
        X = np.asarray(points, dtype=float)
        P = self._power_table(X) if _table is None else _table
        return (self._basis(P, self._dE) @ self._D.T)[:len(X)].reshape(len(X), self.n, self.n)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __repr__(self):
        return f"PolyMap(n={self.n}, degree={self.degree}, components={self.components!r})"


@dataclass(frozen=True)
class BlackBox:
    """Opaque evaluator for a map assumed positively homogeneous.

    ``eval`` must be defined for every nonzero point.  By default
    (``batched=False``) it takes a length-``n`` float array and returns one,
    and it is called once per nonzero row of a batch.  A ``batched`` body
    treats rows as independent: ``eval`` takes a ``(k, n)`` array of nonzero
    rows and returns ``(k, n)``, and it is called once per batch with the
    batch's nonzero rows in order.  Either way the origin maps to zero
    without a call, and a result of any other shape raises
    :class:`~hominv.errors.InvalidInputError`.  Treat the argument as
    read-only: a per-row call gets a view of the batch's row, and on the
    shared sphere sample of :func:`hominv.hypotheses.sample_sphere` that
    view is not writeable, so writing into it raises ``ValueError``.
    ``jacobian``, when provided,
    returns the exact derivative, ``(n, n)`` for one row or ``(k, n, n)``
    for a batched body's ``k`` rows; otherwise central finite differences
    with step ``eps**(1/3) * max(1, |xi|)`` are used, whose shifted rows go
    through ``eval`` in the same way.  ``declared_kappa`` is the claimed
    homogeneity order; it is *trusted* for evaluation and *measured* by
    :func:`hominv.hypotheses.check_hypotheses`.

    The sphere refinement of that check evaluates each line search's whole
    ladder of steps in one batch, values and Jacobians, including rungs the
    search never reads.  A ``batched`` body takes a ladder in one or two
    calls; a per-row body takes one call a rung (``2n`` for a
    finite-difference Jacobian).  Wrapping a random admissible n = 4 map
    per-row with finite differences, a check made 27.2 to 29.8 thousand
    evaluator calls at 2 000 sample points where reading one rung a call
    made 19.7 to 20.5 thousand, and 368.0 to 370.6 thousand at the default
    40 000 points where it made 361.5 to 362.4 thousand.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    declared_kappa: float
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batched: bool = False


class MapSpec:
    """A positively homogeneous map: dimension, order, and a body.

    For :class:`PolyMap` bodies the value is ``|xi|**(kappa - d) * P(xi)``
    where ``d`` is the polynomial degree; ``kappa`` defaults to ``d``, in
    which case the radial weight disappears and the map is plain polynomial.
    ``radial_exponent`` records ``kappa - d`` (always ``0.0`` for black-box
    bodies, whose scaling behaviour is their own business).

    Parameters
    ----------
    body : PolyMap or BlackBox
    kappa : float, optional
        Homogeneity order; must be positive.  Defaults to the polynomial
        degree (PolyMap) or the declared order (BlackBox).
    n : int, optional
        Dimension, an integer of at least 1 as in :class:`PolyMap`; required
        for black-box bodies, inferred for polynomials.
    """

    __slots__ = ("body", "n", "kappa", "radial_exponent")

    def __init__(self, body: Union[PolyMap, BlackBox], kappa: float | None = None, *, n: int | None = None):
        if isinstance(body, PolyMap):
            if n is not None and _integer(n, 1, "dimension n") != body.n:
                raise InvalidParameterError("n disagrees with the polynomial body")
            self.n = body.n
            k = float(body.degree) if kappa is None else float(kappa)
            self.radial_exponent = k - float(body.degree)
        elif isinstance(body, BlackBox):
            if n is None:
                raise InvalidParameterError("n is required for black-box bodies")
            self.n = _integer(n, 1, "dimension n")
            k = float(body.declared_kappa) if kappa is None else float(kappa)
            if kappa is not None and k != float(body.declared_kappa):
                raise InvalidParameterError("kappa disagrees with declared_kappa")
            self.radial_exponent = 0.0
        else:
            raise InvalidParameterError("body must be a PolyMap or a BlackBox")
        if not np.isfinite(k) or k <= 0.0:
            raise InvalidParameterError("kappa must be a positive finite real")
        self.kappa = k
        self.body = body

    @property
    def is_poly(self) -> bool:
        return isinstance(self.body, PolyMap)

    def __repr__(self):
        kind = "poly" if self.is_poly else "blackbox"
        return f"MapSpec(n={self.n}, kappa={self.kappa}, body={kind})"


def eval_map(m: MapSpec, xi) -> np.ndarray:
    """Evaluate ``f`` at a point or at a ``(B, n)`` batch of points.

    The origin maps to the zero vector (the continuous extension).  Weighted
    polynomial bodies are evaluated as ``|xi|**kappa * P(xi/|xi|)``, which
    keeps relative accuracy uniform across many orders of magnitude in
    ``|xi|``; ``|xi|`` is :func:`_norms`, which rescales a row whose sum of
    squares would underflow or overflow by an exact power of two.

    Raises
    ------
    InvalidInputError
        If ``xi`` has the wrong shape or non-finite entries.
    """
    X, single = _as_matrix(xi, m.n)
    out = _eval_batch(m, X)
    return out[0] if single else out


def _row_norms(R: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of an ``(..., n)`` array ``R``: the
    square root of each row's dot product, bit for bit ``np.linalg.norm`` of
    the row as a vector (the ``axis`` form rounds differently).  A row whose
    sum of squares underflows or overflows gets a wrong norm; :func:`_norms`
    guards against that where the caller's data sets the scale."""
    return np.sqrt((R[..., None, :] @ R[..., :, None])[..., 0, 0])


def _norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of an ``(..., n)`` array, at every
    scale, with no RuntimeWarning.

    A row whose :func:`_row_norms` is finite and above ``_NORM_LOW``, so
    that its sum of squares is a normal float, gets those bits, and a zero
    row gets 0.  Any other row (its sum subnormal, infinite or NaN) is
    scaled by the power of two that brings its largest entry into
    ``[0.5, 1)`` before squaring, and its norm is scaled back (Blue, ACM
    TOMS 1978; LAPACK's ``dnrm2``).  That scaling is exact, so
    ``2**k * (3, 4, 12)`` gets ``2**k * 13`` for every ``k`` that keeps the
    row finite.  Each row takes its route by its own values alone, so a
    row's norm never depends on its batch, and ``_NORM_SAFE`` decides
    speed only.  A row with an infinite entry gets ``inf``, and a row with
    a NaN NaN.
    """
    # below _NORM_SAFE no square or sum overflows; the ufuncs' own reduce
    # skips the array methods' argument handling, a third of this guard's
    # cost on one row.  A zero row (an exact residual) keeps its norm 0 here
    if np.maximum.reduce(np.abs(X), axis=None, initial=0.0) < _NORM_SAFE:
        r = _row_norms(X)
        if np.minimum.reduce(r, axis=None, initial=1.0) > _NORM_LOW or not X[r <= _NORM_LOW].any():
            return r
    R = X.reshape(-1, X.shape[-1])
    with np.errstate(over="ignore"):
        r = _row_norms(R)
        out = ~((r > _NORM_LOW) & (r < np.inf))
        _, e = np.frexp(np.abs(R[out]).max(axis=1, initial=0.0))
        r[out] = np.ldexp(_row_norms(np.ldexp(R[out], -e[:, None])), e)
    return r.reshape(X.shape[:-1])


def _rows(fn: Callable[[np.ndarray], np.ndarray], X: np.ndarray, shape: Tuple[int, ...],
          batched: bool) -> np.ndarray:
    """``fn`` called once on each nonzero row of ``X``, or once on all of
    them in row order when ``batched``, its results as floats of ``shape``
    per row, stacked in row order; zero rows give zeros (the continuous
    extension), and any other shape raises :class:`InvalidInputError`."""
    out = np.zeros((len(X),) + shape)
    nz = np.flatnonzero(X.any(axis=1))
    # keys index X and out: a row number, or all the nonzero rows at once
    keys = ([nz] if len(nz) else []) if batched else nz
    for k in keys:
        val = np.asarray(fn(X[k]), dtype=float)
        want = np.shape(k) + shape
        if val.shape != want:
            raise InvalidInputError(
                f"black-box body returned shape {val.shape}, expected {want}"
            )
        out[k] = val
    return out


def _eval_batch(m: MapSpec, X: np.ndarray) -> np.ndarray:
    body = m.body
    if isinstance(body, PolyMap):
        if m.radial_exponent == 0.0:
            # plain polynomial: exact at the origin too (degree >= 1)
            return body.evaluate(X)
        r = _norms(X)
        # an origin row is divided by the smallest positive float, below any
        # other row's norm, and scaled by 0**kappa = 0
        return (r ** m.kappa)[:, None] * body.evaluate(X / np.maximum(r, 5e-324)[:, None])
    return _rows(body.eval, X, (m.n,), body.batched)


def _eval_jac_batch(m: MapSpec, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values and Jacobians of ``f`` at a finite ``(B, n)`` batch of nonzero
    rows, ``(F, J)``, bit for bit ``_eval_batch(m, X)`` and
    ``_jacobian_batch(m, X)``.  A polynomial body builds one power table for
    both; a black box is called for the values first."""
    body = m.body
    if not isinstance(body, PolyMap):
        return _eval_batch(m, X), _jacobian_batch(m, X)
    if m.radial_exponent == 0.0:
        P = body._power_table(X)
        return body.evaluate(X, _table=P), body.jacobian(X, _table=P)
    r, V, J = _weighted_jacobian(m, X)
    return (r ** m.kappa)[:, None] * V, J


def _weighted_jacobian(m: MapSpec, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(r, P(u), Df)`` of a weighted polynomial body at a finite batch of
    nonzero rows, with ``r = |xi|`` and ``u = xi/r``: the product rule
    ``Df = r**(kappa-1) * (DP(u) + alpha * P(u) u^T)``, ``alpha = kappa - d``,
    with ``P(u)`` and ``DP(u)`` read from one power table."""
    body = m.body
    r = _norms(X)
    U = X / r[:, None]
    P = body._power_table(U)
    DP = body.jacobian(U, _table=P)
    V = body.evaluate(U, _table=P)
    J = DP + m.radial_exponent * (V[:, :, None] * U[:, None, :])
    return r, V, (r ** (m.kappa - 1.0))[:, None, None] * J


def eval_jacobian_batch(m: MapSpec, points) -> np.ndarray:
    """Jacobian of ``f`` at a ``(B, n)`` batch of nonzero points; ``(B, n, n)``.

    Polynomial bodies are differentiated exactly; the radial weight
    contributes the rank-one product-rule correction
    ``Df = r**(kappa-1) * (DP(u) + alpha * P(u) u^T)`` with ``u = xi/r`` and
    ``alpha = kappa - d``.  Black-box bodies use the Jacobian callback, on
    each row or once on the batch for a batched body, or central
    differences: the ``2n`` shifted rows ``xi +- h e_j`` of every row,
    ``h = eps**(1/3) * max(1, |xi|)``, in one batch through the evaluator
    and its shape check.
    """
    X, _ = _as_matrix(points, m.n)
    if np.any(np.all(X == 0.0, axis=1)):
        raise UndefinedAtOriginError("the Jacobian is undefined at the origin")
    return _jacobian_batch(m, X)


def _jacobian_batch(m: MapSpec, X: np.ndarray) -> np.ndarray:
    """:func:`eval_jacobian_batch` without validation: ``X`` must be a finite
    ``(B, n)`` array of nonzero rows."""
    body = m.body
    if isinstance(body, PolyMap):
        if m.radial_exponent == 0.0:
            return body.jacobian(X)
        return _weighted_jacobian(m, X)[2]
    if body.jacobian is not None:
        return _rows(body.jacobian, X, (m.n, m.n), body.batched)
    # central differences: row b, column j, side s of the batch is
    # x_b + h_b e_j (s = 0) or x_b - h_b e_j (s = 1)
    B, n = X.shape
    h = _FD_STEP * np.maximum(1.0, _norms(X))
    steps = h[:, None, None] * np.eye(n)
    shifted = np.stack([X[:, None, :] + steps, X[:, None, :] - steps], axis=2)
    F = _eval_batch(m, shifted.reshape(-1, n)).reshape(B, n, 2, n)
    D = (F[:, :, 0] - F[:, :, 1]) / (2.0 * h)[:, None, None]
    # C order: a transposed view rounds differently in later products
    return np.ascontiguousarray(D.transpose(0, 2, 1))


def eval_jacobian(m: MapSpec, xi) -> np.ndarray:
    """Jacobian of ``f`` at a single nonzero point, an ``(n, n)`` array.

    Raises
    ------
    UndefinedAtOriginError
        At ``xi = 0``.
    InvalidInputError
        For malformed or non-finite input.
    """
    x = np.asarray(xi, dtype=float)
    if x.ndim != 1:
        raise InvalidInputError("eval_jacobian expects a single point")
    return eval_jacobian_batch(m, x[None, :])[0]


def _integer(value, least: int, name: str, below: str | None = None) -> int:
    """A user seed, count, dimension or exponent ``value`` as an ``int``: a
    Python or numpy integer of at least ``least``, since ``int`` would
    truncate a float.  Anything else raises :class:`InvalidParameterError`:
    a value that is not an integer with "``name`` must be an integer", and
    one under ``least`` with ``below``, by default "``name`` must be >=
    ``least``"."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer") from None
    if value < least:
        raise InvalidParameterError(below or f"{name} must be >= {least}")
    return value


def _seed(seed) -> int:
    """A user ``seed`` as an ``int``, by the rule of :func:`_integer`."""
    return _integer(seed, 0, "seed", "seed must be a nonnegative integer")


def _rng(seed, salt: int) -> np.random.Generator:
    """The generator of the stream that ``salt`` names, from a user ``seed``."""
    return np.random.default_rng([_seed(seed), salt])


def _unit_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` seeded unit directions in R^n: standard normal rows drawn
    from ``rng`` and normalised, a row with norm under 1e-12 drawn again.
    S^0 has exactly two points, which a random draw can miss, so in R^1 the
    rows are +1, -1, +1, ... and nothing is drawn."""
    if n == 1:
        signs = np.ones((count, 1))
        signs[1::2] = -1.0
        return signs
    dirs = rng.standard_normal((count, n))
    norms = _row_norms(dirs)
    while np.any(norms < 1e-12):  # essentially never; keeps the math airtight
        bad = norms < 1e-12
        dirs[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = _row_norms(dirs)
    return np.divide(dirs, norms[:, None], out=dirs)


def _log_uniform_targets(rng: np.random.Generator, count: int, n: int, low: float,
                         high: float) -> np.ndarray:
    """``count`` seeded targets in R^n: the :func:`_unit_directions` of
    ``rng``, then, from the same stream, magnitudes ``10**u`` with ``u``
    uniform on ``[low, high]``, one per direction."""
    directions = _unit_directions(rng, count, n)
    return 10.0 ** rng.uniform(low, high, size=count)[:, None] * directions


def _taus(taus) -> list[float]:
    """The scale factors ``taus`` as floats, each positive and finite."""
    taus = [float(tau) for tau in taus]
    if not all(0.0 < tau < np.inf for tau in taus):
        raise InvalidParameterError("tau values must be positive")
    return taus


def homogeneity_residual(m: MapSpec, count: int = 100, seed: int = 0, taus=None) -> float:
    """Largest sampled relative deviation from order-``kappa`` scaling.

    Draws ``count`` unit directions with log-uniform scale factors
    ``tau in [1e-3, 1e3]``, plus a fixed decade ladder
    ``{1e-3, 1e-2, 1e-1, 1e1, 1e2, 1e3}`` applied to the first direction
    (``taus``, positive and finite, overrides the ladder), and returns::

        max |f(tau xi) - tau**kappa f(xi)| / (tau**kappa * max(1, |f(xi)|))

    Exactly homogeneous maps sit at rounding level (~1e-15); a residual above
    ~1e-8 is a reliable sign that the declared order is wrong for the body.
    """
    count = _integer(count, 1, "count")
    rng = _rng(seed, _SALT_HOMOGENEITY)
    dirs = _unit_directions(rng, count, m.n)
    t_rand = 10.0 ** rng.uniform(-3.0, 3.0, size=count)
    ladder = (1e-3, 1e-2, 1e-1, 1e1, 1e2, 1e3) if taus is None else _taus(taus)
    X = np.vstack([dirs, np.repeat(dirs[:1], len(ladder), axis=0)])
    T = np.concatenate([t_rand, np.asarray(ladder, dtype=float)])
    F1 = _eval_batch(m, X)
    F2 = _eval_batch(m, T[:, None] * X)
    scale = T ** m.kappa
    dev = _norms(F2 - scale[:, None] * F1)
    denom = scale * np.maximum(1.0, _norms(F1))
    return float(np.max(dev / denom))
