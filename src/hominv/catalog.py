"""Ready-made maps used by the demos and the test-suite.

Every builder returns a :class:`~hominv.mapcore.MapSpec`.  The admissible
examples (nonvanishing Jacobian determinant away from the origin) double as
regression anchors: several have closed-form inverses or known extrema of
``|f|`` on the unit sphere.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidParameterError
from .mapcore import BlackBox, MapSpec, PolyMap, _integer, _rng, eval_jacobian_batch, eval_map

__all__ = [
    "identity_map",
    "linear_map",
    "diag_map",
    "radial_linear_map",
    "reflection_map",
    "radial_cube_map",
    "axis_cube_map",
    "complex_square_map",
    "random_admissible_map",
    "random_polymap_spec",
    "perturbed_radial_blackbox",
    "blackbox_of",
    "acceptance_maps",
]

_SALT_ADMISSIBLE = 211
_SALT_RANDOM_POLY = 223


def _monomial(n: int, *factors: int) -> tuple[int, ...]:
    """The exponents of the product of the variables ``x_i``, ``i`` in
    ``factors`` (with repeats), in ``n`` variables."""
    return tuple(factors.count(k) for k in range(n))


def identity_map(n: int = 3) -> MapSpec:
    """The identity, order 1."""
    return diag_map([1.0] * _integer(n, 1, "dimension n"))


def linear_map(matrix, kappa: float = 1.0) -> MapSpec:
    """``f(xi) = |xi|**(kappa-1) * A xi``; plain linear when ``kappa = 1``.

    ``A`` must be square; invertibility is what makes the result admissible,
    and is checked empirically by the hypothesis checker, not here.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidParameterError("matrix must be square")
    n = A.shape[0]
    comps = [
        [(float(A[i, j]), _monomial(n, j)) for j in range(n) if A[i, j] != 0.0]
        for i in range(n)
    ]
    return MapSpec(PolyMap(n, comps), kappa=kappa)


def diag_map(diagonal=(1.0, 2.0, 3.0)) -> MapSpec:
    """Diagonal linear map, order 1: :func:`radial_linear_map` at ``kappa = 1``."""
    return radial_linear_map(diagonal, kappa=1.0)


def radial_linear_map(diagonal=(1.0, 2.0, 3.0), kappa: float = 2.0) -> MapSpec:
    """``f(xi) = |xi|**(kappa-1) * diag(d) xi``; ``d`` must be a vector.

    Has the closed-form inverse ``xi = u * |u|**((1-kappa)/kappa)`` with
    ``u = diag(d)^{-1} eta``, which the tests use as an oracle.
    """
    d = np.asarray(diagonal, dtype=float)
    if d.ndim != 1:
        raise InvalidParameterError("diagonal must be a vector")
    return linear_map(np.diag(d), kappa=kappa)


def reflection_map(n: int = 3) -> MapSpec:
    """``(x1, ..., xn) -> (-x1, x2, ..., xn)``: orientation-reversing, order 1."""
    return diag_map([-1.0] + [1.0] * (_integer(n, 1, "dimension n") - 1))


def radial_cube_map(n: int = 3) -> MapSpec:
    """``f(xi) = |xi|**2 xi`` written as a degree-3 polynomial, order 3.

    ``|f| = 1`` on the whole unit sphere, and ``det Df = 3 |xi|**6`` for
    ``n = 3``, so the map is admissible in every dimension.
    """
    n = _integer(n, 1, "dimension n")
    return MapSpec(PolyMap(n, [[(1.0, _monomial(n, i, j, j)) for j in range(n)] for i in range(n)]))


def axis_cube_map(n: int = 3) -> MapSpec:
    """``(x1**3, ..., xn**3)``: globally invertible but *inadmissible* --
    ``det Df = 3**n (x1 ... xn)**2`` vanishes on the coordinate planes."""
    n = _integer(n, 1, "dimension n")
    return MapSpec(PolyMap(n, [[(1.0, _monomial(n, i, i, i))] for i in range(n)]))


def complex_square_map() -> MapSpec:
    """The planar squaring map ``(x, y) -> (x**2 - y**2, 2xy)``, order 2.

    Its Jacobian determinant ``4(x**2 + y**2)`` never vanishes off the origin,
    yet ``f(x, y) = f(-x, -y)``: every nonzero target has exactly two
    preimages.  This is why the dimension gate ``n >= 3`` exists -- in the
    plane the hypotheses do not force injectivity.
    """
    p1 = [(1.0, (2, 0)), (-1.0, (0, 2))]
    p2 = [(2.0, (1, 1))]
    return MapSpec(PolyMap(2, [p1, p2]))


def random_admissible_map(
    n: int = 4, seed: int = 7, kappa: float = 3.5, perturbation: float = 0.2
) -> MapSpec:
    """Seeded random admissible map with a radial weight.

    Construction: a random homogeneous cubic ``Q`` is added to the radial
    cube ``P0(xi) = |xi|**2 xi`` and scaled so that a conservative bound on
    ``|DQ| + |kappa - 3| |Q|`` over the unit sphere stays below
    ``perturbation``.  Since ``DP0 + alpha P0 u^T`` has smallest singular
    value 1 on the sphere, the perturbed Jacobian stays nonsingular.  The
    guarantee is re-verified empirically by the hypothesis checker in the
    tests; nothing downstream relies on the bound alone.
    """
    n = _integer(n, 1, "dimension n")
    if not 0.0 <= perturbation < 0.5:
        raise InvalidParameterError("perturbation must lie in [0, 0.5)")
    rng = _rng(seed, _SALT_ADMISSIBLE)
    monos = [_monomial(n, *combo) for combo in combinations_with_replacement(range(n), 3)]
    coeffs = rng.standard_normal((n, len(monos)))
    per_comp = np.abs(coeffs).sum(axis=1) * 3.0  # gradient bound per component
    denom = float(np.sqrt((per_comp**2).sum())) * (1.0 + abs(kappa - 3.0))
    s = perturbation / denom if denom > 0 else 0.0
    base = radial_cube_map(n).body
    comps = []
    for i in range(n):
        terms = list(base.components[i])
        terms.extend((s * float(coeffs[i, k]), monos[k]) for k in range(len(monos)))
        comps.append(terms)
    return MapSpec(PolyMap(n, comps), kappa=kappa)


def random_polymap_spec(seed: int, n_max: int = 4, degree_max: int = 4, terms_max: int = 6) -> MapSpec:
    """Seeded random *valid* polynomial map (uniform degree, possibly with a
    radial weight).  Not necessarily admissible; meant for parser and
    evaluation round-trip tests."""
    rng = _rng(seed, _SALT_RANDOM_POLY)
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, degree_max + 1))
    comps = []
    for i in range(n):
        k = int(rng.integers(0 if i else 1, terms_max + 1))
        terms = []
        for _ in range(k):
            e = tuple(int(v) for v in rng.multinomial(d, [1.0 / n] * n))
            terms.append((float(rng.standard_normal()), e))
        comps.append(terms)
    kappa = None
    if rng.random() < 0.5:
        kappa = float(d + rng.uniform(-0.5, 2.0))
        if kappa <= 0.1:
            kappa = 0.5
    return MapSpec(PolyMap(n, comps), kappa=kappa)


def perturbed_radial_blackbox(n: int = 3, kappa: float = 3.0, shift=(0.01, 0.0, 0.0)) -> MapSpec:
    """``f(xi) = |xi|**(kappa-1) xi + shift``: an opaque evaluator that is NOT
    homogeneous (the constant shift breaks scaling), used to exercise the
    homogeneity-residual check.  The body is batched: its evaluator takes a
    ``(k, n)`` array of rows, and it works on one row too."""
    n = _integer(n, 1, "dimension n")
    s = np.asarray(shift, dtype=float)
    if s.shape != (n,):
        raise InvalidParameterError("shift must have length n")
    k = float(kappa)

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x, axis=-1, keepdims=True) ** (k - 1.0) * x + s

    return MapSpec(BlackBox(eval=_eval, declared_kappa=k, batched=True), n=n)


def blackbox_of(m: MapSpec, with_jacobian: bool = False) -> MapSpec:
    """Wrap an existing map as an opaque evaluator.

    Useful for testing the finite-difference Jacobian path against the exact
    symbolic one on the same underlying function.  The body is batched: each
    callback is one call of :func:`eval_map` or :func:`eval_jacobian_batch`
    on all the nonzero rows of a batch.
    """
    jac = (lambda x: eval_jacobian_batch(m, x)) if with_jacobian else None
    body = BlackBox(eval=lambda x: eval_map(m, x), declared_kappa=m.kappa, jacobian=jac,
                    batched=True)
    return MapSpec(body, n=m.n)


def acceptance_maps() -> dict[str, MapSpec]:
    """The five standard admissible maps exercised by the acceptance suite."""
    return {
        "identity3": identity_map(3),
        "radial_cube3": radial_cube_map(3),
        "diag123": diag_map((1.0, 2.0, 3.0)),
        "radial_linear123": radial_linear_map((1.0, 2.0, 3.0), kappa=2.0),
        "random_admissible4": random_admissible_map(n=4, seed=7, kappa=3.5),
    }
