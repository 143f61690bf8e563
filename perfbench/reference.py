"""Computations made apart from hominv, used by every correctness check.

Nothing here imports hominv.  Maps are evaluated straight from their term
lists, ``f(x) = |x|**(kappa - d) * P(x)`` with ``P`` summed term by term, and
the maps that have one get a closed-form inverse.  hominv's own evaluator
takes a different route for weighted bodies (``|x|**kappa * P(x/|x|)``), so
agreement between the two is evidence, not a tautology.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class RefMap:
    """A homogeneous map given by ``n``, an optional order and term lists.

    ``terms[i]`` is a sequence of ``(coefficient, exponents)`` pairs for
    component ``i``; ``kappa=None`` means the plain polynomial.
    """

    def __init__(self, n, terms, kappa=None):
        self.n = int(n)
        self.terms = tuple(tuple((float(c), tuple(int(v) for v in e)) for c, e in comp)
                           for comp in terms)
        degrees = {sum(e) for comp in self.terms for _, e in comp}
        if len(degrees) != 1:
            raise ValueError(f"terms must share one total degree, got {sorted(degrees)}")
        self.degree = degrees.pop()
        self.kappa = float(self.degree if kappa is None else kappa)

    def __call__(self, points) -> np.ndarray:
        """Values at a point or at a ``(B, n)`` batch."""
        X = np.asarray(points, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        out = np.zeros((X.shape[0], self.n))
        for i, comp in enumerate(self.terms):
            for c, e in comp:
                v = np.full(X.shape[0], c)
                for j, p in enumerate(e):
                    if p:
                        v = v * X[:, j] ** p
                out[:, i] += v
        if self.kappa != self.degree:
            r = np.sqrt(np.sum(X * X, axis=1))
            out *= (r ** (self.kappa - self.degree))[:, None]
        return out[0] if single else out

    def same_terms(self, components) -> bool:
        """True when ``components`` holds the same terms, order aside."""
        if len(components) != self.n:
            return False
        return all(
            sorted((float(c), tuple(e)) for c, e in comp) == sorted(mine)
            for comp, mine in zip(components, self.terms)
        )


def _unit(n, i, power=1):
    e = [0] * n
    e[i] = power
    return tuple(e)


def _diag(values):
    n = len(values)
    return [[(v, _unit(n, i))] for i, v in enumerate(values)]


def _radial_cube(n):
    comps = []
    for i in range(n):
        comp = []
        for j in range(n):
            e = [0] * n
            e[i] += 1
            e[j] += 2
            comp.append((1.0, tuple(e)))
        comps.append(comp)
    return comps


#: The six files in ``demos/maps``, written out by hand from the files' text.
DEMO_MAPS = {
    "identity3": RefMap(3, _diag([1.0, 1.0, 1.0])),
    "diag123": RefMap(3, _diag([1.0, 2.0, 3.0])),
    "radial_linear123": RefMap(3, _diag([1.0, 2.0, 3.0]), kappa=2.0),
    "radial_cube3": RefMap(3, _radial_cube(3)),
    "complex_square": RefMap(2, [[(1.0, (2, 0)), (-1.0, (0, 2))], [(2.0, (1, 1))]]),
    "axis_cube3": RefMap(3, [[(1.0, _unit(3, i, 3))] for i in range(3)]),
}

REFLECTION3 = RefMap(3, _diag([-1.0, 1.0, 1.0]))

#: Closed-form sphere values (c0, C, min |det Df|) on the unit sphere.
#: identity and diag: |Dw| ranges over [min d, max d], det D is constant.
#: radial_linear123 (order 2, alpha = 1): det(D + alpha D w w^T) = det D (1 + alpha).
#: radial_cube3: |f| = 1 on the sphere, det Df = 3 |x|^6.
#: complex_square: |z^2| = 1, det = 4 |z|^2.
#: axis_cube3: |f| ranges over [1/3, 1] (at (1,1,1)/sqrt 3 and at the axes).
SPHERE_VALUES = {
    "identity3": (1.0, 1.0, 1.0),
    "diag123": (1.0, 3.0, 6.0),
    "radial_linear123": (1.0, 3.0, 12.0),
    "radial_cube3": (1.0, 1.0, 3.0),
    "complex_square": (1.0, 1.0, 4.0),
    "axis_cube3": (1.0 / 3.0, 1.0, None),
}


def closed_form_inverse(name: str, eta) -> np.ndarray | None:
    """The unique preimage of ``eta`` for maps with a closed-form inverse."""
    e = np.asarray(eta, dtype=float)
    if name == "identity3":
        return e.copy()
    if name == "diag123":
        return e / np.array([1.0, 2.0, 3.0])
    if name == "radial_linear123":
        # f(x) = |x| D x  =>  x = u / sqrt(|u|) with u = D^{-1} eta
        u = e / np.array([1.0, 2.0, 3.0])
        return u / math.sqrt(float(np.linalg.norm(u)))
    if name == "radial_cube3":
        # f(x) = |x|^2 x  =>  x = eta |eta|^(-2/3)
        return e * float(np.linalg.norm(e)) ** (-2.0 / 3.0)
    if name == "reflection3":
        return e * np.array([-1.0, 1.0, 1.0])
    return None


def complex_square_roots(eta) -> list[np.ndarray]:
    """Both preimages of ``eta`` under ``z -> z^2``: plus and minus sqrt(eta)."""
    w = cmath.sqrt(complex(float(eta[0]), float(eta[1])))
    return [np.array([w.real, w.imag]), np.array([-w.real, -w.imag])]


def relative_residual(ref: RefMap, xi, eta) -> float:
    """``|f(xi) - eta| / |eta|`` with ``f`` from the reference evaluator."""
    e = np.asarray(eta, dtype=float)
    return float(np.linalg.norm(ref(np.asarray(xi, dtype=float)) - e) / np.linalg.norm(e))


def relative_distance(a, b) -> float:
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(np.asarray(a, dtype=float) - b) / np.linalg.norm(b))


def winding_number(ref: RefMap, samples: int = 4096) -> int:
    """Degree of ``f/|f|`` on the unit circle, for a planar map.

    Sums the wrapped angle increments of ``f`` around the circle.  Raises
    when an increment reaches a quarter turn (the sampling is too coarse to
    follow the image) or ``f`` vanishes on the circle.
    """
    if ref.n != 2:
        raise ValueError("the winding number is defined here for n = 2 only")
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    F = ref(np.column_stack([np.cos(theta), np.sin(theta)]))
    if np.min(np.linalg.norm(F, axis=1)) == 0.0:
        raise ValueError("f vanishes on the unit circle")
    ang = np.arctan2(F[:, 1], F[:, 0])
    step = np.diff(np.append(ang, ang[0]))
    step = (step + math.pi) % (2.0 * math.pi) - math.pi
    if np.max(np.abs(step)) >= math.pi / 2.0:
        raise ValueError("circle sampling too coarse for the image curve")
    return int(round(float(np.sum(step)) / (2.0 * math.pi)))


def sphere_extrema(ref: RefMap, count: int, rng: np.random.Generator) -> tuple[float, float]:
    """Min and max of ``|f|`` over ``count`` random unit vectors."""
    X = rng.standard_normal((count, ref.n))
    X /= np.linalg.norm(X, axis=1)[:, None]
    mags = np.linalg.norm(ref(X), axis=1)
    return float(mags.min()), float(mags.max())
