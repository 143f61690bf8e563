"""The ready-made maps of the catalog: their dimension check and their terms."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from hominv import (
    InvalidParameterError,
    PolyMap,
    axis_cube_map,
    diag_map,
    identity_map,
    linear_map,
    perturbed_radial_blackbox,
    radial_cube_map,
    radial_linear_map,
    random_admissible_map,
    reflection_map,
)

_DIMENSIONED = {
    "identity_map": identity_map,
    "reflection_map": reflection_map,
    "radial_cube_map": radial_cube_map,
    "axis_cube_map": axis_cube_map,
    "random_admissible_map": lambda n: random_admissible_map(n=n),
    "perturbed_radial_blackbox": lambda n: perturbed_radial_blackbox(n=n),
}


@pytest.mark.parametrize("name", sorted(_DIMENSIONED))
@pytest.mark.parametrize("n, message", [
    (2.5, "dimension n must be an integer"),
    (3.0, "dimension n must be an integer"),
    ("3", "dimension n must be an integer"),
    (0, "dimension n must be >= 1"),
    (-1, "dimension n must be >= 1"),
])
def test_constructors_check_the_dimension_first(name, n, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        _DIMENSIONED[name](n)


def _exponent(n, *powers):
    """An exponent tuple written out by hand: each ``(i, k)`` of ``powers``
    adds ``k`` to the power of the variable ``x_i``."""
    e = [0] * n
    for i, k in powers:
        e[i] += k
    return tuple(e)


def _admissible_terms(n, seed, kappa=3.5, perturbation=0.2):
    """The terms of ``random_admissible_map(n, seed)``: the radial cube plus
    the scaled cubic drawn from the catalog's seeded stream (salt 211)."""
    rng = np.random.default_rng([seed, 211])
    monos = [_exponent(n, *((j, 1) for j in combo))
             for combo in combinations_with_replacement(range(n), 3)]
    coeffs = rng.standard_normal((n, len(monos)))
    per_comp = np.abs(coeffs).sum(axis=1) * 3.0
    s = perturbation / (float(np.sqrt((per_comp**2).sum())) * (1.0 + abs(kappa - 3.0)))
    return [[(1.0, _exponent(n, (i, 1), (j, 2))) for j in range(n)]
            + [(s * float(coeffs[i, k]), monos[k]) for k in range(len(monos))]
            for i in range(n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_constructors_build_the_terms_written_out_by_hand(n):
    # (map, its terms, kappa, radial exponent) for each maker; PolyMap only
    # brings the written-out terms to the canonical form the map holds
    d = np.arange(1.0, n + 1.0)
    A = np.random.default_rng(n).standard_normal((n, n))
    cases = [
        (identity_map(n), [[(1.0, _exponent(n, (i, 1)))] for i in range(n)], 1.0, 0.0),
        (reflection_map(n), [[(-1.0 if i == 0 else 1.0, _exponent(n, (i, 1)))]
                             for i in range(n)], 1.0, 0.0),
        (radial_cube_map(n), [[(1.0, _exponent(n, (i, 1), (j, 2)))
                               for j in range(n)] for i in range(n)], 3.0, 0.0),
        (axis_cube_map(n), [[(1.0, _exponent(n, (i, 3)))] for i in range(n)], 3.0, 0.0),
        (diag_map(d), [[(d[i], _exponent(n, (i, 1)))] for i in range(n)], 1.0, 0.0),
        (radial_linear_map(d, kappa=2.0), [[(d[i], _exponent(n, (i, 1)))] for i in range(n)],
         2.0, 1.0),
        (linear_map(A), [[(A[i, j], _exponent(n, (j, 1))) for j in range(n)] for i in range(n)],
         1.0, 0.0),
    ]
    cases += [(random_admissible_map(n=n, seed=seed), _admissible_terms(n, seed), 3.5, 0.5)
              for seed in range(5)]
    for m, terms, kappa, radial_exponent in cases:
        assert m.body.components == PolyMap(n, terms).components
        assert (m.n, m.kappa, m.radial_exponent) == (n, kappa, radial_exponent)


@pytest.mark.parametrize("make, diagonal", [
    (diag_map, 3.0),
    (diag_map, [[1.0]]),
    (radial_linear_map, [[1.0, 0.0], [0.0, 2.0]]),
])
def test_a_diagonal_that_is_not_a_vector_is_named(make, diagonal):
    # not numpy's "Input must be 1- or 2-d.", nor a 1x1 matrix called not square
    with pytest.raises(InvalidParameterError, match="^diagonal must be a vector$"):
        make(diagonal)
