"""Preimage counting and mapping degree via multistart Newton.

For a map that is homogeneous of order ``kappa`` with nonvanishing Jacobian
off the origin, every preimage of a nonzero value ``eta`` lies in the closed
annulus given by the coercivity bracket.  A multistart Newton search seeded
on a widened annulus (seeded uniformly random directions crossed with
geometric radii) therefore finds all preimages with high probability; a
second run at four times the start count flags searches that look
unsaturated.

The search takes a stack of unit targets, each with its own bracket, start
count and seed, and is array code from start to finish: one batched Newton
run from every start of every target, one batched polish of the converged
rows, and per target a greedy dedup in lexicographic order that loops once
per kept root.  The kernels round a row the same in any batch, so a target
finds in a stack what it finds alone.  ``count_preimages`` is a batch of one;
``mapping_degree`` searches its first pass and its rerun as one batch of
two, and ``injectivity_probe`` searches all its trials in one batch.

The degree at a regular value is the sum of Jacobian determinant signs over
the preimages.  An admissible map in dimension ``n >= 3`` is bijective, so a
count above one at any value is direct evidence against admissibility; the
planar counterexample (the complex square) shows count two and degree two.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._newton import _diverge_radius, _polish, newton_batch
from .errors import InvalidInputError
from .hypotheses import (HypothesisReport, _bracket, _check_tol, _json_fields, _radius,
                         _require_report, _target_rows)
from .mapcore import (MapSpec, _integer, _log_uniform_targets, _norms, _rng, _row_norms,
                      _unit_directions, eval_jacobian_batch)

__all__ = ["DegreeReport", "count_preimages", "mapping_degree", "injectivity_probe"]

# widen the coercivity annulus so estimation error in the sphere extrema
# cannot push a true preimage outside the searched region
_ANNULUS_SLACK = 0.1
_DEDUP_RATIO = 1e-6
_SALT_DIRECTIONS = 149
_SALT_PROBE = 157


@dataclass(frozen=True)
class DegreeReport:
    """Preimages of one value together with the degree evidence.

    ``preimages`` holds ``(xi, sign)`` named tuples, with fields ``xi`` and
    ``sign``; ``degree`` sums the determinant signs over them;
    ``injective_evidence`` is true when exactly one preimage was found;
    ``missed_roots_suspected`` is set when a rerun at four times the start
    count found preimages the first pass missed.
    """

    value: np.ndarray
    preimages: tuple
    degree: int
    injective_evidence: bool
    missed_roots_suspected: bool
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        """This report's JSON object, by the rule of
        :func:`~hominv.hypotheses._json_fields`."""
        return _json_fields(self)


#: one preimage and the sign of the Jacobian determinant there
_Preimage = namedtuple("_Preimage", "xi sign")


def _dedup(rows: np.ndarray, radius: float) -> np.ndarray:
    """Greedy dedup of a ``(B, n)`` batch in lexicographic row order: keep
    the first remaining row, drop every row within ``radius`` of it
    (distance ``<= radius``), repeat.  A row is kept exactly when it lies
    farther than ``radius`` from every row kept before it."""
    rest = rows[np.lexsort(rows.T[::-1])]
    kept = []
    while len(rest):
        kept.append(rest[0])
        rest = rest[_row_norms(rest - rest[0]) > radius]
    return np.array(kept).reshape(len(kept), rows.shape[1])


def _search_roots(m: MapSpec, omegas: np.ndarray, report: HypothesisReport, starts, tol: float,
                  seeds) -> list[np.ndarray]:
    """For each unit target (a row of ``omegas``, with its own start count
    and seed), all distinct Newton limits x with ``|f(x) - omega| <= tol *
    |omega|``, as rows in lexicographic order: one array per target.  Each
    target's starts fill the annulus of its own coercivity bracket, and every
    start shares the one divergence radius of :func:`_diverge_radius`.  A
    row's iterates do not depend on the other rows of the batch, so each
    target finds what it would find searched alone."""
    brackets = [_bracket(report, mag) for mag in _norms(omegas).tolist()]
    X0 = []
    for (r_lo, r_hi), count, seed in zip(brackets, starts, seeds):
        n_radii = max(1, int(round(count ** (1.0 / 3.0))))
        n_dirs = int(np.ceil(count / n_radii))
        lo, hi = (1.0 - _ANNULUS_SLACK) * r_lo, (1.0 + _ANNULUS_SLACK) * r_hi
        if lo <= 0.0:
            lo = min(1e-3 * hi, hi)
        radii = np.geomspace(lo, hi, n_radii)
        dirs = _unit_directions(_rng(seed, _SALT_DIRECTIONS), n_dirs, m.n)
        X0.append((radii[:, None, None] * dirs[None, :, :]).reshape(-1, m.n))
    owner = np.repeat(np.arange(len(X0)), [len(x) for x in X0])
    T = omegas[owner]
    roots, ok, _, _ = newton_batch(m, np.vstack(X0), T, tol, _diverge_radius(report), max_iter=60)
    found, _ = _polish(m, roots[ok], T[ok])
    owner = owner[ok]
    return [_dedup(found[owner == k], _DEDUP_RATIO * r_hi) for k, (_, r_hi) in enumerate(brackets)]


def _unit_target(m: MapSpec, eta) -> tuple[np.ndarray, float]:
    """``(eta / |eta|, |eta|)`` for a nonzero vector of length n held to the
    rules of :func:`~hominv.hypotheses._target_rows`."""
    (e,), (mag,) = _target_rows(m.n, eta, ndim=1)
    if mag == 0.0:
        raise InvalidInputError("eta must be finite and nonzero")
    return e / mag, mag


def _start_count(m: MapSpec, starts) -> int:
    """The start count of a public call: ``starts``, at least 1, or 64 per
    dimension when it is ``None``."""
    return 64 * m.n if starts is None else _integer(starts, 1, "starts")


def _checked(m: MapSpec, report, force: bool, starts, tol: float):
    """The report and start count of a public call, checked with its ``tol``."""
    _check_tol(tol)
    return _require_report(m, report, force, allow_warn=True), _start_count(m, starts)


def _preimages(m: MapSpec, omega: np.ndarray, mag: float, report: HypothesisReport,
               tol: float, starts, seeds) -> list[list]:
    """The ``(xi, sign)`` pairs of :func:`count_preimages` at ``mag * omega``
    from one search per start count and seed, all in one batch.
    It searches at the unit target and rescales: f(s x) = |eta| f(x) for
    s = |eta|**(1/kappa), and det Df(s x) = s**(n (kappa - 1)) det Df(x)
    keeps its sign."""
    scale = _radius(mag, m.kappa)
    out = []
    for kept in _search_roots(m, np.repeat(omega[None, :], len(seeds), axis=0), report, starts,
                              tol, seeds):
        dets = np.linalg.det(eval_jacobian_batch(m, kept)) if len(kept) else []
        out.append([_Preimage(scale * x, 1 if d > 0 else -1) for x, d in zip(kept, dets)])
    return out


def count_preimages(m: MapSpec, eta, starts: Optional[int] = None,
                    report: HypothesisReport | None = None, *, tol: float = 1e-10,
                    force: bool = False, seed: int = 0) -> list[tuple[np.ndarray, int]]:
    """Find all preimages of a nonzero value inside the coercivity annulus.

    Returns ``(xi, sign)`` named tuples in lexicographic order of ``xi``,
    where ``sign`` is the sign of ``det Df(xi)``.  Requires a hypothesis
    report; a failing one needs ``force=True`` (the degree of an
    inadmissible map is exactly what the planar counterexample
    demonstrates), while the low-dimension warning status is accepted as
    is.  With no report, ``force=True`` first runs a default-size
    :func:`~hominv.hypotheses.check_hypotheses` and ignores its verdict.
    The search is a batch of one target, ``eta / |eta|``, so ``tol`` is
    relative to ``|eta|``.
    """
    omega, mag = _unit_target(m, eta)
    report, starts = _checked(m, report, force, starts, tol)
    return _preimages(m, omega, mag, report, tol, [starts], [seed])[0]


def mapping_degree(m: MapSpec, eta, starts: Optional[int] = None,
                   report: HypothesisReport | None = None, *, tol: float = 1e-10,
                   force: bool = False, seed: int = 0) -> DegreeReport:
    """Mapping degree at a regular value: the determinant-sign sum over the
    preimages that :func:`count_preimages` finds, hedged by a rerun at four
    times the start count with the next seed, in the same search.  A
    bijection has degree +1 or -1; the planar complex square has degree 2.
    The report and ``force`` are taken as by :func:`count_preimages`, so
    ``force=True`` with no report first runs a default-size check."""
    omega, mag = _unit_target(m, eta)
    report, starts = _checked(m, report, force, starts, tol)
    pre, pre_hedged = _preimages(m, omega, mag, report, tol, [starts, 4 * starts],
                                 [seed, seed + 1])
    missed = len(pre_hedged) > len(pre)
    final = pre_hedged if missed else pre
    notes = (f"rerun at {4 * starts} starts found {len(pre_hedged)} preimages where {starts} "
             f"starts found {len(pre)}; the larger set is reported",) if missed else ()
    return DegreeReport(value=np.asarray(eta, dtype=float), preimages=tuple(final),
                        degree=int(sum(s for _, s in final)), injective_evidence=(len(final) == 1),
                        missed_roots_suspected=missed, notes=notes)


def injectivity_probe(m: MapSpec, trials: int = 20, starts: Optional[int] = None,
                      report: HypothesisReport | None = None, *, tol: float = 1e-10,
                      force: bool = False) -> dict:
    """Count preimages at ``trials`` random targets with magnitudes spread
    log-uniformly over [1e-2, 1e2].

    Returns a dict with the per-target counts and a verdict:
    ``"consistent-with-injective"`` when every count is one, otherwise
    ``"not-injective"``.  Target draws are seeded from the report so repeat
    runs probe identical values: :func:`~hominv.mapcore._log_uniform_targets`
    draws the ``trials`` directions (in R^1, ``+1, -1, +1, ...``), then the
    ``trials`` magnitudes, from one stream.  Trial ``k`` searches with seed
    ``k``, all trials in one batch, and only counts: no determinant is
    taken.  The report and ``force`` are taken as by
    :func:`count_preimages`, so ``force=True`` with no report first runs a
    default-size check, whose seed then seeds the targets.
    """
    trials = _integer(trials, 1, "trials")
    report, starts = _checked(m, report, force, starts, tol)
    etas = _log_uniform_targets(_rng(report.seed, _SALT_PROBE), trials, m.n, -2.0, 2.0)
    omegas = etas / _norms(etas)[:, None]
    counts = [len(r) for r in _search_roots(m, omegas, report, [starts] * trials, tol,
                                            range(trials))]
    verdict = "consistent-with-injective" if all(c == 1 for c in counts) else "not-injective"
    return {"counts": counts, "targets": list(etas), "verdict": verdict, "max_count": max(counts)}
