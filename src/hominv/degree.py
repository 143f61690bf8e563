"""Preimage counting and mapping degree via multistart Newton.

For a map that is homogeneous of order ``kappa`` with nonvanishing Jacobian
off the origin, every preimage of a nonzero value ``eta`` lies in the closed
annulus given by the coercivity bracket.  A multistart Newton search seeded
on a widened annulus (seeded uniformly random directions crossed with
geometric radii) therefore finds all preimages with high probability; a
second run at four times the start count flags searches that look
unsaturated.

The search takes a stack of targets, each with its own bracket and seed,
and is array code from start to finish: one batched Newton run from every
start of every target, one batched polish of the converged rows, a filter
on the residuals the polish returns, and per target a greedy dedup in
lexicographic order that loops once per kept root.  ``count_preimages`` is
a batch of one; ``injectivity_probe`` searches all its trials in one batch.

The degree at a regular value is the sum of Jacobian determinant signs over
the preimages.  An admissible map in dimension ``n >= 3`` is bijective, so a
count above one at any value is direct evidence against admissibility; the
planar counterexample (the complex square) shows count two and degree two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._newton import _polish, newton_batch
from .errors import InvalidInputError, InvalidParameterError
from .hypotheses import HypothesisReport, coercivity_bracket
from .inverter import ContinuationConfig, _require_report
from .mapcore import MapSpec, _gaussian_directions, _row_norms, eval_jacobian_batch

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

    ``degree`` sums the determinant signs over ``preimages``;
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
        return {
            "value": [float(v) for v in self.value],
            "preimages": [
                {"xi": [float(v) for v in xi], "sign": sign}
                for xi, sign in self.preimages
            ],
            "degree": self.degree,
            "injective_evidence": self.injective_evidence,
            "missed_roots_suspected": self.missed_roots_suspected,
            "notes": list(self.notes),
        }


def _sobol_directions(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` seeded unit directions in R^n, uniform on the sphere:
    normalized standard-Gaussian rows, as in
    :func:`~hominv.hypotheses.sample_sphere`; for ``n = 1``, alternating
    ``+1`` and ``-1``."""
    if n == 1:
        signs = np.ones(count)
        signs[1::2] = -1.0
        return signs[:, None]
    return _gaussian_directions(np.random.default_rng([seed, _SALT_DIRECTIONS]), count, n)


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


def _search_roots(m: MapSpec, omegas: np.ndarray, brackets, starts: int, tol: float,
                  seeds) -> list[np.ndarray]:
    """For each unit target (a row of ``omegas``, with its own bracket and
    seed), all distinct Newton limits x with ``|f(x) - omega| <= tol *
    max(1, |omega|)``, as rows in lexicographic order: one array per target.
    Each start's Newton radius cap comes from its own target's bracket."""
    n_radii = max(1, int(round(starts ** (1.0 / 3.0))))
    n_dirs = int(np.ceil(starts / n_radii))
    X0, caps = [], []
    for (r_lo, r_hi), seed in zip(brackets, seeds):
        lo, hi = (1.0 - _ANNULUS_SLACK) * r_lo, (1.0 + _ANNULUS_SLACK) * r_hi
        if lo <= 0.0:
            lo = min(1e-3 * hi, hi)
        radii = np.geomspace(lo, hi, n_radii)
        dirs = _sobol_directions(m.n, n_dirs, seed)
        X0.append((radii[:, None, None] * dirs[None, :, :]).reshape(-1, m.n))
        caps.append(100.0 * hi)
    owner = np.repeat(np.arange(len(caps)), n_radii * n_dirs)
    T = omegas[owner]
    roots, ok, _, _ = newton_batch(m, np.vstack(X0), T, tol, np.array(caps)[owner], max_iter=60)
    found, res = _polish(m, roots[ok], T[ok])
    owner = owner[ok]
    return [_dedup(found[(owner == k) & (res <= tol * max(1.0, float(np.linalg.norm(omega))))],
                   _DEDUP_RATIO * max(r_hi, 1e-300))
            for k, (omega, (_, r_hi)) in enumerate(zip(omegas, brackets))]


def _unit_target(m: MapSpec, eta) -> tuple[np.ndarray, float]:
    """``(eta / |eta|, |eta|)`` for a finite nonzero vector of length n."""
    e = np.asarray(eta, dtype=float)
    if e.ndim != 1 or e.shape[0] != m.n:
        raise InvalidInputError(f"eta must be a vector of length {m.n}")
    # hypot, unlike the norm, neither underflows nor overflows at extreme |eta|
    mag = math.hypot(*e)
    if mag == 0.0 or not math.isfinite(mag):
        raise InvalidInputError("eta must be finite and nonzero")
    return e / mag, mag


def _checked(m: MapSpec, report, force: bool, starts, cfg):
    """The report, start count and configuration of a public call, checked."""
    report = _require_report(m, report, force, allow_warn=True)
    if starts is None:
        starts = 64 * m.n
    if starts < 1:
        raise InvalidParameterError("starts must be >= 1")
    return report, starts, ContinuationConfig() if cfg is None else cfg


def _preimages(m: MapSpec, omega: np.ndarray, mag: float, report: HypothesisReport,
               tol: float, runs) -> list[list]:
    """The ``(xi, sign)`` pairs of :func:`count_preimages` at ``mag * omega``
    from one search per ``(starts, seed)`` in ``runs``, each a batch of one.
    It searches at the unit target, where the absolute tolerance is
    relative, and rescales: f(s x) = |eta| f(x) for s = |eta|**(1/kappa),
    and det Df(s x) = s**(n (kappa - 1)) det Df(x) keeps its sign."""
    bracket = coercivity_bracket(report, omega, m.kappa)
    scale = mag ** (1.0 / m.kappa)
    out = []
    for starts, seed in runs:
        kept, = _search_roots(m, omega[None, :], [bracket], starts, tol, [seed])
        dets = np.linalg.det(eval_jacobian_batch(m, kept)) if len(kept) else []
        out.append([(scale * x, 1 if d > 0 else -1) for x, d in zip(kept, dets)])
    return out


def count_preimages(m: MapSpec, eta, starts: Optional[int] = None,
                    cfg: ContinuationConfig | None = None,
                    report: HypothesisReport | None = None, *,
                    force: bool = False, seed: int = 0) -> list[tuple[np.ndarray, int]]:
    """Find all preimages of a nonzero value inside the coercivity annulus.

    Returns ``(xi, sign)`` pairs in lexicographic order of ``xi``, where
    ``sign`` is the sign of ``det Df(xi)``.  Requires a hypothesis report;
    a failing one needs ``force=True`` (the degree of an inadmissible map is
    exactly what the planar counterexample demonstrates), while the
    low-dimension warning status is accepted as is.  The search is a batch
    of one target.
    """
    omega, mag = _unit_target(m, eta)
    report, starts, cfg = _checked(m, report, force, starts, cfg)
    return _preimages(m, omega, mag, report, cfg.tol, [(starts, seed)])[0]


def mapping_degree(m: MapSpec, eta, starts: Optional[int] = None,
                   cfg: ContinuationConfig | None = None,
                   report: HypothesisReport | None = None, *,
                   force: bool = False, seed: int = 0) -> DegreeReport:
    """Mapping degree at a regular value: the determinant-sign sum over the
    preimages that :func:`count_preimages` finds, hedged by a rerun at four
    times the start count with the next seed.  Both are batches of one.  A
    bijection has degree +1 or -1; the planar complex square has degree 2."""
    omega, mag = _unit_target(m, eta)
    report, starts, cfg = _checked(m, report, force, starts, cfg)
    pre, pre_hedged = _preimages(m, omega, mag, report, cfg.tol,
                                 [(starts, seed), (4 * starts, seed + 1)])
    missed = len(pre_hedged) > len(pre)
    final = pre_hedged if missed else pre
    notes = (f"rerun at {4 * starts} starts found {len(pre_hedged)} preimages where {starts} "
             f"starts found {len(pre)}; the larger set is reported",) if missed else ()
    return DegreeReport(value=np.asarray(eta, dtype=float), preimages=tuple(final),
                        degree=int(sum(s for _, s in final)), injective_evidence=(len(final) == 1),
                        missed_roots_suspected=missed, notes=notes)


def injectivity_probe(m: MapSpec, trials: int = 20,
                      starts: Optional[int] = None,
                      cfg: ContinuationConfig | None = None,
                      report: HypothesisReport | None = None, *,
                      force: bool = False) -> dict:
    """Count preimages at ``trials`` random targets with magnitudes spread
    log-uniformly over [1e-2, 1e2].

    Returns a dict with the per-target counts and a verdict:
    ``"consistent-with-injective"`` when every count is one, otherwise
    ``"not-injective"``.  Target draws are seeded from the report so repeat
    runs probe identical values.  Trial ``k`` searches with seed ``k``, all
    trials in one batch, and only counts: no determinant is taken.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    report, starts, cfg = _checked(m, report, force, starts, cfg)
    rng = np.random.default_rng([report.seed, _SALT_PROBE])
    targets = []
    for _ in range(trials):
        direction = rng.standard_normal(m.n)
        nrm = float(np.linalg.norm(direction))
        while nrm < 1e-12:
            direction = rng.standard_normal(m.n)
            nrm = float(np.linalg.norm(direction))
        targets.append(10.0 ** rng.uniform(-2.0, 2.0) * direction / nrm)
    omegas = np.array([eta / math.hypot(*eta) for eta in targets])
    brackets = [coercivity_bracket(report, omega, m.kappa) for omega in omegas]
    counts = [len(r) for r in _search_roots(m, omegas, brackets, starts, cfg.tol, range(trials))]
    verdict = "consistent-with-injective" if all(c == 1 for c in counts) else "not-injective"
    return {"counts": counts, "targets": targets, "verdict": verdict, "max_count": max(counts)}
