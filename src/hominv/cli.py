"""Command line front end: check, invert, degree, roundtrip.

Every command loads a polynomial map definition file (grammar documented in
:mod:`hominv.polyparser`), runs the hypothesis checks, and emits a JSON run
report plus a short human summary.  With ``--json PATH`` the report goes to
the file and the summary to stdout; with ``--json -`` the report goes to
stdout and the summary to stderr; without ``--json`` only the summary is
printed.

Exit codes
----------
0   success (including the dimension-below-3 warning on ``check``)
1   usage errors: bad arguments, unreadable files, map definition errors
2   hypothesis failures: ``check`` found a violated hypothesis, or another
    command refused to run on a non-passing report without ``--force``
3   numerical failures: no coercivity bracket, continuation breakdown,
    singular Jacobian on the tracked path, roundtrip residual over limit

Reports are deterministic for a fixed command line: every random draw is
seeded from ``--seed``, and the only run-to-run difference is the ``timing``
entry.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .degree import injectivity_probe, mapping_degree
from .errors import (
    ContinuationFailedError,
    HominvError,
    InvalidInputError,
    InvalidParameterError,
    MapDefinitionError,
    NoBracketError,
    PreconditionError,
    SingularJacobianError,
)
from .hypotheses import _STATUS_WARN, check_hypotheses
from .inverter import ContinuationConfig, _roundtrips, invert
from .mapcore import MapSpec, _gaussian_directions
from .polyparser import format_map, parse_map

__all__ = ["main", "console_main"]

_SALT_TARGETS = 173


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1 (argparse's
    default of 2 is reserved for hypothesis failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hominv",
        description="Check, invert, and compute degrees of positively "
        "homogeneous maps.",
    )
    parser.add_argument("--version", action="version", version=f"hominv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("mapfile", help="path to a map definition file")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all random draws (default 0)")
    common.add_argument("--samples", type=int, default=None,
                        help="sphere sample size for the hypothesis checks "
                        "(default 10000 per dimension)")
    common.add_argument("--json", dest="json_dest", metavar="PATH", default=None,
                        help="write the JSON run report to PATH, or to stdout "
                        "with '-'")

    solver = _Parser(add_help=False)
    solver.add_argument("--tol", type=float, default=1e-10,
                        help="relative residual tolerance (default 1e-10)")
    solver.add_argument("--force", action="store_true",
                        help="proceed even when the hypothesis check fails")

    p_check = sub.add_parser("check", parents=[common],
                             help="run the admissibility hypothesis checks")
    del p_check

    p_invert = sub.add_parser("invert", parents=[common, solver],
                              help="compute the preimage of one target value")
    p_invert.add_argument("--target", required=True,
                          help="comma separated target vector, e.g. '1,0,-2.5'")
    p_invert.add_argument("--trace", action="store_true",
                          help="record continuation path waypoints in the report")

    p_degree = sub.add_parser("degree", parents=[common, solver],
                              help="count preimages and compute the mapping degree")
    p_degree.add_argument("--target", required=True,
                          help="comma separated regular value, e.g. '1,0'")
    p_degree.add_argument("--starts", type=int, default=None,
                          help="multistart count (default 64 per dimension)")
    p_degree.add_argument("--probe", type=int, default=0, metavar="TRIALS",
                          help="also probe injectivity at TRIALS random targets")

    p_round = sub.add_parser("roundtrip", parents=[common, solver],
                             help="invert a batch of random targets and report "
                             "the worst relative residual")
    p_round.add_argument("--count", type=int, default=20,
                         help="number of random targets (default 20)")
    p_round.add_argument("--max-residual", type=float, default=1e-8,
                         help="largest acceptable relative roundtrip residual "
                         "(default 1e-8)")
    return parser


def _parse_target(text: str, n: int) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidInputError(f"could not parse target vector {text!r}")
    if len(values) != n:
        raise InvalidInputError(
            f"target has {len(values)} components but the map has dimension {n}"
        )
    return np.array(values, dtype=float)


def _load_map(path: str) -> MapSpec:
    return parse_map(Path(path).read_text())


def _random_targets(n: int, count: int, seed: int) -> np.ndarray:
    """Seeded batch of nonzero targets with magnitudes log-uniform in
    [1e-3, 1e3]."""
    rng = np.random.default_rng([seed, _SALT_TARGETS])
    dirs = _gaussian_directions(rng, count, n)
    mags = 10.0 ** rng.uniform(-3.0, 3.0, size=count)
    return dirs * mags[:, None]


def _new_report(m: MapSpec) -> dict:
    return {
        "map_echo": format_map(m),
        "hypothesis": None,
        "inversions": None,
        "roundtrip": None,
        "degree": None,
        "timing": None,
        "tool_version": __version__,
        "warnings": [],
    }


def _emit(report: dict, human: list[str], json_dest: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if json_dest == "-":
        sys.stdout.write(text)
        summary_stream = sys.stderr
    elif json_dest:
        Path(json_dest).write_text(text)
        summary_stream = sys.stdout
    else:
        summary_stream = sys.stdout
    for line in human:
        print(line, file=summary_stream)


def _run(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    m = _load_map(ns.mapfile)
    report = _new_report(m)
    human: list[str] = []
    code = 0

    hyp = check_hypotheses(m, count=ns.samples, seed=ns.seed)
    report["hypothesis"] = hyp.to_json_dict()
    if hyp.status == _STATUS_WARN:
        report["warnings"].append(
            "dimension below 3: the hypotheses hold but they do not imply "
            "global bijectivity in the plane"
        )
    human.append(
        f"hypotheses: {hyp.status}  (n={hyp.n}, kappa={hyp.kappa:g}, "
        f"c0={hyp.c0_empirical:.6g}, C={hyp.c_empirical:.6g}, "
        f"min|det Df|={hyp.min_abs_det_j:.6g})"
    )
    if hyp.status == "fail" and hyp.reasons:
        human.append("violated: " + ", ".join(hyp.reasons))

    if ns.command == "check":
        if hyp.status == "fail":
            code = 2

    elif ns.command == "invert":
        eta = _parse_target(ns.target, m.n)
        cfg = ContinuationConfig(tol=ns.tol)
        res = invert(m, eta, cfg, hyp, force=ns.force, trace=ns.trace)
        report["inversions"] = [res.to_json_dict(eta=eta)]
        human.append("xi = [" + ", ".join(f"{v:.12g}" for v in res.xi) + "]")
        human.append(
            f"residual = {res.residual:.3e} after {res.steps} continuation "
            f"steps, {res.newton_iters_total} Newton iterations"
        )

    elif ns.command == "degree":
        if ns.probe < 0:
            raise InvalidParameterError("--probe must be >= 0")
        eta = _parse_target(ns.target, m.n)
        cfg = ContinuationConfig(tol=ns.tol)
        deg = mapping_degree(m, eta, starts=ns.starts, cfg=cfg, report=hyp,
                             force=ns.force, seed=ns.seed)
        report["degree"] = deg.to_json_dict()
        human.append(
            f"degree = {deg.degree} from {len(deg.preimages)} preimage(s)"
        )
        if deg.missed_roots_suspected:
            report["warnings"].append(
                "the hedged rerun found extra preimages; raise --starts"
            )
        if ns.probe > 0:
            probe = injectivity_probe(m, trials=ns.probe, starts=ns.starts,
                                      cfg=cfg, report=hyp, force=ns.force)
            report["degree"]["injectivity_probe"] = {
                "counts": probe["counts"],
                "verdict": probe["verdict"],
                "max_count": probe["max_count"],
            }
            human.append(
                f"injectivity probe over {ns.probe} targets: {probe['verdict']} "
                f"(max count {probe['max_count']})"
            )

    elif ns.command == "roundtrip":
        if ns.count < 1:
            raise InvalidParameterError("--count must be >= 1")
        cfg = ContinuationConfig(tol=ns.tol)
        targets = _random_targets(m.n, ns.count, ns.seed)
        entries = []
        worst = 0.0
        for eta, res, rel in _roundtrips(m, targets, cfg, hyp, ns.force):
            worst = max(worst, rel)
            entry = res.to_json_dict(eta=eta)
            entry["relative_residual"] = rel
            entries.append(entry)
        ok = worst <= ns.max_residual
        report["inversions"] = entries
        report["roundtrip"] = {
            "count": ns.count,
            "max_relative_residual": worst,
            "limit": ns.max_residual,
            "ok": ok,
        }
        human.append(
            f"roundtrip: max relative residual {worst:.3e} over {ns.count} "
            f"targets (limit {ns.max_residual:g})"
        )
        if not ok:
            code = 3

    return report, human, code


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        report, human, code = _run(ns)
    except MapDefinitionError as err:
        print(f"hominv: map definition error: {err}", file=sys.stderr)
        return 1
    except (InvalidInputError, InvalidParameterError) as err:
        print(f"hominv: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"hominv: {err}", file=sys.stderr)
        return 1
    except PreconditionError as err:
        print(f"hominv: {err}", file=sys.stderr)
        return 2
    except (NoBracketError, ContinuationFailedError, SingularJacobianError) as err:
        print(f"hominv: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except HominvError as err:
        print(f"hominv: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    report["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    _emit(report, human, ns.json_dest)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
