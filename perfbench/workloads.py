"""The three workloads: their set-up, their rounds of operations and the
checks on each operation's output.

A workload's ``setup()`` is what ``setup_s`` times.  ``round(r)`` returns the
operations of round ``r``, each an :class:`Op` whose ``run`` is timed and
whose ``check`` (not timed) returns a list of problems, empty when the output
is right.  Every input comes from the run's seed and the round number, so a
seed and a round always give the same operations.  Checks compare against
:mod:`reference`, never against hominv's own earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

import reference as ref

_SALT_CHECK = 5101
_SALT_ROUNDTRIP = 5102
_SALT_CLI = 5104
_SALT_SPHERE = 5105

RESIDUAL_LIMIT = 1e-8      # relative roundtrip residual, reference evaluator
CLOSED_FORM_LIMIT = 1e-8   # relative distance to a closed-form inverse
VALUE_LIMIT = 1e-9         # relative error of closed-form c0, C, min|det Df|
FD_DET_LIMIT = 1e-6        # min|det Df| from finite differences
BRACKET_SLACK = 1e-9       # times r_hi, as the coercivity bracket allows
HOMOGENEITY_LIMIT = 1e-7   # inverse homogeneity deviation
BLACKBOX_SAMPLES = 2000    # reduced sphere sample for the black boxes
INDEPENDENT_SAMPLES = 20000

STATUS_WARN = "hypotheses-met-but-n<3"
#: top-level keys of a CLI JSON report, in the order the README documents
REPORT_KEYS = ["map_echo", "hypothesis", "inversions", "roundtrip", "degree", "timing",
               "tool_version", "warnings"]


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Context:
    hominv: object
    root: str
    out_dir: str
    seed: int
    tracer: object = None

    def blackbox(self, m):
        if self.tracer is None:
            return m
        import tracing
        return tracing.traced_blackbox(self.tracer, m, self.hominv)

    def map_path(self, name: str) -> str:
        return os.path.join(self.root, "demos", "maps", f"{name}.map")


def _rng(seed, salt, r=None):
    return np.random.default_rng([int(seed), salt] + ([] if r is None else [int(r)]))


def _target(rng, n, lo=-3.0, hi=3.0):
    """A random direction with magnitude log-uniform in [10**lo, 10**hi]."""
    d = rng.standard_normal(n)
    while np.linalg.norm(d) < 1e-6:
        d = rng.standard_normal(n)
    return d / np.linalg.norm(d) * 10.0 ** rng.uniform(lo, hi)


#: Sobol points drawn per map; a run that needs more starts over
SOBOL_POINTS = 2 ** 14


class SobolTargets:
    """Targets for one map: the successive points of a Sobol sequence of
    dimension n + 2 scrambled by ``rng``, n normal quantiles for the
    direction, one coordinate for a magnitude log-uniform in [1e-3, 1e3] and
    one for a second magnitude in the same range.  Successive points cover
    the sphere evenly, so a run's mix of cheap and dear directions does not
    turn on the seed."""

    def __init__(self, n, rng):
        self.n = n
        self.points = np.clip(qmc.Sobol(d=n + 2, rng=rng).random(SOBOL_POINTS),
                              1e-12, 1.0 - 1e-12)

    def take(self, r, k):
        """Round ``r``'s ``k`` targets: (eta, second magnitude) pairs."""
        start = (r * k) % (SOBOL_POINTS - k)
        for u in self.points[start:start + k]:
            d = ndtri(u[:self.n])
            yield (d / np.linalg.norm(d) * 10.0 ** (6.0 * u[self.n] - 3.0),
                   10.0 ** (6.0 * u[self.n + 1] - 3.0))


def _close(label, what, got, want, limit):
    if want is None:
        return []
    err = abs(got - want) / abs(want)
    return [] if err <= limit else [f"{label}: {what} = {got!r}, expected {want!r} (rel {err:.2e})"]


def _ref_of(m) -> ref.RefMap:
    """The reference evaluator for a polynomial MapSpec, from its term list."""
    return ref.RefMap(m.n, m.body.components, kappa=m.kappa)


def _in_bracket(label, xi, bracket):
    r = float(np.linalg.norm(xi))
    lo, hi = bracket
    slack = BRACKET_SLACK * hi
    if lo - slack <= r <= hi + slack:
        return []
    return [f"{label}: |xi| = {r!r} outside the bracket ({lo!r}, {hi!r})"]


# ---------------------------------------------------------------- check


class CheckWorkload:
    """One operation: one ``check_hypotheses`` call.  Rounds cover the six
    demo map files, random_admissible4 and two black boxes, each at a seed
    drawn for the round."""

    trace_rounds = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self):
        H = self.ctx.hominv
        self.maps = {}
        for name in ref.DEMO_MAPS:
            with open(self.ctx.map_path(name)) as fh:
                self.maps[name] = H.parse_map(fh.read())
        self.maps["random_admissible4"] = H.random_admissible_map(n=4, seed=7, kappa=3.5)
        self.maps["blackbox_radial_cube3"] = self.ctx.blackbox(
            H.blackbox_of(H.radial_cube_map(3)))
        self.maps["perturbed_radial_blackbox"] = self.ctx.blackbox(
            H.perturbed_radial_blackbox())

    def verify_setup(self) -> list:
        problems = []
        for name, rm in ref.DEMO_MAPS.items():
            m = self.maps[name]
            if m.n != rm.n or not rm.same_terms(m.body.components) or m.kappa != rm.kappa:
                problems.append(f"parse_map({name}.map) differs from the file's terms")
        self.ra4_extrema = ref.sphere_extrema(_ref_of(self.maps["random_admissible4"]),
                                              INDEPENDENT_SAMPLES,
                                              _rng(self.ctx.seed, _SALT_SPHERE))
        return problems

    def round(self, r):
        H = self.ctx.hominv
        seeds = [int(v) for v in _rng(self.ctx.seed, _SALT_CHECK, r).integers(0, 2**31 - 1, 2)]
        ops = []
        for name, m in self.maps.items():
            count = BLACKBOX_SAMPLES if "blackbox" in name else None
            # the cheap demo maps run at both seeds, so that the median
            # operation is one of many similar checks, not a lone one
            for s in seeds if name in ref.DEMO_MAPS else seeds[:1]:
                ops.append(Op(
                    f"check {name} seed={s}",
                    (lambda m=m, count=count, s=s: H.check_hypotheses(m, count=count, seed=s)),
                    (lambda rep, name=name: self._check(name, rep)),
                ))
        return ops

    def _check(self, name, rep):
        out = []
        want_status = {"complex_square": STATUS_WARN, "axis_cube3": "fail",
                       "perturbed_radial_blackbox": "fail"}.get(name, "pass")
        if rep.status != want_status:
            out.append(f"{name}: status {rep.status!r}, expected {want_status!r}")
        want_reason = {"axis_cube3": "jacobian-vanishes",
                       "perturbed_radial_blackbox": "homogeneity-residual"}.get(name)
        if want_reason is not None and want_reason not in rep.reasons:
            out.append(f"{name}: reasons {rep.reasons}, expected {want_reason!r}")
        values = ref.SPHERE_VALUES.get(name)
        if name == "blackbox_radial_cube3":
            values = ref.SPHERE_VALUES["radial_cube3"]
        if values is not None:
            c0, c, det = values
            out += _close(name, "c0", rep.c0_empirical, c0, VALUE_LIMIT)
            out += _close(name, "C", rep.c_empirical, c, VALUE_LIMIT)
            limit = FD_DET_LIMIT if "blackbox" in name else VALUE_LIMIT
            out += _close(name, "min|det Df|", rep.min_abs_det_j, det, limit)
        if name == "random_admissible4":
            lo, hi = self.ra4_extrema
            if not rep.c0_empirical <= lo * (1.0 + 1e-12):
                out.append(f"{name}: c0 {rep.c0_empirical!r} above sampled min |f| {lo!r}")
            if not rep.c_empirical >= hi * (1.0 - 1e-12):
                out.append(f"{name}: C {rep.c_empirical!r} below sampled max |f| {hi!r}")
        return out


# ---------------------------------------------------------------- roundtrip


class RoundtripWorkload:
    """One operation: one ``invert`` call against a report built in set-up.
    Each round takes, per map, targets log-uniform in [1e-3, 1e3] and pairs
    some with a rescaled copy ``tau * eta`` to test inverse homogeneity.

    A map's targets come from :class:`SobolTargets`: the cost of an
    inversion turns on the target's direction, and an even cover of the
    sphere keeps ``ops_per_s`` and ``op_p99_ms`` from turning on the seed."""

    trace_rounds = 4
    #: (single targets, pairs) per map and round: 48 operations.  Maps are
    #: listed from the cheapest inversions to the dearest; as many operations
    #: fall below radial_cube3 as above it, so the median lands inside that
    #: map's group instead of in the gap between two groups, where it would
    #: swing with the extremes of both.
    mix = {"reflection3": (4, 1), "identity3": (4, 1), "diag123": (4, 1),
           "radial_cube3": (8, 2), "radial_linear123": (5, 2), "random_admissible4": (5, 2)}

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self):
        H = self.ctx.hominv
        maps = dict(H.acceptance_maps(), reflection3=H.reflection_map(3))
        self.maps = {name: maps[name] for name in self.mix}
        self.reports = {name: H.check_hypotheses(m) for name, m in self.maps.items()}

    def verify_setup(self) -> list:
        self.refs = {name: _ref_of(m) for name, m in self.maps.items()}
        self.targets = {name: SobolTargets(m.n, _rng(self.ctx.seed, _SALT_ROUNDTRIP, i))
                        for i, (name, m) in enumerate(self.maps.items())}
        return [f"roundtrip set-up: {name} status {rep.status!r}"
                for name, rep in self.reports.items() if rep.status != "pass"]

    def round(self, r):
        H = self.ctx.hominv
        ops = []
        for name, m in self.maps.items():
            rep = self.reports[name]
            singles, pairs = self.mix[name]
            targets = self.targets[name].take(r, singles + pairs)
            for k in range(singles):
                eta, _ = next(targets)
                ops.append(Op(f"invert {name} #{k}",
                              (lambda m=m, eta=eta, rep=rep: H.invert(m, eta, report=rep)),
                              (lambda res, name=name, eta=eta: self._check(name, eta, res))))
            for k in range(pairs):
                eta, partner = next(targets)
                # the partner's magnitude is log-uniform in the same range
                tau = partner / float(np.linalg.norm(eta))
                holder = {}

                def first(m=m, eta=eta, rep=rep, holder=holder):
                    holder["base"] = H.invert(m, eta, report=rep)
                    return holder["base"]

                ops.append(Op(f"invert {name} pair {k}", first,
                              (lambda res, name=name, eta=eta: self._check(name, eta, res))))
                ops.append(Op(f"invert {name} pair {k} scaled",
                              (lambda m=m, eta=eta, rep=rep, tau=tau: H.invert(m, tau * eta,
                                                                               report=rep)),
                              (lambda res, name=name, eta=eta, tau=tau, m=m, holder=holder:
                               self._check(name, tau * eta, res)
                               + self._check_pair(name, m, tau, holder.get("base"), res))))
        return ops

    def _check(self, name, eta, res):
        label = f"invert {name} eta={list(eta)}"
        out = []
        rel = ref.relative_residual(self.refs[name], res.xi, eta)
        if not rel <= RESIDUAL_LIMIT:
            out.append(f"{label}: reference residual {rel:.2e}")
        want = ref.closed_form_inverse(name, eta)
        if want is not None:
            dist = ref.relative_distance(res.xi, want)
            if not dist <= CLOSED_FORM_LIMIT:
                out.append(f"{label}: {dist:.2e} from the closed-form inverse")
        return out + _in_bracket(label, res.xi, res.bracket)

    @staticmethod
    def _check_pair(name, m, tau, base, scaled):
        if base is None:
            return [f"invert {name}: scaled target solved without its base"]
        factor = tau ** (1.0 / m.kappa)
        dev = ref.relative_distance(scaled.xi, factor * base.xi)
        if dev <= HOMOGENEITY_LIMIT:
            return []
        return [f"invert {name}: inverse homogeneity deviation {dev:.2e} at tau {tau!r}"]


# ---------------------------------------------------------------- cli


_TIMING = re.compile(r'"timing": \{[^{}]*\}')


class CliWorkload:
    """One operation: one ``hominv`` command, run as its own interpreter
    (``python -m hominv.cli``), one child at a time.  A traced run calls
    ``hominv.cli.main`` in-process instead, so its spans can be recorded."""

    trace_rounds = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.env = dict(os.environ)
        src = os.path.join(ctx.root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def setup(self):
        # set-up is the cold ``import hominv`` the worker already did; the
        # rendered map file is input preparation, made after the timer stops
        pass

    def verify_setup(self) -> list:
        H = self.ctx.hominv
        rendered = {"random_admissible4": H.random_admissible_map(n=4, seed=7, kappa=3.5),
                    "reflection3": H.reflection_map(3)}
        self.paths = {}
        for name, m in rendered.items():
            self.paths[name] = os.path.join(self.ctx.out_dir, f"{name}-{os.getpid()}.map")
            with open(self.paths[name], "w") as fh:
                fh.write(H.format_map(m) + "\n")
        self.refs = dict(ref.DEMO_MAPS, reflection3=ref.REFLECTION3,
                         random_admissible4=_ref_of(rendered["random_admissible4"]))
        self.ra4_extrema = ref.sphere_extrema(self.refs["random_admissible4"],
                                              INDEPENDENT_SAMPLES,
                                              _rng(self.ctx.seed, _SALT_SPHERE))
        self.winding = ref.winding_number(ref.DEMO_MAPS["complex_square"])
        self.outputs = {}
        if self.winding != 2:
            return [f"complex_square: winding number {self.winding}, expected 2"]
        return []

    def close(self):
        for path in self.paths.values():
            with contextlib.suppress(OSError):
                os.remove(path)

    def invoke(self, argv):
        """Run one command; returns (exit code, stdout)."""
        if self.ctx.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "hominv.cli", *argv],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.ctx.root, timeout=120)
            return proc.returncode, proc.stdout
        import hominv.cli as cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def round(self, r):
        rng = _rng(self.ctx.seed, _SALT_CLI, r)
        s = str(int(rng.integers(0, 2**31 - 1)))
        P = self.ctx.map_path

        def vec(v):
            return ",".join(repr(float(x)) for x in v)

        t_cube = _target(rng, 3, -2.0, 2.0)
        t_lin = _target(rng, 3, -2.0, 2.0)
        t_sq = _target(rng, 2, -2.0, 2.0)
        t_refl = _target(rng, 3, -2.0, 2.0)
        t_ra4 = _target(rng, 4, -2.0, 2.0)
        J = ["--json", "-"]
        cmds = [
            ("check complex_square", ["check", P("complex_square"), "--seed", s, *J],
             lambda rep: self._status(rep, STATUS_WARN)),
            ("check axis_cube3", ["check", P("axis_cube3"), "--seed", s, *J],
             lambda rep: self._status(rep, "fail", "jacobian-vanishes")),
            ("check random_admissible4",
             ["check", self.paths["random_admissible4"], "--seed", s, *J],
             lambda rep: self._status(rep, "pass") + self._ra4_bounds(rep)),
            ("invert radial_cube3", ["invert", P("radial_cube3"), "--target=" + vec(t_cube), *J],
             lambda rep: self._inverted(rep, "radial_cube3", t_cube)),
            ("invert radial_linear123",
             ["invert", P("radial_linear123"), "--target=" + vec(t_lin), *J],
             lambda rep: self._inverted(rep, "radial_linear123", t_lin)),
            ("degree complex_square",
             ["degree", P("complex_square"), "--target=" + vec(t_sq), "--probe", "2", "--seed", s,
              *J],
             lambda rep: self._degree(rep, "complex_square", t_sq)),
            ("degree reflection3",
             ["degree", self.paths["reflection3"], "--target=" + vec(t_refl), "--probe", "2",
              "--seed", s, *J],
             lambda rep: self._degree(rep, "reflection3", t_refl)),
            ("degree random_admissible4",
             ["degree", self.paths["random_admissible4"], "--target=" + vec(t_ra4), "--probe",
              "1", "--seed", s, *J],
             lambda rep: self._degree(rep, "random_admissible4", t_ra4)),
            ("roundtrip identity3",
             ["roundtrip", P("identity3"), "--count", "10", "--seed", s, *J],
             lambda rep: self._roundtrip(rep, "identity3")),
            # the same invert again: reports must match byte for byte apart from timing
            ("invert radial_cube3 again",
             ["invert", P("radial_cube3"), "--target=" + vec(t_cube), *J],
             lambda rep: self._same_as(rep, "invert radial_cube3")),
        ]
        ops = []
        for label, argv, check in cmds:
            want_code = 2 if label == "check axis_cube3" else 0
            ops.append(Op(label, (lambda argv=argv: self.invoke(argv)),
                          (lambda res, label=label, check=check, want_code=want_code:
                           self._check(label, res, want_code, check))))
        return ops

    def _check(self, label, res, want_code, check):
        code, text = res
        if code != want_code:
            return [f"cli {label}: exit code {code}, expected {want_code}"]
        try:
            rep = json.loads(text)
        except ValueError:
            return [f"cli {label}: stdout is not one JSON report"]
        self.outputs[label] = _TIMING.sub('"timing": null', text)
        out = []
        if list(rep) != REPORT_KEYS:
            out.append(f"cli {label}: report keys {list(rep)}")
        return [f"cli {label}: {p}" for p in out + check(rep)]

    @staticmethod
    def _status(rep, status, reason=None):
        hyp = rep["hypothesis"]
        out = [] if hyp["status"] == status else [f"status {hyp['status']!r}, expected {status!r}"]
        if reason is not None and reason not in hyp["reasons"]:
            out.append(f"reasons {hyp['reasons']}, expected {reason!r}")
        return out

    def _ra4_bounds(self, rep):
        lo, hi = self.ra4_extrema
        hyp = rep["hypothesis"]
        out = []
        if not hyp["c0_empirical"] <= lo * (1.0 + 1e-12):
            out.append(f"c0 {hyp['c0_empirical']!r} above sampled min |f| {lo!r}")
        if not hyp["c_empirical"] >= hi * (1.0 - 1e-12):
            out.append(f"C {hyp['c_empirical']!r} below sampled max |f| {hi!r}")
        return out

    def _inverted(self, rep, name, eta):
        inv = rep["inversions"]
        if not inv or len(inv) != 1:
            return [f"inversions {inv!r}"]
        xi = np.array(inv[0]["xi"])
        out = []
        rel = ref.relative_residual(self.refs[name], xi, eta)
        if not rel <= RESIDUAL_LIMIT:
            out.append(f"reference residual {rel:.2e}")
        if ref.relative_distance(xi, ref.closed_form_inverse(name, eta)) > CLOSED_FORM_LIMIT:
            out.append(f"xi {list(xi)} is not the closed-form inverse")
        return out + _in_bracket(name, xi, inv[0]["bracket"])

    #: expected degrees and probe verdicts of the ``degree`` commands
    DEGREES = {"complex_square": ((2,), "not-injective"),
               "reflection3": ((-1,), "consistent-with-injective"),
               "random_admissible4": ((1, -1), "consistent-with-injective")}

    def _degree(self, rep, name, eta):
        deg = rep["degree"]
        want_degrees, want_verdict = self.DEGREES[name]
        xis = [np.array(p["xi"]) for p in deg["preimages"]]
        out = []
        if deg["degree"] not in want_degrees:
            out.append(f"degree {deg['degree']}, expected {want_degrees}")
        if name == "complex_square":
            if deg["degree"] != self.winding:
                out.append(f"degree {deg['degree']} != winding number {self.winding}")
            wants = ref.complex_square_roots(eta)
        else:
            want = ref.closed_form_inverse(name, eta)
            wants = [] if want is None else [want]
        if len(xis) != (2 if name == "complex_square" else 1):
            out.append(f"{len(xis)} preimages")
        elif not all(min(ref.relative_distance(x, w) for x in xis) <= CLOSED_FORM_LIMIT
                     for w in wants):
            out.append(f"preimages {[list(x) for x in xis]} differ from the closed form")
        for xi in xis:
            rel = ref.relative_residual(self.refs[name], xi, eta)
            if not rel <= RESIDUAL_LIMIT:
                out.append(f"reference residual {rel:.2e}")
        verdict = deg["injectivity_probe"]["verdict"]
        if verdict != want_verdict:
            out.append(f"probe verdict {verdict!r}, expected {want_verdict!r}")
        return out

    @staticmethod
    def _roundtrip(rep, name):
        out = [] if rep["roundtrip"]["ok"] is True else [f"roundtrip {rep['roundtrip']!r}"]
        for entry in rep["inversions"]:
            want = ref.closed_form_inverse(name, entry["eta"])
            if ref.relative_distance(entry["xi"], want) > CLOSED_FORM_LIMIT:
                out.append(f"xi {entry['xi']} is not the inverse of {entry['eta']}")
        return out

    def _same_as(self, rep, label):
        first = self.outputs.get(label)
        if first is None:
            return [f"no earlier output of {label!r} to compare with"]
        again = self.outputs.get(f"{label} again")
        return [] if first == again else [f"report differs from {label!r} apart from timing"]


WORKLOADS = {
    "check": CheckWorkload,
    "roundtrip": RoundtripWorkload,
    "cli": CliWorkload,
}


def prelude(ctx: Context) -> list:
    """A small fixed pass through every layer, run first in each traced run
    so that every per-layer metric is measured on every workload.  Inputs
    do not depend on the seed."""
    H = ctx.hominv
    import hominv.cli as cli
    problems = []
    for argv in (["degree", ctx.map_path("complex_square"), "--target", "0.6,0.8",
                  "--probe", "1", "--samples", "256", "--json", "-"],
                 ["invert", ctx.map_path("radial_cube3"), "--target", "2,-3,6",
                  "--samples", "256", "--json", "-"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            problems.append(f"prelude: hominv {argv[0]} exited with {code}")
    rep = H.check_hypotheses(ctx.blackbox(H.blackbox_of(H.radial_cube_map(3))), count=64)
    if rep.status != "pass":
        problems.append(f"prelude: black-box check status {rep.status!r}")
    return problems
