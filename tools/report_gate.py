"""Cross-version gate: compare the demo-map CLI reports of two checkouts.

Usage, from anywhere::

    python tools/report_gate.py OLD NEW

``OLD`` and ``NEW`` are the roots of two hominv checkouts.  For every map
file in ``NEW/demos/maps`` the nine command lines of ``COMMANDS`` run in
both checkouts (``python -m hominv.cli`` with that checkout's ``src``
first on the path, the report on standard output): ``check``, ``invert``,
and ``roundtrip`` and ``degree`` both at the default ``--tol`` and at
``--tol 1e-12``, so that a tolerance lost on its way to a solver shows.
One more ``roundtrip`` runs on a sample of 64 points: its seeds align
poorly with the targets, so long continuation steps get rejected and the
tracker's halving path is compared too.  One more ``check`` runs on 2049
points, one more than a block of the sample scan, so that its last block
of one row is compared too.  One more ``invert`` passes ``--trace``, so
that the path waypoints of the report are compared too.
``invert`` and ``degree`` take the target ``1,-2,0.5,0.25`` repeated
cyclically to the map's dimension (cut to it below 4, ``1,-2,0.5,0.25,1``
at 5), so a map of any dimension gets a target of its own length.  Each
pair of runs is judged by the per-field rules of ROADMAP.md:

* ``xi`` within 1e-12 relative, as ``|xi_new - xi_old| / |xi_old|``;
* ``residual`` and ``relative_residual`` within ``1e-14 * max(1, |eta|)``,
  and ``max_relative_residual`` within ``1e-14 * max(1, max |eta|)``;
* ``argmin_f`` and ``argmin_det`` left out on radial_cube3, and
  ``argmin_f`` on axis_cube3, where rounding alone picks the argmin;
* every other field, the exit code, and the whole ``degree`` report
  exactly.  A float that breaks the exact rule is shown with the number of
  floats between its two values, as ``hypothesis.min_abs_det_j (2 ulp)``,
  and a ``degree`` report names each field that differs.

Each pair prints one line, naming the map, the command and its arguments:
``identical`` when the reports are byte for byte the same apart from
``timing`` and the summaries on standard error match, ``within rules``
with the fields that moved, or ``MISMATCH`` with the fields that broke a
rule.  A field that differs in more than one of a report's inversions is
listed once with its count, as ``inversions[*].steps ×30``, and with the
largest distance in ulps when it is a float.  An integer field of the
inversions that differs also shows its old and new totals over the
report's inversions, as ``inversions[*].newton_iters_total ×29 (90 → 49)``,
so that a change to the tracker shows its direction; the verdicts do not
depend on them.

Then ``hominv check`` runs in both checkouts on each text of
``REJECTIONS``, one malformed map per rejection message of ``parse_map``,
written to a temporary directory.  Such a pair is ``identical`` when the
exit codes and the whole of standard error match, else ``MISMATCH``; its
line shows the new checkout's message.  The exit code is 1 when any pair,
of either kind, mismatched, else 0.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

#: (name, arguments); ``{target}`` is ``target(n)`` for a map of dimension n
COMMANDS = (
    ("check", []),
    ("invert", ["--target={target}", "--force"]),
    ("roundtrip", ["--count", "30", "--force"]),
    ("degree", ["--target={target}", "--probe", "5", "--force"]),
    ("roundtrip", ["--count", "30", "--force", "--tol", "1e-12"]),
    ("degree", ["--target={target}", "--probe", "5", "--force", "--tol", "1e-12"]),
    ("roundtrip", ["--count", "30", "--force", "--samples", "64"]),
    ("check", ["--samples", "2049", "--seed", "3"]),
    ("invert", ["--target={target}", "--force", "--trace"]),
)
TARGET = (1.0, -2.0, 0.5, 0.25)
#: argmins that rounding decides: |f| (and on radial_cube3 det Df) is flat
#: on the sphere
SKIPPED = {"radial_cube3": {"argmin_f", "argmin_det"}, "axis_cube3": {"argmin_f"}}
XI_REL = 1e-12
RESIDUAL_ABS = 1e-14
#: how ``compare`` notes a float's distance, as in ``c0_empirical (2 ulp)``
_ULP_NOTE = re.compile(r" \((\d+) ulp\)$")
#: one malformed map text per rejection message of ``parse_map``
REJECTIONS = (
    "n = 2; f1 = x1 # x2; f2 = x2",
    "kappa 2; n = 1; f1 = x1",
    "kappa = 2 n = 1; f1 = x1",
    "kappa = x1; n = 1; f1 = x1",
    "f1 = x1",
    "n = ; f1 = x1",
    "n = 2.5; f1 = x1",
    "n = 0; f1 = x1",
    "n = 1001; f1 = x1",
    "n = 1 f1 = x1",
    "n = 2; f2 = x1; f1 = x2",
    "n = 1; f1 = x1 + ;",
    "n = 1; f1 = 2/ x1",
    "kappa = 5/0; n = 1; f1 = x1",
    "n = 1; f1 = 1e300/1e-300 x1",
    "n = 1; f1 = 2 * 3",
    "n = 1; f1 = y1",
    "n = 2; f1 = x1; f2 = x3",
    "n = 1; f1 = x1^",
    "n = 1; f1 = x1^1.5",
    "n = 1; f1 = x1^1001",
    "n = 1; f1 = x1^1000 x1",
    "n = 2; f1 = x1;",
    "n = 2;\nf1 = x1 + x2^2; f2 = x2",
    "kappa = -1; n = 1; f1 = x1",
    "n = 1; f1 = 5",
    "n = 2; f1 = 1.7976931348623157e308 x1 + 1.7976931348623157e308 x1; f2 = x2",
    "n = 1; f1 = 1e308 x1^2",
)


def target(n: int) -> str:
    """``TARGET`` repeated cyclically to length ``n``, as a CLI argument."""
    return ",".join(f"{TARGET[i % len(TARGET)]:g}" for i in range(n))


def run(root: Path, command: str, args: list[str], mapfile: Path):
    """``(exit code, report or None, stderr)`` of one CLI run in ``root``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "hominv.cli", command, str(mapfile), *args, "--json", "-"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    report = json.loads(proc.stdout) if proc.stdout.strip() else None
    if report is not None:
        report.pop("timing", None)
    return proc.returncode, report, proc.stderr


def _norm(v) -> float:
    return math.hypot(*v) if isinstance(v, list) else abs(v)


def compare(old, new, map_name: str, command: str) -> tuple[list[str], list[str]]:
    """Fields of two reports (``timing`` removed) that differ, split into
    ``(moved within the rules, broke a rule)``; paths like
    ``inversions[3].xi``.  A ``degree`` report is held exactly, field by
    field.  A float that breaks the exact rule carries its distance in ulps,
    as ``hypothesis.min_abs_det_j (2 ulp)``."""
    exact = command == "degree"
    moved, broken = [], []
    skipped = set() if exact else SKIPPED.get(map_name, set())
    inversions = (old or {}).get("inversions") or []
    eta_max = max([_norm(e["eta"]) for e in inversions], default=0.0)

    def walk(a, b, path: str, eta: float):
        key = path.rsplit(".", 1)[-1]
        rule = "" if exact else key  # the key a tolerance is looked up by
        if key in skipped and path.startswith("hypothesis."):
            if a != b:
                moved.append(path)
            return
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            if "eta" in a:
                eta = _norm(a["eta"])
            for k in a:
                walk(a[k], b[k], f"{path}.{k}" if path else k, eta)
            return
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b) and rule != "xi":
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]", eta)
            return
        if a == b:
            return
        if rule == "xi" and isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            ok = _norm([y - x for x, y in zip(a, b)]) <= XI_REL * _norm(a)
        elif rule in ("residual", "relative_residual") and _floats(a, b):
            ok = abs(b - a) <= RESIDUAL_ABS * max(1.0, eta)
        elif rule == "max_relative_residual" and _floats(a, b):
            ok = abs(b - a) <= RESIDUAL_ABS * max(1.0, eta_max)
        else:
            ok = False
            if _floats(a, b) and math.isfinite(a) and math.isfinite(b):
                path = f"{path} ({ulps(a, b)} ulp)"
        (moved if ok else broken).append(path)

    walk(old, new, "", 0.0)
    return moved, broken


def ulps(a: float, b: float) -> int:
    """The number of floats from ``a`` to ``b`` (both finite); 0 and -0 are
    one float."""
    def rank(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(1 << 63) - bits
    return abs(rank(a) - rank(b))


def summarize(paths: list[str], old=None, new=None) -> list[str]:
    """``paths`` in order of first appearance, each field that differs in
    more than one inversion collapsed into one entry with its count and,
    for floats, the largest distance in ulps.  Given the two reports, an
    integer field of the inversions also shows its old and new totals over
    every inversion, as ``inversions[*].steps ×29 (41 → 30)``."""
    groups: dict[str, list[str]] = {}
    for path in paths:
        field = re.sub(r"^inversions\[\d+\]", "inversions[*]", _ULP_NOTE.sub("", path))
        groups.setdefault(field, []).append(path)
    out = []
    for field, group in groups.items():
        notes = [int(m.group(1)) for m in map(_ULP_NOTE.search, group) if m]
        if len(group) == 1:
            entry = group[0]
        else:
            entry = f"{field} ×{len(group)}" + (f" (max {max(notes)} ulp)" if notes else "")
        out.append(entry + _totals(field, old, new))
    return out


def _totals(field: str, old, new) -> str:
    """`` (a → b)``, the sums of an integer ``inversions[*].<key>`` field over
    the inversions of the ``old`` and ``new`` reports; ``""`` for any other
    field, or when a report is missing."""
    key = re.fullmatch(r"inversions\[\*\]\.(\w+)", field)
    if key is None or old is None or new is None:
        return ""
    sums = []
    for report in (old, new):
        values = [inv.get(key.group(1)) for inv in report.get("inversions") or []]
        if not values or not all(type(v) is int for v in values):
            return ""
        sums.append(sum(values))
    return f" ({sums[0]} → {sums[1]})"


def _floats(a, b) -> bool:
    return isinstance(a, float) and isinstance(b, float)


def check_rejections(old_root: Path, new_root: Path, texts=REJECTIONS) -> dict:
    """Run ``hominv check`` on each of ``texts`` in both checkouts, print
    one line per pair, and return the count of each verdict."""
    counts = {"identical": 0, "MISMATCH": 0}
    with tempfile.TemporaryDirectory() as tmp:
        for k, text in enumerate(texts):
            mapfile = Path(tmp) / f"rejection{k:02d}.map"
            mapfile.write_text(text)
            code_a, _, err_a = run(old_root, "check", [], mapfile)
            code_b, _, err_b = run(new_root, "check", [], mapfile)
            broken = [f"exit code {code_a} -> {code_b}"] if code_a != code_b else []
            broken += ["stderr"] if err_a != err_b else []
            verdict = "MISMATCH" if broken else "identical"
            counts[verdict] += 1
            detail = ", ".join(broken) if broken else err_b.strip()
            print(f"{mapfile.stem:18s} check     exit {code_b}  {verdict}: {detail}")
    print(f"{len(texts)} rejection pairs: {counts['identical']} identical, "
          f"{counts['MISMATCH']} mismatched")
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/report_gate.py OLD NEW", file=sys.stderr)
        return 2
    old_root, new_root = (Path(p).resolve() for p in argv)
    maps = sorted((new_root / "demos" / "maps").glob("*.map"))
    counts = {"identical": 0, "within rules": 0, "MISMATCH": 0}
    for mapfile in maps:
        n = int(re.search(r"\bn\s*=\s*(\d+)", mapfile.read_text()).group(1))
        for command, args in COMMANDS:
            args = [a.format(target=target(n)) for a in args]
            code_a, old, err_a = run(old_root, command, args, mapfile)
            code_b, new, err_b = run(new_root, command, args, mapfile)
            moved, broken = compare(old, new, mapfile.stem, command)
            if code_a != code_b:
                broken.append(f"exit code {code_a} -> {code_b}")
            if old is None and err_a != err_b:
                broken.append("stderr")
            if broken:
                verdict = "MISMATCH"
            elif json.dumps(old) == json.dumps(new) and err_a == err_b:
                verdict = "identical"
            else:
                verdict = "within rules"
            counts[verdict] += 1
            detail = ", ".join(summarize(broken or moved, old, new))
            shown = " ".join(args)
            print(f"{mapfile.stem:18s} {command:9s} {shown:48s} exit {code_b}  {verdict}"
                  + (f": {detail}" if detail else ""))
    total = sum(counts.values())
    print(f"{total} command pairs: {counts['identical']} identical apart from timing, "
          f"{counts['within rules']} within rules, {counts['MISMATCH']} mismatched")
    rejected = check_rejections(old_root, new_root)
    return 1 if counts["MISMATCH"] or rejected["MISMATCH"] else 0


if __name__ == "__main__":
    sys.exit(main())
