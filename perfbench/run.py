"""Benchmark launcher for hominv.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {check,roundtrip,cli,all} \\
        --seed N --seconds S --trace {0,1}

hominv is imported from ``src/`` of the same checkout; nothing is installed.
With ``--trace 0`` the workload runs untraced in a fresh interpreter for
``S`` seconds of operations, after two more fresh interpreters that only do
the set-up, and the end-to-end metrics are printed.  With ``--trace 1`` one
traced interpreter runs a fixed amount of work and the per-layer metrics
are printed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload
all`` runs the three workloads in turn and prints one such line for each, with
a ``workload`` key added.  Times are reported at the reference speed of
``calibration.py`` (the raw figures go to standard error).  See README.md in
this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("check", "roundtrip", "cli")
#: set-up is timed this many times per run (fresh interpreters); the median is reported
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
#: the children of one workload's run must finish within this many seconds
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, deadline, capture_stderr=False) -> tuple[int, str, str]:
    """Run a child in its own process group; kill the group at the deadline,
    or when the launcher itself is stopped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if capture_stderr else None, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out, err or ""


def _on_sigterm(signum, frame):
    # unwinds through _run, which stops the running child's process group
    raise SystemExit(128 + signum)


def _worker(workload, seed, seconds, trace, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out-dir", OUT_DIR]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    code, out, _ = _run(cmd, deadline)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"worker exited with code {code}")
    return json.loads(lines[-1])


def _import_times(deadline) -> dict:
    """Cumulative import time of hominv and of scipy.stats, in seconds, from
    ``python -X importtime`` in fresh interpreters (median of several)."""
    found = {"hominv": [], "scipy.stats": []}
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    for _ in range(IMPORTTIME_SAMPLES):
        code, _, err = _run([sys.executable, "-X", "importtime", "-c", "import hominv"],
                            deadline, capture_stderr=True)
        if code != 0:
            raise BenchError("python -X importtime -c 'import hominv' failed")
        seen = {}
        for line in err.splitlines():
            m = pattern.match(line)
            if m and m.group(2) in found:
                seen[m.group(2)] = int(m.group(1)) * 1e-6
        for name in found:
            # a module that hominv no longer imports costs it nothing
            found[name].append(seen.get(name, 0.0))
    return {
        "cli.import.hominv_s": {"value": statistics.median(found["hominv"]), "unit": "s"},
        "cli.import.scipy_stats_s": {"value": statistics.median(found["scipy.stats"]),
                                     "unit": "s"},
    }


def _measure(workload, seed, seconds, trace) -> dict:
    """One run of one workload; returns the result object."""
    deadline = time.monotonic() + BUDGET_S
    if trace:
        res = _worker(workload, seed, seconds, True, deadline)
        metrics = dict(res["layer"])
        metrics.update(_import_times(deadline))
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            t0 = time.time()
            setups.append(_worker(workload, seed, seconds, False, deadline,
                                  setup_only=True)["ready_at"] - t0)
        t0 = time.time()
        res = _worker(workload, seed, seconds, False, deadline)
        setups.append(res["ready_at"] - t0)
        e2e = res["end_to_end"]
        print(f"perfbench: {workload}: raw setup_s {statistics.median(setups):.4f}, "
              f"ops_per_s {res['raw']['ops_per_s']:.4f}, "
              f"op_p50_ms {res['raw']['op_p50_ms']:.4f}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setups) * res["setup_factor"], "unit": "s"},
            "ops_per_s": {"value": e2e["ops_per_s"], "unit": "op/s"},
            "op_p50_ms": {"value": e2e["op_p50_ms"], "unit": "ms"},
            "op_p99_ms": {"value": e2e["op_p99_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
        }
    for problem in res["problems"]:
        print(f"perfbench: {workload}: check failed: {problem}", file=sys.stderr)
    if res["problem_count"] > len(res["problems"]):
        print(f"perfbench: {workload}: ... {res['problem_count'] - len(res['problems'])} more",
              file=sys.stderr)
    return {
        "correct": res["problem_count"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or 'all' to run the three in turn "
                   "(one result line each, with a 'workload' key)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    for needed in (os.path.join(ROOT, "src", "hominv", "__init__.py"),
                   os.path.join(ROOT, "demos", "maps")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a hominv checkout",
                  file=sys.stderr)
            return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = _measure(workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, ValueError, KeyError) as err:
            print(f"perfbench: {workload}: {err}", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": workload, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
