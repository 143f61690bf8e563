"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py``; not meant to be run by hand, though it can be::

    python3 perfbench/worker.py --workload roundtrip --seed 1 --seconds 5

With ``--setup-only`` the worker stops after set-up and reports when set-up
ended, which ``run.py`` turns into a ``setup_s`` sample.  Every time is
reported at the reference speed of :mod:`calibration`: the worker times the
calibration kernel after every operation (outside the operation's timer)
and scales an operation's time by the median sample of its round, and
set-up times by the median sample of the whole run.  With ``--trace`` it
wraps hominv's functions, runs the fixed prelude and a fixed number of
rounds, and reports the per-layer metrics instead of the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_PROBLEMS = 20
#: at least this many calibration samples per round, spread over its operations
ROUND_CAL_SAMPLES = 24


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hominv

    if not os.path.abspath(hominv.__file__).startswith(src + os.sep):
        print(f"worker: hominv imported from {hominv.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import calibration
    import workloads as W

    tracer = None
    problems: list[str] = []
    ctx = W.Context(hominv=hominv, root=ROOT, out_dir=args.out_dir, seed=args.seed)
    if args.trace:
        import tracing

        tracer = ctx.tracer = tracing.Tracer()
        missing = tracing.install(tracer, hominv)
        if missing:
            print(f"worker: not traced, not found: {', '.join(missing)}", file=sys.stderr)
        tracer.op = "prelude"
        problems += W.prelude(ctx)
        tracer.op = "setup"

    wl = W.WORKLOADS[args.workload](ctx)
    wl.setup()
    ready_at = time.time()
    if args.setup_only:
        _emit({"ready_at": ready_at})
        return 0

    times: list[float] = []
    scaled: list[float] = []
    round_rates: list[float] = []
    raw_round_rates: list[float] = []
    all_cal: list[float] = []
    attempted = failed = 0
    busy = 0.0
    try:
        problems += wl.verify_setup()
        r = 0
        while True:
            done_before, busy_before = len(times), busy
            ops = wl.round(r)
            per_op = -(-ROUND_CAL_SAMPLES // len(ops))
            cal: list[float] = []
            for k, op in enumerate(ops):
                attempted += 1
                if tracer is not None:
                    tracer.op = f"r{r}.{k}"
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as err:  # an operation that raises is counted, not fatal
                    busy += time.perf_counter() - t0
                    failed += 1
                    problems.append(f"{op.label}: raised {type(err).__name__}: {err}")
                    cal += [calibration.sample() for _ in range(per_op)]
                    continue
                dt = time.perf_counter() - t0
                busy += dt
                times.append(dt)
                cal += [calibration.sample() for _ in range(per_op)]
                problems += op.check(out)
            f = calibration.factor(cal)
            all_cal += cal
            scaled += [dt * f for dt in times[done_before:]]
            raw_round_rates.append((len(times) - done_before) / (busy - busy_before))
            round_rates.append(raw_round_rates[-1] / f)
            r += 1
            if (r >= wl.trace_rounds) if tracer is not None else (busy >= args.seconds):
                break
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()

    result = {
        "ready_at": ready_at,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "problem_count": len(problems),
    }
    # the median over rounds keeps a stall of the machine within one round
    # from moving the whole run's figure
    ops_per_s = statistics.median(round_rates)
    result["raw"] = {"ops_per_s": statistics.median(raw_round_rates),
                     "op_p50_ms": statistics.median(times) * 1e3 if times else 0.0}
    result["setup_factor"] = calibration.factor(all_cal)
    if tracer is not None:
        import tracing

        trace_path = os.path.join(args.out_dir, f"trace-{args.workload}.jsonl")
        tracer.dump(trace_path)
        layer = tracing.layer_metrics(tracer.spans)
        layer["traced.ops"] = {"value": len(times), "unit": "count"}
        layer["traced.ops_per_s"] = {"value": ops_per_s, "unit": "op/s"}
        result["layer"] = layer
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["end_to_end"] = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(scaled) * 1e3 if scaled else 0.0,
            "op_p99_ms": (statistics.quantiles(scaled, n=100, method="inclusive")[98] * 1e3
                          if len(scaled) > 1 else (scaled[0] * 1e3 if scaled else 0.0)),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "ops": len(times),
        }
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
