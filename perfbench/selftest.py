"""Self-test of the benchmark, and the tracing overhead it reports.

    python3 perfbench/selftest.py [--seed 1] [--seconds 10] [workload ...]

For each workload (default: all three) this runs ``run.py`` four times,
one after another and alternating: untraced at the seed, traced at the
seed, untraced at seed + 1, traced at the seed.  It then checks that

* the two traced runs give identical counts (every ``*_calls``,
  ``svd_work``, ``tables.states`` and ``tensor_io.bytes_read``);
* ``ok_frac`` is the same at both seeds;
* the traced and untraced runs at the seed agree on ``correct``,
  ``attempted`` and ``failed``;
* on ``banks-n3`` and ``tables-n2``, whose inputs the benchmark does not
  make, the benchmark's own time is at most 2 % of the traced window, so
  the layers' self times account for the rest;

and prints traced against untraced ``wall_s``, and how much of the traced
window the layers' self times cover.  On a shared machine run-to-run drift
can exceed the tracing overhead, so it also prints an estimate: the
measured cost of one wrapped call times the number of spans.  Exit code 1
if a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("banks-n3", "tables-n2", "classify-n2")
COUNTS_EXACT = ("curvature_space.svd_work", "tables.states", "tensor_io.bytes_read")
BENCH_SHARE_MAX = {"banks-n3": 0.02, "tables-n2": 0.02}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         cwd=os.path.dirname(HERE))
    result = json.loads(out.stdout.splitlines()[-1])
    result["values"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def wrapper_cost(calls: int = 200_000) -> float:
    """Seconds a traced call costs more than a plain one."""
    sys.path.insert(0, HERE)
    import spantrace

    def noop():
        return None

    wrapped = spantrace.Tracer()._wrap(noop, "noop", "bench")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args(argv)

    failures = []
    per_call = wrapper_cost()
    for wl in args.workloads:
        plain = run(wl, args.seed, args.seconds, 0)
        traced = [run(wl, args.seed, args.seconds, 1)]
        other = run(wl, args.seed + 1, args.seconds, 0)
        traced.append(run(wl, args.seed, args.seconds, 1))

        counts = [k for k in traced[0]["values"]
                  if k.endswith("_calls") or k in COUNTS_EXACT]
        for k in counts:
            a, b = traced[0]["values"][k], traced[1]["values"][k]
            if a != b:
                failures.append(f"{wl}: {k} differs between traced runs: {a} vs {b}")
        if plain["values"]["ok_frac"] != other["values"]["ok_frac"]:
            failures.append(f"{wl}: ok_frac differs between seeds: "
                            f"{plain['values']['ok_frac']} vs {other['values']['ok_frac']}")
        for key in ("correct", "attempted", "failed"):
            if any(t[key] != plain[key] for t in traced):
                failures.append(f"{wl}: traced {key} differs from the untraced run")

        walls = [plain["values"]["wall_s"], other["values"]["wall_s"]]
        tw = [t["values"]["trace.wall_s"] for t in traced]
        tv = traced[0]["values"]
        window = tv["trace.window_s"]
        share = tv["trace.bench_self_s"] / window
        if share > BENCH_SHARE_MAX.get(wl, 1.0):
            failures.append(f"{wl}: the benchmark's own time is {100 * share:.1f} % "
                            f"of the traced window; the layers do not account for it")
        estimate = per_call * tv["trace.spans"]
        print(f"{wl}: wall_s untraced {walls[0]:.3f} / {walls[1]:.3f} s, "
              f"traced {tw[0]:.3f} / {tw[1]:.3f} s "
              f"(measured overhead {100 * (sum(tw) / sum(walls) - 1):+.1f} %; "
              f"estimated {estimate:.3f} s for {int(tv['trace.spans'])} spans, "
              f"{100 * estimate / window:.1f} % of the traced window); "
              f"layers' self time {window - tv['trace.bench_self_s']:.3f} s + "
              f"benchmark {tv['trace.bench_self_s']:.3f} s = traced window {window:.3f} s; "
              f"ok_frac {plain['values']['ok_frac']:.6f} at seeds {args.seed} and {args.seed + 1}; "
              f"{len(counts)} counts repeat", flush=True)

    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
