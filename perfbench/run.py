"""qhcurv benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload banks-n3 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the public functions of every
layer are wrapped (see ``spantrace.py``) and the line holds the per-layer
metrics instead.  Earlier lines record the environment and any check
that failed.  ``--write-reference`` stores the outputs as the committed
seed reference instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
SETUP_REPS = 3           # set-ups per untraced run: one before the timed phase, the rest after
IMPORT_REPS = 3          # timed imports before the timed phase, and again after it
BLAS_THREADS = 1         # capped at nproc; on a shared machine a second thread doubles the spread
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("banks-n3", "tables-n2", "classify-n2"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_runtime(np):
    """(OpenBLAS version, threads in use) as reported by the loaded library."""
    import ctypes
    import glob
    version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return version, int(fn())
    return version, None


def import_seconds(layers) -> float:
    """Time to import numpy and every layer module, in a fresh interpreter."""
    code = ("import importlib, sys, time\n"
            "t0 = time.perf_counter()\n"
            "import numpy\n"
            f"sys.path.insert(0, {SRC!r})\n"
            f"for name in {tuple(layers)!r}:\n"
            "    importlib.import_module('qhcurv.' + name)\n"
            "print(time.perf_counter() - t0)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return float(out.stdout)


def write_reference(fh, observed: dict) -> None:
    """JSON with one entry per line for the long lists, so diffs stay readable."""
    lines = []
    for key in sorted(observed):
        value = observed[key]
        if isinstance(value, list) and value and isinstance(value[0], list):
            body = "[\n" + ",\n".join("  " + json.dumps(v) for v in value) + "\n ]"
        else:
            body = json.dumps(value, sort_keys=True)
        lines.append(f" {json.dumps(key)}: {body}")
    fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its scratch files (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "qhcurv", "__init__.py")):
        print(f"perfbench: no package source at {os.path.relpath(SRC)}/qhcurv",
              file=sys.stderr)
        return 2
    threads = max(1, min(BLAS_THREADS, nproc()))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)

    t0 = time.perf_counter()
    import importlib

    import numpy as np
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import spantrace
    modules = {name: importlib.import_module(f"qhcurv.{name}") for name in spantrace.LAYERS}
    first_import_s = time.perf_counter() - t0
    import qhcurv
    if not os.path.abspath(qhcurv.__file__).startswith(SRC + os.sep):
        print(f"perfbench: qhcurv imported from {qhcurv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads
    from types import SimpleNamespace

    blas_version, blas_threads = blas_runtime(np)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": nproc(), "blas_threads_pinned": threads,
           "blas_threads": blas_threads, "numpy": np.__version__,
           "openblas": blas_version, "python": sys.version.split()[0]}
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    ref_path = os.path.join(REFERENCE_DIR, f"{args.workload}.json")
    reference = None
    if not args.write_reference:
        with open(ref_path) as fh:
            reference = json.load(fh)

    tracer = spantrace.Tracer() if args.trace else None
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Ctx(q=SimpleNamespace(**modules), seed=args.seed,
                        seconds=args.seconds, workdir=workdir,
                        reference=reference, tracer=tracer)
    # the imports and the set-up are repeated, before and after the timed
    # phase, so that setup_s is a median over the run; CPU time and peak
    # memory are read before the repeats, as a user pays the set-up once
    import_s, setup_s = [], []
    try:
        if tracer is not None:
            tracer.install()
            t_start = time.perf_counter()
        else:
            import_s += [import_seconds(spantrace.LAYERS) for _ in range(IMPORT_REPS)]
        outcome = workloads.WORKLOADS[args.workload](ctx)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        setup_s.append(outcome.setup_s)
        if tracer is not None:
            tracer.window = (t_start, time.perf_counter())
            tracer.uninstall()
        else:
            import_s += [import_seconds(spantrace.LAYERS) for _ in range(IMPORT_REPS)]
            for _ in range(SETUP_REPS - 1):
                setup_s.append(workloads.setup(ctx.q, args.workload)[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if args.write_reference:
        with open(ref_path, "w") as fh:
            write_reference(fh, outcome.observed)
    for note in outcome.notes:
        print(f"check failed: {note}")
    print(f"failed_frac {outcome.failed}/{outcome.attempted}"
          f" = {outcome.failed / outcome.attempted:.6f}")

    print(f"rusage user_s {usage.ru_utime:.3f} sys_s {usage.ru_stime:.3f}"
          f" minflt {usage.ru_minflt} inputs_cpu_s {outcome.own_cpu_s:.3f}")
    if tracer is not None:
        metrics = spantrace.layer_metrics(tracer, outcome.wall_s)
    else:
        print(f"setup import_s {first_import_s:.4f} then {import_s} build_s {setup_s}")
        metrics = {
            "wall_s": (outcome.wall_s, "s"),
            "setup_s": (float(np.median(import_s) + np.median(setup_s)), "s"),
            "cpu_s": (usage.ru_utime + usage.ru_stime - outcome.own_cpu_s, "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - outcome.failed / outcome.attempted, "frac"),
            "item_p50_ms": (float(np.median(np.concatenate(outcome.items_ms))), "ms"),
            # median over batches of each batch's p99: one stall moves one batch
            "item_p99_ms": (float(np.median([np.percentile(b, 99)
                                             for b in outcome.items_ms])), "ms"),
        }
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
