"""hubspoke benchmark: one closed-loop client per workload, outputs checked.

    python3 perfbench/run.py --workload menu --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; hubspoke is imported from its
`src/`.  Workloads: menu, laws, compliance, audit (workloads.py).  With
--trace 0 the last stdout line holds the end-to-end metrics: ops_per_s
(checked operations per second of operation time), setup_s (median of
three to nine fresh imports, fixture builds and warm-ups) and peak_rss_mb;
the error rate and the p50 and p95 latencies, with sample counts, are
printed above it.  With --trace 1 the run measures half its time untraced
and half with layer spans (tracing.py), from identical inputs, and reports
per-operation layer metrics.  Files go to a per-run directory under
`.perfbench_tmp/`, removed at exit.

Seed 7919 is held out: tune nothing against it, and confirm a claimed gain
on it as well as on the seeds used while the change was written.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

from tracing import LAYERS, Tracer
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 9, 2.0
MAX_REPORTED_ERRORS = 5


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cap_blas_threads() -> int:
    """Cap numpy's BLAS/OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def import_hubspoke(root: str) -> SimpleNamespace:
    """A fresh import of every hubspoke module from the checkout's src/."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hubspoke", "__init__.py")):
        raise SystemExit(f"error: no hubspoke sources under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "hubspoke" or m.startswith("hubspoke.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {layer: importlib.import_module(f"hubspoke.{layer}") for layer in LAYERS}
    if not mods["cli"].__file__.startswith(src + os.sep):
        raise SystemExit(f"error: hubspoke was imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


def set_up(workload, root: str, workdir: str):
    """Import, fixture build and warm-up; returns (state, seconds)."""
    os.makedirs(workdir)
    t0 = time.perf_counter()
    hs = import_hubspoke(root)
    state = workload.setup(hs, workdir)
    return state, time.perf_counter() - t0


def measure(workload, state, seed: int, seconds: float, tracer=None):
    """Closed loop: run operations until `seconds` of operation time is spent.

    Checks run between operations, outside the timed region; an exception
    or a failed check counts the operation as failed.
    """
    lat, failed, errors = [], 0, []
    spent, wall0 = 0.0, time.perf_counter()
    for op in workload.operations(seed):
        if lat and (spent >= seconds or time.perf_counter() - wall0 > 3 * seconds):
            break
        t0 = time.perf_counter()
        try:
            result, ok = workload.run(state, op), True
        except Exception:
            ok = False
            errors.append(f"{op}: {traceback.format_exc(limit=3)}")
        dt = time.perf_counter() - t0
        spent += dt
        lat.append(dt)
        if tracer is not None:
            tracer.end_operation(dt)
        if ok:
            try:
                if tracer is not None:
                    with tracer.paused():
                        workload.check(state, op, result)
                else:
                    workload.check(state, op, result)
            except Exception as e:
                ok = False
                errors.append(f"{op}: {type(e).__name__}: {e}")
        failed += not ok
    try:
        workload.finish(state)
        run_ok = True
    except Exception as e:
        run_ok = False
        errors.append(f"end of run: {type(e).__name__}: {e}")
    return SimpleNamespace(lat=lat, attempted=len(lat), failed=failed,
                           errors=errors, run_ok=run_ok)


def end_to_end(res, setup_times) -> dict:
    return {
        "ops_per_s": ((res.attempted - res.failed) / sum(res.lat), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def latency_percentiles(lat) -> str:
    """p50 and p95 latency with their sample counts; printed, not bounded.

    The host's speed flips between states a few seconds long, which makes
    a run's median latency swing more than its mean; and only laws and
    audit runs hold enough operations for a p95 with about ten samples
    beyond it.
    """
    p50 = statistics.median(lat)
    if len(lat) < 2:
        return f"latency_p50_ms {p50 * 1e3:.3f} (1 sample)"
    p95 = statistics.quantiles(lat, n=20)[-1]
    beyond = sum(x > p95 for x in lat)
    return (f"latency_p50_ms {p50 * 1e3:.3f} latency_p95_ms {p95 * 1e3:.3f} "
            f"({len(lat)} samples, {beyond} beyond p95)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = cap_blas_threads()
    import numpy as np

    import selftest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    root = repo_root()
    workload = WORKLOADS[args.workload]()
    base = os.path.join(root, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        if args.trace:
            state, _ = set_up(workload, root, os.path.join(rundir, "plain"))
            plain = measure(workload, state, args.seed, args.seconds / 2)
            state, _ = set_up(workload, root, os.path.join(rundir, "traced"))
            tracer = Tracer()
            tracer.install(state.hs)
            try:
                traced = measure(workload, state, args.seed, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            runs = [plain, traced]
        else:
            # Cheap set-ups are repeated more, so every median rests on
            # at least SETUP_MIN_SECONDS of set-up work.
            setup_times = []
            while len(setup_times) < SETUP_MIN_REPEATS or (
                    len(setup_times) < SETUP_MAX_REPEATS
                    and sum(setup_times) < SETUP_MIN_SECONDS):
                workdir = os.path.join(rundir, f"setup{len(setup_times)}")
                state, setup_s = set_up(workload, root, workdir)
                setup_times.append(setup_s)
            runs = [measure(workload, state, args.seed, args.seconds)]
        planted = selftest.run(state.hs)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    if planted:
        print(f"error: checkers accepted planted wrong results: {planted}", file=sys.stderr)
        return 3

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for e in r.errors[:MAX_REPORTED_ERRORS]:
            print(f"FAILED {e}", file=sys.stderr)
    if args.trace:
        k = min(len(plain.lat), len(traced.lat))
        metrics = tracer.metrics(sum(traced.lat[:k]) / sum(plain.lat[:k]))
    else:
        metrics = end_to_end(runs[0], setup_times)

    env = {"python": platform.python_version(), "numpy": np.__version__, "nproc": nproc,
           "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    print("env " + json.dumps(env))
    print(f"operations {[r.attempted for r in runs]} failed {failed} "
          f"error_rate {failed / attempted:.6f}")
    print(latency_percentiles(runs[0].lat))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and all(r.run_ok for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
