"""jointspace benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` next to
this directory.  One process sets the workload up, runs its operation
repeatedly for ``--seconds``, checks every output and prints one JSON object
as the last line of standard output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it repeats the same number of
operations with every layer wrapped in a span and reports per-layer metrics,
writing the spans to ``.perfbench-out/``.  Times are in reference seconds,
scaled by a speedometer that samples the host's speed during each set-up and
operation (``calibration.py``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# reference seconds have been spent, so that cheap set-ups still give a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_library():
    """Pin BLAS/OpenMP threads, then import the library from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "jointspace" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jointspace package under {SRC}")
    sys.path.insert(0, str(SRC))
    import jointspace
    if Path(jointspace.__file__).resolve().parent != SRC / "jointspace":
        sys.exit(f"perfbench: imported jointspace from {jointspace.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_ops(wl, state, speedometer, seconds: float | None = None,
            count: int | None = None) -> list:
    """Run the workload operation until ``seconds`` have passed or ``count`` ops ran.

    Each entry is (output or None, reference seconds, wall seconds, error
    text or None); see ``calibration.py`` for reference seconds.
    """
    ops = []
    start = time.perf_counter()
    while True:
        gc.collect()  # every operation starts from the same collector state
        with speedometer:
            t0 = time.perf_counter()
            try:
                out, error = wl.run(state), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        ops.append((out, speedometer.reference_seconds(dt), dt, error))
        if count is not None and len(ops) >= count:
            return ops
        if seconds is not None and time.perf_counter() - start >= seconds:
            return ops


def verdict(wl, state, ops: list) -> tuple[int, float, list[str]]:
    """Failed-op count, quality figure and failure notes.

    The first successful output is the reference: it is checked against the
    workload's oracle and every other output must equal it.
    """
    outputs = [out for out, _, _, error in ops if error is None]
    if not outputs:
        return len(ops), 0.0, [error for _, _, _, error in ops]
    reference = outputs[0]
    ok, quality = wl.check(state, reference)
    notes = [] if ok else ["reference output failed its check"]
    failed = 0
    for i, (out, _, _, error) in enumerate(ops):
        if error is not None:
            notes.append(f"op {i}: {error}")
        elif not wl.same(out, reference):
            notes.append(f"op {i}: output differs from op 0")
        elif ok:
            continue
        failed += 1
    return failed, quality, notes


def main(argv=None) -> int:
    import_library()
    from calibration import Speedometer
    from spans import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    wl = WORKLOADS[args.workload]
    env = environment()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        speedometer = Speedometer()
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            with speedometer:
                t0 = time.perf_counter()
                state = wl.setup(args.seed, workdir / f"setup{len(setup_times)}")
                dt = time.perf_counter() - t0
            setup_times.append(speedometer.reference_seconds(dt))

        ops = run_ops(wl, state, speedometer, seconds=args.seconds)
        # Read before the checks, whose oracle would otherwise set the peak.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(wl, state, speedometer, count=len(ops))
            finally:
                tracer.uninstall()
        failed, quality, notes = verdict(wl, state, ops + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) + len(traced)
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    done = [(out, ref_s, wall_s) for out, ref_s, wall_s, error in ops if error is None]
    # Wall-clock throughput, for people reading the log; not a metric.
    env["work_per_wall_s"] = (statistics.median(wl.work(out) / wall_s
                                                for out, _, wall_s in done)
                              if done else 0.0)
    if args.trace:
        untraced_s = statistics.median(ref_s for _, ref_s, _, _ in ops)
        traced_s = statistics.median(ref_s for _, ref_s, _, _ in traced)
        metrics = tracer.metrics(len(traced), traced_s / untraced_s - 1.0)
        out_path = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out_path, {"workload": args.workload, "seed": args.seed,
                                "ops": len(traced), "env": env})
        print(f"perfbench: {len(tracer.spans)} spans written to {out_path}",
              file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "work_per_s": (statistics.median(wl.work(out) / ref_s for out, ref_s, _ in done)
                           if done else 0.0, "1/s"),
            "test_metric": (quality, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
