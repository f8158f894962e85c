"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics (see README.md in this directory).
``--smoke`` shrinks every workload to its smallest sizes.
"""

import time

T0 = time.perf_counter()       # set-up time counts from this statement

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
# One BLAS thread: the ops are sequential, and a single thread keeps the
# figures steady on a shared two-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_SAMPLES = 5              # set-ups per run; setup_s is their median

# On SIGTERM, unwind: the work directory is removed, and a set-up child
# that is running is killed and waited for.
signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, and exit")
    return parser.parse_args(argv)


def _import_program():
    """Import the checkout's own ``thinepi`` (and numpy, scipy with it)."""
    src = ROOT / "src"
    if not (src / "thinepi" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'thinepi'}")
    sys.path.insert(0, str(src))
    import thinepi
    if Path(thinepi.__file__).resolve().parent != (src / "thinepi").resolve():
        raise SystemExit(f"error: imported thinepi from {thinepi.__file__}")
    import workloads
    return workloads


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    import_s = time.perf_counter() - T0

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # Anything the program writes stays inside the checkout: eigenbasis
    # caches are set per op, temporary files land in the run's directory.
    os.environ["THIN_EPI_CACHE"] = str(work_dir / "cache")
    os.environ["TMPDIR"] = str(work_dir)
    tempfile.tempdir = None
    try:
        workload = workloads.build(args.workload, args.seed, work_dir,
                                   args.smoke)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        return _measure(args, workload, tracer, import_s, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()                 # when no other run is using it
        except OSError:
            pass


def _measure(args, workload, tracer, import_s, setup_s) -> int:
    at_setup = tracer.snapshot() if tracer else None
    setups = [setup_s]
    if not args.trace:
        setups += [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

    round_times, failures = [], []
    peak_kb = None
    op_times = [[] for _ in workload.ops]       # per op, one entry a round
    attempted = 0
    start = time.perf_counter()
    while True:
        round_time = 0.0
        for op, times in zip(workload.ops, op_times):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as err:          # a failed op, not a crash
                elapsed = time.perf_counter() - t0
                problem = f"raised {type(err).__name__}: {err}"
            else:
                elapsed = time.perf_counter() - t0
                try:
                    problem = op.check(result)
                except Exception as err:
                    problem = f"check raised {type(err).__name__}: {err}"
            round_time += elapsed
            times.append(elapsed)
            if problem is not None:
                failures.append(f"{op.name}: {problem}")
        round_times.append(round_time)
        # Peak memory of set-up plus one round, whatever the run length.
        peak_kb = peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() - start >= args.seconds:
            break
    at_end = tracer.snapshot() if tracer else None

    final = [problem for check in workload.final_checks
             if (problem := check()) is not None]
    for line in failures + final:
        print(f"FAILED  {line}", file=sys.stderr)
    print(f"{len(round_times)} rounds, median round "
          f"{statistics.median(round_times):.4f} s", file=sys.stderr)

    if tracer:
        import layers
        metrics = layers.per_layer_metrics(at_setup, at_end, len(round_times),
                                           import_s)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(round_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(
                statistics.median(times) for times in op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": not final, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
