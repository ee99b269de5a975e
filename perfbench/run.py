"""vld benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train-step --seed 1
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` alternates untraced and traced jobs, and reports the per-layer metrics
and the tracing overhead. Metric names, units and the default of
``--seconds`` (``run_seconds``) come from BENCHMARK.json. The last line of
standard output is one JSON object; the lines before it name every figure
with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from pathlib import Path

# Desk-scale kernels run fastest single-threaded. These must be set before
# numpy is first imported: OpenBLAS reads them once, when it loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("train-step", "gallery-eval", "ablation-sweep")
MIN_JOBS = 3
WORK_ROOT = Path(".bench_work")
OUT_ROOT = Path(".bench_out")


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import vld from ./src, before numpy, with BLAS threads pinned."""
    if not Path("src/vld/__init__.py").is_file() or not Path(
            "configs/desk.cfg").is_file():
        sys.exit(f"error: no vld checkout in {Path.cwd()} "
                 "(need src/vld and configs/desk.cfg); run from its root")
    os.environ.update(BLAS_THREADS)
    if "numpy" in sys.modules:
        sys.exit("error: numpy was imported before the BLAS thread pin")
    sys.path.insert(0, str(Path("src").resolve()))
    import vld  # noqa: F401  (first numpy import happens here)


def blas_threads() -> str:
    """Threads OpenBLAS reports, read from numpy's bundled library."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return str(fn())
    return "unknown"


def git_commit() -> str:
    # The ceiling stops git from reporting a repository above this checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True, env=env)
    except (OSError, subprocess.CalledProcessError):
        return "none"
    return proc.stdout.strip()


def provenance() -> dict:
    import numpy as np
    from vld import tensor
    try:
        import threadpoolctl  # noqa: F401
        tpc = "present"
    except ImportError:
        tpc = "absent"
    digest = hashlib.sha256()
    for path in sorted(Path("src/vld").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        **{k: os.environ.get(k, "") for k in BLAS_THREADS},
        "blas_threads": blas_threads(),
        "threadpoolctl": tpc,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "dtype": np.dtype(tensor.default_dtype()).name,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def run_jobs(workload, seconds: float, set_up, tracer=None):
    """Jobs until ``seconds`` have passed, as (untraced, traced) lists.

    Every job is followed by a set-up, outside the job's timing, so the
    set-up times sample the same stretch of the machine's speed as the
    jobs. With a tracer every other job is traced, so drift in that speed
    falls on both sides of the overhead comparison alike.
    """
    import tracing
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while (len(plain) < MIN_JOBS
           or (tracer is not None and len(traced) < MIN_JOBS)
           or time.perf_counter() < deadline):
        index = 1 + len(plain) + len(traced)
        if tracer is not None and len(traced) < len(plain):
            with tracing.patched(tracer):
                traced.append(workload.job(index, tracer))
        else:
            plain.append(workload.job(index, None))
        set_up()
    return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args, spec: dict) -> dict:
    # Both import vld and numpy, so they wait for import_program().
    import tracing
    from workloads import WORKLOADS, rate

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed)
    setup_tracer = tracing.Tracer() if args.trace else None
    setup_times = []

    def set_up():
        """One whole set-up into a fresh directory; later jobs use it."""
        with (tracing.patched(setup_tracer) if args.trace else nullcontext()):
            t0 = time.perf_counter()
            workload.setup(work / f"setup{len(setup_times)}" / "data")
            setup_times.append(time.perf_counter() - t0)

    try:
        set_up()
        warm_up = workload.job(0, None)   # fills caches, records references
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = run_jobs(workload, args.seconds, set_up, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            WORK_ROOT.rmdir()   # only when no other run is using it

    checked = [warm_up] + plain + traced
    attempted = sum(j.attempted for j in checked)
    failed = sum(j.failed for j in checked)
    env = provenance()
    figures = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        **workload.summary(plain),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "error_rate": (failed / attempted, "ratio", attempted),
    }
    if args.trace:
        # Per-layer times are per step on train-step, else per job.
        per = sum(len(j.samples) for j in traced) \
            if args.workload == "train-step" else len(traced)
        overhead = rate(plain) / rate(traced) - 1.0
        values = tracing.layer_metrics(tracer, per, setup_tracer,
                                       len(setup_times), overhead)
        names = [m["name"] for m in spec["per_layer"]]
        OUT_ROOT.mkdir(exist_ok=True)
        dump = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"env": env, "setup": setup_tracer.dump(),
                                    "timed": tracer.dump()}))
        print(f"# spans written to {dump}")
    else:
        values = {
            "setup_s": figures["setup_s"][0],
            "job_s": statistics.median(j.seconds for j in plain),
            "tracklets_per_s": rate(plain),
            "peak_rss_mb": figures["peak_rss_mb"][0],
        }
        names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {args.trace} jobs {len(plain)} untraced, {len(traced)} traced")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, *n) in figures.items():
        count = f"  (n={n[0]})" if n else ""
        print(f"{name:<28} {value:>14.6g} {unit}{count}")
    if args.trace:
        for name in names:
            print(f"{name:<36} {values[name]:>14.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so no state leaks between them."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    import_program()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
