"""One benchmark process: set up a workload and, in run mode, run its job list.

``run.py`` starts each worker in a fresh interpreter, so set-up time and
peak memory mean the same thing on every run::

    python3 perfbench/worker.py --mode setup|run --workload NAME --seed N
        [--budget SECONDS] [--trace 0|1] [--scale full|tiny] [--spans PATH]

Set-up is the import of extomo plus building the workload's grids and
densities.  Run mode then repeats the job list back to back (a closed loop
in one process) while another full pass still fits in ``--budget`` seconds,
and always runs at least ``MIN_PASSES`` passes.  With ``--trace 1`` the set-up
is traced and the passes alternate untraced (even) and traced (odd), so the
tracing overhead is measured within one process.  The last line of standard
output is one JSON object with the timings, the per-job outcomes and the
per-layer metrics of each traced pass.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from extomo.reports import ExperimentReport  # noqa: E402

import workloads  # noqa: E402

# the per-job medians need three passes; with tracing, the first (untraced)
# pass warms the process up, the second is traced, the third is the baseline
MIN_PASSES = 3


def run_job(job, tracer, job_id):
    """Run one job; a job that raises or fails a check is reported, not dropped."""
    start = time.perf_counter()
    try:
        if tracer is None:
            report = job.run()
        else:
            tracer.job = job_id
            report = tracer.call(f"experiments.{job.name}", job.run)
    except Exception as exc:  # the run goes on; the failure is counted
        traceback.print_exc(file=sys.stderr)
        return {"name": job.name, "wall_s": time.perf_counter() - start,
                "pass": False, "error": f"{type(exc).__name__}: {exc}",
                "digest": None, "errors": [], "json_bytes": 0,
                "roundtrip_s": 0.0}
    wall = time.perf_counter() - start

    start = time.perf_counter()
    text = report.to_json()
    back = ExperimentReport.from_json(text)
    roundtrip_s = time.perf_counter() - start

    errors = [float(e) for e in job.errors(report)]
    problems = []
    if not report.pass_:
        problems.append("failed its tolerances: " + ", ".join(
            f"{k}={report.metrics.get(k)!r} not in {lo!r}..{hi!r}"
            for k, (lo, hi) in sorted(report.tolerances.items())
            if not (report.metrics.get(k) is not None
                    and math.isfinite(report.metrics[k])
                    and lo <= report.metrics[k] <= hi)))
    if back.metrics != report.metrics or back.pass_ != report.pass_:
        problems.append("JSON round trip changed the report")
    if not all(math.isfinite(e) for e in errors):
        problems.append(f"non-finite error {errors}")
    digest = hashlib.sha256(json.dumps(report.metrics, sort_keys=True)
                            .encode()).hexdigest()
    return {"name": job.name, "wall_s": wall, "pass": not problems,
            "error": "; ".join(problems) or None, "digest": digest,
            "errors": errors, "json_bytes": len(text.encode()),
            "roundtrip_s": roundtrip_s}


def run_pass(jobs, tracer, index):
    start = time.perf_counter()
    results = [run_job(job, tracer, f"{index}:{job.name}") for job in jobs]
    return {"wall_s": time.perf_counter() - start, "jobs": results}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_libraries():
    """Loaded OpenBLAS libraries with the thread count each reports.

    The count is read back from the library itself through ctypes, since
    environment variables set after the library loaded have no effect.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.argtypes = []
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = int(get_threads())
                if get_config is not None and "config" not in entry:
                    get_config.argtypes = []
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode(errors="replace")
        libs.append(entry)
    return libs


def environment():
    import scipy

    blas = _blas_libraries()
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": max((lib.get("threads", 0) for lib in blas),
                                default=0)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    jobs = workloads.build(args.workload, args.seed, args.scale)
    setup_s = time.perf_counter() - START
    result = {"mode": args.mode, "trace": args.trace, "setup_s": setup_s}
    if args.mode == "run":
        passes = []
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
            passes.append(run_pass(jobs, tracer if traced else None,
                                   len(passes)))
            passes[-1]["traced"] = traced
            elapsed = time.perf_counter() - begin
            if (len(passes) >= MIN_PASSES
                    and elapsed + passes[-1]["wall_s"] > args.budget):
                break
        if tracer is not None:
            tracer.uninstall()
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment()
        if tracer is not None:
            result["layers"] = [
                tracing.layer_metrics(tracer.spans, {"setup"} | {
                    f"{i}:{job['name']}" for job in p["jobs"]})
                for i, p in enumerate(passes) if p["traced"]]
            if args.spans:
                tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
