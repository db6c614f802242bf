"""Benchmark of extomo: seeded workloads timed end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload structured|slices|fields --seed N \\
        --seconds S --trace 0|1 [--scale full|tiny]

Load model: a closed loop in one process; the workload's jobs run back to
back, and each measured process is a fresh interpreter with at most nproc
BLAS threads.  Nothing waits on a queue or on another process, so no
waiting metric applies.

``--trace 0`` measures the end-to-end metrics: set-up time (median over
several fresh processes), the job list's wall time (per-job medians over
the passes of one process, summed), its peak resident memory, the share of
jobs that passed their own checks, and the correct digits (-log10) of the
largest relative error of the workload's identity and closed-form checks.
``--trace 1`` alternates untraced passes and passes with span wrappers on
every layer in one process, and reports the per-layer metrics of the traced
passes plus the tracing overhead.

Every metric is printed by name and unit, then the environment, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every job passed its checks
and every job's report metrics hash to the same digest on every pass of
this seed (and on earlier runs of the same seed and source in this
checkout).  Outputs go to ``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 4       # set-up-only processes, besides the run process
RUN_LIMIT_S = 170.0     # every process of one invocation ends within this
PHASE_BYTES = 16        # one complex128 phase exp(i x.xi) per point and node


class WorkerError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _worker(args, deadline, mode, budget=0.0, trace=0, spans=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--budget", repr(float(budget)), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} process")
    try:
        # run() kills the worker on timeout and waits for it to end
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _source_digest():
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_determinism(args, jobs):
    """Fail every job whose report digest differs from this seed's first one.

    The first digest is the one stored by an earlier run of the same seed,
    scale and source in this checkout, else the first pass of this run.
    """
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{args.workload}|{args.scale}|{args.seed}|{_source_digest()}"
    reference = dict(known.get(key, {}))
    for job in jobs:
        if job["digest"] is None:
            continue
        if reference.setdefault(job["name"], job["digest"]) != job["digest"]:
            job["pass"] = False
            job["error"] = "report metrics differ from this seed's digest"
    known[key] = reference
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)


def _job_list_s(passes):
    """Wall time of the job list: each job's median over the passes, summed.

    Taking the median per job keeps one slow job of one pass, say from
    another tenant of a shared host, from moving the whole pass.
    """
    walls = {}
    for p in passes:
        for job in p["jobs"]:
            walls.setdefault(job["name"], []).append(
                job["wall_s"] + job["roundtrip_s"])
    return sum(statistics.median(w) for w in walls.values())


def _end_to_end(setups, run, jobs):
    return {
        "setup_s": statistics.median(setups),
        "run_s": _job_list_s(run["passes"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "pass_frac": sum(j["pass"] for j in jobs) / len(jobs),
        # an error at or below machine epsilon reads as full precision
        "rel_err_digits": -math.log10(max(
            [sys.float_info.epsilon] + [e for j in jobs for e in j["errors"]])),
    }


def _per_layer(spec_metrics, run):
    """Per-layer metrics: medians over the traced passes.

    A declared name with no derivation below is a span aggregate of
    ``tracing.layer_metrics`` (``<layer>.<function>.busy_s`` or ``.calls``);
    ``experiments.<job>.wall_s`` is the busy time of the job's span.
    """
    layers = run["layers"]
    traced = [p for p in run["passes"] if p["traced"]]
    # the first pass warms the process up; it is no baseline for the overhead
    untraced = [p for p in run["passes"][1:] if not p["traced"]]

    def med(key):
        return statistics.median(m.get(key, 0) for m in layers)

    point_nodes = med("extension.point_nodes")
    field_busy = med("extension.field_busy_s")
    metrics = {
        "extension.point_nodes": point_nodes,
        "extension.phase_bytes": PHASE_BYTES * point_nodes,
        "extension.gpn_per_s": (point_nodes / field_busy / 1e9
                                if field_busy > 0 else 0.0),
        "extension.repeat_frac": (med("extension.repeat_point_nodes")
                                  / point_nodes if point_nodes else 0.0),
        "tomography.line_samples": sum(
            med(f"tomography.{f}.line_samples")
            for f in ("xray", "radon", "xray_profile")),
        "tomography.fft_points": med("tomography.frac_laplacian.fft_points"),
        "spherical.slice_points": (med("extension.extend_slice.slice_points")
                                   + med("spherical.BA_t.slice_points")),
        "spherical.bt_pairs": med("spherical.bt_delta_circle_grid.bt_pairs"),
        "sphere.grid_nodes": (med("sphere.make_sphere_grid.grid_nodes")
                              + med("sphere.make_circle_grid.grid_nodes")),
        "sphere.grid_build_s": (med("sphere.make_sphere_grid.busy_s")
                                + med("sphere.make_circle_grid.busy_s")),
        "reports.json_bytes": statistics.median(
            sum(j["json_bytes"] for j in p["jobs"]) for p in traced),
        "reports.roundtrip_s": statistics.median(
            sum(j["roundtrip_s"] for j in p["jobs"]) for p in traced),
        "trace.overhead_s": _job_list_s(traced) - _job_list_s(untraced),
        "trace.spans": med("spans"),
    }
    for entry in spec_metrics:
        name = entry["name"]
        if name not in metrics:
            metrics[name] = med(name.replace(".wall_s", ".busy_s")
                                if name.startswith("experiments.") else name)
    return metrics


def _print_report(args, spec_metrics, metrics, run, jobs):
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"trace {args.trace}")
    print("load: closed loop, one process, jobs back to back; "
          "a fresh interpreter per measured process")
    print("waiting: none applies (nothing waits on a queue or another process)")
    for entry in spec_metrics:
        print(f"  {entry['name']:44s} {metrics[entry['name']]!r:>24} "
              f"{entry['unit']}")
    print("environment: " + json.dumps(run["environment"], sort_keys=True))
    for name in dict.fromkeys(j["name"] for j in jobs):
        mine = [j for j in jobs if j["name"] == name]
        bad = [j for j in mine if not j["pass"]]
        if bad:
            print(f"FAILED {name} on {len(bad)} of {len(mine)} passes: "
                  f"{bad[0]['error']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("structured", "slices", "fields"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "extomo" / "__init__.py").is_file():
        print(f"error: no extomo source tree at {ROOT / 'src' / 'extomo'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if args.trace:
            spec_metrics = spec["per_layer"]
            run = _worker(args, deadline, "run", budget=args.seconds,
                          trace=1, spans=OUT / (
                              f"spans-{args.workload}-{args.scale}"
                              f"-seed{args.seed}.jsonl"))
        else:
            spec_metrics = spec["end_to_end"]
            setups = [_worker(args, deadline, "setup")["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            run = _worker(args, deadline, "run", budget=args.seconds)
            run["setup_samples_s"] = setups + [run["setup_s"]]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jobs = [job for p in run["passes"] for job in p["jobs"]]
    _check_determinism(args, jobs)
    if args.trace:
        metrics = _per_layer(spec_metrics, run)
    else:
        metrics = _end_to_end(run["setup_samples_s"], run, jobs)
    failed = sum(not j["pass"] for j in jobs)
    result = {"correct": failed == 0, "attempted": len(jobs),
              "failed": failed,
              "metrics": {e["name"]: {"value": metrics[e["name"]],
                                      "unit": e["unit"]}
                          for e in spec_metrics}}
    (OUT / f"result-{args.workload}-{args.scale}-seed{args.seed}"
           f"-trace{args.trace}.json").write_text(
               json.dumps({"result": result, "run": run}, indent=1))
    _print_report(args, spec_metrics, metrics, run, jobs)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
