"""Fast self-test of the benchmark, at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --scale tiny`` untraced once and traced
twice with one seed, and checks that

* each run exits 0 with every job passing, and its last line holds exactly
  the metrics BENCHMARK.json declares for that mode, with their units;
* the traced run sees calls on the workload's target layer, and ``extend``
  records no call on ``slices``;
* the work counts (unit ``count`` or ``B``) repeat exactly between the two
  traced runs.

It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits 1 at the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

# metric -> must be positive (True) or exactly zero (False), per workload
TARGETS = {
    "structured": {"extension.point_nodes": True,
                   "extension.extend_plane_field.busy_s": True,
                   "extension.repeat_frac": True},
    "slices": {"spherical.BA_t.calls": True, "spherical.bt_pairs": True,
               "spherical.slice_points": True,
               "extension.point_nodes": False,
               "extension.extend.busy_s": False},
    "fields": {"tomography.line_samples": True, "tomography.fft_points": True,
               "extension.point_nodes": True},
}


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def bench(root, workload, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=170)


def result_of(workload, trace):
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stdout}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: {result['failed']} of "
             f"{result['attempted']} jobs failed")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(units))}")
    return {k: v["value"] for k, v in result["metrics"].items()}, units


def main():
    for workload, targets in TARGETS.items():
        result_of(workload, 0)
        first, units = result_of(workload, 1)
        second, _ = result_of(workload, 1)
        for name, positive in targets.items():
            value = first[name]
            if (value > 0) != positive:
                fail(f"{workload}: {name} = {value!r}, expected "
                     f"{'> 0' if positive else '0'}")
        for name, unit in units.items():
            if unit in ("count", "B") and first[name] != second[name]:
                fail(f"{workload}: count {name} changed between runs: "
                     f"{first[name]!r} != {second[name]!r}")
        print(f"selftest {workload}: ok")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, "fields", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the source tree")
    print("selftest bare directory: ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
