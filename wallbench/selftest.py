#!/usr/bin/env python3
"""Self-test of the wall-clock benchmark.

Usage, from the root of a checkout:

    python3 wallbench/selftest.py

Runs a tiny pass (inputs divided by 2^6, one second per arm) of the four
workloads (those in BENCHMARK.json, and batch_sharded, which the benchmark
runs but BENCHMARK.json does not gate), untraced and traced, and checks that:
  * the last stdout line is one JSON object with exactly the keys correct,
    attempted, failed and metrics: correct a boolean, attempted (>= 1) and
    failed whole numbers;
  * the metrics are exactly the end-to-end metrics (untraced) or the
    per-layer metrics (traced) of BENCHMARK.json, each with its unit, and
    each value a number (null only for a hw.* counter the kernel refuses);
  * no result contradicts the oracle: correct is true, failed is 0 and
    ok_ratio is 1;
  * in a directory holding only BENCHMARK.json and the benchmark's own files,
    the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALL_WORKLOADS = ["read_large_uniform", "read_small_zipf", "churn_uniform", "batch_sharded"]


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def check_result(res, specs, label):
    errors = []
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: result keys are {sorted(res) if isinstance(res, dict) else res!r}"]
    if res["correct"] is not True:
        errors.append(f"{label}: correct is {res['correct']!r}")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool):
            errors.append(f"{label}: {k} is not a whole number")
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        errors.append(f"{label}: attempted < 1")
    if res["failed"] != 0:
        errors.append(f"{label}: failed = {res['failed']}")
    metrics = res["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        errors.append(f"{label}: missing {sorted(set(want) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append(f"{label}: {name} is not {{value, unit}}")
            continue
        if name in want and m["unit"] != want[name]:
            errors.append(f"{label}: {name} unit {m['unit']!r}, expected {want[name]!r}")
        v = m["value"]
        if v is None:
            if not name.startswith("hw."):
                errors.append(f"{label}: {name} is null")
        elif not isinstance(v, (int, float)) or isinstance(v, bool) or v != v:
            errors.append(f"{label}: {name} value {v!r} is not a number")
    ok = metrics.get("ok_ratio", {}).get("value", 1)
    if ok != 1:
        errors.append(f"{label}: ok_ratio = {ok}")
    return errors


def run(cwd, workload, trace):
    argv = ["python3", os.path.join(cwd, "wallbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--scale-shift", "6"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in ALL_WORKLOADS if w not in workloads]
    for w in workloads:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{w} --trace {trace}"
            p = run(ROOT, w, trace)
            if p.returncode != 0:
                errors.append(f"{label}: exit {p.returncode}: {p.stderr[-2000:]}")
                continue
            try:
                errs = check_result(result_of(p.stdout), specs, label)
            except ValueError as e:
                errs = [f"{label}: last line is not JSON: {e}"]
            errors.extend(errs)
            print(f"{label}: {'ok' if not errs else 'FAILED'}", flush=True)

    # A directory with only BENCHMARK.json and the benchmark: no library.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "wallbench"))
    p = run(bare, workloads[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    printed = any(line.lstrip().startswith("{") for line in p.stdout.splitlines())
    if p.returncode == 0 or printed:
        errors.append(f"bare directory: exit {p.returncode}, printed a result: {printed}")
    print(f"bare directory: {'ok' if p.returncode != 0 and not printed else 'FAILED'}")

    for e in errors:
        print(e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
