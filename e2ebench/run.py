#!/usr/bin/env python3
"""End-to-end benchmark of the paper's pipelines (see README.md here).

Builds e2e_bench from this checkout's sources, runs one workload (or all
of them) and prints, as the last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload bklw_mnist --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans, with the provenance as their metadata, to
.bench_build/trace_<workload>_<seed>.json).
The thread pool is EKM_THREADS = min(nproc, 4) unless EKM_THREADS is set;
a pool larger than nproc is refused.
"""
import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "e2ebench")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ["bklw_mnist", "nr_mnist", "fleet_sim"]
# Wall-clock limit of one workload's process, build excluded: a run must
# end within 180 s. The slowest, bklw_mnist's traced run, takes about
# 105 s; its untraced run about 50 s at --seconds 10.
RUN_LIMIT_S = 175


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no ekm sources next to {os.path.basename(HERE)}/", 2)
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def pool_threads():
    nproc = len(os.sched_getaffinity(0))
    raw = os.environ.get("EKM_THREADS")
    if raw is None:
        return min(nproc, 4), nproc
    if not raw.isdigit() or int(raw) < 1:
        fail(f"EKM_THREADS={raw!r} is not a positive integer", 2)
    if int(raw) > nproc:
        fail(f"EKM_THREADS={raw} exceeds nproc={nproc}", 2)
    return int(raw), nproc


def provenance(pool, nproc):
    """The fields tools/run_bench.sh stamps, plus pool size and nproc."""
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            sha = head.stdout.strip()
            dirty = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", "HEAD", "--"],
                                   capture_output=True)
            if dirty.returncode != 0:
                sha += "-dirty"
    info = {}
    try:
        with open(os.path.join(BUILD, "build_info.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                info[key] = value
    except OSError:
        pass
    cpu_model, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo") as f:
            text = f.read()
        m = re.search(r"^model name\s*:\s*(.*)$", text, re.M)
        cpu_model = m.group(1) if m else cpu_model
        m = re.search(r"^flags\s*:\s*(.*)$", text, re.M)
        flags = m.group(1).split() if m else []
    except OSError:
        pass
    isa = os.uname().machine
    if isa == "x86_64" and "avx2" in flags:
        isa += "+avx512" if "avx512f" in flags else "+avx2"
    return {
        "git_sha": sha,
        "compiler": info.get("compiler", "unknown"),
        "cxx_flags_release": info.get("cxx_flags", "unknown"),
        "ekm_threads": str(pool),
        "nproc": str(nproc),
        "cpu_model": cpu_model,
        "isa": isa,
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, args, pool, meta):
    """Runs e2e_bench in .bench_build, where a traced run writes its span
    file; the provenance, ours and the binary's, becomes its metadata."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, EKM_THREADS=str(pool))
    for key, value in meta.items():
        print(f"[{workload}] provenance {key} = {value}")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              cwd=OUT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_LIMIT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    print(f"[{workload}] process took {time.monotonic() - started:.1f} s")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    validate(workload, result, expected_metrics(args.trace))
    if args.trace:
        own = dict(re.findall(r"^provenance (\S+) = (.*)$", proc.stdout, re.M))
        stamp_span_file(os.path.join(OUT, f"trace_{workload}_{args.seed}.json"),
                        {**meta, **own})
    return result


def stamp_span_file(path, metadata):
    try:
        with open(path) as f:
            spans = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"span file {path}: {err}")
    spans["metadata"] = metadata
    with open(path, "w") as f:
        json.dump(spans, f)


def validate(workload, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail(f"{workload}: failed must be a whole number >= 0")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: metric {name} is not a finite number")
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail(f"{workload}: metrics {sorted(got.items())} do not match "
                 f"BENCHMARK.json {sorted(expected.items())}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    pool, nproc = pool_threads()
    build()
    meta = provenance(pool, nproc)

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, pool, meta)))
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args, pool, meta)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
