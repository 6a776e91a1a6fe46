#!/usr/bin/env python3
"""The repository benchmark: spec -> verified Verilog, compiled execution and
the synthesis daemon.

    python3 mrpbench/run.py --workload catalog_synth --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library, the two tools and the
workload runner from source (CMake, RelWithDebInfo, into .bench_build/),
runs one workload for --seconds, checks every output and prints each metric
by name with its unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 reports its per-layer
metrics, taken from spans around each library call, and the tracing
overhead. See mrpbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("catalog_synth", "stream_run", "serve_mix")
BUILD_TYPE = "RelWithDebInfo"
RUNNER_TIMEOUT_S = 170


def fail(msg):
    print("mrpbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (the benchmark's own tests)")
    p.add_argument("--fault", default="none",
                   choices=("none", "catalog", "stream", "serve"),
                   help="corrupt one expected output of that check")
    return p.parse_args(argv)


def build():
    """Configures and builds the benchmark package; returns the build dir."""
    for need in ("src/CMakeLists.txt", "tools/mrpf_synth.cpp",
                 "tools/mrpf_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("library source %s not found; run from a full checkout" % need)
    out = os.path.join(ROOT, ".bench_build", "cmake")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out,
              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
             ["cmake", "--build", out, "-j", jobs]]
    if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, cwd=ROOT)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return out


def compiler_id(out):
    path = ""
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
    try:
        ver = subprocess.run([path, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        ver = "unknown"
    return ver


def source_id():
    """The git commit if this is a clone, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "mrpbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha1:" + h.hexdigest()


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_repeat(out_dir, key, counts):
    """Compares this run's count metrics with the last run of the same
    workload, seed and mode; returns the names that did not repeat."""
    ledger = os.path.join(out_dir, "counts.json")
    seen = {}
    if os.path.isfile(ledger):
        with open(ledger) as f:
            seen = json.load(f)
    before = seen.get(key)
    differs = sorted(n for n, v in counts.items()
                     if before is not None and n in before and before[n] != v)
    seen[key] = counts
    with open(ledger + ".tmp", "w") as f:
        json.dump(seen, f, sort_keys=True)
    os.replace(ledger + ".tmp", ledger)
    return "first run" if before is None else differs


def main(argv):
    args = parse_args(argv)
    out = build()
    e2e, layers = declared_metrics()
    work = os.path.join(ROOT, ".bench_out", "%s-%d" % (args.workload, args.seed))
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "mrpbench_workload"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--bin", os.path.relpath(os.path.join(out, "mrpf_tools"), ROOT),
           "--out", os.path.relpath(work, ROOT), "--fault", args.fault]
    if args.tiny:
        cmd.append("--tiny")
    # Own session, so a timeout also stops the daemon the runner started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload runner timed out after %d s" % RUNNER_TIMEOUT_S)
    sys.stderr.write(stderr)
    if proc.returncode != 0 or not stdout.strip():
        fail("workload runner exited with status %d" % proc.returncode)
    raw = json.loads(stdout.strip().splitlines()[-1])

    want = layers if args.trace else e2e
    got = raw["metrics"]
    extra = sorted(set(got) - set(want))
    if extra:
        fail("workload runner reported undeclared metrics: " + ", ".join(extra))
    metrics = {}
    for name, unit in want.items():
        m = got.get(name, {"value": 0, "unit": unit})
        if m["unit"] != unit:
            fail("%s: unit %s, BENCHMARK.json says %s" % (name, m["unit"], unit))
        metrics[name] = {"value": m["value"], "unit": unit}

    info = raw["metric_info"]
    counts = {n: got[n]["value"] for n in got if info[n]["count"]}
    key = "%s|seed=%d|trace=%d|tiny=%d" % (args.workload, args.seed,
                                          args.trace, args.tiny)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cores": os.cpu_count(),
        "compiler": compiler_id(out),
        "build_type": BUILD_TYPE,
        "source": source_id(),
        "count_metrics_not_repeated": check_repeat(
            os.path.join(ROOT, ".bench_out"), key, counts),
    }
    provenance.update(raw["provenance"])
    for name in want:
        m = metrics[name]
        i = info.get(name, {"samples": 0})
        line = "%-34s %16.6f %-10s samples=%d" % (name, m["value"], m["unit"],
                                                   i["samples"])
        if "quartiles" in i:
            line += " q1/med/q3=%.6g/%.6g/%.6g" % tuple(i["quartiles"])
        if i.get("count"):
            line += " (count)"
        print(line)
    print("detail " + json.dumps(raw["detail"], sort_keys=True))
    for why in raw["failures"]:
        print("failed check: " + why)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
