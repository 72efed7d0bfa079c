#!/usr/bin/env python3
"""RewindBench: one command that measures RewindKV end to end and layer by layer.

One run (the last stdout line is the result, one JSON object):
    python3 rewindbench/run.py --workload kv-update --seed 1 --seconds 15 --trace 0

Steadiness mode (each workload N times, seeds 1..N; medians and quartiles):
    python3 rewindbench/run.py --steady 10 [--workloads kv-update,restart]

Checker self-tests:
    python3 rewindbench/run.py --self-test

Builds the program from the checkout's sources into .bench_build/ first
(CMake, apart from the repository's own build). See README.md.
"""
import argparse
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ["kv-update", "kv-read-scan", "served-update", "restart"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"rewindbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures once, then builds incrementally; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                    "--target"] + targets, stdout=sys.stderr, check=True)


def run_process(cmd, timeout):
    """Runs `cmd` in its own process group, killing the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "rewindbench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
           f"--kv-server={os.path.join(BUILD, 'kv_server')}",
           f"--run-dir={RUN_DIR}"]
    code, out = run_process(cmd, RUN_TIMEOUT_S)
    return code, out.splitlines()


def single(args):
    build(["rewindbench", "kv_server"])
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or not lines:
        log(f"{args.workload} failed (exit {code})")
        return 1
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        log(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
        return 1
    print("\n".join(lines))
    return 0


def steady(args):
    """Runs each workload N times and prints each metric's spread."""
    build(["rewindbench", "kv_server"])
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    report = {"git_sha": sha or "unknown", "nproc": os.cpu_count(),
              "command": " ".join(shlex.quote(a) for a in sys.argv),
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        values, failed, attempted, steal = {}, [], [], []
        for seed in range(1, args.steady + 1):
            start = time.monotonic()
            code, lines = run_once(w, seed, args.seconds, args.trace)
            elapsed = time.monotonic() - start
            if code != 0 or not lines:
                log(f"{w} seed {seed} failed (exit {code})")
                return 1
            res = json.loads(lines[-1])
            steal += [float(l.split("=")[1]) for l in lines
                      if l.startswith("# host steal_pct=")]
            failed.append(res["failed"])
            attempted.append(res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"{w} seed {seed}: {elapsed:.1f}s steal={steal[-1] if steal else 0:.1f}% " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())))
        rows = {}
        for name, vals in sorted(values.items()):
            q1, med, q3 = (statistics.quantiles(vals, n=4)
                           if len(vals) > 1 else (vals[0],) * 3)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "iqr_share": (q3 - q1) / med if med else 0.0,
                          "values": vals}
        report["workloads"][w] = {"metrics": rows, "failed": failed,
                                  "attempted": attempted,
                                  "host_steal_pct": steal}
        print(f"# {w}: failed={sum(failed)} of {sum(attempted)}")
        for name, row in rows.items():
            print(f"#   {name:34s} median={row['median']:<14.6g} "
                  f"q1={row['q1']:<14.6g} q3={row['q3']:<14.6g} "
                  f"iqr/median={row['iqr_share']:.4f}")
    print(json.dumps(report))
    return 0


def self_test(_args):
    build(["rewindbench_check_test"])
    return subprocess.run([os.path.join(BUILD, "rewindbench_check_test")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run each workload N times (seeds 1..N)")
    p.add_argument("--workloads", default="",
                   help="comma-separated workloads for --steady")
    p.add_argument("--self-test", action="store_true",
                   help="build and run the checker's tests")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test(args)
        if args.steady > 0:
            return steady(args)
        if not args.workload:
            p.error("--workload is required")
        return single(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
