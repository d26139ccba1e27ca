#!/usr/bin/env python3
"""Build and run the mcmap benchmark; see perfbench/README.md.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

prints informational lines and, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. Other modes:

    --report K        run every workload K times (seeds 1..K) and print the
                      spread of every end-to-end metric, raw and calibrated
    --determinism     run analyze and explore twice at one seed and fail if
                      any exact count differs
    --self-test       check that a corrupted expectation fails the run, that
                      clean runs succeed and that some workload measures
                      every per-layer metric of BENCHMARK.json
    --write-digests   print the digest lines of perfbench/digests.txt
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
WORK_DIR = ".perfbench-work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
MCMAP = os.path.join(BUILD_DIR, "default", "bin", "mcmap_cli.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found: run from the root of the checkout")
    with open(path) as f:
        return json.load(f)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: the benchmark builds mcmap from its sources")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", "./perfbench/perfbench.exe", "./bin/mcmap_cli.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def measure(workload, seed, seconds, trace, extra=()):
    """Run the measuring process once; return (exit code, info lines, result)."""
    work = os.path.join(WORK_DIR, f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", work, "--mcmap", MCMAP,
           "--digests", os.path.join("perfbench", "digests.txt"), *extra]
    # A session of its own, so that a timeout also stops the server the
    # measuring process may have started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        trace_file = os.path.join(work, "trace.json")
        if os.path.exists(trace_file):
            os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
            os.replace(trace_file,
                       os.path.join(WORK_DIR, "traces", f"{workload}-seed{seed}.json"))
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    return proc.returncode, lines, result


def with_units(result, trace, bench):
    """Give each metric its unit; per-layer metrics of a layer the workload
    never enters read 0."""
    section = bench["per_layer"] if trace else bench["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in section:
        value = measured.get(m["name"])
        if value is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} was not measured", 1)
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def info(lines, key):
    for line in lines:
        if line.startswith(f"# {key}: "):
            return line[len(key) + 4:]
    return None


def single(args, bench):
    code, lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        fail(f"{args.workload} produced no result (exit {code})", code or 1)
    out = with_units(result, args.trace, bench)
    if args.trace:
        print("# per-layer (self time per op in calibrated ms; counts per op):")
        for name, m in out["metrics"].items():
            print(f"#   {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(out))
    sys.exit(code)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {}
    for w in names:
        rows = {}
        for seed in range(1, args.report + 1):
            code, lines, result = measure(w, seed, args.seconds, 0)
            if result is None or code != 0:
                fail(f"{w} seed {seed} failed (exit {code})", 1)
            for k, v in result["metrics"].items():
                rows.setdefault(k, []).append(v)
            raw = json.loads(info(lines, "raw"))
            for k, v in raw.items():
                rows.setdefault(f"raw.{k}", []).append(v)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{w}: {args.report} runs of {args.seconds} s  "
              f"(tail: {info(lines, 'tail')}; plans: {info(lines, 'plans')})")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'max/min':>8s} {'bound':>6s}")
        for k, vs in rows.items():
            q1, q2, q3, s = spread(vs)
            ratio = max(vs) / min(vs) if min(vs) > 0 else float("inf")
            b = bounds.get(k)
            flag = ""
            if b is not None:
                worst[k] = max(worst.get(k, 0), s)
                if s > b:
                    flag = "  OVER BOUND"
                elif s > b / 3:
                    flag = "  over a third of bound"
            print(f"  {k:22s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {ratio:8.4f} "
                  f"{'' if b is None else b:>6}{flag}")
    print("\nworst calibrated spread per metric (bound should be >= 3x; drop above 0.1,"
          " except setup_s, which every benchmark must report):")
    for k, s in worst.items():
        print(f"  {k:22s} {s:8.4f}  bound {bounds[k]}")


DETERMINISTIC = ("alloc_mb_per_op", "gc.minor_mb_per_op", "analysis.scenarios_per_op",
                 "sched.jobs_per_op", "dse.evaluator.hits_per_op",
                 "dse.evaluator.misses_per_op", "dse.evaluator.hit_ratio",
                 "dse.evaluator.component_hit_ratio")


def determinism(args):
    ok = True
    for w in ("analyze", "explore"):
        for trace in (0, 1):
            runs = []
            for _ in range(2):
                code, _, result = measure(w, args.seed, args.seconds, trace)
                if result is None or code != 0:
                    fail(f"{w} failed (exit {code})", 1)
                runs.append(result["metrics"])
            for k, v in runs[0].items():
                if k in DETERMINISTIC or k.startswith("sched.flat."):
                    same = v == runs[1][k]
                    ok &= same
                    print(f"{w} trace={trace} {k}: {v!r} vs {runs[1][k]!r}"
                          f"{'' if same else '  DIFFERS'}")
    if not ok:
        fail("two runs at one seed disagree on an exact count", 1)
    print("determinism: all exact counts repeat")


def self_test(args, bench):
    failures = []
    measured = set()
    for w in (w["name"] for w in bench["workloads"]):
        code, _, result = measure(w, args.seed, args.seconds, 0, ["--corrupt"])
        rate = result and result["metrics"].get("success_rate")
        if code == 0 or result is None or result["correct"] or not rate < 1:
            failures.append(f"{w}: a corrupted expectation was not caught "
                            f"(exit {code}, success_rate {rate})")
        code, _, result = measure(w, args.seed, args.seconds, 0)
        if code != 0 or result is None or not result["correct"] \
                or result["metrics"]["success_rate"] != 1:
            failures.append(f"{w}: clean run failed (exit {code})")
        code, _, result = measure(w, args.seed, args.seconds, 1)
        if code != 0 or result is None:
            failures.append(f"{w}: traced run failed (exit {code})")
        else:
            measured |= {k for k, v in result["metrics"].items() if v}
    unmeasured = sorted({m["name"] for m in bench["per_layer"]} - measured)
    if unmeasured:
        failures.append(f"per-layer metrics no workload measures: {unmeasured}")
    for f in failures:
        print("FAIL", f)
    if failures:
        sys.exit(1)
    print("self-test: passed")


def main():
    # SIGTERM unwinds like an error, so no measuring process outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = spec()
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", type=int)
    p.add_argument("--determinism", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-digests", action="store_true")
    args = p.parse_args()
    build()
    if args.report:
        report(args, bench)
    elif args.determinism:
        determinism(args)
    elif args.self_test:
        self_test(args, bench)
    elif args.write_digests:
        for w in ("analyze", "explore"):
            code, lines, _ = measure(w, 1, args.seconds, 0, ["--write-digests"])
            if code != 0:
                fail(f"{w} failed (exit {code})", 1)
            for line in lines:
                if line.startswith("digest "):
                    print(line[len("digest "):])
    elif args.workload in [w["name"] for w in bench["workloads"]]:
        single(args, bench)
    else:
        fail("--workload must name a workload of BENCHMARK.json")


if __name__ == "__main__":
    main()
