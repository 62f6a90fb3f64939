"""Benchmark: one spec -> canonical JSON report, end to end and per layer.

    python3 perfbench/run.py --workload gamma|rank|isogeny|all --seed N
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Each workload is a closed loop with one client: a pass starts a fresh
interpreter, which runs the workload's specs one after another (order set
by the seed) and serializes each report with `json.dumps(...,
sort_keys=True)`.  Passes repeat while another one still fits in S
seconds, at least once; every figure is the median over passes.

Times are rescaled to a fixed host speed.  A shared virtual machine can
flip between a fast and a slow state every few hundred milliseconds, in
proportions that drift over minutes, and no number of passes averages
that away.  So the worker times a fixed ~2 ms pure-Python chunk
(`bench_worker.calibrate`) every 40 ms while the specs run, takes those
chunks out of each spec's time, and scales what is left by the host's
speed over the spec (see `bench_worker.HostSampler`).  Set-up is scaled
by chunks run just before and after each extra interpreter.  `wall_s`, `cpu_s` and `setup_s` are
therefore seconds on a host where the chunk takes 2 ms; the measured
seconds are printed beside them (`raw_*`), and the chunk's median time is
`host_ref_s`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of `bench_trace`; the
traced digests must equal the untraced ones.  Every spec's report goes
through the gate in `bench_gate`, and its SHA-256 digest is printed, so a
change can show that its reports are byte-identical.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import bench_gate
import bench_specs
import bench_trace
import bench_worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "bench_worker.py")

# The slowest spec (max_spec_s), the failure ratio and the HII coverage are
# printed but are not end-to-end figures: which spec pays for the shared
# root systems depends on the seed's order, so the slowest spec spreads by
# about a third across seeds on `rank`, and the other two are counts that
# read 0 (failed and attempted carry the failure ratio).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SETUP_SAMPLES = 15      # extra interpreters that only import the package
SETUP_CHUNKS = 5        # chunks before and after each, to scale its time
RUN_LIMIT_S = 150       # however large S is, end passes by then
WORKER_TIMEOUT_S = 160


class BenchError(RuntimeError):
    """The benchmark could not run: the result would mean nothing."""


def spawn(src, seed, extra, timeout):
    """Start one worker and return its parsed result."""
    # the seed also fixes string hashing, so one seed repeats one run
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    t0 = time.perf_counter()
    cmd = [sys.executable, WORKER, "--src", src, "--spawned-at", repr(t0)]
    try:
        proc = subprocess.run(cmd + extra, capture_output=True, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrations(n):
    return [bench_worker.calibrate() for _ in range(n)]


def run_workload(workload, seed, seconds, trace, src, out_dir):
    specs = bench_specs.ordered_specs(workload, seed)
    setups, host = [], calibrations(SETUP_CHUNKS)
    for _ in range(SETUP_SAMPLES):
        raw = spawn(src, seed, ["--setup-only"], 60)["setup_s"]
        after = calibrations(SETUP_CHUNKS)
        setups.append((raw, bench_worker.host_speed(
            host[-SETUP_CHUNKS:] + after)))
        host += after
    kinds = (0, 1) if trace else (0,)
    passes = {0: [], 1: []}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for kind in kinds:
            extra = ["--trace", str(kind)]
            if kind:
                extra += ["--trace-out", os.path.join(
                    out_dir, f"trace-{workload}-seed{seed}.json")]
            left = WORKER_TIMEOUT_S - (time.perf_counter() - start)
            res = spawn(src, seed, extra + specs, max(left, 1.0))
            passes[kind].append(res)
            host.extend(res["cal_s"])
        # stop before a round that would end after the measuring time
        now = time.perf_counter()
        if now - start + (now - round_start) > min(seconds, RUN_LIMIT_S):
            break
    return summarize(workload, specs, passes, setups, host)


def summarize(workload, specs, passes, setups, host):
    runs = passes[0] + passes[1]
    problems = [(spec, p) for r in runs
                for spec, rec in r["specs"].items() for p in rec["problems"]]
    failed = sum(bool(rec["problems"]) for r in runs
                 for rec in r["specs"].values())
    digests = [{s: rec["digest"] for s, rec in r["specs"].items()}
               for r in runs]
    if any(d != digests[0] for d in digests):
        problems.append(("*", "digests differ between passes"
                              + (" (traced and untraced)" if passes[1] else "")))

    def median(key, rs=passes[0]):
        return statistics.median(r[key] for r in rs)

    first = runs[0]["specs"]
    out = {
        "workload": workload,
        "specs": len(specs),
        "passes": len(passes[0]),
        "attempted": len(specs) * len(runs),
        "failed": failed,
        "problems": problems,
        "correct": not problems,
        "rows": sum(rec["rows"] for rec in first.values()),
        "hii_checked": sum(rec["hii_checked"] for rec in first.values()),
        "host_ref_s": statistics.median(host),
        "raw": {
            "wall_s": median("raw_wall_s"),
            "cpu_s": median("raw_cpu_s"),
            "setup_s": statistics.median(raw for raw, _ in setups),
        },
        "digests": digests[0],
        "spec_s": {s: statistics.median(r["specs"][s]["net_s"]
                                        for r in passes[0])
                   for s in specs},
        "max_spec_s": median("max_spec_s"),
        "e2e": {
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "setup_s": statistics.median(raw * speed
                                         for raw, speed in setups),
            "peak_rss_mb": median("peak_rss_mb"),
        },
    }
    if passes[1]:
        # median_low keeps counts whole: they are the same in every pass
        layers = {key: statistics.median_low(r["layers"][key]
                                             for r in passes[1])
                  for key in passes[1][0]["layers"]}
        layers["trace.overhead_s"] = \
            median("wall_s", passes[1]) - out["e2e"]["wall_s"]
        layers["correspond.hii_checked"] = out["hii_checked"]
        layers["correspond.max_spec_s"] = out["max_spec_s"]
        layers["host.ref_s"] = out["host_ref_s"]
        out["layers"] = layers
    return out


def print_summary(res):
    w = res["workload"]
    ratio = res["failed"] / res["attempted"]
    print(f"{w}: {res['specs']} specs x {res['passes']} passes, "
          f"{res['rows']} rows, hii_checked {res['hii_checked']}, "
          f"fail_ratio {ratio:g} ({res['failed']}/{res['attempted']}), "
          f"max_spec_s {res['max_spec_s']:.4f} s, "
          f"host_ref_s {res['host_ref_s']:.4f} s")
    for name, value in res["e2e"].items():
        print(f"  {w} {name} {value:.4f} {END_TO_END[name]}")
    for name, value in res["raw"].items():
        print(f"  {w} raw_{name} {value:.4f} s")
    for name, value in res.get("layers", {}).items():
        print(f"  {w} {name} {value:.6g}")
    for spec, sha in sorted(res["digests"].items()):
        print(f"  {w} digest {spec} {sha} {res['spec_s'][spec]:.4f} s")
    print(f"  {w} digest * {bench_gate.workload_digest(res['digests'])}")
    for spec, problem in res["problems"][:20]:
        print(f"  {w} PROBLEM {spec}: {problem}")


def result_line(results, trace, prefix):
    metrics = {}
    for res in results:
        prefix_w = f"{res['workload']}." if prefix else ""
        if trace:
            for name, value in res["layers"].items():
                unit = bench_trace.LAYER_METRICS[name][0]
                metrics[prefix_w + name] = {"value": value, "unit": unit}
        else:
            for name, value in res["e2e"].items():
                metrics[prefix_w + name] = {"value": value,
                                            "unit": END_TO_END[name]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench_specs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through SystemExit, so that subprocess.run kills and reaps the
    # worker it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "supercusp", "correspond.py")):
        print("perfbench: no src/supercusp here; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    names = sorted(bench_specs.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, src,
                                out_dir) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print_summary(res)
    print(json.dumps(result_line(results, args.trace,
                                 prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
