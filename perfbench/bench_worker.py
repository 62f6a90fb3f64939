"""One cold pass: a fresh interpreter turns each spec into its JSON report.

    python3 perfbench/bench_worker.py --src SRC --spawned-at T [--trace 0|1]
        [--trace-out FILE] [--setup-only] SPEC...

`--spawned-at` is the parent's `time.perf_counter()` just before it started
this process (a system-wide monotonic clock on Linux), so `setup_s` covers
interpreter start-up and the package import.  Prints one JSON object.

A shared virtual machine can flip between a fast and a slow state every
few hundred milliseconds, in proportions that drift over minutes, so the
same pass can take a third longer a minute later.  `HostSampler` times a fixed chunk of
work (`calibrate`) every `SAMPLE_EVERY_S` while the specs run, and each
spec's time is also given net of those chunks (`net_s`) and rescaled to a
host on which the chunk takes `CAL_NOMINAL_S` (`norm_s`, `norm_cpu_s`).
"""

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import bench_gate

CAL_ITERATIONS = 1500
CAL_NOMINAL_S = 0.002   # the chunk's time on the host the figures are scaled to
SAMPLE_EVERY_S = 0.04   # so the chunks take about 5% of a pass


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children add their largest peak
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def calibrate():
    """Seconds for a fixed chunk of pure-Python work (about 2 ms).

    It mixes what the package spends its time on: integer arithmetic,
    dict updates, small sorted tuples and Fractions.  It never calls the
    package, so the program's own speed cannot move it."""
    t0 = time.perf_counter()
    acc, counts = 0, {}
    for i in range(CAL_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        key = (acc % 101, i % 7)
        counts[key] = counts.get(key, 0) + 1
        if i % 8 == 0:
            Fraction(acc % 97, i % 13 + 1) + Fraction(1, 3)
        tuple(sorted((acc % 13, i % 11, key[0])))
    return time.perf_counter() - t0


def host_speed(chunk_times):
    """Mean host speed while the chunks ran, in nominal seconds per second.

    Averaging speeds, not times, weights each chunk as the stretch of time
    it stands for, and a chunk stalled by preemption adds a speed near 0
    rather than an unbounded time."""
    return statistics.fmean(CAL_NOMINAL_S / c for c in chunk_times)


class HostSampler:
    """Runs `calibrate` from a SIGALRM handler every `SAMPLE_EVERY_S` of
    wall time while a pass runs, so that the host's speed is sampled all
    through every spec, not only between specs."""

    def __init__(self):
        self.ticks = []  # (start, chunk seconds)
        self._busy = False

    def tick(self, *_):
        # a stall longer than the interval can deliver the next signal
        # inside this handler; a nested chunk would be taken out twice
        if self._busy:
            return
        self._busy = True
        self.ticks.append((time.perf_counter(), calibrate()))
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.tick()

    def rescale(self, rec):
        """Add a spec's times net of the chunks run inside it, and rescaled
        by the host speed of those chunks (or, for a spec too short to
        hold one, of the chunks just before and after it)."""
        start = rec.pop("start")
        end = start + rec["s"]
        inside = [c for t, c in self.ticks if start <= t < end]
        near = inside or ([c for t, c in self.ticks if t < start][-1:]
                          + [c for t, c in self.ticks if t >= end][:1])
        speed = host_speed(near)
        net_s = rec["s"] - sum(inside)
        net_cpu_s = max(rec["cpu_s"] - sum(inside), 0.0)
        rec.update(net_s=net_s, net_cpu_s=net_cpu_s,
                   cal_s=CAL_NOMINAL_S / speed, norm_s=net_s * speed,
                   norm_cpu_s=net_cpu_s * speed)


def run_spec(correspond, spec, tracer=None):
    """Report, JSON text and gate problems of one spec, with its time and
    CPU time.  An exception in the program is a problem, not a crash."""
    json_span = tracer.span("correspond.json") if tracer \
        else contextlib.nullcontext()
    doc = text = None
    t0, c0 = time.perf_counter(), _cpu_s()
    try:
        reports = correspond.full_report(spec)
        with json_span:
            doc = correspond.reports_json(reports)
            text = json.dumps(doc, sort_keys=True)
    except Exception as exc:  # a failed spec is counted, not fatal
        problems = [f"raised {type(exc).__name__}: {exc}"]
    else:
        problems = []
    elapsed, cpu = time.perf_counter() - t0, _cpu_s() - c0
    if not problems:
        problems = bench_gate.report_problems(doc, text)
    rec = {"start": t0, "s": elapsed, "cpu_s": cpu, "problems": problems,
           "digest": None, "rows": 0, "hii_checked": 0}
    if text is not None:
        rows = doc["rows"]
        rec.update(digest=bench_gate.digest(text), rows=len(rows),
                   hii_checked=sum(r["hii"] in ("holds", "fails")
                                   for r in rows))
    return rec


def run_pass(correspond, specs, tracer=None):
    """Run the specs in order under a `HostSampler`; see its `rescale`."""
    out = {}
    with HostSampler() as sampler:
        for i, spec in enumerate(specs):
            if tracer is not None:
                tracer.spec = i
            out[spec] = run_spec(correspond, spec, tracer)
    for rec in out.values():
        sampler.rescale(rec)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("specs", nargs="*")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import supercusp.correspond as correspond
    setup_s = time.perf_counter() - args.spawned_at
    where = os.path.realpath(correspond.__file__)
    if not where.startswith(os.path.realpath(args.src) + os.sep):
        sys.exit(f"imported supercusp from {where}, not from {args.src}")
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        import bench_trace
        tracer = bench_trace.Tracer()
        with tracer:
            specs = run_pass(correspond, args.specs, tracer)
    else:
        specs = run_pass(correspond, args.specs)
    recs = specs.values()
    result.update(
        wall_s=sum(r["norm_s"] for r in recs),
        cpu_s=sum(r["norm_cpu_s"] for r in recs),
        raw_wall_s=sum(r["net_s"] for r in recs),
        raw_cpu_s=sum(r["net_cpu_s"] for r in recs),
        cal_s=[r["cal_s"] for r in recs],
        max_spec_s=max(r["net_s"] for r in recs),
        peak_rss_mb=_peak_rss_mb(),
        specs=specs)
    if tracer is not None:
        # spans include the chunks run inside them, so the shares use the
        # gross time too
        result["layers"] = tracer.summary(sum(r["s"] for r in recs))
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"specs": args.specs,
                           "fields": ["name", "start", "end", "parent",
                                      "spec", "outermost"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
