#!/usr/bin/env python3
'''Run one loopgas benchmark workload, check it, and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client sends request i (seed N + i) only after request i - 1 has
returned, for S seconds; the oracle sweep ends on a whole cycle of its
points.  Every request is checked against the frozen references in
references.json.  With --trace 0 the end-to-end metrics of BENCHMARK.json
are printed; with --trace 1 the layers are traced (tracing.py) and the
per-layer metrics are printed, after an untraced re-run of the same
requests has given bit-identical outputs.  The report is one metric per line, with the environment and
the off-grid probe, and one JSON object as the last line.

Request times are reported at a reference speed: each measured latency is
scaled by the time of a fixed calibration kernel run just before and just
after it (see calibrate()), because the speed of this kind of machine
drifts while a run is in progress.  The measured seconds are printed too.
The library is imported from src/ next to this directory; BLAS runs one
thread per process.
'''

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
TAIL_BEYOND = 10
# A deterministic cycle's percentiles are taken as over this many cycles,
# however many fit in the run, so that they do not jump with the count.
CYCLE_COPIES = 4
# Reported times are scaled to a reference speed at which calibrate()
# takes CALIBRATION_REF_S seconds (its fast-phase time on a 2-vCPU
# x86-64 VM, where the speed of the same code swings by up to 1.75x
# within seconds as neighbouring guests load the host).
CALIBRATION_REF_S = 0.009


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def prepare():
    '''Check the checkout, pin BLAS threads, and put src/ on the path.
    Must run before numpy is imported.'''
    for needed in (SRC / "loopgas" / "__init__.py", ROOT / "configs",
                   ROOT / "BENCHMARK.json", HERE / "references.json"):
        if not needed.exists():
            die(f"{needed.relative_to(ROOT)} not found; run from a full "
                f"checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]


def import_library():
    '''Import loopgas.cli in this (fresh) interpreter; returns seconds.'''
    t0 = time.perf_counter()
    import loopgas.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    import loopgas
    if Path(loopgas.__file__).resolve().parent != (SRC / "loopgas").resolve():
        die(f"imported loopgas from {loopgas.__file__}, not from src/")
    return elapsed


def load_references():
    return json.loads((HERE / "references.json").read_text())


def calibrate():
    '''Seconds taken by a fixed mix of interpreter and small-array numpy
    work, the same kind of work as the library's.'''
    import numpy as np
    rng = np.random.default_rng(1)
    acc, bins = 0.0, {}
    t0 = time.perf_counter()
    for i in range(1500):
        a = rng.random(16)
        b = np.sort(a)
        acc += float(a @ b) + int(np.searchsorted(b, 0.5))
        bins[i % 7] = bins.get(i % 7, 0.0) + acc
        for j in range(20):
            acc += j * 0.5
    return time.perf_counter() - t0


def scaled(seconds, cal_before, cal_after):
    '''A measured time at the reference speed, given the calibration
    times taken just before and just after it.'''
    return seconds * CALIBRATION_REF_S / (0.5 * (cal_before + cal_after))


# -- the request loop --------------------------------------------------------

@dataclass
class Loop:
    results: list        # Result, or None for a request that raised
    ok: list             # passed its correctness check
    latencies: list      # measured seconds
    scaled: list         # the same at the reference speed


def run_loop(wl, base_seed, seconds=None, count=None, tracer=None,
             between=None):
    '''Closed loop: run requests for `seconds` (ending on a whole cycle of
    the workload), or exactly `count` requests.  A calibration runs
    between consecutive requests to scale their latencies.  `between`,
    if given, is called with the loop's elapsed seconds after every
    request and returns the seconds it took, which the loop's clock
    leaves out.'''
    results, ok, latencies, scaled_latencies = [], [], [], []
    start = time.perf_counter()
    calibrate()     # the first call in a process runs cold; discard it
    cal = calibrate()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            res = wl.request(base_seed + i)
        except Exception as exc:  # a raising request counts as failed
            print(f"request {i} (seed {base_seed + i}) raised "
                  f"{type(exc).__name__}: {exc}")
            res = None
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.request = -1
        results.append(res)
        ok.append(res is not None and wl.check(res))
        cal_after = calibrate()
        scaled_latencies.append(scaled(latencies[-1], cal, cal_after))
        cal = cal_after
        if between is not None:
            spent = between(time.perf_counter() - start)
            if spent:
                start += spent
                cal = calibrate()
        i += 1
    return Loop(results, ok, latencies, scaled_latencies)


def pooled(wl, loop):
    '''Pooled headline estimate of the loop: (mean, se, passes check).'''
    done = [r for r in loop.results if r is not None]
    if not done:
        return float("nan"), float("nan"), False
    mean = statistics.fmean(r.value for r in done)
    se = sum(r.se ** 2 for r in done) ** 0.5 / len(done)
    return mean, se, wl.pooled_check(mean, se, done)


def tail(latencies):
    '''Highest percentile with TAIL_BEYOND requests beyond it, as
    (value, percentile); the maximum when there are too few requests.'''
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def probe_setup(name):
    '''Seconds from spawning a fresh interpreter until the workload's
    inputs are built (imports, configs, references).  These are measured
    seconds: set-up is mostly imports, whose speed does not follow the
    calibration kernel's.'''
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-probe"], capture_output=True, text=True, timeout=150,
        check=True)
    return float(proc.stdout.split()[-1]) - t0


class SetupProbes:
    '''SETUP_PROBES set-up probes spread evenly over the request loop (as
    its `between`), so that their median covers the same stretch of the
    machine's time as the requests, not a few seconds of it.'''

    def __init__(self, name, seconds):
        self.name = name
        self.due = [seconds * (k + 0.5) / SETUP_PROBES
                    for k in range(SETUP_PROBES)]
        self.samples = []

    def __call__(self, elapsed):
        t0 = time.perf_counter()
        ran = False
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.samples.append(probe_setup(self.name))
            ran = True
        return time.perf_counter() - t0 if ran else 0.0

    def median(self):
        '''Runs the probes not yet due (a loop that ended early).'''
        while self.due:
            self.due.pop(0)
            self.samples.append(probe_setup(self.name))
        return statistics.median(self.samples)


def request_latencies(wl, loop):
    '''The scaled latencies the metrics are computed from.  A cycle of
    deterministic requests repeats the same requests, so there each
    point's latency is its median over the run's cycles (a slow stretch
    of the machine then moves no metric through one request), repeated
    CYCLE_COPIES times.'''
    if wl.cycle == 1:
        return loop.scaled
    per_point = [statistics.median(loop.scaled[j::wl.cycle])
                 for j in range(wl.cycle)]
    return per_point * CYCLE_COPIES


def end_to_end(wl, loop, setup_s):
    '''End-to-end metrics from the scaled request latencies; the loop's
    own bookkeeping between requests (checks, calibration) is left out.'''
    latencies = request_latencies(wl, loop)
    wall = statistics.fmean(latencies)
    mean, se, _ = pooled(wl, loop)
    if wl.cycle > 1:
        # deterministic: every output is exact after one pass of the cycle
        t_1pct = wall * wl.cycle
    else:
        t_1pct = sum(latencies) * (se / abs(mean) / 0.01) ** 2
    return {"setup_s": setup_s,
            "wall_s": wall,
            "req_p50_s": statistics.median(latencies),
            "req_tail_s": tail(latencies)[0],
            "t_1pct_s": t_1pct,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def same_outputs(a, b):
    return [None if r is None else json.dumps(r.outputs) for r in a.results] \
        == [None if r is None else json.dumps(r.outputs) for r in b.results]


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "processes": "1 benchmark + at most 1 set-up probe at a time",
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "loadavg": os.getloadavg()}


def declared_metrics(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in doc[key]}


# -- entry point -------------------------------------------------------------

def run(name, seed, seconds, trace):
    '''Run one workload; returns (result document, report lines).'''
    import_s = import_library()
    import tracing
    import workloads

    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}",
             "environment " + json.dumps(environment())]
    failed, attempted, errors = workloads.offgrid_probe(seed)
    lines.append(f"offgrid_probe {failed} of {attempted} failed "
                 f"({', '.join(errors) or 'none'}); known defect, "
                 f"outside the timed loop and the failure count")

    refs = load_references()
    tracer = None
    if trace:
        tracer = tracing.Tracer(workloads.WORKLOADS[name].open_target)
        tracer.install()
    probes = None if trace else SetupProbes(name, seconds)
    try:
        wl = workloads.build(name, refs)
        loop = run_loop(wl, seed, seconds=seconds, tracer=tracer,
                        between=probes)
    finally:
        if tracer is not None:
            tracer.uninstall()

    n = len(loop.results)
    n_failed = loop.ok.count(False)
    mean, se, pooled_ok = pooled(wl, loop)
    correct = n_failed == 0 and pooled_ok
    lines.append(f"requests {n}  failed {n_failed}  fail_frac "
                 f"{n_failed / n:.6g}  pooled estimate {mean:.8g} +- {se:.3g}"
                 f"  pooled check {'pass' if pooled_ok else 'FAIL'}")
    if trace:
        untraced = run_loop(wl, seed, count=n)
        identical = same_outputs(loop, untraced)
        correct = correct and identical
        lines.append(f"traced and untraced outputs "
                     f"{'bit-identical' if identical else 'DIFFER'}")
        metrics = tracer.metrics(loop.scaled, untraced.scaled)
        metrics["cli.import_s"] = import_s
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"trace-{name}-seed{seed}.npz")
    else:
        metrics = end_to_end(wl, loop, probes.median())
        latencies = request_latencies(wl, loop)
        lines.append(f"req_tail_s is the p{tail(latencies)[1]:.4g} latency "
                     f"over {len(latencies)} requests")
        lines.append(f"measured (unscaled) seconds per request "
                     f"{sum(loop.latencies) / n:.6g}, median speed factor "
                     f"{statistics.median(s / t for s, t in zip(loop.scaled, loop.latencies)):.4g}")
    lines.append(f"loadavg at end {os.getloadavg()}")

    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"differ from BENCHMARK.json")
    for key in units:
        lines.append(f"metric {key} = {metrics[key]:.6g} {units[key]}")
    doc = {"correct": bool(correct), "attempted": n, "failed": n_failed,
           "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                       for k in units}}
    return doc, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("symanzik-z", "ginibre-gamma", "cluster-logz",
                             "oracle-sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    prepare()
    if args.setup_probe:
        import_library()
        import workloads
        workloads.build(args.workload, load_references())
        print(repr(time.monotonic()))
        return
    doc, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(doc), flush=True)


if __name__ == "__main__":
    main()
