"""Benchmark for reflharm: replay one workload's user requests and time them.

    python3 bench/run.py --workload bases --seed 1 --seconds 40 --trace 0

Requests run in this one process and thread, one after another (a closed
loop with a single client), in passes over the workload's request list;
the seed only permutes the order within each pass.  Every answer is checked
against bench/reference.json.  The first pass always completes; further
requests run while they fit within --seconds.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every request
twice, untraced and then traced, and reports per-layer metrics from the
traced copy plus trace_overhead, the ratio of traced to untraced time.
Timings are per pass: each request's low median over its runs, summed over the
workload.  The end-to-end times are counted in runs of a fixed reference
loop timed while each request runs (see SpeedProbe), because the speed of a
shared machine drifts by tens of percent within seconds.  The last line of
stdout is one JSON object; the environment, the per-request table and every
metric go to bench/out/.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from workloads import BENCH_DIR, WORKLOADS, digest, requests

ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# No request may run for minutes: one that passes this limit is stopped
# and counted as failed.  The slowest request takes about 7 s on a 2-CPU
# machine.
REQUEST_LIMIT_S = 60.0
# The run must exit within 180 s even when requests hang.
RUN_LIMIT_S = 150.0
SETUP_SAMPLES = 15
# The speed probe times the reference loop every PROBE_INTERVAL_S while a
# request runs; one loop takes 3 to 5 ms on a 2-CPU machine.
PROBE_INTERVAL_S = 0.2
REFERENCE_ROUNDS = 600
SETUP_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "import reflharm.cli; print(repr(time.monotonic()))")


class RequestTimeout(BaseException):
    """Raised in the main thread when a request passes its time limit.

    A BaseException, so that no `except Exception` in the library can
    swallow it."""


def import_reflharm():
    """Import the package from this checkout's src/, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import reflharm.cli
    except ImportError as exc:
        sys.exit("bench: cannot import reflharm from %s: %s" % (SRC, exc))
    if not os.path.abspath(reflharm.cli.__file__).startswith(SRC + os.sep):
        sys.exit("bench: reflharm was imported from %s, not from %s"
                 % (reflharm.cli.__file__, SRC))
    return reflharm


def setup_sample():
    """Seconds from interpreter start until reflharm.cli is imported, in a
    fresh process.  time.monotonic is one clock for every process, so the
    child reports when its import finished."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC],
                          capture_output=True, text=True, check=True,
                          timeout=60, cwd=ROOT)
    return float(done.stdout) - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(reflharm, args):
    qq = reflharm.scalars.QQ
    return {"backend": "%s.%s" % (qq.__module__, qq.__qualname__),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "request_limit_s": REQUEST_LIMIT_S}


def reference_loop():
    """Wall and CPU seconds of a fixed pure-Python loop of Fraction
    arithmetic and dict stores, the kind of work reflharm spends its time
    on.  It runs no reflharm code, so a change to the program leaves it
    alone while the machine's speed moves it."""
    c0, t0 = time.process_time(), time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, REFERENCE_ROUNDS):
        total += Fraction(1, i % 97 + 1) * Fraction(i, 7)
        seen[i, i % 13] = total
    return time.perf_counter() - t0, time.process_time() - c0


class SpeedProbe:
    """Measures how fast the machine ran during one request.

    The machine is shared, and its speed drifts by tens of percent within
    seconds; a slow moment slows every request and the reference loop
    alike.  The probe times the reference loop just before the request,
    from the SIGALRM handler every PROBE_INTERVAL_S while the request runs,
    and just after it.  The request's time divided by the loop's time,
    averaged over the samples, is the request's time in reference loops;
    the time the handler took is not counted.  The same handler stops the
    request at its time limit.  A traced request only gets the time limit,
    so that the loop's time stays out of its spans.

    The probe runs on the wall-clock timer: arming ITIMER_PROF would make
    the process CPU clock tick-grained for the rest of the process."""

    def __init__(self, limit, sample):
        self.sample = sample
        self.loops = [reference_loop()] if sample else []  # (wall, cpu) each
        self.spent = (0.0, 0.0)  # wall and CPU seconds spent in the handler
        self.stop_at = time.perf_counter() + limit

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _tick(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        if t0 >= self.stop_at:
            raise RequestTimeout()
        if not self.sample:
            return
        self.loops.append(reference_loop())
        wall, cpu = self.spent
        self.spent = (wall + time.perf_counter() - t0, cpu + time.process_time() - c0)

    def in_loops(self, wall, cpu):
        """(wall, cpu) seconds of the request, less the handler's time, and
        the same two counted in reference loops."""
        self.loops.append(reference_loop())
        wall -= self.spent[0]
        cpu -= self.spent[1]
        return (wall, cpu,
                wall * statistics.fmean(1.0 / w for w, _ in self.loops),
                cpu * statistics.fmean(1.0 / c for _, c in self.loops))


def _cpu_now():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs requests, checks their answers and keeps every sample."""

    def __init__(self, refs, run_stop, tracer=None):
        self.refs = refs
        self.run_stop = run_stop
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.untraced = {}  # ident -> [(wall, cpu, wall_ref, cpu_ref)]
        self.traced = {}  # ident -> [(wall, metrics)]
        self.order = []  # ident of each traced request, by request number
        self.setup = []  # set-up samples, seconds
        self.first_pass_rss = None

    def run(self, req, traced):
        self.attempted += 1
        limit = min(REQUEST_LIMIT_S, self.run_stop - time.perf_counter())
        if limit <= 0:
            self._fail(req, "not run: the run time limit was reached")
            return
        gc.collect()
        if traced:
            self.tracer.begin(len(self.order))
            self.order.append(req.ident)
            self.tracer.install()
        probe = SpeedProbe(limit, sample=not traced)
        error = None
        c0, t0 = _cpu_now(), time.perf_counter()
        try:
            with probe:
                code, out = req.execute()
        except RequestTimeout:
            error = "timed out after %.1f s" % limit
        except Exception:
            error = "raised " + traceback.format_exc().strip().splitlines()[-1]
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu_now() - c0
            if traced:
                self.tracer.uninstall()
        if traced:
            self.traced.setdefault(req.ident, []).append((wall, self.tracer.end()))
        else:
            self.untraced.setdefault(req.ident, []).append(probe.in_loops(wall, cpu))
        if error is None:
            ref = self.refs[req.ident]
            if code != ref["code"]:
                error = "exit code %d, reference %d" % (code, ref["code"])
            elif digest(out) != ref["sha256"]:
                error = "output digest %s differs from the reference" % digest(out)[:12]
        if error is not None:
            self._fail(req, error)

    def _fail(self, req, reason):
        self.failures.append({"request": req.ident, "reason": reason})
        print("FAIL %s: %s" % (req.ident, reason), file=sys.stderr)


def replay(reqs, runner, seed, seconds, traced):
    """Passes over reqs in seeded order: the first in full, then more until
    the next request would end after `seconds`, judged by its last run.

    Set-up samples are taken between requests, spread over the run, so that
    a short burst of load elsewhere on the machine does not skew them all.
    Returns the number of complete passes."""
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    next_setup = time.perf_counter()
    wanted = 0 if traced else SETUP_SAMPLES
    last = {}
    passes = 0
    while True:
        for req in rng.sample(reqs, len(reqs)):
            start = time.perf_counter()
            if start >= next_setup and len(runner.setup) < wanted:
                runner.setup.append(setup_sample())
                next_setup += seconds / SETUP_SAMPLES
                start = time.perf_counter()
            if passes and start + last[req.ident] > deadline:
                return passes
            runner.run(req, False)
            if traced:
                runner.run(req, True)
            last[req.ident] = time.perf_counter() - start
        passes += 1
        if passes == 1:
            runner.first_pass_rss = peak_rss_mb()


def median_sum(per_request):
    """Each request's low median over its runs, summed over the workload.

    Other work on a shared machine only ever slows a run down, so with two
    runs of a request the faster one is kept."""
    return sum(statistics.median_low(v) for v in per_request if v)


def column(table, reqs, pick):
    """Per request, one field of each of its samples in `table`."""
    return [[pick(sample) for sample in table.get(r.ident, ())] for r in reqs]


def end_to_end(runner, reqs):
    fail_ratio = len(runner.failures) / runner.attempted
    return {"wall_s": median_sum(column(runner.untraced, reqs, lambda s: s[0])),
            "cpu_s": median_sum(column(runner.untraced, reqs, lambda s: s[1])),
            "wall_ref": median_sum(column(runner.untraced, reqs, lambda s: s[2])),
            "cpu_ref": median_sum(column(runner.untraced, reqs, lambda s: s[3])),
            "peak_rss_mb": runner.first_pass_rss,
            "ok_ratio": 1.0 - fail_ratio, "fail_ratio": fail_ratio,
            "setup_s": statistics.median(runner.setup)}


def per_layer(runner, reqs):
    names = next(iter(runner.traced.values()))[0][1]
    out = {name: median_sum(column(runner.traced, reqs, lambda s: s[1][name]))
           for name in names}
    rows_in = out.pop("linalg.rref.rows_in")
    rank_out = out.pop("linalg.rref.rank_out")
    out["linalg.rref.rank_ratio"] = rank_out / rows_in if rows_in else 1.0
    for cmd in sorted({r.command for r in reqs}):
        mine = [r for r in reqs if r.command == cmd]
        out["cli.%s.s" % cmd] = median_sum(column(runner.untraced, mine, lambda s: s[0]))
    out["trace_overhead"] = (median_sum(column(runner.traced, reqs, lambda s: s[0]))
                             / median_sum(column(runner.untraced, reqs, lambda s: s[0])))
    return out


def request_table(runner, reqs):
    rows = []
    for r in reqs:
        untraced = runner.untraced.get(r.ident)
        if not untraced:
            continue
        row = {"request": r.ident, "runs": len(untraced),
               "wall_s": statistics.median_low(s[0] for s in untraced),
               "cpu_s": statistics.median_low(s[1] for s in untraced),
               "wall_ref": statistics.median_low(s[2] for s in untraced),
               "wall_samples_s": [s[0] for s in untraced],
               "wall_ref_samples": [s[2] for s in untraced]}
        if r.ident in runner.traced:
            row["traced_wall_s"] = statistics.median_low(w for w, _ in runner.traced[r.ident])
        rows.append(row)
    return rows


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_stop = time.perf_counter() + RUN_LIMIT_S

    reflharm = import_reflharm()
    declared = declared_metrics(args.trace)
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    reqs = requests(args.workload)
    missing = [r.ident for r in reqs if r.ident not in refs]
    if missing:
        sys.exit("bench: no reference answer for %s" % ", ".join(missing))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    runner = Runner(refs, run_stop, tracer)
    passes = replay(reqs, runner, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(runner, reqs)
    else:
        while len(runner.setup) < SETUP_SAMPLES:
            runner.setup.append(setup_sample())
        metrics = end_to_end(runner, reqs)
    result = {"environment": environment(reflharm, args), "passes": passes,
              "attempted": runner.attempted, "failures": runner.failures,
              "setup_samples_s": runner.setup,
              "requests": request_table(runner, reqs), "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.dump(), requests=runner.order), fh)

    env = result["environment"]
    print("%s seed %d: %d passes, %d attempted, %d failed; %s, Python %s, %d CPUs"
          % (args.workload, args.seed, passes, runner.attempted, len(runner.failures),
             env["backend"], env["python"], env["nproc"]), file=sys.stderr)
    for row in result["requests"]:
        print("  %8.3f s %9.1f ref  x%d  %s" % (row["wall_s"], row["wall_ref"],
                                                row["runs"], row["request"]),
              file=sys.stderr)
    for spec in declared:
        print("%-40s %.6g %s" % (spec["name"], metrics[spec["name"]], spec["unit"]))
    print(json.dumps({
        "correct": not runner.failures, "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                    for spec in declared}}))


if __name__ == "__main__":
    main()
