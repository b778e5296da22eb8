"""One fresh interpreter running one workload of the benchmark.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS [SPANS_FILE]

MODE is `setup` (import the program, build the inputs, report the time,
then time the reference work), `run` (whole timed rounds, stopping at the
round boundary nearest to SECONDS, with the reference work timed every
PROBE_PERIOD_S), `once` (exactly one
untraced round) or `traced` (exactly one round with the layer wrappers
installed; the spans go to SPANS_FILE).  Every round starts with the
program's caches cleared, as a fresh command-line process would.  The
result is one JSON object on the last line of standard output.
"""

import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from sbolab import paramfield  # noqa: E402  (needs the path set above)
import workloads  # noqa: E402

SETUP_REFS = 20
REF_WARMUP = 10
PROBE_PERIOD_S = 0.1


def program_caches():
    """The lru_cache objects of every sbolab module, each once."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("sbolab."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = (getattr(obj, "__module__", ""), obj)
    return list(found.values())


def reference():
    """Fixed pure-Python work with the program's profile (Fraction
    arithmetic, tuple-keyed dicts, small objects) and none of its code:
    about 2 ms here."""
    acc = {}
    for i in range(1, 200):
        x = Fraction(i, i + 7) * Fraction(3, 2 * i + 1) + Fraction(1, i)
        key = (i % 97, x.numerator % 89)
        acc[key] = acc.get(key, 0) + x.denominator % 1009
    return len(acc)


def warm_reference():
    """Let the interpreter specialise the reference work before it is timed."""
    for _ in range(REF_WARMUP):
        reference()


def time_reference(clock=time.perf_counter):
    t0 = clock()
    reference()
    return clock() - t0


class SpeedProbe:
    """Times the reference work every PROBE_PERIOD_S of wall time, from a
    timer signal, while the checks run.  The shared machine switches
    between speeds within seconds, inside a single check; samples spread
    evenly in time follow it.  The time spent in the handler is kept, so
    that it can be taken out of the check times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []  # [start, reference time], both in seconds
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = self.clock()
        ref = time_reference(self.clock)
        self.samples.append([t0, ref])
        self.spent += self.clock() - t0

    def __enter__(self):
        warm_reference()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_rounds(checks, caches, seconds, tracer, probe=None):
    """Whole rounds of the checks; one round when seconds is None.  The
    time a `probe` takes is left out of the check times."""
    clock = time.perf_counter
    durations, spans, failures = [], [], []
    failed = rounds = 0
    start = clock()
    while True:
        for _, fn in caches:
            fn.cache_clear()
        for chk in checks:
            why = chk.label
            spent = probe.spent if probe else 0.0
            t0 = clock()
            try:
                if tracer is None:
                    ok = chk.run()
                else:
                    with tracer.root(chk.kind):
                        ok = chk.run()
            except Exception as exc:  # a raising check is a failed check
                ok = False
                why = "%s: %r" % (chk.label, exc)
            t1 = clock()
            durations.append(t1 - t0 - ((probe.spent if probe else 0.0) - spent))
            spans.append([t0, t1])
            if not ok:
                failed += 1
                if len(failures) < 20:
                    failures.append(why)
        rounds += 1
        # stop at the round boundary nearest to the requested length
        elapsed = clock() - start
        if seconds is None or elapsed + elapsed / rounds / 2 >= seconds:
            break
    return {"wall_s": clock() - start, "rounds": rounds,
            "attempted": len(durations), "failed": failed,
            "durations": durations, "spans": spans, "failures": failures}


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    checks = workloads.ROUNDS[workload](seed)
    ready = time.perf_counter()
    out = {"ready": ready, "labels": [c.label for c in checks],
           "backend": paramfield._mpq.__module__ + "." + paramfield._mpq.__name__}
    if mode == "setup":
        # the machine's speed right after the set-up
        warm_reference()
        out["samples"] = [[time.perf_counter(), time_reference()]
                          for _ in range(SETUP_REFS)]
    else:
        caches = program_caches()
        tracer = None
        if mode == "traced":
            import tracing
            tracer = tracing.install()
        if mode == "run":
            with SpeedProbe() as probe:
                out.update(run_rounds(checks, caches, seconds, None, probe))
            out["samples"] = probe.samples
        else:
            out.update(run_rounds(checks, caches, None, tracer))
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            rep = tracer.report()
            for mod, fn in caches:
                if mod == "sbolab.monogenics":
                    info = fn.cache_info()
                    rep["counts"]["monogenics.cache_hits"] = (
                        rep["counts"].get("monogenics.cache_hits", 0) + info.hits)
                    rep["counts"]["monogenics.cache_misses"] = (
                        rep["counts"].get("monogenics.cache_misses", 0) + info.misses)
            out["trace"] = rep
            with open(argv[4], "w") as fh:
                json.dump(tracer.span_dump(), fh)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
