"""sbolab benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {lattice,kernels,lambda} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every measurement runs in a fresh,
single-threaded interpreter (`bench/worker.py`) with PYTHONHASHSEED fixed,
so that set and dict orders, and with them the per-layer counts, repeat
exactly.  With --trace 0 the workload runs whole rounds for S seconds and
the end-to-end metrics are reported; with --trace 1 one round runs
untraced and one round runs with the layer wrappers of `bench/tracing.py`,
and the per-layer metrics are reported.  The last line of standard output
is the result object; the full record, per-check times included, goes to
`bench/results/`.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("lattice", "kernels", "lambda")
HASH_SEED = "0"
SETUP_PROBES = 10
# the reference work's time at the nominal speed the timings are quoted
# for (about its median on the 2-vCPU machine the bounds come from)
REF_NOMINAL_S = 0.0022
SPEED_WINDOW_S = 0.5
DEADLINE_S = 170.0

LAYERS = ("paramfield", "linalg", "sbolattice", "kernelcalc", "monogenics",
          "cliffspin", "cli")
# per-layer counters (count) and inclusive timers (s) of the trace
COUNTERS = (
    "paramfield.gauss_ops", "paramfield.paramscalar_new",
    "paramfield.poly_gcd_calls", "paramfield.evaluate_calls",
    "linalg.eliminate_calls", "linalg.matrix_rows", "linalg.matrix_cols",
    "linalg.pivots", "linalg.fill_entries",
    "sbolattice.build_system_calls", "sbolattice.constraint_rows",
    "sbolattice.sectors_solved",
    "kernelcalc.kernel_terms", "kernelcalc.coeff_entries",
    "monogenics.branch_embed_calls", "monogenics.cache_hits",
    "monogenics.cache_misses",
    "cliffspin.zeta_gen_apply_calls", "cliffspin.spinor_scale_calls",
    "cli.main_calls", "cli.sectors_requested")
TIMERS = (
    "paramfield.paramscalar_new_s", "paramfield.poly_gcd_s",
    "paramfield.evaluate_s", "paramfield.affine_subs_s",
    "linalg.eliminate_s", "linalg.solve_in_span_s",
    "sbolattice.build_system_s", "sbolattice.restabilize_s",
    "kernelcalc.make_family_s", "kernelcalc.normalize_s",
    "kernelcalc.mult_zeta_s", "kernelcalc.mult_xn_s", "kernelcalc.compare_s",
    "monogenics.monogenic_basis_s", "monogenics.branch_embed_s",
    "monogenics.coordinate_split_s", "monogenics.bruteforce_s",
    "cliffspin.zeta_gen_apply_s")


class BenchError(RuntimeError):
    pass


class Runner:
    """Spawns workers against one overall deadline and waits for each."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode, seconds, *extra):
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        argv = [sys.executable, WORKER, mode, self.workload, str(self.seed),
                str(seconds)] + list(extra)
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before the %s worker" % mode)
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("%s worker exceeded the deadline" % mode)
        if proc.returncode != 0:
            raise BenchError("%s worker exited %d:\n%s"
                             % (mode, proc.returncode, proc.stderr[-2000:]))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        res["setup_s"] = res["ready"] - spawned
        return res


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "sbolab", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def tail(durations):
    """The highest percentile with at least ten samples beyond it, or None
    below forty samples, where it would be no tail."""
    n = len(durations)
    if n < 40:
        return None
    pct = max(p for p in (75, 90, 95, 99) if n * (100 - p) >= 1000)
    cut = statistics.quantiles(durations, n=100)[pct - 1]
    return {"percentile": pct, "ms": cut * 1000, "samples": n}


def speed_factor(samples, lo=float("-inf"), hi=float("inf")):
    """How many nominal seconds one second of [lo, hi] is worth: the mean of
    REF_NOMINAL_S / reference time over the samples taken in it.  Samples
    are spread evenly in time, so this is the time average of the machine's
    speed relative to the nominal one.  None without samples."""
    ratios = [REF_NOMINAL_S / ref for t, ref in samples if lo <= t <= hi]
    return sum(ratios) / len(ratios) if ratios else None


def nominal_durations(res):
    """Each check's time rescaled to the nominal speed, from the samples
    taken during it and within SPEED_WINDOW_S of it, or from all samples
    of the run if the timer signal found no bytecode boundary there."""
    whole = speed_factor(res["samples"])
    return [d * (speed_factor(res["samples"], t0 - SPEED_WINDOW_S,
                              t1 + SPEED_WINDOW_S) or whole)
            for d, (t0, t1) in zip(res["durations"], res["spans"])]


def end_to_end(runner, seconds):
    setups, nominal_setups = [], []
    for _ in range(SETUP_PROBES):
        probe = runner.spawn("setup", 0)
        setups.append(probe["setup_s"])
        nominal_setups.append(probe["setup_s"] * speed_factor(probe["samples"]))
    res = runner.spawn("run", seconds)
    durations = res["durations"]
    nominal = nominal_durations(res)
    metrics = {
        "norm_checks_per_s": (len(nominal) / sum(nominal), "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(nominal_setups), "s"),
    }
    # wall-clock figures and the median check time are kept in the record,
    # not reported as metrics: their run-to-run spread is too wide for a
    # bound (see README)
    record = {"setups_s": setups, "raw_setup_s": statistics.median(setups),
              "tail": tail(durations),
              "checks_per_s": len(durations) / sum(durations),
              "check_p50_ms": statistics.median(durations) * 1000,
              "nominal_check_p50_ms": statistics.median(nominal) * 1000,
              "speed_factor": speed_factor(res["samples"]),
              "per_check_ms": [d * 1000 for d in durations],
              "per_check_nominal_ms": [d * 1000 for d in nominal],
              "reference_ms": [ref * 1000 for _, ref in res["samples"]]}
    return res, metrics, record


def per_layer(runner, spans_file):
    plain = runner.spawn("once", 0)
    res = runner.spawn("traced", 0, spans_file)
    tr = res["trace"]
    counts, timers = tr["counts"], tr["timers"]
    # times are shares of the traced check time, which compare across
    # machines and speed phases; the seconds stay in the record
    timed = tr["checks_s"] - tr["hook_s"]
    metrics = {"%s.self_share" % layer: (tr["self_s"][layer] / timed, "ratio")
               for layer in LAYERS}
    metrics.update({k: (counts.get(k, 0), "count") for k in COUNTERS})
    metrics.update({k[:-2] + "_share": (timers.get(k, 0.0) / timed, "ratio")
                    for k in TIMERS})
    solved = counts.get("sbolattice.sectors_solved", 0)
    metrics["cli.sector_useful_share"] = (
        counts.get("cli.sectors_requested", 0) / solved if solved else 0.0, "ratio")
    metrics["linalg.max_entry_bits"] = (tr["max_entry_bits"], "bits")
    metrics["trace.attributed_share"] = (
        sum(tr["self_s"][layer] for layer in LAYERS) / timed, "ratio")
    metrics["trace.overhead_ratio"] = (res["wall_s"] / plain["wall_s"], "ratio")
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    record = {"untraced_round_s": plain["wall_s"], "traced_round_s": res["wall_s"],
              "trace": tr, "spans_file": os.path.relpath(spans_file, ROOT)}
    return res, metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "sbolab")):
        sys.stderr.write("bench: no src/sbolab under %s; run from a checkout\n"
                         % ROOT)
        return 2
    runner = Runner(args.workload, args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    try:
        if args.trace:
            res, metrics, record = per_layer(runner, stem + "-spans.json")
        else:
            res, metrics, record = end_to_end(runner, args.seconds)
    except BenchError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    env = {"backend": res["backend"], "python": platform.python_version(),
           "nproc": os.cpu_count(), "src_lines": src_lines(),
           "hash_seed": HASH_SEED}
    print("env: " + json.dumps(env, sort_keys=True))
    for line in res["failures"]:
        print("failed: " + line)
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  env=env, rounds=res["rounds"], checks=res["labels"],
                  result=result)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
