"""bvfact benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the repository root.  One workload runs in this single-threaded
process: set-up (imports plus building the inputs from the seed, made again
in two fresh interpreters one after the other, for the median), then whole
rounds of the workload's operations until the next round would end after S
seconds (at least one round).  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  `--workload all` runs every workload in its own
child process, one after the other, and prints a table of every metric.

The program is imported from `src/` of the checkout holding this file;
without it the runner exits with code 2 and prints no result.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("exact-algebra", "oscillator", "renormalization",
                  "multilocal")
SETUP_REPEATS = 3

END_TO_END = [("wall_s", "s"), ("op_p50_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("symexpr.qi_mul_ns", "ns"),
    ("symexpr.expr_mul.calls", "count"), ("symexpr.expr_mul.self_s", "s"),
    ("symexpr.dright.calls", "count"), ("symexpr.dright.self_s", "s"),
    ("symexpr.series_mul.calls", "count"), ("symexpr.series_mul.self_s", "s"),
    ("jetcalc.total_derivative.calls", "count"),
    ("jetcalc.total_derivative.self_s", "s"),
    ("jetcalc.euler_lagrange_density.calls", "count"),
    ("jetcalc.euler_lagrange_density.self_s", "s"),
    ("jetcalc.homotopy_primitive.calls", "count"),
    ("jetcalc.homotopy_primitive.self_s", "s"),
    ("bvalg.antibracket_density.calls", "count"),
    ("bvalg.antibracket_density.self_s", "s"),
    ("bvalg.check_cme.self_s", "s"),
    ("region.bump_evals", "count"), ("region.bump_eval.self_s", "s"),
    ("region.mollifier_eval_us", "us"),
    ("region.partition_of_unity.self_s", "s"),
    ("region.is_weiss_cover.self_s", "s"),
    ("mloc.weiss_decompose.self_s", "s"), ("mloc.piece_terms", "count"),
    ("freeq.pair_kernel.calls", "count"), ("freeq.pair_kernel.self_s", "s"),
    ("freeq.kernel_evals", "count"),
    ("freeq.eval_diagram.calls", "count"),
    ("freeq.eval_diagram.self_s", "s"),
    ("freeq.eval_diagram_2v_ms", "ms"), ("freeq.eval_diagram_3v_ms", "ms"),
    ("freeq.star.self_s", "s"), ("freeq.tprod.self_s", "s"),
    ("freeq.diagrams_built", "count"), ("freeq.result_terms", "count"),
    ("egren.extended_pair.calls", "count"),
    ("egren.extended_pair.self_s", "s"),
    ("egren.time_order_apply.calls", "count"),
    ("egren.time_order_apply.self_s", "s"),
    ("egren.scaling_degree.self_s", "s"),
    ("qbv.interacting_bv.calls", "count"), ("qbv.interacting_bv.self_s", "s"),
    ("qbv.check_qme.self_s", "s"),
    ("quadrature.calls", "count"), ("quadrature.integrand_evals", "count"),
    ("quadrature.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.unattributed_share", "1"),
]

# per-layer metric names that differ from the tracer's aggregate key
_ALIASES = {"region.bump_evals": "region.bump_eval.calls"}


class SourceMissing(RuntimeError):
    pass


def setup(workload, seed, repeats=SETUP_REPEATS):
    """Import bvfact from this checkout and build the inputs.  Returns the
    operations and the set-up time: the median over this process's set-up
    and `repeats - 1` more in fresh interpreters, run one after the other.
    Imports dominate set-up, and one process can import only once."""
    t0 = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "bvfact")):
        raise SourceMissing("no bvfact package under %s" % SRC)
    sys.path.insert(0, SRC)
    import bvfact
    if os.path.dirname(os.path.dirname(os.path.abspath(bvfact.__file__))) \
            != SRC:
        raise SourceMissing("bvfact imported from %s, not from %s"
                            % (bvfact.__file__, SRC))
    import workloads
    ops = workloads.WORKLOADS[workload](random.Random(seed))
    times = [time.perf_counter() - t0]
    code = ("import random, sys, time\n"
            "t0 = time.perf_counter()\n"
            "sys.path[:0] = [%r, %r]\n"
            "import bvfact, workloads\n"
            "workloads.WORKLOADS[%r](random.Random(%d))\n"
            "print(time.perf_counter() - t0)\n" % (SRC, HERE, workload, seed))
    for _ in range(repeats - 1):
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                               stdout=subprocess.PIPE, text=True, check=True,
                               timeout=120)
        times.append(float(child.stdout.split()[-1]))
    return ops, statistics.median(times)


def measure(ops, seconds, tracer=None):
    """Run whole rounds of `ops`; returns (rounds, attempted, failed,
    wrong).  Each round is (op durations, tracer aggregate deltas)."""
    rounds = []
    attempted = failed = 0
    wrong = []
    reported = set()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        before = tracer.snapshot() if tracer else None
        durations = []
        for op in ops:
            error = None
            if tracer:
                tracer.enter("op", op.name)
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # reported below; the round goes on
                result, error = None, traceback.format_exc()
            durations.append(time.perf_counter() - t0)
            if tracer:
                tracer.exit()
            attempted += 1
            if error is None:
                try:
                    ok = bool(op.check(result))
                except Exception:  # a check that cannot judge the result
                    ok, error = False, traceback.format_exc()
            else:
                ok = False
            if not ok:
                failed += 1
                if op.known_fault is None:
                    wrong.append(op.name)
                if op.name not in reported:
                    reported.add(op.name)
                    print("FAILED %s: %s" % (op.name, error or op.known_fault
                                             or "check did not hold"),
                          file=sys.stderr)
        delta = None
        if tracer:
            after = tracer.snapshot()
            delta = {k: v - before.get(k, 0) for k, v in after.items()}
        rounds.append((durations, delta))
        last = time.perf_counter() - round_start
        if time.perf_counter() - start + last > seconds:
            break
    return rounds, attempted, failed, wrong


def single_call_metrics():
    """Median times of single calls, with no probes installed."""
    from fractions import Fraction
    from bvfact.freeq import (OscillatorModel, eval_diagram, field_obs,
                              peierls, tprod)
    from bvfact.numfields import Poly1D
    from bvfact.region import mollifier
    from bvfact.symexpr import QI

    def per_call(fn, calls, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append((time.perf_counter() - t0) / calls)
        return statistics.median(times)

    a = QI(Fraction(3, 7), Fraction(-2, 5))
    b = QI(Fraction(-5, 11), Fraction(4, 9))
    m = mollifier(0, Fraction(1, 2))
    model = OscillatorModel(1.0)
    field = {"u": Poly1D([0.7, 0.1])}
    f, g, h = (mollifier(c, Fraction(1, 2)) for c in (2, 0, Fraction(7, 2)))
    (d2, _), = peierls(field_obs(f), field_obs(g)).terms.values()
    d3 = next(d for d, _ in tprod(field_obs(f) * field_obs(h),
                                  field_obs(g)).terms.values() if d.edges)
    return {
        "symexpr.qi_mul_ns": per_call(lambda: a * b, 2000) * 1e9,
        "region.mollifier_eval_us": per_call(lambda: m(0.1234), 2000) * 1e6,
        "freeq.eval_diagram_2v_ms":
            per_call(lambda: eval_diagram(d2, model, field, tol=1e-6), 1, 3)
            * 1e3,
        "freeq.eval_diagram_3v_ms":
            per_call(lambda: eval_diagram(d3, model, field, tol=1e-3), 1, 1)
            * 1e3,
    }


def layer_metrics(rounds, single):
    out = {}
    deltas = [d for _, d in rounds]
    for name, unit in PER_LAYER:
        if name in single:
            value = single[name]
        elif name == "trace.wall_s":
            value = statistics.median(sum(durs) for durs, _ in rounds)
        elif name == "trace.unattributed_share":
            value = statistics.median(d.get("op.self_s", 0.0) / sum(durs)
                                      for durs, d in rounds)
        else:
            key = _ALIASES.get(name, name)
            value = statistics.median(d.get(key, 0) for d in deltas)
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(tracer, workload, seed):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": tracer.spans}, fh)
    return path


def run_one(args):
    try:
        # set-up time is not reported with tracing, so it is made once
        ops, setup_s = setup(args.workload, args.seed,
                             1 if args.trace else SETUP_REPEATS)
    except (SourceMissing, ImportError) as e:
        print("bench: cannot load bvfact: %s" % e, file=sys.stderr)
        return 2
    tracer = uninstall = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    try:
        rounds, attempted, failed, wrong = measure(ops, args.seconds, tracer)
    finally:
        if uninstall:
            uninstall()
    if args.trace:
        metrics = layer_metrics(rounds, single_call_metrics())
        print("spans written to %s" % write_spans(tracer, args.workload,
                                                   args.seed))
    else:
        # Medians over the rounds: a fastest time catches the machine's rare
        # fast moments, which come and go from run to run.
        typical = [statistics.median(times)
                   for times in zip(*(durs for durs, _ in rounds))]
        values = {
            "wall_s": statistics.median(sum(durs) for durs, _ in rounds),
            "op_p50_s": statistics.median(typical),
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print("%s: %d rounds of %d operations" % (args.workload, len(rounds),
                                              len(ops)))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own child process; prints a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("bench: workload %s exited with %d"
                  % (name, proc.returncode), file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print("%-16s correct=%s attempted=%d failed=%d"
              % (name, res["correct"], res["attempted"], res["failed"]))
        for metric, v in res["metrics"].items():
            print("  %-40s %14.6g %s" % (metric, v["value"], v["unit"]))
            combined["metrics"]["%s.%s" % (name, metric)] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
