"""Benchmark for ppgf.

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
        runs every workload, one after another, each in a fresh process,
        and prints every metric with its unit and each workload's
        fail_ratio (failed over attempted operations);

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        runs one workload in this process and prints its result as one
        JSON object on the last line of standard output.

A run imports ppgf from ./src and generates the inputs several times
(setup_s is the median), then issues the workload's operations one at a
time, in whole passes over its fixed operation list, for about --seconds
seconds: it starts another pass only if the previous one predicts that it
ends in time, and always runs at least one.  Every output is then checked
against perfbench/checker.py, outside the timed region.

--trace 0 reports the end-to-end metrics.  Their times are in reference
units (perfbench/refclock.py): multiples of a fixed Python loop's duration
at the host's speed of the moment, which keeps them comparable on a host
whose speed drifts.  The same times in seconds are printed on the line
before the JSON.  wall_ref is the median time of a pass; op_p50_ref and
op_tail_ref are the median and the tail (the highest percentile with at
least ten operations beyond it) over the operations, each taken at its
median over the passes.

--trace 1 runs plain passes for the first half of the window and traced
ones (perfbench/layertrace.py) for the second, prints a table of every
traced function's calls and self seconds per pass, and reports the
per-layer metrics plus trace.overhead_ratio, the traced over the plain
median pass time.  It fails if a function the workload must reach records
no calls.

--smoke shrinks every workload to a few small operations, for tests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from layertrace import LAYERS, Tracer  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
REPEATS = 5
REPEAT_S = 0.5
DEFAULT_SECONDS = 20
MODULES = ("cli", "recurrence", "engine", "poset", "algebra", "oracle",
           "families")

END_TO_END = (("wall_ref", "ref"), ("op_p50_ref", "ref"), ("op_tail_ref", "ref"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Per-layer metrics of the traced run, per pass.  Call counts are exact
# and repeat from run to run.  Self times are reported only where they are
# nonzero on every workload; the traced run prints the others in its table.
CALLS = ("algebra.exact_div", "algebra.Polynomial.__mul__", "algebra.rf_sum",
         "algebra.Polynomial.substitute", "algebra.RationalFunction.series",
         "algebra.rf_eq", "engine.gfun", "engine.apply_deletion",
         "engine.apply_ple", "engine.gfun_at", "poset.Poset.delete",
         "poset.Poset.ple", "poset.Poset.removable_elements",
         "poset.Poset.antichains_of_size", "recurrence.discover_states",
         "recurrence.eliminate_prefix", "recurrence.RecurrenceSystem.evaluate",
         "recurrence.RecurrenceSystem.base_value", "oracle.truncated_gf",
         "cli.main")
SELF_TIMES = ("algebra", "engine", "poset", "algebra.exact_div",
              "algebra.Polynomial.__mul__", "algebra.rf_sum",
              "poset.Poset.delete", "poset.Poset.ple",
              "poset.Poset.removable_elements", "poset.Poset.antichains_of_size")


def setup(workload, seed, smoke):
    """Import ppgf afresh from the source tree and generate the inputs."""
    for name in [n for n in sys.modules if n == "ppgf" or n.startswith("ppgf.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    lib = SimpleNamespace(**{m: importlib.import_module("ppgf." + m)
                             for m in MODULES})
    ops = workload.make_ops(lib, seed, smoke)
    return time.perf_counter() - start, lib, ops


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten operations
    beyond it (p90 of 100, p95 of 200); the maximum of ten or fewer."""
    ordered = sorted(latencies)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def passes_check(op, out):
    """An exception or a malformed output fails like a wrong one."""
    try:
        return not isinstance(out, Exception) and bool(op.check(out))
    except Exception:
        return False


def run_passes(ops, seconds, clock, tracer=None, repeat=True):
    """Whole passes over ops for about `seconds`.

    Per pass: each operation's latency in seconds and in reference units
    of `clock`, the runs attempted and failed, and, when traced, the
    per-layer statistics of the operations (checks excluded).  With
    `repeat`, a pass runs each operation up to REPEATS times, until its
    runs reach REPEAT_S seconds, and takes the median run: a single run of
    a millisecond-scale operation varies by tens of percent.  Without it,
    each runs once, so that call counts are exact.

    Every output is checked right after its run, outside the timed
    region, and then dropped: outputs kept alive would fragment the heap
    and make the peak memory depend on the operation order.  Before every
    run the cyclic garbage collector runs, for the same reason and because
    the engine's memo lives in a reference cycle, so without it one
    operation's memo would be freed during a later one.
    """
    passes = []
    start = time.perf_counter()
    while True:
        stats = {}
        latencies, in_ref = [], []
        attempted = failed = 0
        pass_start = time.perf_counter()
        for op in ops:
            runs = []
            while not runs or (repeat and len(runs) < REPEATS
                               and sum(r[0] for r in runs) < REPEAT_S):
                gc.collect()
                before = tracer.snapshot() if tracer else None
                s0, u0 = clock.read()
                try:
                    out = op.run()
                except Exception as exc:  # counted as a failed run
                    out = exc
                s1, u1 = clock.read()
                if tracer:
                    for name, after in tracer.snapshot().items():
                        old = before.get(name, (0, 0, 0.0))
                        total = stats.get(name, (0, 0, 0.0))
                        stats[name] = tuple(t + a - b for t, a, b in zip(total, after, old))
                runs.append((s1 - s0, u1 - u0))
                attempted += 1
                failed += not passes_check(op, out)
                del out
            latencies.append(statistics.median(r[0] for r in runs))
            in_ref.append(statistics.median(r[1] for r in runs))
        passes.append(SimpleNamespace(latencies=latencies, in_ref=in_ref,
                                      attempted=attempted, failed=failed,
                                      stats=stats))
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return passes


def timings(passes, field):
    """(wall, op_p50, op_tail): the median pass total, and the median and
    tail over the operations of each one's median latency over passes."""
    per_pass = [getattr(p, field) for p in passes]
    per_op = [statistics.median(v) for v in zip(*per_pass)]
    return (statistics.median(sum(v) for v in per_pass),
            statistics.median(per_op), tail_latency(per_op))


def layer_table(traced):
    """name -> (calls, ok, self seconds) for every traced function and, under
    the bare layer name, each layer's total; counts from the first traced
    pass, self time the median over traced passes."""
    table = {}
    for name in traced[0].stats:
        rows = [p.stats[name] for p in traced]
        table[name] = (rows[0][0], rows[0][1],
                       statistics.median(r[2] for r in rows))
    for layer in LAYERS:
        rows = [v for k, v in table.items() if k.startswith(layer + ".")]
        table[layer] = (sum(r[0] for r in rows), 0, sum(r[2] for r in rows))
    return table


def per_layer_metrics(table):
    def value(name, i):
        return table.get(name, (0, 0, 0.0))[i]

    calls, ok = value("algebra.exact_div", 0), value("algebra.exact_div", 1)
    out = {"algebra.exact_div.ok": {"value": ok, "unit": "count"},
           "algebra.exact_div.ok_ratio": {"value": ok / calls if calls else 0.0,
                                          "unit": "ratio"}}
    for name in CALLS:
        out[name + ".calls"] = {"value": value(name, 0), "unit": "count"}
    for name in SELF_TIMES:
        out[name + ".self_s"] = {"value": value(name, 2), "unit": "s"}
    return out


def run_workload(name, seed, seconds, trace, smoke=False):
    workload = WORKLOADS[name]
    os.environ.pop("PPGF_CACHE_DIR", None)
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, lib, ops = setup(workload, seed, smoke)
        setups.append(elapsed)
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError("ppgf imported from %s, not from %s"
                           % (lib.cli.__file__, SRC))
    clock = RefClock()
    if trace:
        # single runs and no speed sampling: the sampling handler would run
        # inside traced calls and add to their self time
        plain = run_passes(ops, seconds / 2, clock, repeat=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, seconds / 2, clock, tracer, repeat=False)
        finally:
            tracer.uninstall()
        passes = plain + traced
    else:
        with clock:
            passes = run_passes(ops, seconds, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        table = layer_table(traced)
        print("%-48s %10s %12s" % ("per pass", "calls", "self_s"))
        for name, (calls, _, self_s) in sorted(table.items()):
            if calls:
                print("%-48s %10d %12.6f" % (name, calls, self_s))
        missing = [n for n in workload.exercises if not table.get(n, (0,))[0]]
        if missing:
            raise RuntimeError("traced run recorded no calls of %s" % ", ".join(missing))
        metrics = per_layer_metrics(table)
        ratio = (statistics.median(sum(p.latencies) for p in traced)
                 / statistics.median(sum(p.latencies) for p in plain))
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    else:
        raw = timings(passes, "latencies")
        print("seconds: wall %.6f, op_p50 %.6f, op_tail %.6f; reference loop %.6f"
              % (raw + (statistics.median(clock.samples),)))
        values = dict(zip(("wall_ref", "op_p50_ref", "op_tail_ref"),
                          timings(passes, "in_ref")))
        values["peak_rss_mb"] = peak_rss_mb
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed, seconds, trace):
    """Every workload in its own fresh process, one at a time."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError("workload %s exited with %d" % (name, proc.returncode))
        *lines, last = proc.stdout.strip().splitlines()
        results[name] = result = json.loads(last)
        print("%s: %d operations, %d failed, fail_ratio %.4f"
              % (name, result["attempted"], result["failed"],
                 result["failed"] / result["attempted"]))
        for line in lines:
            print("  " + line)
        for metric, m in result["metrics"].items():
            print("  %-44s %16.6g %s" % (metric, m["value"], m["unit"]))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ppgf" / "__init__.py").is_file():
        print("error: no ppgf source tree at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        results = run_all(args.seed, args.seconds, args.trace)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print("python %s, nproc %d" % (sys.version.split()[0], os.cpu_count()))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          smoke=args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
