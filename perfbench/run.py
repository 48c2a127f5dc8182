"""invcurve benchmark: one process, one thread, three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload compare-battery --seed 1729 --seconds 30 --trace 0

Workloads (see workloads.py), each visiting the battery maps in turn, one
caller, the next operation starting when the previous one returns:

* compare-battery: `invcurve compare` through `cli.main`, one battery map per
  operation; the graph-transform push loop dominates.
* conj-orders: `parameterize_manifold` and `graph_invariance_check` at orders
  10 and 12 for one map per operation; dict-based series products dominate.
* certify: invariance residual, shadowing pairs, orbit and repulsion checks
  of one curve solved in set-up; scalar map evaluation dominates.

The battery is CANON, PERT(c=0.1) and ten random maps drawn from --seed; seed
1729 is the acceptance battery.  Every operation is checked against the
acceptance bounds and counts as failed if it raises, exits non-zero or
breaks one.

Timings are CPU seconds (time.process_time), so they leave out the time the
hypervisor gives this CPU to other guests (steal time); the program is
single-threaded and does no waiting of its own.  Even so, on a shared host
the same operation takes up to 1.8x more CPU time for minutes at a time,
more than any usable bound.  So a fixed reference workload (reference.py,
of the kind the workload names) runs before the first operation and after
each untraced one, and each operation's CPU time is divided by the mean of
the two reference times around it: its latency in units of the reference
("ref").  Set-up steps are bracketed the same way.  Per-layer span times (--trace 1) are wall-clock.

End-to-end metrics (--trace 0):

* setup_s: median of three fresh-interpreter imports of the package plus
  median of three set-ups (battery, spec files, and for certify the solves),
  each in reference units, times reference.NOMINAL_S: the set-up time in
  seconds on a host where one reference call takes NOMINAL_S;
* op_ref.p50: median operation latency in reference units;
* peak_rss_mb: peak resident set size of the process.

Printed beside them: the operation count, ops_failed_frac, the set-up and
operation CPU times in seconds (setup_cpu_s, ops_per_s, op_s.p50), the
median reference time, op_s.tail and op_ref.tail (the highest percentile
with at least ten samples beyond it, with its count), the accuracy figures
against their bounds, and the run environment.  Throughput is not gated:
with one caller it is the reciprocal of the mean latency, and a run of
compare-battery holds five to eight operations of a twelve-map pass, so
whether the cheap CANON and PERT maps fall inside it moves the mean by
about 10 %.

With --trace 1 each operation runs twice, untraced and traced (alternating
which goes first); the per-layer metrics come from the traced copies and the
tracing overhead is the traced minus the untraced CPU time of the same
operations.  Host contention moves single operations by about 10 %, more
than the overhead, so it is only readable from runs with many operations.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A report with every figure
and, when traced, the per-span table goes to perfbench/_out/report-*.json;
the spans themselves go to perfbench/_out/spans-*.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("compare-battery", "conj-orders", "certify")

END_TO_END = [
    ("setup_s", "s"),
    ("op_ref.p50", "ref"),
    ("peak_rss_mb", "MB"),
]


def _load_package() -> None:
    """Import invcurve from this checkout's src/, or exit without a result."""
    if not (SRC / "invcurve" / "__init__.py").is_file():
        print(f"perfbench: no invcurve package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import invcurve

    if Path(invcurve.__file__).resolve().parent != SRC / "invcurve":
        print(f"perfbench: imported invcurve from {invcurve.__file__}", file=sys.stderr)
        sys.exit(2)


# Imports the package the way a fresh CLI process does, then times the
# reference in the same process (after one untimed call that warms it up);
# prints both CPU times.
IMPORT_PROBE = (
    "import sys, time; t0 = time.process_time(); sys.path.insert(0, sys.argv[1]); "
    "import invcurve.cli; t = time.process_time() - t0; sys.path.insert(0, sys.argv[2]); "
    "from reference import reference_seconds; reference_seconds(sys.argv[3]); "
    "print(t, reference_seconds(sys.argv[3], 4))"
)


def _import_cost(kind: str) -> tuple[float, float]:
    """CPU seconds a fresh interpreter spends importing the package and its CLI,
    and the same in units of the `kind` reference."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE), kind],
        capture_output=True, text=True, check=True, timeout=120,
    )
    secs, ref = (float(v) for v in done.stdout.split())
    return secs, secs / ref


def _tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return {"percentile": None, "value": None, "beyond": 0, "samples": n}
    ordered = sorted(samples)
    value = ordered[n - 11]
    return {
        "percentile": round(100.0 * (n - 10) / n, 1),
        "value": value,
        "beyond": sum(1 for s in ordered if s > value),
        "samples": n,
    }


def _environment(args, np, scipy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pinning": {v: os.environ[v] for v in THREAD_VARS},
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Operation counts, failures and the worst accuracy figures of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.acc: dict[str, float] = {}

    def add(self, chk) -> None:
        self.attempted += 1
        for name, val in chk.acc.items():
            self.acc[name] = max(self.acc.get(name, val), val)
        if chk.failure is not None:
            self.failures.append(chk.failure)


def _run_op(W, wl, state, item, tally, tracer=None):
    """One timed operation and its gate; returns the operation's CPU seconds.

    `W` is the workloads module, imported once the package is on the path.
    """
    marks = {k: len(v) for k, v in tracer.records.items()} if tracer else {}
    raw, chk = None, None
    if tracer is not None:
        tracer.install(W.TRACE_HOOKS)
        span = tracer.open("op")
    t0 = time.process_time()
    try:
        raw = wl.op(state, item)
    except Exception as exc:  # any error fails the operation, not the run
        chk = W.Check()
        chk.fail(f"{type(exc).__name__}: {exc}")
    finally:
        secs = time.process_time() - t0
        if tracer is not None:
            tracer.close(span)
            tracer.uninstall()
    if chk is None:
        chk = wl.check(state, item, raw)
        if tracer is not None:
            W.check_traced(chk, tracer.records, marks)
    tally.add(chk)
    return secs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS and OpenMP pools are pinned to one thread before numpy loads them.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _load_package()
    import numpy as np
    import scipy

    import workloads as W
    from reference import NOMINAL_S, reference_after, reference_seconds
    from tracing import Tracer

    wl = W.WORKLOADS[args.workload]
    env = _environment(args, np, scipy)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        import_times, import_refs, setup_times, setup_refs = [], [], [], []
        for _ in range(SETUP_REPEATS):
            secs, ref = _import_cost(wl.reference)
            import_times.append(secs)
            import_refs.append(ref)
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            before = reference_seconds(wl.reference)
            t0 = time.process_time()
            state = wl.setup(args.seed, workdir)
            setup_times.append(time.process_time() - t0)
            after = reference_after(wl.reference, setup_times[-1])
            setup_refs.append(setup_times[-1] / (0.5 * (before + after)))
        tally = Tally()
        for name, val in state.get("setup_acc", {}).items():
            tally.acc[name] = val

        tracer = Tracer() if args.trace else None
        op_times, traced_times = [], []
        # ref_times[i] and ref_times[i + 1] bracket the untraced op_times[i]
        ref_times = [reference_seconds(wl.reference)]
        k = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            item = W.OP_ORDER[k % len(W.OP_ORDER)]
            k += 1
            if tracer is not None and k % 2 == 0:
                # alternate which copy runs first so warm-up effects cancel
                traced_times.append(_run_op(W, wl, state, item, tally, tracer))
            op_times.append(_run_op(W, wl, state, item, tally))
            ref_times.append(reference_after(wl.reference, op_times[-1]))
            if tracer is not None and k % 2 == 1:
                traced_times.append(_run_op(W, wl, state, item, tally, tracer))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_refs = [t / (0.5 * (a + b)) for t, a, b in zip(op_times, ref_times, ref_times[1:])]
    e2e = {
        "setup_s": NOMINAL_S * (statistics.median(import_refs) + statistics.median(setup_refs)),
        "op_ref.p50": statistics.median(op_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = len(tally.failures)
    extra = {
        "ops": len(op_times),
        "ops_per_s": len(op_times) / sum(op_times),
        "op_s.p50": statistics.median(op_times),
        "ref_s.p50": statistics.median(ref_times),
        "op_ref.tail": _tail(op_refs),
        "ops_failed_frac": failed / tally.attempted,
        "op_s.tail": _tail(op_times),
        "setup_cpu_s": statistics.median(import_times) + statistics.median(setup_times),
        "import_runs_s": import_times,
        "setup_runs_s": setup_times,
        "op_s": op_times,
        "ref_s": ref_times,
    }
    if "order_s" in state:
        extra["op_s.p50_by_order"] = {
            str(n): statistics.median(v) for n, v in state["order_s"].items()
        }

    report = {"environment": env, "end_to_end": e2e, "extra": extra, "accuracy": tally.acc}
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if tracer is not None:
        overhead_s = sum(traced_times) - sum(op_times)
        summary = tracer.summary()
        layers = W.layer_metrics(
            summary, tracer.records, len(traced_times), overhead_s / sum(op_times)
        )
        report["per_layer"] = layers
        report["tracing"] = {
            "overhead_s": overhead_s,
            "untraced_s": sum(op_times),
            "traced_s": sum(traced_times),
            "spans": len(summary.dur),
        }
        report["spans"] = [
            {"name": n, "calls": c, "total_s": t, "self_s": s} for n, c, t, s in summary.table()
        ]
        tracer.dump(OUT / f"spans-{args.workload}.npz")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in W.PER_LAYER}
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    _print_report(report, END_TO_END, W.PER_LAYER, W.ACCURACY, tally)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _print_report(report, end_to_end, per_layer, accuracy, tally) -> None:
    env, e2e, extra = report["environment"], report["end_to_end"], report["extra"]
    print(f"# perfbench {env['workload']} seed={env['seed']} seconds={env['seconds']}"
          f" trace={env['trace']}")
    for key, val in env.items():
        print(f"env.{key} = {val}")
    for name, unit in end_to_end:
        print(f"{name} = {e2e[name]:.6g} {unit}")
    print(f"ops = {extra['ops']} count (attempted {tally.attempted}, failed {len(tally.failures)})")
    print(f"setup_cpu_s = {extra['setup_cpu_s']:.6g} s")
    print(f"ops_per_s = {extra['ops_per_s']:.6g} 1/s")
    print(f"op_s.p50 = {extra['op_s.p50']:.6g} s")
    print(f"ref_s.p50 = {extra['ref_s.p50']:.6g} s (per call, {len(extra['ref_s'])} samples)")
    print(f"ops_failed_frac = {extra['ops_failed_frac']:.6g} ratio")
    for name, unit in (("op_s.tail", "s"), ("op_ref.tail", "ref")):
        tail = extra[name]
        if tail["percentile"] is None:
            print(f"{name} = n/a {unit} (needs 11 samples, have {tail['samples']})")
        else:
            print(f"{name} = {tail['value']:.6g} {unit} (p{tail['percentile']}, {tail['beyond']}"
                  f" of {tail['samples']} samples beyond)")
    for n, val in extra.get("op_s.p50_by_order", {}).items():
        print(f"op_s.p50.order{n} = {val:.6g} s")
    for name, (unit, limit) in accuracy.items():
        bound = "none" if limit is None else f"<= {limit:g}"
        if name in report["accuracy"]:
            print(f"{name} = {report['accuracy'][name]:.3e} {unit} (bound {bound})")
        else:
            print(f"{name} = n/a {unit} (not measured on this workload)")
    for reason in sorted(set(tally.failures)):
        print(f"FAILED: {reason}")
    if "per_layer" in report:
        for name, unit in per_layer:
            print(f"{name} = {report['per_layer'][name]:.6g} {unit}")
        tr = report["tracing"]
        print(f"trace.overhead_s = {tr['overhead_s']:.6g} s (traced {tr['traced_s']:.6g} s"
              f" - untraced {tr['untraced_s']:.6g} s, {tr['spans']} spans)")


if __name__ == "__main__":
    sys.exit(main())
