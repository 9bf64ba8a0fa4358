"""Run one benchmark workload against the hoselm sources of this checkout.

    python3 perfbench/run.py --workload batch_plus --seed 1 --seconds 20 --trace 0

--trace 0 measures untraced and reports the end-to-end metrics.  --trace 1
spends half of --seconds untraced, repeats the same cycles traced, reports
the per-layer metrics and writes the spans under perfbench/out/.  Each
metric is printed on its own line with its unit and sample count; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every library
call and every correctness check passed.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Give BLAS a single thread; must run before numpy loads.

    On the 2-vCPU reference machine each virtual CPU drifts between a fast
    and a slow state.  A two-thread BLAS call waits for the slower one: the
    stream's boot fit then spread 0.43 of its median between runs, against
    0.04 with one thread.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    return BLAS_THREADS


def load_library():
    if not (SRC / "hoselm" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no hoselm package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def machine(threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def call_seconds(samples):
    """Time spent inside library calls: fits plus serving steps."""
    return sum(samples.fit) + sum(samples.step)


def end_to_end(spec, samples, setup, mpcr):
    """Metric values and the note printed beside each.

    The p99 latencies are printed for information only: on the 2-vCPU
    reference machine their spread between runs exceeded any bound the
    benchmark may set, so the gated tail metric is p90.
    """
    n_pred, n_step, n_pass = len(samples.predict), len(samples.step), len(samples.passes)
    predict_rate = statistics.median(cols / p for cols, p, _ in samples.passes)
    step_rate = statistics.median(cols / s for cols, _, s in samples.passes)
    for name, values in (("predict", samples.predict), ("step", samples.step)):
        p99 = 1e3 * percentile(values, 99)
        print(f"info {name}_p99_ms = {p99:.6g} ms (n={len(values)}, not gated)")
    return {
        "setup_s": (
            statistics.median(setup),
            "s",
            f"median of {len(setup)}, cold {setup[0]:.4f} s",
        ),
        "fit_s": (statistics.median(samples.fit), "s", f"median of n={len(samples.fit)}"),
        "predict_p50_ms": (1e3 * statistics.median(samples.predict), "ms", f"n={n_pred}"),
        "predict_p90_ms": (1e3 * percentile(samples.predict, 90), "ms", f"n={n_pred}"),
        "predict_cols_per_s": (predict_rate, "1/s", f"median of {n_pass} passes"),
        "step_p50_ms": (1e3 * statistics.median(samples.step), "ms", f"n={n_step}"),
        "step_p90_ms": (1e3 * percentile(samples.step, 90), "ms", f"n={n_step}"),
        "step_cols_per_s": (step_rate, "1/s", f"median of {n_pass} passes"),
        "mpcr": (mpcr, "ratio", "held-out" if spec.mode == "batch" else "prequential"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
            "this process",
        ),
    }


def per_layer(spec, spans, plain, traced, cycles):
    """Per-layer metric values and notes; prints each root's self-time split."""
    import tracing

    notes, shares, calls, self_sum = tracing.summarize(spans, spec.classifier_nodes)
    traced_s = call_seconds(traced)
    overhead = 100.0 * (traced_s / call_seconds(plain) - 1.0)
    notes["trace.overhead_pct"] = (overhead, "%", f"{cycles} cycles untraced, then traced")
    for root, by_layer in shares.items():
        root_s = sum(by_layer.values())
        if root_s:
            parts = ", ".join(
                f"{name} {100 * s / root_s:.1f}%"
                for name, s in sorted(by_layer.items(), key=lambda kv: -kv[1])
            )
            print(f"self time under {root} (n={calls[root]}, {root_s:.3f} s): {parts}")
    print(
        f"self times sum to {self_sum:.3f} s of {traced_s:.3f} s traced call time "
        f"({100 * self_sum / traced_s:.1f}%)"
    )
    return notes


def write_spans(path, spans):
    import tracing

    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": tracing.FIELDS}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, specs=None):
    threads = pin_blas_threads()
    load_library()
    import tracing
    import workloads as wl

    specs = specs or wl.WORKLOADS
    args = parse_args(argv, specs)
    spec = specs[args.workload]
    info = machine(threads)
    print("machine", json.dumps(info, sort_keys=True))

    ledger = wl.Ledger()
    ref = wl.Reference()
    setup = []
    notes = {}
    metrics = {}
    spans = None
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = wl.warm_up(spec, args.seed, ref, ledger)
            setup.append(time.perf_counter() - start)
        if args.trace:
            plain, cycles = wl.measure(spec, inputs, ref, ledger, seconds=args.seconds / 2)
            with tracing.Tracer() as tracer:
                traced, _ = wl.measure(spec, inputs, ref, ledger, cycles=cycles)
            wl.final_checks(spec, inputs, ref, ledger)
            spans = tracer.spans
            notes = per_layer(spec, spans, plain, traced, cycles)
        else:
            samples, _ = wl.measure(spec, inputs, ref, ledger, seconds=args.seconds)
            mpcr = wl.final_checks(spec, inputs, ref, ledger)
            notes = end_to_end(spec, samples, setup, mpcr)
    except wl.WorkloadError as exc:
        # Counted in the ledger; a failed run reports no metrics.
        traceback.print_exception(exc.__cause__, file=sys.stderr)

    for name, (value, unit, note) in notes.items():
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit} ({note})")
    for problem in ledger.problems:
        print("FAILED", problem)
    correct = ledger.failed == 0 and bool(metrics)
    print(
        f"error_rate = {ledger.failed / max(ledger.attempted, 1):.6g} "
        f"({ledger.failed} failed of {ledger.attempted} calls and checks)"
    )

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": info,
        "setup_cold_s": setup[0] if setup else None,
        "setup_warm_s": setup[1:],
        "correct": correct,
        "problems": ledger.problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        write_spans(OUT / f"{stem}.spans.jsonl.gz", spans)

    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
