#!/usr/bin/env python3
"""Benchmark for venuecca: one workload, end to end or traced, in this process.

Run from the repository root:

    python3 bench/run.py --workload exact-search --seed 1 --seconds 25 --trace 0

Workloads: exact-search, geo-kernel, deep-train (see bench/README.md).
The seed makes the workload's inputs; the program only sees those inputs.
--trace 0 reports the end-to-end metrics, --trace 1 wraps the package's
public functions in spans and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A failed output check, a failed operation
or an exception that ends the run prints that object with correct false
and exits with status 1.
"""

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("eval_qps", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("map", "1"),
    ("mrr1", "1"),
    ("peak_rss_mb", "MB"),
    ("model_bytes", "bytes"),
)
# Stage figures of the traced run; set against the end-to-end ones they
# give the tracing overhead.
TRACED = (
    ("traced.setup_s", "setup_s", "s"),
    ("traced.train_s", "train_s", "s"),
    ("traced.eval_qps", "eval_qps", "queries/s"),
    ("traced.query_p50_ms", "query_p50_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser, parser.parse_args(argv)


def limit_blas_threads(wanted):
    """Set the BLAS thread count: ``wanted`` (None for nproc), never more
    than nproc or than the environment asks. Must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc if wanted is None else min(wanted, nproc)
    for var in BLAS_ENV:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def main(argv=None):
    parser, args = parse_args(argv)
    if not (ROOT / "src" / "venuecca").is_dir():
        parser.error(f"no venuecca sources under {ROOT / 'src'}; run from a repository checkout")
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    threads = limit_blas_threads(workload.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import pipeline
    import tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, pipeline.vc)
    run = pipeline.Run(workload, args.seed, tracer)
    measured = {}
    try:
        measured = run.execute(args.seconds)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
    correct = bool(measured) and run.failed == 0

    if args.trace:
        units = [(m, u) for m, u, *_ in tracing.LAYER_METRICS]
        units += [("dataio.files_written", "count")]
        units += [(m, "1") for m, _ in tracing.COVERAGE_METRICS]
        metrics = {m: {"value": measured.get(m, float("nan")), "unit": u} for m, u in units}
        for name, source, unit in TRACED:
            metrics[name] = {"value": measured.get(source, float("nan")), "unit": unit}
    else:
        metrics = {m: {"value": measured.get(m, float("nan")), "unit": u} for m, u in END_TO_END}

    record = pipeline.machine_record(threads)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(run.per_round), measured_s=run.measured_s)
    print("record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    write_outputs(args, record, run, result)
    print(json.dumps(result))
    return 0 if correct else 1


def write_outputs(args, record, run, result):
    """Keep the run's record, per-round figures and last round of spans."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "rounds": run.per_round, "result": result}, fh, indent=1)
        fh.write("\n")
    if run.last_spans:
        with open(RESULTS / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for name, stage, start, end, parent, value, error in run.last_spans:
                fh.write(json.dumps({"name": name, "stage": stage, "start": start, "end": end,
                                     "parent": parent, "value": value, "error": error}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
