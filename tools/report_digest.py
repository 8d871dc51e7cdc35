#!/usr/bin/env python3
"""SHA-256 of evaluate's report on each corpus of one benchmark workload.

Run from the repository root:

    python3 tools/report_digest.py --workload geo-kernel --seed 7

For each corpus of the workload at this seed, the corpus is built,
fitted, saved and reloaded exactly as bench/pipeline.py's Run does, with
the workload's BLAS thread count. evaluate then runs on it with and
without weight_by_rho, and one line per corpus prints the digests of the
two report JSONs. A change that must leave reports byte-identical shows
the same lines at both checkouts.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

# neither imports numpy, so the BLAS thread count can still be set
import run as bench_run
from workloads import CORPORA, WORKLOADS, corpus_seed


def digest(report):
    return hashlib.sha256(report.to_json().encode("ascii")).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    bench_run.limit_blas_threads(workload.blas_threads)
    import pipeline

    vc = pipeline.vc
    run = pipeline.Run(workload, args.seed)
    for corpus in range(CORPORA):
        seed = corpus_seed(args.seed, corpus)
        venues, train, test = run.load_corpus(seed)
        model, index = run.store(run.fit(train, seed), venues)
        digests = [
            digest(vc.evaluate(model, index, test, geo_radius_km=workload.geo_radius_km, weight_by_rho=w))
            for w in (False, True)
        ]
        print(f"corpus {corpus} seed {seed}: plain {digests[0]} weight_by_rho {digests[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
