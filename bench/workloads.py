"""The benchmark's workloads: inputs, method, BLAS threads and fits per round.

Imports nothing heavy, so run.py can set the BLAS thread count from the
workload before numpy is loaded.
"""

from dataclasses import dataclass

# Each run cycles its rounds over this many corpora, made from the run's
# seed by corpus_seed(); quality is their mean, which keeps one unlucky
# corpus from moving map and mrr1 by several percent.
CORPORA = 4


def corpus_seed(seed, corpus):
    """Seed of one corpus of a run; distinct for every (seed, corpus)."""
    return seed * CORPORA + corpus


@dataclass(frozen=True)
class Workload:
    method: str
    n_venues: int
    extra_photo_ratio: float
    geo_radius_km: float = None
    # None means nproc. One thread where the matrices are small: a second
    # thread buys nothing there and makes millisecond calls bimodal.
    blas_threads: int = 1
    fit_reps: int = 1


WORKLOADS = {
    # 1000 venues x 10 photos: 2250 training pairs, 7750 queries, no filter.
    # The fit takes about a millisecond, so it repeats within a round; the
    # round is mostly full-pool ranking, the metric suite and dataio set-up.
    "exact-search": Workload(method="c-cca", n_venues=1000, extra_photo_ratio=0.2, fit_reps=25),
    # 444 venues, 6 of 10 photos train: 1998 pairs, 2442 queries, 1 km
    # filter. The exact dual solver's n x n Gram, eigh and SVD dominate
    # the fit; each query is a kernel column against every training pair.
    "geo-kernel": Workload(
        method="c-kcca", n_venues=444, extra_photo_ratio=0.6, geo_radius_km=1.0, blas_threads=None
    ),
    # The default corpus (450 pairs, 1550 queries) through (256, 256) tanh
    # networks with dropout 0.5 for a fixed 40 epochs of 5 batches.
    "deep-train": Workload(method="c-dcca", n_venues=200, extra_photo_ratio=0.2),
}
