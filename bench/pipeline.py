"""The round that takes one workload through the whole pipeline.

A round works on one corpus and is, in order:

* set-up, data: synth -> write -> load -> pair, SETUP_REPS times;
* train: fit the workload's method on the training pairs, ``fit_reps``
  times (each fit is one operation);
* set-up, store: save and load the model, build, save and load the
  index, SETUP_REPS times;
* stream: a closed loop, one client, of STREAM_QUERIES single-photo
  ``rank_venues`` calls, cycling over the held-out photos (the
  ``venuecca retrieve`` path; each query is one operation);
* eval: ``evaluate`` over every held-out photo, metric suite included
  (each query is one operation).

A run is one untimed warm-up round on corpus 0; then timed rounds,
cycling over the run's corpora, until every corpus has had a round and
the run's seconds are spent. Every stream ranking is checked against a
brute-force ranker as it arrives. The first round on a corpus (the
warm-up, for corpus 0) also ranks and checks the held-out photos the
stream did not reach, tallies MRR1 and MAP by a plain loop over the
rankings of every held-out photo and checks evaluate's report against
the tally; that extra ranking is left out of the run's seconds. Every
later report on the corpus must equal the first.

A step the round cannot go on without (data set-up, fit, store) that
raises counts as one failed operation and ends the run.

Timings are medians of per-round values, the query latency percentiles
pool the streams of every timed round, and map and mrr1 are means over
the corpora.
"""

import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import numpy as np
import scipy

import venuecca as vc

import checks
import memfs
import tracing
from workloads import CORPORA, corpus_seed

K = 10
RIDGE = 1e-4
BETA = 0.3
# Data and store set-ups take milliseconds; each round repeats them and
# keeps the median.
SETUP_REPS = 3
# Latency tails come in bursts from the machine; a long stream samples enough
# of them for p99 to repeat from run to run.
STREAM_QUERIES = 4000
DEEP_EPOCHS = 40
DEEP_BATCH = 100


def deep_config(seed):
    # tol=-inf switches early stopping off, so every run takes the same steps.
    return vc.TrainConfig(
        learning_rate=1e-3,
        batch_size=DEEP_BATCH,
        epochs=DEEP_EPOCHS,
        seed=seed,
        beta=BETA,
        k=K,
        r=RIDGE,
        hidden_sizes=(256, 256),
        dropout_rate=0.5,
        tol=-math.inf,
    )


class Run:
    """One workload at one seed, in this process."""

    def __init__(self, workload, seed, tracer=None):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.fs = memfs.MemFS()
        self.fs.install(vc.dataio)
        self.manifest = self.fs.path("data", "manifest.json")
        self.model_path = self.fs.path("model.vcca")
        self.index_path = self.fs.path("venues.vidx")
        self.attempted = 0
        self.failed = 0
        self.per_round = []
        self.last_spans = []
        self.measured_s = 0.0
        # Seconds spent ranking photos only to check a corpus's quality
        # figures; not counted against the run's seconds.
        self.check_s = 0.0

    # -- stages ------------------------------------------------------------

    def _stage(self, name):
        return self.tracer.stage(name) if self.tracer else nullcontext()

    def _timed(self, stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        with self._stage(stage):
            out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    def _fail(self, what, exc):
        self.failed += 1
        if self.failed == 1:
            print(f"first failure, {what}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def _vital(self, stage, fn, *args, counted=False):
        """Run a step the round cannot go on without; if it raises, count
        one failed operation (and one attempted, unless ``counted``) and
        let the exception end the run."""
        try:
            return self._timed(stage, fn, *args)
        except Exception as exc:
            self.attempted += not counted
            self._fail(stage, exc)
            raise

    def load_corpus(self, seed):
        venues = vc.synth_generate(vc.SynthConfig(n_venues=self.wl.n_venues, seed=seed))
        vc.write_dataset(venues, self.manifest)
        venues = vc.load_dataset(self.manifest)
        split = vc.SplitSpec(seed=seed, extra_photo_ratio=self.wl.extra_photo_ratio)
        train, test = vc.build_pairs(venues, split)
        return venues, train, test

    def fit(self, train, seed):
        if self.wl.method == "c-dcca":
            return vc.train_dcca(train, deep_config(seed))
        groups = vc.GroupIndex.from_labels(train.categories)
        if self.wl.method == "c-cca":
            return vc.fit_cca(train.X, train.Y, K, RIDGE, groups=groups, beta=BETA)
        return vc.fit_kcca(train.X, train.Y, K, RIDGE, groups=groups, beta=BETA)

    def store(self, model, venues):
        vc.save_model(model, self.model_path)
        model = vc.load_model(self.model_path)
        index = vc.build_index(model, venues)
        vc.save_index(index, self.index_path)
        return model, vc.load_index(self.index_path)

    def geo(self, test, i):
        if self.wl.geo_radius_km is None:
            return None
        lat, lon = test.coords[i]
        return vc.GeoFilter(lat=float(lat), lon=float(lon), radius_km=self.wl.geo_radius_km)

    def rank(self, model, index, test, i):
        """One query; returns its ranklist, or None when it failed."""
        self.attempted += 1
        try:
            return vc.rank_venues(test.X[:, i], model, index, geo=self.geo(test, i), query_id=str(i))
        except Exception as exc:
            self._fail(f"query {i}", exc)
            return None

    @staticmethod
    def check_query(ranker, ranklist, test, i, label, tally):
        """Check one ranking against the brute force; tally it if asked."""
        lat, lon = test.coords[i]
        ids, categories = ranker.check(ranklist, test.X[:, i], lat, lon, f"{label} query {i}")
        if tally is not None:
            tally.add(ids, categories, test.venue_ids[i], int(test.categories[i]))

    def stream(self, model, index, test, label, tally):
        """Closed loop, one client: each query starts when the last returns.

        The client checks each answer against the brute force before it
        sends the next query, and keeps none: held answers would make the
        collector's passes longer and show up in the latency tail. The
        first pass over the held-out photos goes to ``tally`` if one is
        given; the photos the stream does not reach are ranked after it,
        outside the latency figures and the run's seconds.
        """
        ranker = checks.BruteForceRanker(model, index, self.wl.geo_radius_km)
        latencies = []
        with self._stage("stream"):
            for k in range(STREAM_QUERIES):
                i = k % test.n
                t0 = time.perf_counter()
                ranklist = self.rank(model, index, test, i)
                if ranklist is not None:
                    latencies.append(time.perf_counter() - t0)
                    self.check_query(ranker, ranklist, test, i, f"{label} stream", tally if k < test.n else None)
        if tally is not None:
            t0 = time.perf_counter()
            for i in range(STREAM_QUERIES, test.n):
                ranklist = self.rank(model, index, test, i)
                if ranklist is not None:
                    self.check_query(ranker, ranklist, test, i, label, tally)
            self.check_s += time.perf_counter() - t0
        return latencies

    def evaluate(self, model, index, test):
        self.attempted += test.n
        try:
            return self._timed("eval", vc.evaluate, model, index, test, geo_radius_km=self.wl.geo_radius_km)
        except Exception as exc:
            self._fail("evaluate", exc)
            self.failed += test.n - 1
            return None, None

    # -- rounds ------------------------------------------------------------

    def round(self, corpus, tally=None):
        """One corpus through the pipeline. With a ``tally``, every held-
        out photo is ranked, checked and tallied, and the evaluate report
        is checked against the tally."""
        wl = self.wl
        seed = corpus_seed(self.seed, corpus)
        writes = self.fs.writes
        data_s = []
        for _ in range(SETUP_REPS):
            (venues, train, test), t = self._vital("setup", self.load_corpus, seed)
            data_s.append(t)
        files_written = (self.fs.writes - writes) / SETUP_REPS
        fit_s = []
        for _ in range(wl.fit_reps):
            self.attempted += 1
            fitted, t = self._vital("train", self.fit, train, seed, counted=True)
            fit_s.append(t)
        store_s = []
        for _ in range(SETUP_REPS):
            (model, index), t = self._vital("io", self.store, fitted, venues)
            store_s.append(t)
        latencies = self.stream(model, index, test, f"corpus {corpus}", tally)
        report, eval_s = self.evaluate(model, index, test)
        if tally is not None and report is not None:
            tally.check(report, f"corpus {corpus} evaluate")
        if wl.method == "c-dcca":
            checks.check_deep_history(fitted, DEEP_EPOCHS, math.ceil(train.n / DEEP_BATCH))
        figures = {
            "setup_s": statistics.median(data_s) + statistics.median(store_s),
            "train_s": statistics.median(fit_s),
            "eval_qps": test.n / eval_s if eval_s else float("nan"),
            "model_bytes": len(self.fs.files[self.model_path]),
            "dataio.files_written": files_written,
        }
        return figures, latencies, report, (fitted, model, index, train, test)

    def execute(self, seconds):
        """Warm up, run timed rounds for ``seconds``, check; return metrics."""
        reports = {}  # corpus -> its first evaluate report
        _, _, report, _ = self.round(0, checks.QualityTally())
        if report is not None:
            reports[0] = report
        if self.tracer:
            self.tracer.take()
        latencies = []
        self.check_s = 0.0
        start = time.perf_counter()
        while len(self.per_round) < CORPORA or time.perf_counter() - start - self.check_s < seconds:
            corpus = len(self.per_round) % CORPORA
            tally = None if corpus in reports else checks.QualityTally()
            figures, lat, report, state = self.round(corpus, tally)
            if report is not None:
                checks.check_same_report(report, reports.setdefault(corpus, report), f"corpus {corpus}")
            if self.tracer:
                self.last_spans = self.tracer.take()
                figures.update(tracing.layer_metrics(self.last_spans))
            latencies.extend(lat)
            self.per_round.append(figures)
        self.measured_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        fitted, _, _, train, _ = state
        if self.wl.method == "c-kcca":
            checks.check_bandwidth(fitted, train)
        checks.check_whitening(fitted, train, self.wl.method)

        metrics = {key: statistics.median(r[key] for r in self.per_round) for key in self.per_round[0]}
        ms = np.asarray(latencies) * 1e3
        metrics["query_p50_ms"] = float(np.percentile(ms, 50)) if ms.size else float("nan")
        metrics["query_p99_ms"] = float(np.percentile(ms, 99)) if ms.size else float("nan")
        metrics["map"] = statistics.fmean(r.map for r in reports.values())
        metrics["mrr1"] = statistics.fmean(r.mrr1 for r in reports.values())
        metrics["peak_rss_mb"] = peak_rss_mb
        return metrics


def machine_record(blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
