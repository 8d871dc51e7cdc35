"""Checks of a workload's outputs against figures computed apart from the
program: a brute-force ranker with its own geo distance, MRR1 and MAP by
a plain loop, and the whitening of the fitted projections recomputed
from the training pairs. Each check raises CheckError saying what
differed.
"""

import math

import numpy as np

EARTH_RADIUS_KM = 6371.0
SCORE_TOL = 1e-12
METRIC_TOL = 1e-12
WHITEN_TOL = 1e-6
SIGMA_RTOL = 1e-9
# A venue this close to the radius may fall on either side of it, since
# two correct distance formulas differ in the last digits.
RADIUS_TOL_KM = 1e-9


class CheckError(Exception):
    """A program output disagrees with its independent recomputation."""


def _unit_vectors(lat, lon):
    lat = np.radians(np.asarray(lat, dtype=float))
    lon = np.radians(np.asarray(lon, dtype=float))
    return np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=-1
    )


def geo_distance_km(lat, lon, units):
    """Great-circle distance from one point to many, through the 3-d chord."""
    chord = np.linalg.norm(units - _unit_vectors(lat, lon), axis=-1)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(chord / 2.0, 1.0))


class BruteForceRanker:
    """Ranks every candidate venue by cosine, ties by venue id ascending."""

    def __init__(self, model, index, geo_radius_km):
        self.model = model
        self.index = index
        self.radius = geo_radius_km
        self.norms = np.linalg.norm(index.vectors, axis=0)
        by_id = sorted(range(index.n), key=index.venue_ids.__getitem__)
        self.id_rank = np.empty(index.n, dtype=int)
        self.id_rank[by_id] = np.arange(index.n)
        self.units = _unit_vectors(index.coords[:, 0], index.coords[:, 1])

    def pool(self, lat, lon, ranked_ids):
        if self.radius is None:
            return np.arange(self.index.n)
        d = geo_distance_km(lat, lon, self.units)
        inside = d <= self.radius - RADIUS_TOL_KM
        edge = np.abs(d - self.radius) <= RADIUS_TOL_KM
        if edge.any():
            ranked = set(ranked_ids)
            edge &= np.array([v in ranked for v in self.index.venue_ids])
        return np.flatnonzero(inside | edge)

    def rank(self, photo, lat, lon, ranked_ids):
        """Venue positions in rank order and their scores."""
        q = self.model.project(photo[:, None], "image")[:, 0]
        pool = self.pool(lat, lon, ranked_ids)
        nq = np.linalg.norm(q)
        nv = self.norms[pool]
        scores = np.zeros(pool.size)
        ok = nv > 0.0
        if nq > 0.0:
            scores[ok] = (q @ self.index.vectors[:, pool[ok]]) / (nq * nv[ok])
        order = np.lexsort((self.id_rank[pool], -scores))
        return pool[order], scores[order]

    def check(self, ranklist, photo, lat, lon, label):
        """Raise unless ``ranklist`` is the brute-force ranking; return it."""
        ids = self.index.venue_ids
        positions, scores = self.rank(photo, lat, lon, ranklist.venue_ids)
        expected = [ids[j] for j in positions]
        if ranklist.venue_ids != expected:
            got, want = set(ranklist.venue_ids), set(expected)
            if got - want:
                raise CheckError(f"{label}: ranked venues outside the pool: {sorted(got - want)[:5]}")
            if want - got:
                raise CheckError(f"{label}: venues inside the pool are missing: {sorted(want - got)[:5]}")
            at = next(i for i, (a, b) in enumerate(zip(ranklist.venue_ids, expected)) if a != b)
            raise CheckError(
                f"{label}: ranking differs from brute force at position {at}: "
                f"{ranklist.venue_ids[at]} vs {expected[at]}"
            )
        if scores.size:
            gap = float(np.max(np.abs(np.asarray(ranklist.scores) - scores)))
            if gap > SCORE_TOL:
                raise CheckError(f"{label}: scores differ from brute force by {gap:.3e}")
        return expected, self.index.categories[positions]


class QualityTally:
    """MRR1, MAP and the chance rate of a relevant venue, by a plain loop."""

    def __init__(self):
        self.reciprocal_ranks = []
        self.average_precisions = []
        self.chance_rates = []

    def add(self, ranked_ids, ranked_categories, true_id, true_category):
        rr = 0.0
        for pos, vid in enumerate(ranked_ids, 1):
            if vid == true_id:
                rr = 1.0 / pos
                break
        self.reciprocal_ranks.append(rr)
        hits = 0
        precision_sum = 0.0
        for pos, category in enumerate(ranked_categories.tolist(), 1):
            if category == true_category:
                hits += 1
                precision_sum += hits / pos
        if hits:
            self.average_precisions.append(precision_sum / hits)
            self.chance_rates.append(hits / len(ranked_ids))

    def check(self, report, label):
        mrr1 = math.fsum(self.reciprocal_ranks) / len(self.reciprocal_ranks)
        map_ = math.fsum(self.average_precisions) / len(self.average_precisions)
        chance = math.fsum(self.chance_rates) / len(self.chance_rates)
        if abs(report.mrr1 - mrr1) > METRIC_TOL:
            raise CheckError(f"{label}: MRR1 {report.mrr1!r} but the loop gives {mrr1!r}")
        if abs(report.map - map_) > METRIC_TOL:
            raise CheckError(f"{label}: MAP {report.map!r} but the loop gives {map_!r}")
        if not report.map > chance:
            raise CheckError(f"{label}: MAP {report.map:.4f} does not beat chance {chance:.4f}")


def check_same_report(report, first, label):
    """A corpus evaluated again must score exactly as it did the first time."""
    if (report.map, report.mrr1) != (first.map, first.mrr1):
        raise CheckError(
            f"{label}: evaluate gave MAP {report.map!r}, MRR1 {report.mrr1!r}; "
            f"earlier MAP {first.map!r}, MRR1 {first.mrr1!r}"
        )


def _kernel_features(X, sigma):
    """Double-centered Gaussian Gram columns, the dual solver's features."""
    sq = np.sum(X * X, axis=0)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X.T @ X), 0.0)
    np.fill_diagonal(d2, 0.0)
    K = np.exp(-d2 / (2.0 * sigma * sigma))
    return K - K.mean(axis=0) - K.mean(axis=1)[:, None] + K.mean(), d2


def _median_distance(d2):
    upper = np.triu_indices(d2.shape[0], k=1)
    return float(np.median(np.sqrt(d2[upper])))


def _mlp_features(net, X):
    D = (X - net.standardizer.mean[:, None]) / net.standardizer.std[:, None]
    for layer in net.layers:
        D = layer.W @ D + layer.b[:, None]
        if layer.activation == "tanh":
            D = np.tanh(D)
    return D


def check_bandwidth(model, train):
    """The kernel bandwidth must be the median pairwise distance."""
    for side, X, sigma in (("image", train.X, model.sigma_x), ("text", train.Y, model.sigma_y)):
        _, d2 = _kernel_features(X, sigma)
        median = _median_distance(d2)
        if abs(sigma - median) > SIGMA_RTOL * median:
            raise CheckError(f"{side} bandwidth {sigma!r} but the median distance is {median!r}")


def check_whitening(model, train, method):
    """W^T C W = I on the training pairs, and rho descends within [0, 1]."""
    head = getattr(model, "head", model)
    if method == "c-cca":
        features = (train.X, train.Y)
    elif method == "c-kcca":
        features = (
            _kernel_features(train.X, model.sigma_x)[0],
            _kernel_features(train.Y, model.sigma_y)[0],
        )
    else:
        features = (_mlp_features(model.net_x, train.X), _mlp_features(model.net_y, train.Y))
    n = train.n
    for side, F, W in (("image", features[0], head.Wx), ("text", features[1], head.Wy)):
        Fc = F - F.mean(axis=1, keepdims=True)
        C = Fc @ Fc.T / (n - 1) + head.r * np.eye(F.shape[0])
        err = float(np.max(np.abs(W.T @ C @ W - np.eye(W.shape[1]))))
        if err > WHITEN_TOL:
            raise CheckError(f"{side} projections are not whitened: |W^T C W - I| = {err:.3e}")
    rho = np.asarray(head.rho)
    if np.any(np.diff(rho) > 0.0) or rho.min() < 0.0 or rho.max() > 1.0:
        raise CheckError(f"rho must descend within [0, 1], got {rho}")


def check_deep_history(model, epochs, batches):
    steps = len(model.history_objective)
    if steps != epochs * batches:
        raise CheckError(f"deep training took {steps} steps, expected {epochs} x {batches}")
    if not np.all(np.isfinite(model.history_objective)):
        raise CheckError("deep objective history holds non-finite values")
