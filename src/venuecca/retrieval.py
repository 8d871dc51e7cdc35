"""Photo-to-venue ranking and the evaluation metric suite.

A venue database holds one canonical-space vector per venue, projected
from its text feature. Queries are photos: project, score by cosine
against every candidate (optionally only those within a haversine radius
of the query position), then order by score descending with ties broken
by venue_id ascending. The tie data is the index's ``id_rank``, each
column's position in venue_id order, computed once when the index is
built. Metrics: MRR1 for exact-venue search, AP/MAP and recall-precision
curves for category-level search (venues sharing the query's category
count as relevant).
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import haversine_km


@dataclass
class VenueIndex:
    """Venue database: ids, categories, positions, canonical text vectors.

    vectors is (k, n_venues), column j belongs to venue_ids[j]; id_rank[j]
    is that column's position in venue_id order, the ranking's tie key.
    """

    venue_ids: list
    categories: np.ndarray
    coords: np.ndarray
    vectors: np.ndarray
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.venue_ids)
        if len(set(self.venue_ids)) != n:
            raise ValueError("duplicate venue_id in index")
        self.id_rank = np.argsort(np.argsort(np.array(self.venue_ids, dtype=object)))
        self.categories = np.asarray(self.categories, dtype=int)
        self.coords = np.asarray(self.coords, dtype=float)
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.categories.shape != (n,) or self.coords.shape != (n, 2):
            raise ValueError("index arrays disagree on venue count")
        if self.vectors.shape[1] != n:
            raise ValueError("index vectors disagree on venue count")

    @property
    def n(self):
        return len(self.venue_ids)


@dataclass
class GeoFilter:
    """Query position plus the admission radius in kilometres."""

    lat: float
    lon: float
    radius_km: float


@dataclass
class RankList:
    """One query's result: venues ordered by descending score, plus truth."""

    query_id: str
    venue_ids: list
    scores: np.ndarray
    categories: np.ndarray
    true_venue_id: str = None
    true_category: int = None
    empty_after_filter: bool = False


def build_index(model, venues):
    """Project every venue's text feature through the model's text side."""
    Y = np.stack([v.text for v in venues], axis=1)
    return VenueIndex(
        venue_ids=[v.venue_id for v in venues],
        categories=np.array([v.category for v in venues], dtype=int),
        coords=np.array([[v.lat, v.lon] for v in venues], dtype=float),
        vectors=model.project(Y, "text"),
    )


def score(u, v):
    """Cosine similarity; any zero vector scores 0 by convention."""
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if u.shape != v.shape:
        raise ValueError("score expects vectors of one dimensionality")
    return float(_cosine_scores(u, v[:, None])[0])


def _cosine_scores(q, V):
    # q: (k,), V: (k, m) -> cosine per column with the zero-vector guard
    nq = np.linalg.norm(q)
    nv = np.linalg.norm(V, axis=0)
    out = np.zeros(V.shape[1])
    if nq == 0.0:
        return out
    ok = nv > 0.0
    out[ok] = (q @ V[:, ok]) / (nq * nv[ok])
    return out


def rank_venues(
    photo,
    model,
    index,
    geo=None,
    query_id="",
    true_venue_id=None,
    true_category=None,
    weight_by_rho=False,
):
    """Rank index venues for one photo query.

    geo, when given, admits only venues within geo.radius_km of
    (geo.lat, geo.lon); if nothing survives the result is an empty list
    flagged empty_after_filter. Venues are ordered by score descending,
    ties by venue_id ascending (the index's id_rank), so output is
    deterministic. weight_by_rho scales canonical components by the
    model's correlations before the cosine.
    """
    q = model.project(np.asarray(photo, dtype=float), "image")[:, 0]
    keep = np.arange(index.n)
    if geo is not None:
        dists = haversine_km(geo.lat, geo.lon, index.coords[:, 0], index.coords[:, 1])
        keep = np.flatnonzero(dists <= geo.radius_km)
    V = index.vectors[:, keep]
    if weight_by_rho:
        w = np.asarray(model.rho, dtype=float)
        q = q * w
        V = V * w[:, None]
    scores = _cosine_scores(q, V)
    order = np.lexsort((index.id_rank[keep], -scores))
    ranked = keep[order]
    return RankList(
        query_id=query_id,
        venue_ids=[index.venue_ids[j] for j in ranked],
        scores=scores[order],
        categories=index.categories[ranked],
        true_venue_id=true_venue_id,
        true_category=true_category,
        empty_after_filter=geo is not None and keep.size == 0,
    )


def mrr1(ranklists):
    """Mean reciprocal rank of the exact venue; missing venue counts 0."""
    if not ranklists:
        raise ValueError("MRR1 over zero queries is undefined")
    total = 0.0
    for rl in ranklists:
        if rl.true_venue_id is None:
            raise ValueError("ranklist lacks exact-venue truth")
        try:
            total += 1.0 / (rl.venue_ids.index(rl.true_venue_id) + 1)
        except ValueError:
            pass  # filtered out or absent: contributes 0 by convention
    return total / len(ranklists)


def _hits(ranklist):
    """hits[c] counts same-category venues among the top c, c = 0..pool size."""
    if ranklist.true_category is None:
        raise ValueError("ranklist lacks category truth")
    return np.concatenate(([0], np.cumsum(ranklist.categories == ranklist.true_category)))


def average_precision(ranklist):
    """AP with same-category relevance; None when the pool has no relevant.

    The denominator counts every relevant venue in the (possibly
    geo-filtered) candidate pool, so truncation cannot inflate the score.
    """
    hits = _hits(ranklist)
    n_rel = int(hits[-1])
    if n_rel == 0:
        return None
    ranks = np.flatnonzero(np.diff(hits)) + 1
    return float((hits[ranks] / ranks).sum() / n_rel)


def _mean_of_present(aps):
    """(mean, n_skipped) over per-query APs, where None marks a skipped query."""
    if not aps:
        raise ValueError("MAP over zero queries is undefined")
    values = [ap for ap in aps if ap is not None]
    skipped = len(aps) - len(values)
    if skipped:
        warnings.warn(f"{skipped} queries had no relevant venue in the pool; skipped")
    if not values:
        raise ValueError("every query was skipped; MAP is undefined")
    return float(np.mean(values)), skipped


def mean_average_precision(ranklists):
    """Mean AP over queries; queries with no relevant venue are skipped.

    Returns (map_value, n_skipped) and warns when anything was skipped.
    """
    return _mean_of_present([average_precision(rl) for rl in ranklists])


def recall_precision_curve(ranklists, cutoffs):
    """Mean recall and precision at each cutoff.

    Cutoffs must ascend. A cutoff beyond a query's pool size clamps to the
    pool (noted once with a warning). Queries whose pool holds no relevant
    venue are skipped. Returns a list of (recall, precision) aligned with
    cutoffs.
    """
    cutoffs = np.array([int(c) for c in cutoffs], dtype=int)
    if np.any(cutoffs < 1) or np.any(np.diff(cutoffs) <= 0):
        raise ValueError("cutoffs must be ascending positive integers")
    per_query = []
    clamped = False
    for rl in ranklists:
        hits = _hits(rl)
        if hits[-1] == 0:
            continue
        pool = hits.size - 1
        clamped = clamped or bool(np.any(cutoffs > pool))
        c_eff = np.minimum(cutoffs, pool)
        h = hits[c_eff]
        per_query.append(np.stack([h / hits[-1], h / c_eff], axis=1))
    if clamped:
        warnings.warn("some cutoffs exceed a candidate pool; clamped to pool size")
    if not per_query:
        raise ValueError("no query has a relevant venue; curve is undefined")
    arr = np.array(per_query)  # (q, c, 2)
    means = arr.mean(axis=0)
    return [(float(rc), float(pr)) for rc, pr in means]


@dataclass
class EvalReport:
    """Aggregated retrieval quality for one evaluation run."""

    mrr1: float
    map: float
    per_category_map: dict
    cutoffs: list
    recall_precision: list
    n_queries: int
    n_skipped: int

    def to_dict(self):
        return {
            "mrr1": self.mrr1,
            "map": self.map,
            "per_category_map": {str(k): v for k, v in sorted(self.per_category_map.items())},
            "cutoffs": list(self.cutoffs),
            "recall_precision": [[r, p] for r, p in self.recall_precision],
            "n_queries": self.n_queries,
            "n_skipped": self.n_skipped,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def recall_precision_csv(self):
        lines = ["cutoff,recall,precision"]
        for c, (rc, pr) in zip(self.cutoffs, self.recall_precision):
            lines.append(f"{c},{rc:.17g},{pr:.17g}")
        return "\n".join(lines) + "\n"


def evaluate(
    model,
    index,
    test,
    geo_radius_km=None,
    cutoffs=None,
    position_noise_km=0.0,
    seed=0,
    weight_by_rho=False,
):
    """Rank every test photo and aggregate the metric suite.

    Query positions are the true venue positions; position_noise_km > 0
    perturbs them with an isotropic Gaussian of that sigma (a stand-in
    for coarse positioning). geo_radius_km enables the location filter.
    """
    if cutoffs is None:
        cutoffs = sorted({1, 2, 5, 10, 20, 50, index.n} - {0})
        cutoffs = [c for c in cutoffs if c <= index.n]
    rng = np.random.default_rng(seed)
    deg_per_km = 180.0 / (np.pi * 6371.0)
    ranklists = []
    for i in range(test.n):
        geo = None
        if geo_radius_km is not None:
            lat, lon = test.coords[i]
            if position_noise_km > 0.0:
                lat = lat + rng.normal(0.0, position_noise_km) * deg_per_km
                lon = lon + rng.normal(0.0, position_noise_km) * deg_per_km / np.cos(
                    np.radians(lat)
                )
            geo = GeoFilter(lat=float(lat), lon=float(lon), radius_km=geo_radius_km)
        ranklists.append(
            rank_venues(
                test.X[:, i],
                model,
                index,
                geo=geo,
                query_id=str(i),
                true_venue_id=test.venue_ids[i],
                true_category=int(test.categories[i]),
                weight_by_rho=weight_by_rho,
            )
        )
    aps = [average_precision(rl) for rl in ranklists]
    map_value, skipped = _mean_of_present(aps)
    per_cat = {}
    for c in sorted(set(int(c) for c in test.categories)):
        sub = [ap for rl, ap in zip(ranklists, aps) if rl.true_category == c and ap is not None]
        if sub:
            per_cat[c] = float(np.mean(sub))
    return EvalReport(
        mrr1=mrr1(ranklists),
        map=map_value,
        per_category_map=per_cat,
        cutoffs=list(cutoffs),
        recall_precision=recall_precision_curve(ranklists, cutoffs),
        n_queries=test.n,
        n_skipped=skipped,
    )
