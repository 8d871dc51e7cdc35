"""Photo-to-venue ranking and the evaluation metric suite.

A venue database holds one canonical-space vector per venue, projected
from its text feature. Queries are photos: project, score by cosine
against every candidate (optionally only those within a haversine radius
of the query position), then order by score descending with ties broken
by venue_id ascending.

One block ranker does this for a block of query columns at a time. The
index keeps a copy of its columns in venue_id order, built once, so
ordering the negated scores with equal keys kept in column order breaks
ties by id; a column outside a query's radius takes key +inf and sorts
past its pool. An unfiltered block of many rows is ordered by numpy's
SIMD argsort, and only its rows with equal keys are sorted again with the
stable argsort; a one-row or geo-filtered block is sorted stably. The
ranker works on these column positions; ids are looked up only where a
caller reads them. rank_venues is its one-row case, and evaluate ranks
every held-out photo through it in chunks.

Metrics: MRR1 for exact-venue search, AP/MAP and recall-precision curves
for category-level search (venues sharing the query's category count as
relevant). Each is computed once, from a relevance matrix by rank
position; the public functions over RankLists are adapters to it.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import EARTH_RADIUS_KM, haversine_km

# Score-matrix elements per ranked chunk: 2**18 float64s is 2 MB. Larger
# chunks raise peak memory and rank no faster.
CHUNK_ELEMENTS = 2**18


@dataclass
class VenueIndex:
    """Venue database: ids, categories, positions, canonical text vectors.

    vectors is (k, n_venues), column j belongs to venue_ids[j]. The ranker
    reads a copy in venue_id order, derived once here: _by_id lists the
    columns in that order, and the copy holds their ids, categories,
    positions and unit-length vectors (a zero vector stays zero). Vectors
    and positions that are not finite, and a vector whose length
    overflows, raise ValueError; the last two name the venue.
    """

    venue_ids: list
    categories: np.ndarray
    coords: np.ndarray
    vectors: np.ndarray
    _by_id: np.ndarray = field(init=False, repr=False, compare=False)
    _ids: np.ndarray = field(init=False, repr=False, compare=False)
    _categories: np.ndarray = field(init=False, repr=False, compare=False)
    _coords: np.ndarray = field(init=False, repr=False, compare=False)
    _units: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.venue_ids)
        if len(set(self.venue_ids)) != n:
            raise ValueError("duplicate venue_id in index")
        self.categories = np.asarray(self.categories, dtype=int)
        self.coords = np.asarray(self.coords, dtype=float)
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.categories.shape != (n,) or self.coords.shape != (n, 2):
            raise ValueError("index arrays disagree on venue count")
        if self.vectors.ndim != 2 or self.vectors.shape[1] != n:
            raise ValueError("index vectors disagree on venue count")
        if not np.isfinite(self.vectors).all():
            raise ValueError("index vectors are not finite")
        bad = ~np.isfinite(self.coords).all(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            lat, lon = self.coords[j].tolist()
            raise ValueError(f"venue {self.venue_ids[j]!r}: position must be finite, got ({lat}, {lon})")
        ids = np.array(self.venue_ids, dtype=object)
        self._by_id = np.argsort(ids, kind="stable")
        self._ids = ids[self._by_id]
        self._categories = self.categories[self._by_id]
        self._coords = self.coords[self._by_id]
        V = self.vectors[:, self._by_id]
        with np.errstate(over="ignore"):
            norms = _column_norms(V)
        if np.isinf(norms).any():
            vid = self._ids[int(np.argmax(np.isinf(norms)))]
            raise ValueError(f"venue {vid!r}: vector length overflows")
        self._units = V / norms

    @property
    def n(self):
        return len(self.venue_ids)


def _check_radius(radius_km):
    if not (math.isfinite(radius_km) and radius_km >= 0.0):
        raise ValueError(f"geo radius must be a finite number of km >= 0, got {radius_km}")


def _check_position_noise(noise_km):
    if not (math.isfinite(noise_km) and noise_km >= 0.0):
        raise ValueError(f"position_noise_km must be a finite number of km >= 0, got {noise_km}")


@dataclass
class GeoFilter:
    """Query position plus the admission radius in kilometres."""

    lat: float
    lon: float
    radius_km: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"geo filter position must be finite, got ({self.lat}, {self.lon})")
        _check_radius(self.radius_km)


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


def _column_norms(V):
    """Column lengths of V, with 1 for a zero column so that it divides to 0."""
    norms = np.sqrt((V * V).sum(axis=0))
    norms[norms == 0.0] = 1.0
    return norms


def _unit_columns(V):
    return V / _column_norms(V)


def _check_queries_finite(block, start, query_ids):
    """Raise naming the first column of block (query start + i) that is not finite."""
    if not np.isfinite(block).all():
        i = start + int(np.argmin(np.isfinite(block).all(axis=0)))
        name = i if query_ids is None else query_ids[i]
        raise ValueError(f"query {name} projects to a non-finite vector")


def _check_projections(Q, start, query_ids):
    """Raise naming the first column of Q (query start + i) that is not
    finite, or whose length overflows and so would score every venue 0."""
    # No entry beyond 1e150 / k: k squares sum to at most 1e300, so one pass decides.
    if np.abs(Q).max() <= 1e150 / len(Q):
        return
    _check_queries_finite(Q, start, query_ids)
    with np.errstate(over="ignore"):
        over = np.isinf(_column_norms(Q))
    if over.any():
        i = start + int(np.argmax(over))
        name = i if query_ids is None else query_ids[i]
        raise ValueError(f"query {name} projects to a vector whose length overflows")


def _ranked_chunks(model, index, Z, centres=None, radius_km=None, weight_by_rho=False, query_ids=None):
    """The block ranker: rank the query columns of Z against the index.

    centres, when given, holds one (lat, lon) row per query, and only
    venues within radius_km of it enter that query's pool. Yields
    (start, order, keys, pool) per chunk of CHUNK_ELEMENTS // index.n
    queries starting at column ``start``: row i of order lists index
    positions (in venue_id order) by score descending, ties by id, the
    first pool[i] of them inside the query's pool; order is what a stable
    argsort of keys gives (see _sort_rows). keys holds the negated scores
    by position, +inf outside the pool. A query whose features or
    projection are not finite, or whose projection's length overflows,
    raises ValueError naming it (query_ids[i], or its column in Z).
    """
    units = index._units
    w = None
    if weight_by_rho:
        w = np.asarray(model.rho, dtype=float)[:, None]
        units = _unit_columns(index.vectors[:, index._by_id] * w)
    rows = max(1, CHUNK_ELEMENTS // max(index.n, 1))
    for start in range(0, Z.shape[1], rows):
        chunk = Z[:, start : start + rows]
        # A kernel map turns an inf feature into a finite column, so the
        # raw features are checked as well as their projection.
        _check_queries_finite(chunk, start, query_ids)
        Q = model.project(chunk, "image")
        _check_projections(Q, start, query_ids)
        if w is not None:
            Q = Q * w
        # Dividing the raw query products by |q| keeps exact ties exact.
        keys = Q.T @ units
        keys /= -_column_norms(Q)[:, None]
        if centres is None:
            pool = np.full(keys.shape[0], index.n)
        else:
            c = centres[start : start + rows]
            dists = haversine_km(c[:, :1], c[:, 1:], index._coords[:, 0], index._coords[:, 1])
            inside = dists <= radius_km
            keys[~inside] = np.inf
            pool = inside.sum(axis=1)
        yield start, _sort_rows(keys, filtered=centres is not None), keys, pool


def _sort_rows(keys, filtered):
    """np.argsort(keys, axis=1, kind="stable"), by the faster route for the block.

    An unfiltered block of more than one row is sorted by numpy's default
    (SIMD) argsort, which may order equal keys any way; a row whose sorted
    keys do not strictly increase (equal keys, -0.0 beside 0.0, nan) is
    then sorted again stably. A row whose sorted keys strictly increase
    has only one order, so the result is the stable sort's. A single row,
    and a geo-filtered block with its mostly +inf keys, sort faster with
    the stable argsort alone.
    """
    if filtered or keys.shape[0] == 1:
        return np.argsort(keys, axis=1, kind="stable")
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    again = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
    if again.any():
        order[again] = np.argsort(keys[again], axis=1, kind="stable")
    return order


def _ranklist(index, order, keys, pool, geo, **truth):
    """One query's RankList from its row of the block ranker's output."""
    ranked = order[:pool]
    return RankList(
        venue_ids=index._ids[ranked].tolist(),
        scores=0.0 - keys[ranked],  # 0.0 - key: a zero score reads 0.0, never -0.0
        categories=index._categories[ranked],
        empty_after_filter=geo is not None and pool == 0,
        **truth,
    )


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
    ties by venue_id ascending, so output is deterministic. weight_by_rho
    scales canonical components by the model's correlations before the
    cosine. The block ranker's one-row case.
    """
    Z = np.asarray(photo, dtype=float).reshape(-1, 1)
    centres = None if geo is None else np.array([[geo.lat, geo.lon]], dtype=float)
    radius = None if geo is None else geo.radius_km
    ((_, order, keys, pool),) = _ranked_chunks(
        model, index, Z, centres, radius, weight_by_rho, [query_id]
    )
    return _ranklist(
        index,
        order[0],
        keys[0],
        pool[0],
        geo,
        query_id=query_id,
        true_venue_id=true_venue_id,
        true_category=true_category,
    )


def rank_photos(photos, model, index, geo=None):
    """Rank index venues for every photo column of photos (d, m).

    Yields one RankList per photo, query_id its column number, through the
    block ranker; geo applies to every photo, as in rank_venues.
    """
    photos = np.asarray(photos, dtype=float)
    centres = None
    if geo is not None:
        centres = np.broadcast_to([geo.lat, geo.lon], (photos.shape[1], 2))
    radius = None if geo is None else geo.radius_km
    for start, order, keys, pool in _ranked_chunks(model, index, photos, centres, radius):
        for i in range(order.shape[0]):
            yield _ranklist(index, order[i], keys[i], pool[i], geo, query_id=str(start + i))


# -- metrics -----------------------------------------------------------------


def _check_cutoffs(cutoffs):
    cutoffs = np.array([int(c) for c in cutoffs], dtype=int)
    if np.any(cutoffs < 1) or np.any(np.diff(cutoffs) <= 0):
        raise ValueError("cutoffs must be ascending positive integers")
    return cutoffs


def _reciprocal_rank_mean(true_rank):
    """MRR1 from each query's 1-based exact-venue rank, 0 where it is absent."""
    rr = np.zeros(true_rank.shape)
    np.divide(1.0, true_rank, out=rr, where=true_rank > 0)
    return float(rr.mean())


def _query_metrics(rel, pool, cutoffs=()):
    """Per-query AP and recall-precision, one row per query.

    rel[i, p] says whether the venue at rank position p of query i shares
    its category; it is False from pool[i] on. Returns the APs (nan where
    the pool holds no relevant venue; the denominator counts every
    relevant venue in the pool, so truncation cannot inflate the score),
    (recall, precision) at each cutoff clamped to the pool (q, c, 2; nan
    likewise), and whether a cutoff exceeded the pool of a query that
    has a relevant venue.
    """
    cutoffs = np.asarray(cutoffs, dtype=int)
    q, length = rel.shape
    hits = np.zeros((q, length + 1))  # hits[i, c]: relevant among the top c
    hits[:, 1:] = np.cumsum(rel, axis=1)
    n_rel = hits[:, -1]
    found = n_rel > 0
    ap = np.full(q, np.nan)
    precision_sums = (rel * (hits[:, 1:] / np.arange(1, length + 1))).sum(axis=1)
    np.divide(precision_sums, n_rel, out=ap, where=found)
    c_eff = np.minimum(cutoffs, pool[:, None])[found]
    h = np.take_along_axis(hits[found], c_eff, axis=1)
    curve = np.full((q, cutoffs.size, 2), np.nan)
    curve[found] = np.stack([h / n_rel[found, None], h / c_eff], axis=2)
    clamped = bool(np.any(cutoffs > pool[found, None]))
    return ap, curve, clamped


def _mean_ap(ap):
    """(MAP, n_skipped) over per-query APs, where nan marks a skipped query."""
    if ap.size == 0:
        raise ValueError("MAP over zero queries is undefined")
    present = ~np.isnan(ap)
    skipped = int(ap.size - present.sum())
    if skipped:
        warnings.warn(f"{skipped} queries had no relevant venue in the pool; skipped")
    if not present.any():
        raise ValueError("every query was skipped; MAP is undefined")
    return float(np.mean(ap[present])), skipped


def _mean_curve(curve, clamped):
    """Mean (recall, precision) per cutoff over queries' curve rows."""
    if clamped:
        warnings.warn("some cutoffs exceed a candidate pool; clamped to pool size")
    if curve.shape[0] == 0:
        raise ValueError("no query has a relevant venue; curve is undefined")
    return [(float(rc), float(pr)) for rc, pr in curve.mean(axis=0)]


def _relevance(ranklists):
    """Relevance matrix (padded with False) and pool sizes of RankLists."""
    if any(rl.true_category is None for rl in ranklists):
        raise ValueError("ranklist lacks category truth")
    pool = np.array([len(rl.categories) for rl in ranklists], dtype=int)
    rel = np.zeros((pool.size, pool.max(initial=0)), dtype=bool)
    for i, rl in enumerate(ranklists):
        rel[i, : pool[i]] = np.asarray(rl.categories) == rl.true_category
    return rel, pool


def mrr1(ranklists):
    """Mean reciprocal rank of the exact venue; missing venue counts 0."""
    if not ranklists:
        raise ValueError("MRR1 over zero queries is undefined")
    ranks = []
    for rl in ranklists:
        if rl.true_venue_id is None:
            raise ValueError("ranklist lacks exact-venue truth")
        try:
            ranks.append(rl.venue_ids.index(rl.true_venue_id) + 1)
        except ValueError:
            ranks.append(0)  # filtered out or absent: contributes 0 by convention
    return _reciprocal_rank_mean(np.array(ranks))


def average_precision(ranklist):
    """AP with same-category relevance; None when the pool has no relevant.

    The denominator counts every relevant venue in the (possibly
    geo-filtered) candidate pool, so truncation cannot inflate the score.
    """
    ap = _query_metrics(*_relevance([ranklist]))[0][0]
    return None if np.isnan(ap) else float(ap)


def mean_average_precision(ranklists):
    """Mean AP over queries; queries with no relevant venue are skipped.

    Returns (map_value, n_skipped) and warns when anything was skipped.
    """
    return _mean_ap(_query_metrics(*_relevance(ranklists))[0])


def recall_precision_curve(ranklists, cutoffs):
    """Mean recall and precision at each cutoff.

    Cutoffs must ascend. A cutoff beyond a query's pool size clamps to the
    pool (noted once with a warning). Queries whose pool holds no relevant
    venue are skipped. Returns a list of (recall, precision) aligned with
    cutoffs.
    """
    cutoffs = _check_cutoffs(cutoffs)
    ap, curve, clamped = _query_metrics(*_relevance(ranklists), cutoffs)
    return _mean_curve(curve[~np.isnan(ap)], clamped)


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
    for coarse positioning), and a negative or non-finite value is
    rejected. geo_radius_km enables the location filter.
    """
    if cutoffs is None:
        cutoffs = sorted({1, 2, 5, 10, 20, 50, index.n} - {0})
        cutoffs = [c for c in cutoffs if c <= index.n]
    cutoff_array = _check_cutoffs(cutoffs)
    _check_position_noise(position_noise_km)
    centres = None
    if geo_radius_km is not None:
        _check_radius(geo_radius_km)
        centres = np.array(test.coords, dtype=float)
        if position_noise_km > 0.0:
            deg_per_km = 180.0 / (np.pi * EARTH_RADIUS_KM)
            shift = np.random.default_rng(seed).normal(0.0, position_noise_km, (test.n, 2))
            centres[:, 0] += shift[:, 0] * deg_per_km
            centres[:, 1] += shift[:, 1] * deg_per_km / np.cos(np.radians(centres[:, 0]))
    position = {vid: p for p, vid in enumerate(index._ids.tolist())}
    true_position = np.array([position.get(v, -1) for v in test.venue_ids], dtype=int)
    true_category = np.asarray(test.categories, dtype=int)
    true_rank = np.zeros(test.n, dtype=int)
    ap = np.empty(test.n)
    curve = np.empty((test.n, cutoff_array.size, 2))
    clamped = False
    for start, order, _, pool in _ranked_chunks(
        model, index, test.X, centres, geo_radius_km, weight_by_rho
    ):
        rows = slice(start, start + order.shape[0])
        in_pool = np.arange(index.n) < pool[:, None]
        rel = (index._categories[order] == true_category[rows, None]) & in_pool
        at_truth = (order == true_position[rows, None]) & in_pool
        true_rank[rows] = np.where(at_truth.any(axis=1), at_truth.argmax(axis=1) + 1, 0)
        ap[rows], curve[rows], chunk_clamped = _query_metrics(rel, pool, cutoff_array)
        clamped = clamped or chunk_clamped
    map_value, skipped = _mean_ap(ap)
    present = ~np.isnan(ap)
    per_cat = {}
    for c in np.unique(true_category).tolist():
        sub = ap[present & (true_category == c)]
        if sub.size:
            per_cat[c] = float(np.mean(sub))
    return EvalReport(
        mrr1=_reciprocal_rank_mean(true_rank),
        map=map_value,
        per_category_map=per_cat,
        cutoffs=list(cutoffs),
        recall_precision=_mean_curve(curve[present], clamped),
        n_queries=test.n,
        n_skipped=skipped,
    )
