"""End-to-end venue discovery: photo in, ranked venues out.

Generates a synthetic city, trains the category-weighted linear model,
indexes every venue's text feature, then runs photo queries with and
without the location filter and prints the metric suite.
"""

from venuecca import (
    GeoFilter,
    GroupIndex,
    SplitSpec,
    SynthConfig,
    build_index,
    build_pairs,
    evaluate,
    fit_cca,
    rank_venues,
    synth_generate,
)

config = SynthConfig(n_venues=100, n_categories=10, photos_per_venue=5, seed=2)
venues = synth_generate(config)
train, test = build_pairs(venues, SplitSpec(seed=2, extra_photo_ratio=0.2))

groups = GroupIndex.from_labels(train.categories)
model = fit_cca(train.X, train.Y, k=10, r=1e-4, groups=groups, beta=0.3)
index = build_index(model, venues)
print(f"indexed {index.n} venues across {config.n_categories} categories")

# one query in detail: a held-out photo of a known venue
qi = 0
truth = test.venue_ids[qi]
lat, lon = test.coords[qi]
rl = rank_venues(test.X[:, qi], model, index, true_venue_id=truth)
print(f"\nquery photo of venue {truth} (category {test.categories[qi]}):")
for rank, (vid, sc) in enumerate(zip(rl.venue_ids[:5], rl.scores[:5]), 1):
    marker = "  <- true venue" if vid == truth else ""
    print(f"  rank {rank}: {vid}  score {sc:.3f}{marker}")
print(f"true venue sits at rank {rl.venue_ids.index(truth) + 1} of {index.n}")

# the same query with a 1 km location filter around the photo's position
geo = GeoFilter(lat=lat, lon=lon, radius_km=1.0)
rl_geo = rank_venues(test.X[:, qi], model, index, geo=geo, true_venue_id=truth)
print(f"\nwith the 1 km filter, {len(rl_geo.venue_ids)} venues compete "
      f"and the true venue sits at rank {rl_geo.venue_ids.index(truth) + 1}")

# the full metric suite over every test query
report = evaluate(model, index, test)
print(f"\nunfiltered over {report.n_queries} queries: "
      f"MRR1 {report.mrr1:.3f}  MAP {report.map:.3f}")
report_geo = evaluate(model, index, test, geo_radius_km=1.0)
print(f"with the 1 km filter:  MRR1 {report_geo.mrr1:.3f}  MAP {report_geo.map:.3f}")

print("\nrecall/precision at cutoffs (unfiltered):")
for c, (rc, pr) in zip(report.cutoffs, report.recall_precision):
    print(f"  top {c:>3}: recall {rc:.3f}  precision {pr:.3f}")

print("\nper-category MAP:")
for cat, ap in sorted(report.per_category_map.items()):
    print(f"  category {cat:>2}: {ap:.3f}")
