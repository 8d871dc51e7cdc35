"""Dataset model, feature-file formats, pairing, and a synthetic generator.

A dataset on disk is a JSON manifest plus sidecar feature files:

    { "dim_x": int, "dim_y": int,
      "venues": [ { "id", "category", "lat", "lon",
                    "text_file", "photo_files": [...] } ] }

Feature files hold one vector per row in either of two formats, chosen by
extension:

* ``.csv``  - header line ``rows,cols``, then one comma-separated vector per
  row, '.' decimals, newline-terminated. Values are written with 17
  significant digits so a round trip is bit-exact.
* ``.bin``  - 8-byte magic ``VCCAMAT1``, little-endian uint32 rows and cols,
  then rows*cols float64 values in row-major order.

Feature matrices handed to the solvers use the columns-as-samples
convention (d, n); files store vectors as rows because that is the natural
CSV layout. Loading transposes as needed.
"""

import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MATRIX_MAGIC = b"VCCAMAT1"
CONTAINER_MAGIC = b"VCCAPKG1"
EARTH_RADIUS_KM = 6371.0
CATEGORY_MIN = 1
CATEGORY_MAX = 10

# Synthetic city centers (lat, lon). Spread far apart so a kilometre-scale
# geographic filter separates them completely.
SYNTH_CITY_CENTERS = (
    (-40.0, -150.0),
    (-20.0, -90.0),
    (0.0, -30.0),
    (20.0, 30.0),
    (40.0, 90.0),
)

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")


class DatasetError(ValueError):
    """Manifest or feature-file contents violate the dataset contract."""


# ---------------------------------------------------------------------------
# matrix files


def write_matrix(path, a):
    """Write a 2-d float array to the raw binary feature format."""
    a = np.ascontiguousarray(a, dtype="<f8")
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    rows, cols = a.shape
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(a.tobytes(order="C"))


def _read_exactly(fh, size, path, what):
    raw = fh.read(size)
    if len(raw) != size:
        raise DatasetError(f"{path}: truncated {what}")
    return raw


def read_matrix(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(MATRIX_MAGIC))
        if magic != MATRIX_MAGIC:
            raise DatasetError(f"{path}: bad magic, not a feature matrix file")
        rows, cols = struct.unpack("<II", _read_exactly(fh, 8, path, "header"))
        data = _read_exactly(fh, rows * cols * 8, path, "matrix file")
    return np.frombuffer(data, dtype="<f8").reshape(rows, cols).astype(float)


def write_matrix_csv(path, a):
    """Write a 2-d float array as CSV with a ``rows,cols`` header line."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{a.shape[0]},{a.shape[1]}\n")
        for row in a:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def read_matrix_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(t) for t in header.split(","))
            if min(rows, cols) < 0:
                raise ValueError
        except ValueError:
            raise DatasetError(f"{path}: malformed CSV header {header!r}") from None
        body = fh.readlines()
    # loadtxt warns on input that holds no data, so it reads only a body with some
    has_data = any(line.strip() for line in body)
    try:
        data = np.loadtxt(body, delimiter=",", ndmin=2, dtype=float) if has_data else np.empty((0, cols))
    except ValueError as e:  # a value that is not a number, or ragged rows
        raise DatasetError(f"{path}: {e}") from None
    if data.shape != (rows, cols):
        raise DatasetError(
            f"{path}: header declares {rows}x{cols} but file holds {data.shape}"
        )
    return data


def read_feature_file(path):
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"missing feature file: {path}")
    if path.suffix == ".csv":
        return read_matrix_csv(path)
    return read_matrix(path)


# ---------------------------------------------------------------------------
# container files (models, indexes)


def write_container(path, kind, meta, blocks):
    """Single-file store: JSON header plus named binary matrix blocks.

    ``meta`` must be JSON-serializable. Keys are sorted and floats go
    through repr, so the same content always produces the same bytes.
    """
    names = list(blocks)
    header = {
        "kind": kind,
        "meta": meta,
        "blocks": [[name] + list(blocks[name].shape) for name in names],
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for name in names:
            a = np.ascontiguousarray(blocks[name], dtype="<f8")
            fh.write(a.tobytes(order="C"))


def _container_header_ok(header):
    """A dict with kind, a meta dict and [name, rows, cols] block shapes."""
    if not (isinstance(header, dict) and {"kind", "meta", "blocks"} <= header.keys()):
        return False
    return isinstance(header["meta"], dict) and isinstance(header["blocks"], list) and all(
        isinstance(b, list)
        and len(b) == 3
        and isinstance(b[0], str)
        and all(isinstance(d, int) and d >= 0 for d in b[1:])
        for b in header["blocks"]
    )


def read_container(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(CONTAINER_MAGIC))
        if magic != CONTAINER_MAGIC:
            raise DatasetError(f"{path}: not a container file")
        (hlen,) = struct.unpack("<I", _read_exactly(fh, 4, path, "header"))
        payload = _read_exactly(fh, hlen, path, "header")
        try:
            header = json.loads(payload.decode("utf-8"))
        except ValueError as e:  # bad UTF-8 or JSON
            raise DatasetError(f"{path}: container header is not valid JSON ({e})") from None
        if not _container_header_ok(header):
            raise DatasetError(f"{path}: container header has the wrong shape")
        blocks = {}
        for name, rows, cols in header["blocks"]:
            raw = _read_exactly(fh, rows * cols * 8, path, f"block {name!r}")
            blocks[name] = (
                np.frombuffer(raw, dtype="<f8").reshape(rows, cols).astype(float)
            )
    return header["kind"], header["meta"], blocks


# ---------------------------------------------------------------------------
# dataset model


@dataclass
class VenueRecord:
    """One venue: identity, category, position, and its feature vectors.

    ``text`` is the venue's single text feature (d_y,). ``photos`` stacks
    the venue's photo features as rows, shape (n_photos, d_x); zero photos
    is legal. Photo 0 is the venue's primary photo.
    """

    venue_id: str
    category: int
    lat: float
    lon: float
    text: np.ndarray
    photos: np.ndarray

    def __post_init__(self):
        self.text = np.asarray(self.text, dtype=float).reshape(-1)
        self.photos = np.asarray(self.photos, dtype=float)
        if self.photos.ndim != 2:
            raise DatasetError(
                f"venue {self.venue_id!r}: photos must be (n_photos, d_x), "
                f"got shape {self.photos.shape}"
            )
        for modality in ("text", "photos"):
            if not np.isfinite(getattr(self, modality)).all():
                raise DatasetError(f"venue {self.venue_id!r}: {modality} holds NaN or inf values")
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise DatasetError(
                f"venue {self.venue_id!r}: position must be finite, got ({self.lat}, {self.lon})"
            )
        if not CATEGORY_MIN <= int(self.category) <= CATEGORY_MAX:
            raise DatasetError(
                f"venue {self.venue_id!r}: category {self.category} outside "
                f"{CATEGORY_MIN}..{CATEGORY_MAX}"
            )
        self.category = int(self.category)

    @property
    def n_photos(self):
        return self.photos.shape[0]


@dataclass
class PairedDataset:
    """Aligned photo/text pairs ready for a solver.

    X is (d_x, n) photo features, Y is (d_y, n) text features; column i of
    both belongs to venue venue_ids[i]. The text column repeats for every
    photo of the same venue.
    """

    X: np.ndarray
    Y: np.ndarray
    venue_ids: list
    categories: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        self.categories = np.asarray(self.categories, dtype=int)
        self.coords = np.asarray(self.coords, dtype=float)
        n = self.X.shape[1]
        if not (
            self.Y.shape[1] == len(self.venue_ids) == len(self.categories) == n
            and self.coords.shape == (n, 2)
        ):
            raise DatasetError("paired arrays disagree on the number of samples")

    @property
    def n(self):
        return self.X.shape[1]


@dataclass
class SplitSpec:
    """How to carve venues and photos into train and test."""

    seed: int = 0
    train_venue_fraction: float = 0.75
    extra_photo_ratio: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.train_venue_fraction <= 1.0:
            raise ValueError(
                f"train_venue_fraction must lie in (0, 1], got {self.train_venue_fraction}"
            )
        if not 0.0 <= self.extra_photo_ratio <= 1.0:
            raise ValueError(
                f"extra_photo_ratio must lie in [0, 1], got {self.extra_photo_ratio}"
            )


# ---------------------------------------------------------------------------
# manifest IO


def _venue_sort_key(v):
    return v.venue_id


def write_dataset(venues, manifest_path):
    """Write venues plus sidecar feature files next to the manifest.

    Text features go to CSV (small, diffable); photo stacks go to the raw
    binary format. load_dataset inverts this exactly.
    """
    manifest_path = Path(manifest_path)
    out_dir = manifest_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    venues = sorted(venues, key=_venue_sort_key)
    dims_x = {v.photos.shape[1] for v in venues if v.n_photos}
    dims_y = {v.text.shape[0] for v in venues}
    if len(dims_x) > 1 or len(dims_y) > 1:
        raise DatasetError("venues disagree on feature dimensionality")
    entries = []
    for v in venues:
        if not _ID_PATTERN.match(v.venue_id):
            raise DatasetError(
                f"venue id {v.venue_id!r} is not filename-safe "
                "(letters, digits, '_', '-', '.' only)"
            )
        text_file = f"{v.venue_id}_text.csv"
        write_matrix_csv(out_dir / text_file, v.text[None, :])
        photo_files = []
        if v.n_photos:
            photo_file = f"{v.venue_id}_photos.bin"
            write_matrix(out_dir / photo_file, v.photos)
            photo_files.append(photo_file)
        entries.append(
            {
                "id": v.venue_id,
                "category": v.category,
                "lat": v.lat,
                "lon": v.lon,
                "text_file": text_file,
                "photo_files": photo_files,
            }
        )
    manifest = {
        "dim_x": int(next(iter(dims_x))) if dims_x else 0,
        "dim_y": int(next(iter(dims_y))) if dims_y else 0,
        "venues": entries,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _manifest_number(obj, key, kind, where=""):
    """obj[key] converted by kind (int or float); a DatasetError that names
    the key, after the prefix where, if it does not convert."""
    value = obj[key]
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        raise DatasetError(f"{where}{key!r} must be a number, got {value!r}") from None


def load_dataset(manifest_path):
    """Load a manifest and every feature file it references.

    Returns VenueRecords sorted by venue_id. Raises DatasetError with a
    distinct message, which names the manifest, for a missing file, a
    manifest that is not JSON or not an object, a dimension mismatch, a
    duplicate or non-string venue id, an out-of-range category, a venue
    entry that lacks a key or is not an object, a dimension, category or
    coordinate that is not a number, a negative dimension, or a position
    that is not finite.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DatasetError(f"missing manifest: {manifest_path}")
    try:
        return _read_manifest(manifest_path)
    except DatasetError as e:
        raise DatasetError(f"{manifest_path}: {e}") from None


def _read_manifest(manifest_path):
    """load_dataset's body; its DatasetErrors do not name the manifest."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as e:  # bad UTF-8 or JSON
        raise DatasetError(f"not valid JSON ({e})") from None
    if not isinstance(manifest, dict):
        raise DatasetError(f"expected a JSON object, got {type(manifest).__name__}")
    for key in ("dim_x", "dim_y", "venues"):
        if key not in manifest:
            raise DatasetError(f"manifest lacks required key {key!r}")
    dim_x, dim_y = (_manifest_number(manifest, key, int) for key in ("dim_x", "dim_y"))
    for key, dim in (("dim_x", dim_x), ("dim_y", dim_y)):
        if dim < 0:
            raise DatasetError(f"{key!r} must be >= 0, got {dim}")
    base = manifest_path.parent
    records = []
    seen = set()
    i = None
    try:
        for i, entry in enumerate(manifest["venues"]):
            vid = entry["id"]
            if not isinstance(vid, str):
                raise DatasetError(f"venue entry {i}: 'id' must be a string, got {vid!r}")
            if vid in seen:
                raise DatasetError(f"duplicate venue id {vid!r}")
            seen.add(vid)
            text = read_feature_file(base / entry["text_file"])
            if text.shape != (1, dim_y):
                raise DatasetError(
                    f"venue {vid!r}: text feature is {text.shape}, expected (1, {dim_y})"
                )
            photo_rows = [read_feature_file(base / f) for f in entry["photo_files"]]
            if photo_rows:
                for f, block in zip(entry["photo_files"], photo_rows):
                    if block.shape[1] != dim_x:
                        raise DatasetError(
                            f"venue {vid!r}: photo file {f} has {block.shape[1]} dims, "
                            f"expected {dim_x}"
                        )
                photos = np.vstack(photo_rows)
            else:
                photos = np.empty((0, dim_x))
            category, lat, lon = (
                _manifest_number(entry, key, kind, f"venue entry {i}: ")
                for key, kind in (("category", int), ("lat", float), ("lon", float))
            )
            records.append(
                VenueRecord(venue_id=vid, category=category, lat=lat, lon=lon, text=text[0], photos=photos)
            )
    except KeyError as e:
        raise DatasetError(f"venue entry {i} lacks key {e.args[0]!r}") from None
    except TypeError as e:
        where = "'venues' is not a list" if i is None else f"venue entry {i} is malformed"
        raise DatasetError(f"{where} ({e})") from None
    records.sort(key=_venue_sort_key)
    return records


# ---------------------------------------------------------------------------
# train/test pairing


def build_pairs(venues, split):
    """Split venues into train/test photo-text pairs.

    A train_venue_fraction share of venues (chosen by seed) trains. For
    each training venue photo 0 always trains, and extra_photo_ratio of
    its remaining photos join it; everything else, including every photo
    of a held-out venue, becomes a test query. Texts repeat across all
    pairs of their venue.
    """
    venues = sorted(venues, key=_venue_sort_key)
    if not venues:
        raise DatasetError("cannot build pairs from an empty venue list")
    rng = np.random.default_rng(split.seed)
    n_train = max(1, int(round(split.train_venue_fraction * len(venues))))
    trained = np.sort(rng.permutation(len(venues))[:n_train])
    counts = np.array([v.n_photos for v in venues])
    starts = np.cumsum(counts) - counts
    train = np.zeros(counts.sum(), dtype=bool)
    for i in trained.tolist():
        if not counts[i]:
            raise DatasetError(f"training venue {venues[i].venue_id!r} has no photos")
        rest = np.arange(1, counts[i])
        n_extra = int(round(split.extra_photo_ratio * len(rest)))
        train[starts[i] + rng.permutation(rest)[:n_extra]] = True
    train[starts[trained]] = True
    # photos has one row per photo, the rest one per venue; owner maps photo to venue
    photos = np.vstack([v.photos for v in venues if v.n_photos])
    texts = np.array([v.text for v in venues])
    ids = np.array([v.venue_id for v in venues])
    categories = np.array([v.category for v in venues])
    coords = np.array([(v.lat, v.lon) for v in venues])
    owner = np.repeat(np.arange(len(venues)), counts)

    def pack(mask):
        at = owner[mask]
        return PairedDataset(photos[mask].T, texts[at].T, ids[at].tolist(), categories[at], coords[at])

    return pack(train), pack(~train)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SynthConfig:
    """Knobs for the synthetic multimodal venue generator.

    category_signal scales a per-category latent shared by all venues of
    the category, venue_signal scales a per-venue latent, and noise is the
    std of white noise added independently to every emitted feature. Both
    modalities observe the same latent mix through fixed random linear
    maps, so cross-modal correlation is built in by construction.
    """

    n_venues: int = 200
    n_categories: int = 10
    photos_per_venue: int = 10
    d_x: int = 64
    d_y: int = 32
    category_signal: float = 1.0
    venue_signal: float = 1.0
    noise: float = 0.4
    geo_cluster_radius_km: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n_categories > self.n_venues:
            raise ValueError("need at least one venue per category")
        if not CATEGORY_MIN <= self.n_categories <= CATEGORY_MAX:
            raise ValueError(
                f"n_categories must lie in {CATEGORY_MIN}..{CATEGORY_MAX}"
            )
        if self.photos_per_venue < 1:
            raise ValueError("photos_per_venue must be >= 1")
        if min(self.d_x, self.d_y) < 1:
            raise ValueError("feature dims must be >= 1")
        for name in ("category_signal", "venue_signal", "noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.geo_cluster_radius_km < 0:
            raise ValueError("geo_cluster_radius_km must be >= 0")


def synth_latents(config):
    """Deterministic latent construction behind synth_generate.

    Returns (cat_basis, venue_latents, mix, categories): cat_basis is
    (q, n_categories) with orthonormal columns, venue_latents is
    (q, n_venues), mix combines them with the configured signal scales,
    and categories holds each venue's 1-based category id.

    Exposed so the latent-structure claims (within-category cosine above
    cross-category cosine) can be checked on the actual latents.
    """
    q = max(16, config.n_categories)
    rng = np.random.default_rng(config.seed)
    raw = rng.standard_normal((q, config.n_categories))
    cat_basis, rmat = np.linalg.qr(raw)
    cat_basis = cat_basis * np.sign(np.diag(rmat))
    categories = 1 + (np.arange(config.n_venues) % config.n_categories)
    rng.shuffle(categories)
    venue_latents = rng.standard_normal((q, config.n_venues)) / math.sqrt(q)
    mix = (
        config.category_signal * cat_basis[:, categories - 1]
        + config.venue_signal * venue_latents
    )
    return cat_basis, venue_latents, mix, categories


def synth_generate(config):
    """Generate a synthetic venue corpus. Deterministic given config.seed.

    Venues are scattered around five fixed city centers, uniformly inside
    a geo_cluster_radius_km disk.
    """
    cat_basis, venue_latents, mix, categories = synth_latents(config)
    q = cat_basis.shape[0]
    # The latent rng consumed a fixed number of draws; continue from an
    # independent stream so feature noise does not perturb the latents.
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    A_x = rng.standard_normal((config.d_x, q)) / math.sqrt(q)
    A_y = rng.standard_normal((config.d_y, q)) / math.sqrt(q)
    text = A_y @ mix + config.noise * rng.standard_normal(
        (config.d_y, config.n_venues)
    )
    photo_base = A_x @ mix
    photo_noise = config.noise * rng.standard_normal(
        (config.n_venues, config.photos_per_venue, config.d_x)
    )
    cities = rng.integers(0, len(SYNTH_CITY_CENTERS), config.n_venues)
    angles = rng.uniform(0.0, 2.0 * math.pi, config.n_venues)
    dists = config.geo_cluster_radius_km * np.sqrt(rng.uniform(0.0, 1.0, config.n_venues))
    deg_per_km = 180.0 / (math.pi * EARTH_RADIUS_KM)
    width = len(str(config.n_venues - 1)) if config.n_venues > 1 else 1
    venues = []
    for v in range(config.n_venues):
        clat, clon = SYNTH_CITY_CENTERS[cities[v]]
        lat = clat + dists[v] * math.cos(angles[v]) * deg_per_km
        lon = clon + dists[v] * math.sin(angles[v]) * deg_per_km / math.cos(
            math.radians(clat)
        )
        venues.append(
            VenueRecord(
                venue_id=f"v{v:0{max(width, 4)}d}",
                category=int(categories[v]),
                lat=lat,
                lon=lon,
                text=text[:, v],
                photos=photo_base[:, v][None, :] + photo_noise[v],
            )
        )
    return venues


# ---------------------------------------------------------------------------
# geography


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometres between degree coordinates.

    Accepts scalars or broadcastable arrays.
    """
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=float)) for a in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))
