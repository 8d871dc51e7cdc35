"""Command-line pipeline: synth, train, index, retrieve, eval.

Every command honors --seed and writes a fully resolved config JSON next
to its outputs, so any run can be replayed exactly. Outputs carry no
timestamps; repeating a command with the same arguments produces byte
identical files.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import (
    DatasetError,
    SplitSpec,
    SynthConfig,
    build_pairs,
    load_dataset,
    read_feature_file,
    synth_generate,
    write_dataset,
)
from .dcca import DeepCcaModel
from .kcca import KernelCcaModel
from .methods import METHODS, fit, resolve_beta
from .model_io import load_index, load_model, save_index, save_model
from .neural import TrainConfig
from .retrieval import GeoFilter, build_index, evaluate, rank_venues


@dataclass
class RunConfig:
    """Fully resolved settings for one command run; echoed as JSON."""

    command: str
    method: str = None
    manifest: str = None
    out: str = None
    seed: int = 0
    beta: float = None
    r: float = 1e-4
    k: int = 10
    lr: float = 1e-4
    batch_size: int = 100
    epochs: int = 50
    sigma: float = None
    hidden_sizes: tuple = (1024, 1024)
    dropout: float = 0.5
    train_fraction: float = 0.75
    extra_photo_ratio: float = 0.2
    group_weighting: str = "size"
    geo_radius: float = None
    position_noise_km: float = 0.0
    weight_by_rho: bool = False
    folds: int = 1
    synth: dict = None

    def validate(self):
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("--sigma must be > 0")

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, sort_keys=True, indent=1)
            fh.write("\n")


def _train_model(train_set, config):
    tc = TrainConfig(
        learning_rate=config.lr,
        batch_size=config.batch_size,
        epochs=config.epochs,
        seed=config.seed,
        r=config.r,
        beta=config.beta,
        k=config.k,
        hidden_sizes=config.hidden_sizes,
        dropout_rate=config.dropout,
        group_weighting=config.group_weighting,
    )
    return fit(config.method, train_set, tc, config.sigma)


def _history_csv(model, path):
    lines = ["iteration,epoch,objective"]
    if isinstance(model, DeepCcaModel):
        for i, (e, v) in enumerate(zip(model.history_epoch, model.history_objective)):
            lines.append(f"{i},{e},{v:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_synth(args):
    synth = SynthConfig(
        n_venues=args.n_venues,
        n_categories=args.n_categories,
        photos_per_venue=args.photos_per_venue,
        d_x=args.dim_x,
        d_y=args.dim_y,
        category_signal=args.category_signal,
        venue_signal=args.venue_signal,
        noise=args.noise,
        geo_cluster_radius_km=args.geo_cluster_radius,
        seed=args.seed,
    )
    out = Path(args.out)
    venues = synth_generate(synth)
    write_dataset(venues, out / "manifest.json")
    config = RunConfig(command="synth", out=str(out), seed=args.seed, synth=asdict(synth))
    config.write(out / "config.json")
    n_photos = sum(v.n_photos for v in venues)
    print(
        f"wrote {len(venues)} venues ({n_photos} photos, "
        f"{synth.n_categories} categories) to {out / 'manifest.json'}"
    )
    return 0


def _split_and_pairs(config):
    venues = load_dataset(config.manifest)
    split = SplitSpec(
        seed=config.seed,
        train_venue_fraction=config.train_fraction,
        extra_photo_ratio=config.extra_photo_ratio,
    )
    train_set, test_set = build_pairs(venues, split)
    return venues, train_set, test_set


def _config_from_args(args, command):
    """Resolve the flags; method None means a saved --model is evaluated."""
    if args.method is None:
        for flag, value in (("--beta", args.beta), ("--sigma", args.sigma)):
            if value is not None:
                raise ValueError(
                    f"{flag} sets how a model is trained; --model evaluates a trained model"
                )
    config = RunConfig(
        command=command,
        method=args.method,
        manifest=args.manifest,
        out=args.out,
        seed=args.seed,
        beta=None if args.method is None else resolve_beta(args.method, args.beta),
        r=args.r,
        k=args.k,
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        sigma=args.sigma,
        hidden_sizes=tuple(int(t) for t in args.hidden_sizes.split(",")),
        dropout=args.dropout,
        train_fraction=args.train_fraction,
        extra_photo_ratio=args.extra_photo_ratio,
        group_weighting=args.group_weighting,
    )
    config.validate()
    return config


def cmd_train(args):
    config = _config_from_args(args, "train")
    venues, train_set, test_set = _split_and_pairs(config)
    model = _train_model(train_set, config)
    if isinstance(model, KernelCcaModel):
        config.sigma = model.sigma_x  # echo the heuristic bandwidth actually used
    save_model(model, config.out)
    _history_csv(model, config.out + ".history.csv")
    config.write(config.out + ".config.json")
    rho = np.asarray(model.rho)
    print(
        f"{config.method}: trained on {train_set.n} pairs "
        f"({test_set.n} test queries held out)"
    )
    print(f"rho: {np.array2string(rho, precision=4)}")
    print(f"model written to {config.out}")
    return 0


def cmd_index(args):
    model = load_model(args.model)
    venues = load_dataset(args.manifest)
    index = build_index(model, venues)
    save_index(index, args.out)
    RunConfig(
        command="index", manifest=args.manifest, out=args.out
    ).write(args.out + ".config.json")
    print(f"indexed {index.n} venues to {args.out}")
    return 0


def cmd_retrieve(args):
    model = load_model(args.model)
    index = load_index(args.index)
    queries = read_feature_file(args.query)
    geo = None
    if args.geo_radius is not None:
        if args.lat is None or args.lon is None:
            raise ValueError("--geo-radius needs --lat and --lon")
        geo = GeoFilter(lat=args.lat, lon=args.lon, radius_km=args.geo_radius)
    rows = []
    for qi in range(queries.shape[0]):
        rl = rank_venues(queries[qi], model, index, geo=geo, query_id=str(qi))
        if rl.empty_after_filter:
            print(f"query {qi}: geo filter excluded every venue")
        for rank, (vid, sc) in enumerate(zip(rl.venue_ids[: args.top], rl.scores), 1):
            rows.append((qi, rank, vid, sc))
            print(f"query {qi} rank {rank}: {vid} score {sc:.4f}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("query,rank,venue_id,score\n")
            for qi, rank, vid, sc in rows:
                fh.write(f"{qi},{rank},{vid},{sc:.17g}\n")
    return 0


def _write_report(report, out_dir, stem):
    with open(out_dir / f"{stem}report.json", "w", encoding="ascii") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    with open(out_dir / f"{stem}recall_precision.csv", "w", encoding="ascii") as fh:
        fh.write(report.recall_precision_csv())


def cmd_eval(args):
    if args.model is None and args.method is None:
        raise ValueError("eval needs --model or --method")
    if args.folds < 1:
        raise ValueError("--folds must be >= 1")
    if args.folds > 1 and args.method is None:
        raise ValueError("--folds retrains per fold and therefore needs --method")
    config = _config_from_args(args, "eval")
    config.geo_radius = args.geo_radius
    config.position_noise_km = args.position_noise_km
    config.weight_by_rho = args.weight_by_rho
    config.folds = args.folds
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    several = config.folds > 1
    model = load_model(args.model) if args.model else None
    reports = []
    for f in range(config.folds):
        fold = replace(config, seed=config.seed + f)
        venues, train_set, test_set = _split_and_pairs(fold)
        fold_model = _train_model(train_set, fold) if model is None else model
        index = build_index(fold_model, venues)
        report = evaluate(
            fold_model,
            index,
            test_set,
            geo_radius_km=config.geo_radius,
            position_noise_km=config.position_noise_km,
            seed=fold.seed,
            weight_by_rho=config.weight_by_rho,
        )
        reports.append(report)
        _write_report(report, out_dir, f"fold{f}_" if several else "")
        label = f"fold {f}: " if several else ""
        print(f"{label}MRR1 {report.mrr1:.4f}  MAP {report.map:.4f} ({report.n_queries} queries)")
    config.write(out_dir / "config.json")
    if several:
        summary = {
            "folds": config.folds,
            "mrr1_per_fold": [r.mrr1 for r in reports],
            "map_per_fold": [r.map for r in reports],
            "mrr1_mean": float(np.mean([r.mrr1 for r in reports])),
            "map_mean": float(np.mean([r.map for r in reports])),
        }
        with open(out_dir / "summary.json", "w", encoding="ascii") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(
            f"{config.folds}-fold mean: MRR1 {summary['mrr1_mean']:.4f}  "
            f"MAP {summary['map_mean']:.4f}"
        )
    return 0


def _add_train_flags(p):
    p.add_argument("--method", required=False, choices=METHODS)
    p.add_argument("--beta", type=float, default=None, help="same-venue weight; c-* methods default to 0.3")
    p.add_argument("--r", type=float, default=1e-4, help="covariance ridge")
    p.add_argument("--k", type=int, default=10, help="canonical components")
    p.add_argument("--lr", type=float, default=1e-4, help="Adam learning rate")
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=None, help="kernel bandwidth; default median heuristic")
    p.add_argument("--hidden-sizes", default="1024,1024", help="comma-separated hidden layer widths")
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--train-fraction", type=float, default=0.75)
    p.add_argument("--extra-photo-ratio", type=float, default=0.2)
    p.add_argument("--group-weighting", choices=("size", "equal"), default="size")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="venuecca",
        description="Cross-modal venue discovery: generate data, train CCA-family models, rank venues, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic venue dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-venues", type=int, default=200)
    p.add_argument("--n-categories", type=int, default=10)
    p.add_argument("--photos-per-venue", type=int, default=10)
    p.add_argument("--dim-x", type=int, default=64)
    p.add_argument("--dim-y", type=int, default=32)
    p.add_argument("--category-signal", type=float, default=1.0)
    p.add_argument("--venue-signal", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.4)
    p.add_argument("--geo-cluster-radius", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model on a dataset's training split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="project venue texts into a searchable index")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="rank venues for photo queries")
    p.add_argument("--model", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True, help="feature file of query photos, one per row")
    p.add_argument("--lat", type=float, default=None)
    p.add_argument("--lon", type=float, default=None)
    p.add_argument("--geo-radius", type=float, default=None, help="km")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out", default=None, help="CSV of ranked results")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="evaluate a model (or train one per fold) on held-out queries")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", default=None, help="evaluate this model file")
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("--geo-radius", type=float, default=None, help="km; enables the location filter")
    p.add_argument("--position-noise-km", type=float, default=0.0)
    p.add_argument("--weight-by-rho", action="store_true")
    p.add_argument("--folds", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train" and args.method is None:
        parser.error("train requires --method")
    try:
        return args.func(args)
    except (ValueError, DatasetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
