"""Command-line pipeline: synth, train, index, retrieve, eval.

Each command builds the library's settings (SynthConfig, SplitSpec,
TrainConfig) from its flags before it reads or writes a file, so a bad
flag is an error that leaves nothing behind. synth, train and eval take
--seed. Every command but retrieve writes a config JSON replay record:
synth to <out>/config.json, train to <model>.config.json, index to
<index>.config.json and eval to <out>/config.json. A record holds the
parsed flags plus what the command resolved from them: the beta the
method runs at, a kernel model's bandwidth and synth's SynthConfig.
eval --model takes no training flag and records none.
Errors and warnings reach stderr as one "error: ..." or "warning: ..."
line each. Outputs carry no timestamps; repeating a command with the
same arguments produces byte identical files.
"""

import argparse
import json
import sys
import warnings
from dataclasses import asdict, replace
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
from .methods import METHODS, check_sigma, fit, resolve_beta
from .model_io import load_index, load_model, save_index, save_model
from .neural import TrainConfig
from .retrieval import (
    GeoFilter,
    _check_position_noise,
    _check_radius,
    build_index,
    evaluate,
    rank_photos,
)


def _write_record(path, args, **resolved):
    """Write the replay record of a run: its parsed flags plus the values
    the command resolved from them."""
    record = {k: v for k, v in vars(args).items() if k != "func"}
    record.update(resolved)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _split_spec(args):
    return SplitSpec(
        seed=args.seed,
        train_venue_fraction=args.train_fraction,
        extra_photo_ratio=args.extra_photo_ratio,
    )


def _train_config(args):
    """The TrainConfig of --method, at its beta; rejects sigma it cannot take."""
    check_sigma(args.method, args.sigma)
    return TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        r=args.r,
        beta=resolve_beta(args.method, args.beta),
        k=args.k,
        hidden_sizes=args.hidden_sizes,
        dropout_rate=args.dropout,
        group_weighting=args.group_weighting,
    )


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
    _write_record(out / "config.json", args, synth=asdict(synth))
    n_photos = sum(v.n_photos for v in venues)
    print(
        f"wrote {len(venues)} venues ({n_photos} photos, "
        f"{synth.n_categories} categories) to {out / 'manifest.json'}"
    )
    return 0


def cmd_train(args):
    split, config = _split_spec(args), _train_config(args)
    train_set, test_set = build_pairs(load_dataset(args.manifest), split)
    model = fit(args.method, train_set, config, args.sigma)
    # echo the bandwidth a kernel model actually used (the median heuristic)
    sigma = model.sigma_x if isinstance(model, KernelCcaModel) else args.sigma
    save_model(model, args.out)
    _history_csv(model, args.out + ".history.csv")
    _write_record(args.out + ".config.json", args, beta=config.beta, sigma=sigma)
    rho = np.asarray(model.rho)
    print(
        f"{args.method}: trained on {train_set.n} pairs "
        f"({test_set.n} test queries held out)"
    )
    print(f"rho: {np.array2string(rho, precision=4)}")
    print(f"model written to {args.out}")
    return 0


def cmd_index(args):
    model = load_model(args.model)
    venues = load_dataset(args.manifest)
    index = build_index(model, venues)
    save_index(index, args.out)
    _write_record(args.out + ".config.json", args)
    print(f"indexed {index.n} venues to {args.out}")
    return 0


def cmd_retrieve(args):
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    geo = None
    if args.geo_radius is not None:
        if args.lat is None or args.lon is None:
            raise ValueError("--geo-radius needs --lat and --lon")
        geo = GeoFilter(lat=args.lat, lon=args.lon, radius_km=args.geo_radius)
    elif args.lat is not None or args.lon is not None:
        raise ValueError("--lat and --lon need --geo-radius")
    model = load_model(args.model)
    index = load_index(args.index)
    queries = read_feature_file(args.query)
    rows = []
    for qi, rl in enumerate(rank_photos(queries.T, model, index, geo=geo)):
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
    if args.model is not None:
        given = [dest for dest in ("method", *TRAINING_FLAGS) if getattr(args, dest) is not None]
        if given:
            raise ValueError(
                f"--{given[0].replace('_', '-')} sets how a model is trained; "
                "--model evaluates a trained model"
            )
        for dest in TRAINING_FLAGS:
            delattr(args, dest)  # so the record holds no training settings
    else:
        defaults = _train_flag_defaults()
        for dest in TRAINING_FLAGS:
            if getattr(args, dest) is None:
                setattr(args, dest, defaults[dest])
    if args.geo_radius is not None:
        _check_radius(args.geo_radius)
    _check_position_noise(args.position_noise_km)
    split = _split_spec(args)
    config = None if args.method is None else _train_config(args)
    venues = load_dataset(args.manifest)
    model = load_model(args.model) if args.model else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    several = args.folds > 1
    reports = []
    for f in range(args.folds):
        seed = args.seed + f
        train_set, test_set = build_pairs(venues, replace(split, seed=seed))
        if config is not None:
            model = fit(args.method, train_set, replace(config, seed=seed), args.sigma)
        report = evaluate(
            model,
            build_index(model, venues),
            test_set,
            geo_radius_km=args.geo_radius,
            position_noise_km=args.position_noise_km,
            seed=seed,
            weight_by_rho=args.weight_by_rho,
        )
        reports.append(report)
        _write_report(report, out_dir, f"fold{f}_" if several else "")
        label = f"fold {f}: " if several else ""
        print(f"{label}MRR1 {report.mrr1:.4f}  MAP {report.map:.4f} ({report.n_queries} queries)")
    _write_record(out_dir / "config.json", args, beta=None if config is None else config.beta)
    if several:
        summary = {
            "folds": args.folds,
            "mrr1_per_fold": [r.mrr1 for r in reports],
            "map_per_fold": [r.map for r in reports],
            "mrr1_mean": float(np.mean([r.mrr1 for r in reports])),
            "map_mean": float(np.mean([r.map for r in reports])),
        }
        with open(out_dir / "summary.json", "w", encoding="ascii") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(
            f"{args.folds}-fold mean: MRR1 {summary['mrr1_mean']:.4f}  "
            f"MAP {summary['map_mean']:.4f}"
        )
    return 0


def _hidden_sizes(text):
    return tuple(int(t) for t in text.split(","))


# the flags of _add_train_flags that set how a model is trained; eval
# leaves them None so that --model can reject any that is given
TRAINING_FLAGS = (
    "beta", "r", "k", "lr", "batch_size", "epochs", "sigma", "hidden_sizes", "dropout", "group_weighting",
)


def _train_flag_defaults():
    p = argparse.ArgumentParser()
    _add_train_flags(p)
    return {dest: p.get_default(dest) for dest in TRAINING_FLAGS}


def _add_train_flags(p):
    train, split = TrainConfig(), SplitSpec()
    p.add_argument("--method", required=False, choices=METHODS)
    p.add_argument(
        "--beta", type=float, default=None, help=f"same-venue weight; c-* methods default to {train.beta}"
    )
    p.add_argument("--r", type=float, default=train.r, help="covariance ridge")
    p.add_argument("--k", type=int, default=train.k, help="canonical components")
    p.add_argument("--lr", type=float, default=train.learning_rate, help="Adam learning rate")
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--seed", type=int, default=train.seed)
    p.add_argument("--sigma", type=float, default=None, help="kernel bandwidth; default median heuristic")
    p.add_argument(
        "--hidden-sizes",
        type=_hidden_sizes,
        default=train.hidden_sizes,
        help="comma-separated hidden layer widths",
    )
    p.add_argument("--dropout", type=float, default=train.dropout_rate)
    p.add_argument("--train-fraction", type=float, default=split.train_venue_fraction)
    p.add_argument("--extra-photo-ratio", type=float, default=split.extra_photo_ratio)
    p.add_argument("--group-weighting", choices=("size", "equal"), default=train.group_weighting)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="venuecca",
        description="Cross-modal venue discovery: generate data, train CCA-family models, rank venues, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = SynthConfig()
    p = sub.add_parser("synth", help="generate a synthetic venue dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-venues", type=int, default=synth.n_venues)
    p.add_argument("--n-categories", type=int, default=synth.n_categories)
    p.add_argument("--photos-per-venue", type=int, default=synth.photos_per_venue)
    p.add_argument("--dim-x", type=int, default=synth.d_x)
    p.add_argument("--dim-y", type=int, default=synth.d_y)
    p.add_argument("--category-signal", type=float, default=synth.category_signal)
    p.add_argument("--venue-signal", type=float, default=synth.venue_signal)
    p.add_argument("--noise", type=float, default=synth.noise)
    p.add_argument("--geo-cluster-radius", type=float, default=synth.geo_cluster_radius_km)
    p.add_argument("--seed", type=int, default=synth.seed)
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
    p.set_defaults(**dict.fromkeys(TRAINING_FLAGS))
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("--geo-radius", type=float, default=None, help="km; enables the location filter")
    p.add_argument("--position-noise-km", type=float, default=0.0)
    p.add_argument("--weight-by-rho", action="store_true")
    p.add_argument("--folds", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train" and args.method is None:
        parser.error("train requires --method")
    # Warnings print as one line each, like errors; filters are left as set.
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValueError, DatasetError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
