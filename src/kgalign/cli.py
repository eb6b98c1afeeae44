"""Command-line interface: data generation, training, evaluation, ablation.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import hashlib
import itertools
import json
import os
import sys
import time

from . import __version__
from . import evaluation, kg, selfcheck, training
from .autodiff import DimensionError
from .kg import DataError
from .training import NumericalError, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def dataset_fingerprint(directory):
    """Content hash over the dataset files, stable across machines."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        digest.update(name.encode("utf-8"))
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


_CONFIG_FIELDS = {f: t for f, t in TrainConfig.__annotations__.items()}


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(field, raw):
    kind = _CONFIG_FIELDS[field]
    if kind is bool:
        try:
            return _BOOLS[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw.strip()


def load_config_file(path):
    """Parse flat `key = value` lines into TrainConfig overrides."""
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DataError(f"{path}:{lineno}: expected `key = value`")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _CONFIG_FIELDS:
                raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                overrides[key] = _coerce(key, raw.strip())
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad value for {key}") from None
    return overrides


def resolve_config(args):
    """Defaults, then config file, then explicit flags."""
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(load_config_file(args.config))
    flag_map = {
        "variant": "variant", "cycle_mode": "cycle_mode", "epochs": "epochs",
        "seed": "rng_seed", "margin": "margin", "neg_k": "neg_k",
        "neg_refresh": "neg_refresh_epochs", "lr": "lr", "d_r": "d_r",
        "d_t": "d_t", "gcn_depth": "gcn_depth", "train_ratio": "train_ratio",
        "eval_every": "eval_every",
    }
    for flag, field in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "semi", False):
        overrides["semi"] = True
    return TrainConfig(**overrides)


def _write_manifest(out_dir, command, cfg, data_dir, artifacts, timings):
    manifest = {
        "tool": "kgalign",
        "version": __version__,
        "command": command,
        "config": cfg.as_dict(),
        "data_dir": os.path.abspath(data_dir),
        "dataset_fingerprint": dataset_fingerprint(data_dir),
        "artifacts": artifacts,
        "timings": timings,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_gen_synth(args):
    task = kg.generate_synthetic_pair(
        n_entities=args.entities,
        n_relations=args.relations,
        avg_degree=args.avg_degree,
        drop_triple_prob=args.drop_prob,
        emb_noise_sigma=args.emb_noise,
        emb_dim=args.emb_dim,
        train_ratio=args.train_ratio,
        rng_seed=args.seed,
    )
    kg.save_dbp15k(task, args.out)
    print(f"graph1: {task.g1.num_entities} entities, "
          f"{task.g1.base.num_relations} relations, {len(task.g1.base.triples)} triples")
    print(f"graph2: {task.g2.num_entities} entities, "
          f"{task.g2.base.num_relations} relations, {len(task.g2.base.triples)} triples")
    print(f"seeds: {len(task.seeds_train)} train / {len(task.seeds_test)} test")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train(args):
    started = time.perf_counter()
    cfg = resolve_config(args)
    task = kg.load_dbp15k(args.data, train_ratio=cfg.train_ratio, seed=cfg.rng_seed)
    os.makedirs(args.out, exist_ok=True)
    loss_log = os.path.join(args.out, "loss_log.tsv")

    with open(loss_log, "w", encoding="utf-8") as fh:
        def log(record):
            row = f"{record['epoch']}\t{record['loss']:.17g}"
            if "hits1" in record:
                row += f"\t{record['hits1']:.6f}"
            fh.write(row + "\n")

        result, train_seconds = training.timed(training.fit, task, cfg, log=log)

    checkpoint = os.path.join(args.out, "checkpoint.npz")
    training.save_checkpoint(checkpoint, result.params)
    _write_manifest(
        args.out, "train", cfg, args.data,
        artifacts={"checkpoint": "checkpoint.npz", "loss_log": "loss_log.tsv"},
        timings={
            "train_seconds": round(train_seconds, 3),
            "total_seconds": round(time.perf_counter() - started, 3),
        },
    )
    final_loss = result.history[-1]["loss"] if result.history else float("nan")
    print(f"trained {cfg.epochs} epochs, final loss {final_loss:.6g}")
    print(f"run directory: {args.out}")
    return EXIT_OK


def _load_run(run_dir):
    manifest_path = os.path.join(run_dir, "manifest.json")
    checkpoint_path = os.path.join(run_dir, "checkpoint.npz")
    if not os.path.exists(manifest_path):
        raise DataError(f"missing manifest: {manifest_path}")
    if not os.path.exists(checkpoint_path):
        raise DataError(f"missing checkpoint: {checkpoint_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path}: not valid JSON: {exc}") from None
    config = manifest.get("config") if isinstance(manifest, dict) else None
    if not isinstance(config, dict):
        raise DataError(f"{manifest_path}: no config object")
    unknown = sorted(set(config) - set(_CONFIG_FIELDS))
    if unknown:
        raise DataError(f"{manifest_path}: unknown config key {unknown[0]!r}")
    try:
        cfg = TrainConfig(**config)
    except (TypeError, ValueError) as exc:
        # every TrainConfig check names its key first
        raise DataError(f"{manifest_path}: bad config value: {exc}") from None
    params = training.load_checkpoint(checkpoint_path)
    return checkpoint_path, cfg, params


def cmd_eval(args):
    checkpoint_path, cfg, params = _load_run(args.model)
    task = kg.load_dbp15k(args.data, train_ratio=cfg.train_ratio, seed=cfg.rng_seed)
    training.check_checkpoint(checkpoint_path, params, task, cfg)
    f1, f2 = training.forward(task, params, cfg)
    report = evaluation.evaluate(
        task, f1.data, f2.data,
        candidate_pool=args.pool, bidirectional=args.bidirectional,
    )
    for line in report.lines():
        print(line)
    if args.out:
        evaluation.write_report(report, args.out)
    if args.ranks_out:
        evaluation.write_rank_dump(report, task.seeds_test, args.ranks_out)
    return EXIT_OK


def cmd_ablate(args):
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    modes = [int(m) for m in args.cycle_modes.split(",") if m.strip()]
    depths = [int(d) for d in args.depths.split(",") if d.strip()]
    if not variants or not modes or not depths:
        raise _UsageError("ablation grid is empty")

    task = kg.load_dbp15k(args.data, train_ratio=args.train_ratio, seed=args.seed)
    rows = []
    for variant, mode, depth in itertools.product(variants, modes, depths):
        label = f"{variant}/mode{mode}/l={depth}"
        try:
            cfg = TrainConfig(
                variant=variant, cycle_mode=mode, gcn_depth=depth,
                epochs=args.epochs, rng_seed=args.seed,
                d_r=args.d_r, d_t=args.d_t, train_ratio=args.train_ratio,
            )
            result = training.fit(task, cfg)
            report = evaluation.evaluate(task, result.final_emb1, result.final_emb2)
            rows.append((label, f"{report.hits_at[1]:.4f}",
                         f"{report.hits_at[10]:.4f}", f"{report.mrr:.4f}"))
        except Exception as exc:  # record the cell failure, keep sweeping
            rows.append((label, "ERROR", "ERROR", str(exc)))

    header = ("setting", "H@1", "H@10", "MRR")
    lines = ["\t".join(header)] + ["\t".join(r) for r in rows]
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    return EXIT_OK


def cmd_check(args):
    results = selfcheck.run_all(trials=args.trials)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}\t{status}\t{res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def build_parser():
    parser = _Parser(prog="kgalign", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kgalign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic aligned graph pair")
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--relations", type=int, default=20)
    p.add_argument("--avg-degree", dest="avg_degree", type=float, default=5.0)
    p.add_argument("--drop-prob", dest="drop_prob", type=float, default=0.15)
    p.add_argument("--emb-noise", dest="emb_noise", type=float, default=0.3)
    p.add_argument("--emb-dim", dest="emb_dim", type=int, default=32)
    p.add_argument("--train-ratio", dest="train_ratio", type=float, default=0.30)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train an alignment model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="flat `key = value` config file")
    p.add_argument("--variant", choices=list(training.VARIANTS))
    p.add_argument("--cycle-mode", dest="cycle_mode", type=int, choices=(1, 2, 3))
    p.add_argument("--semi", action="store_true")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--neg-k", dest="neg_k", type=int)
    p.add_argument("--neg-refresh", dest="neg_refresh", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--d-r", dest="d_r", type=int)
    p.add_argument("--d-t", dest="d_t", type=int)
    p.add_argument("--gcn-depth", dest="gcn_depth", type=int)
    p.add_argument("--train-ratio", dest="train_ratio", type=float)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run on a dataset")
    p.add_argument("--model", required=True, help="run directory from `train`")
    p.add_argument("--data", required=True)
    p.add_argument("--pool", choices=("test", "all"), default="test")
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--out", help="write metrics TSV here")
    p.add_argument("--ranks-out", dest="ranks_out", help="write per-query rank dump here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/eval over a variant grid")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", default="full,wo-E,wo-T,wo-C")
    p.add_argument("--cycle-modes", dest="cycle_modes", default="2")
    p.add_argument("--depths", default="2")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-r", dest="d_r", type=int, default=16)
    p.add_argument("--d-t", dest="d_t", type=int, default=16)
    p.add_argument("--train-ratio", dest="train_ratio", type=float, default=0.30)
    p.add_argument("--out", help="write the table here")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("check", help="run gradient and oracle self-tests")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, DimensionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # bad parameter values (config validation and the like)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
