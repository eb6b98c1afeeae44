"""Command-line interface: data generation, training, evaluation, ablation.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from . import evaluation, kg, selfcheck, training
from .autodiff import DimensionError
from .kg import DataError
from .training import CONFIG_FIELDS, ConfigError, NumericalError, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def task_fingerprint(task):
    """sha256 over the loaded task in dense indices: each graph's entity
    count and triples, the seed split and the initial embeddings, each
    array with its shape. Renumbering the dataset's ids leaves it as it is."""
    digest = hashlib.sha256(repr((task.g1.num_entities, task.g2.num_entities)).encode())
    for array in (task.g1.base.triples, task.g2.base.triples, task.seeds_train,
                  task.seeds_test, task.init_emb1, task.init_emb2):
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def read_config(path):
    """The JSON document at ``path`` and the ``TrainConfig`` its ``config``
    object sets over the defaults: ``{"config": {"semi": true}}``, or any
    run's ``manifest.json``. Raises ``DataError`` naming ``path`` for a file
    that is not UTF-8 JSON, repeats a key in any object or has no ``config``
    object, and for a config key or value that ``TrainConfig`` rejects."""
    def unique_keys(pairs):
        document = {}
        for key, value in pairs:
            if key in document:
                raise DataError(f"{path}: repeated key {key!r}")
            document[key] = value
        return document

    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh, object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    config = document.get("config") if isinstance(document, dict) else None
    if not isinstance(config, dict):
        raise DataError(f"{path}: no config object")
    unknown = sorted(set(config) - set(CONFIG_FIELDS))
    if unknown:
        raise DataError(f"{path}: unknown config key {unknown[0]!r}")
    try:
        return document, TrainConfig(**config)
    except ConfigError as exc:
        # every TrainConfig check names its key first
        raise DataError(f"{path}: bad config value: {exc}") from None


def resolve_config(args):
    """Defaults, then the config file, then explicit flags."""
    cfg = read_config(args.config)[1] if args.config else TrainConfig()
    flags = {f: v for f, v in vars(args).items() if f in CONFIG_FIELDS and v is not None}
    return dataclasses.replace(cfg, **flags)


# thread counts that can change the order of BLAS summation, and so output bits
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment():
    """What decides whether another machine's run is bitwise equal; a thread
    variable is None when unset."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def _write_manifest(out_dir, command, cfg, data_dir, task, artifacts, timings):
    manifest = {
        "tool": "kgalign",
        "version": __version__,
        "command": command,
        "config": dataclasses.asdict(cfg),
        "data_dir": os.path.abspath(data_dir),
        "task_fingerprint": task_fingerprint(task),
        "artifacts": artifacts,
        "timings": timings,
        "environment": _environment(),
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
        rng_seed=args.seed,
    )
    kg.save_dbp15k(task, args.out)
    print(f"graph1: {task.g1.num_entities} entities, "
          f"{task.g1.base.num_relations} relations, {len(task.g1.base.triples)} triples")
    print(f"graph2: {task.g2.num_entities} entities, "
          f"{task.g2.base.num_relations} relations, {len(task.g2.base.triples)} triples")
    print(f"seed pairs: {len(task.seeds_train) + len(task.seeds_test)}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train(args):
    started = time.perf_counter()
    cfg = resolve_config(args)
    task = kg.load_dbp15k(args.data, train_ratio=cfg.train_ratio, seed=cfg.rng_seed)
    training.check_task(task, cfg)  # before the run directory exists
    os.makedirs(args.out, exist_ok=True)
    loss_log = os.path.join(args.out, "loss_log.tsv")

    with open(loss_log, "w", encoding="utf-8") as fh:
        def log(record):
            row = f"{record['epoch']}\t{record['loss']:.17g}"
            if "hits1" in record:
                row += f"\t{record['hits1']:.6f}"
            fh.write(row + "\n")

        train_start = time.perf_counter()
        result = training.fit(task, cfg, log=log)
        train_seconds = time.perf_counter() - train_start

    checkpoint = os.path.join(args.out, "checkpoint.npz")
    training.save_checkpoint(checkpoint, result.params)
    _write_manifest(
        args.out, "train", cfg, args.data, task,
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


def _load_run(run_dir, data_dir):
    """The task loaded from ``data_dir`` under the run's config, the run's
    parameters and the config; raises ``DataError`` for a run that does not
    fit that task, or was trained on another."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    checkpoint_path = os.path.join(run_dir, "checkpoint.npz")
    if not os.path.exists(manifest_path):
        raise DataError(f"missing manifest: {manifest_path}")
    if not os.path.exists(checkpoint_path):
        raise DataError(f"missing checkpoint: {checkpoint_path}")
    manifest, cfg = read_config(manifest_path)
    task = kg.load_dbp15k(data_dir, train_ratio=cfg.train_ratio, seed=cfg.rng_seed)
    params = training.load_checkpoint(checkpoint_path, task, cfg)
    # after the checkpoint's checks, which name what does not fit
    if "task_fingerprint" not in manifest:
        raise DataError(f"{manifest_path}: no task_fingerprint, so the data cannot be checked")
    if manifest["task_fingerprint"] != task_fingerprint(task):
        raise DataError(f"{manifest_path}: task_fingerprint differs from the task in "
                        f"{data_dir}: the run was trained on other data or another split")
    return task, params, cfg


def cmd_eval(args):
    task, params, cfg = _load_run(args.model, args.data)
    f1, f2 = training.forward(task, params, cfg)
    training._check_finite(f"eval of {args.model}", f1.data, f2.data)
    report = evaluation.evaluate(
        task, f1.data, f2.data,
        candidate_pool=args.pool, bidirectional=args.bidirectional,
    )
    for line in report.lines():
        print(line)
    if args.out:
        evaluation.write_report(report, args.out)
    if args.ranks_out:
        evaluation.write_rank_dump(report, task.dataset_ids(task.seeds_test), args.ranks_out)
    return EXIT_OK


def cmd_ablate(args):
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    try:
        modes = [int(m) for m in args.cycle_modes.split(",") if m.strip()]
        depths = [int(d) for d in args.depths.split(",") if d.strip()]
    except ValueError as exc:
        raise _UsageError(f"--cycle-modes and --depths take integers: {exc}") from None
    if not variants or not modes or not depths:
        raise _UsageError("ablation grid is empty")

    # every cell's settings are checked before any training
    cells = [
        (f"{variant}/mode{mode}/l={depth}",
         TrainConfig(epochs=args.epochs, rng_seed=args.seed, d_r=args.d_r, d_t=args.d_t,
                     train_ratio=args.train_ratio, variant=variant, cycle_mode=mode,
                     gcn_depth=depth))
        for variant, mode, depth in itertools.product(variants, modes, depths)
    ]
    task = kg.load_dbp15k(args.data, train_ratio=args.train_ratio, seed=args.seed)
    rows, failed = [], False
    for label, cfg in cells:
        try:
            result = training.fit(task, cfg)
            report = evaluation.evaluate(task, result.final_emb1, result.final_emb2)
            rows.append((label, f"{report.hits_at[1]:.4f}",
                         f"{report.hits_at[10]:.4f}", f"{report.mrr:.4f}"))
        except NumericalError as exc:  # record the cell failure, keep sweeping
            rows.append((label, "ERROR", "ERROR", str(exc)))
            failed = True

    header = ("setting", "H@1", "H@10", "MRR")
    lines = ["\t".join(header)] + ["\t".join(r) for r in rows]
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_check(args):
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    results = (selfcheck.run_fd_checks(trials=args.trials)
               + selfcheck.run_oracle_checks(trials=args.trials)
               + [selfcheck.run_step_check()])
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}\t{status}\t{res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# the `train` flags not spelled as their TrainConfig field
TRAIN_FLAGS = {"rng_seed": "--seed", "neg_refresh_epochs": "--neg-refresh"}


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
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train an alignment model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON file with a `config` object, such as a manifest.json")
    # one flag per TrainConfig field, which checks the value
    for field in dataclasses.fields(TrainConfig):
        flag = TRAIN_FLAGS.get(field.name, "--" + field.name.replace("_", "-"))
        if field.type is bool:
            p.add_argument(flag, dest=field.name, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=field.name, type=field.type)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run on a dataset")
    p.add_argument("--model", required=True, help="run directory from `train`")
    p.add_argument("--data", required=True)
    p.add_argument("--pool", choices=list(evaluation.CANDIDATE_POOLS), default="test")
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--out", help="write metrics TSV here")
    p.add_argument("--ranks-out", dest="ranks_out", help="write per-query rank dump here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/eval over a variant grid")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", default=",".join(training.VARIANTS))
    p.add_argument("--cycle-modes", dest="cycle_modes", default=str(TrainConfig.cycle_mode))
    p.add_argument("--depths", default=str(TrainConfig.gcn_depth))
    # a smaller model than `train`'s defaults, so a whole grid runs quickly
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=TrainConfig.rng_seed)
    p.add_argument("--d-r", dest="d_r", type=int, default=16)
    p.add_argument("--d-t", dest="d_t", type=int, default=16)
    p.add_argument("--train-ratio", dest="train_ratio", type=float,
                   default=TrainConfig.train_ratio)
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
    except (_UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, DimensionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
