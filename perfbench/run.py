"""Alignment-training benchmark for kgalign.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-supervised --seed 1 --seconds 30 --trace 0

Each run is one fresh process with BLAS pinned to one thread. It writes the
workload's synthetic dataset to disk and loads it back with
``kg.load_dbp15k``. It then runs one unit of ``training.fit`` plus
``evaluation.evaluate`` and loads the dataset again until ``--seconds``
seconds have passed; ``setup_s`` is the median of all loads.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment, goes to ``.perfbench_out/``.

With ``--trace 1`` a traced unit runs between two untraced ones, and the
metrics are per-layer figures from the traced unit, or per load for the
``kg.*`` layers. The spans are written next to the result.
``--smoke`` runs the same code at a tiny size, for the benchmark's own
tests. ``--write-reference`` records this run's outputs as the reference
later runs must match.

Every run first trains a tiny probe at a fixed seed and compares it with the
recorded reference. Every unit is compared with the first unit of the run
and, where one is recorded, with the reference for this workload and seed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE_FILE = HERE / "reference.json"

# One BLAS thread keeps runs steady on a shared host and results bitwise
# reproducible. Pinned before numpy is first imported.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
REL_TOL = 1e-9  # ROADMAP's tolerance for reordered float64 sums
SETUP_LOADS = 3  # before training; more follow it, MIN_LOADS in all at least
MIN_LOADS = 7
PROBE_SEED = 0
TINY_ENTITIES = 100


@dataclass(frozen=True)
class Workload:
    generate: dict  # generate_synthetic_pair arguments, without the seed
    train: dict  # TrainConfig fields, without the seed
    evaluate: dict  # the benchmark's evaluate() arguments


# Why each workload exists is recorded in BENCHMARK.json. The noise levels
# keep the hinge loss above zero in the first epochs, so the references'
# loss trajectories depend on every stage of the forward pass, and keep
# hits@1 high enough that it varies little from seed to seed. Epoch counts
# keep a refresh epoch away from the median epoch on desk and paper.
WORKLOADS = {
    "desk-supervised": Workload(
        generate=dict(n_entities=2000, n_relations=50, avg_degree=5, emb_dim=64,
                      emb_noise_sigma=0.7),
        train=dict(epochs=5, d_r=64, d_t=64, neg_refresh_epochs=5),
        evaluate={},
    ),
    "semi-mining": Workload(
        generate=dict(n_entities=2000, n_relations=50, avg_degree=5, emb_dim=32),
        train=dict(epochs=3, d_r=16, d_t=16, semi=True, neg_refresh_epochs=1, eval_every=1),
        evaluate=dict(candidate_pool="all", bidirectional=True),
    ),
    "paper-width": Workload(
        generate=dict(n_entities=1000, n_relations=100, avg_degree=9, emb_dim=300,
                      emb_noise_sigma=0.8),
        train=dict(epochs=4),
        evaluate={},
    ),
}


def _rows(position):
    return lambda args, kwargs: len(args[position])


def _elem_ops(args, kwargs):
    return args[0].shape[0] * args[1].shape[0] * args[0].shape[1]


# (module, attribute path, (work name, work per call) or None). A layer is
# named "<module>.<attribute path>".
TRACED = (
    ("kg", "load_dbp15k", None),
    ("kg", "expand_relations", None),
    ("training", "fit", None),
    ("training", "forward", None),
    ("structure", "encode_structure", None),
    ("triples", "encode_triples", None),
    ("enhancer", "enhance_entities", None),
    ("training", "alignment_loss", None),
    ("autodiff", "Tape.backward", None),
    ("autodiff", "adam_step", None),
    ("training", "refresh_negatives", None),
    ("training", "expand_seeds_bidirectional", None),
    ("evaluation", "evaluate", None),
    ("kernels", "pairwise_manhattan", ("elem_ops", _elem_ops)),
    ("kernels", "segment_sum", ("rows", _rows(0))),
    ("kernels", "segment_max", ("rows", _rows(0))),
    ("kernels", "scatter_add_rows", ("rows", _rows(2))),
)
PER_LOAD_MODULE = "kg"


# ------------------------------------------------------------------ program


def import_program():
    """Import kgalign from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "kgalign" / "__init__.py").is_file():
        print(f"perfbench: no kgalign sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import importlib

    mods = {
        name: importlib.import_module(f"kgalign.{name}")
        for name in ("autodiff", "enhancer", "evaluation", "kernels", "kg",
                     "structure", "training", "triples")
    }
    if Path(mods["kg"].__file__).resolve().parent != SRC / "kgalign":
        print("perfbench: kgalign imported from outside this checkout", file=sys.stderr)
        sys.exit(2)
    return mods


def environment(mods, seed):
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    backend = getattr(mods["kernels"], "active_backend", None)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend() if backend else "n/a",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload_seed": seed,
    }


# ---------------------------------------------------------------- tracing


def install(tracer, mods):
    def on_backward(args, kwargs):
        # op count and computed output bytes of the tape being swept
        ops = args[0].ops
        outputs = (item for op in ops for item in op if hasattr(item, "requires_grad"))
        tracer.count("autodiff.tape_ops", len(ops))
        tracer.count("autodiff.tape_mb", sum(t.data.nbytes for t in outputs) / 1e6)
        return 0

    for module, path, work in TRACED:
        owner = mods[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        hook = work[1] if work else on_backward if path == "Tape.backward" else None
        tracer.wrap(owner, attr, f"{module}.{path}", hook)


def layer_metrics(tracer, units, loads):
    """Per-layer metrics: per traced unit, or per load for the kg layers."""
    table = tracer.summary()
    metrics = {}
    for module, path, work in TRACED:
        name = f"{module}.{path}"
        per = loads if module == PER_LOAD_MODULE else units
        row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        metrics[f"{name}.calls"] = (row["calls"] / per, "count")
        metrics[f"{name}.total_s"] = (row["total_s"] / per, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / per, "s")
        if work:
            metrics[f"{name}.{work[0]}"] = (row["work"] / per, "count")
    refresh_ops = sum(
        span[4] for i, span in enumerate(tracer.spans)
        if span[0] == "kernels.pairwise_manhattan"
        and tracer.has_ancestor(i, "training.refresh_negatives")
    )
    metrics["training.refresh_negatives.elem_ops"] = (refresh_ops / units, "count")
    metrics["autodiff.tape_ops"] = (tracer.counters.get("autodiff.tape_ops", 0) / units, "count")
    metrics["autodiff.tape_mb"] = (tracer.counters.get("autodiff.tape_mb", 0.0) / units, "MB")
    return metrics


def print_layer_table(metrics):
    """Per-layer rows sorted by self time, then the counts."""
    layers = sorted(
        (name[: -len(".self_s")] for name in metrics if name.endswith(".self_s")),
        key=lambda layer: -metrics[layer + ".self_s"][0],
    )
    print(f"  {'layer':<40} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for layer in layers:
        print(f"  {layer:<40} {metrics[layer + '.calls'][0]:10.1f} "
              f"{metrics[layer + '.total_s'][0]:10.4f} {metrics[layer + '.self_s'][0]:10.4f}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".total_s", ".self_s")):
            print(f"  {name:<40} {value:12.6g} {unit}")


# ------------------------------------------------------------- correctness


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(outcome, reference):
    """Mismatches between two unit outcomes (loss trajectory, pairs, hits, MRR)."""
    problems = []
    if len(outcome["losses"]) != len(reference["losses"]):
        problems.append("loss trajectory length differs")
    else:
        for epoch, (a, b) in enumerate(zip(outcome["losses"], reference["losses"])):
            if not _close(a, b):
                problems.append(f"loss at epoch {epoch}: {a!r} vs reference {b!r}")
                break
    if outcome["train_pairs"] != reference["train_pairs"]:
        problems.append(f"train_pairs {outcome['train_pairs']} vs {reference['train_pairs']}")
    for key in ("hits_at_1", "mrr"):
        if not _close(outcome[key], reference[key]):
            problems.append(f"{key} {outcome[key]!r} vs reference {reference[key]!r}")
    return problems


def finite_problems(result, report):
    import numpy as np

    problems = []
    if not (np.isfinite(result.final_emb1).all() and np.isfinite(result.final_emb2).all()):
        problems.append("non-finite final embeddings")
    if not all(np.isfinite(record["loss"]) for record in result.history):
        problems.append("non-finite loss")
    if not (np.isfinite(report.mrr) and all(np.isfinite(v) for v in report.hits_at.values())):
        problems.append("non-finite hits/MRR")
    return problems


def oracle_problems(task, result, report, candidate_pool="test", bidirectional=False):
    """Check evaluate()'s ranks against scipy cdist distances.

    A rank must lie between one plus the count of candidates clearly closer
    than the true one and the count not clearly farther. "Clearly" is a
    relative margin of REL_TOL, so reordered sums cannot flip the check.
    """
    import numpy as np
    from scipy.spatial.distance import cdist

    test = task.seeds_test
    if candidate_pool == "test":
        pools = (np.unique(test[:, 1]), np.unique(test[:, 0]))
    else:
        pools = (np.arange(task.g2.num_entities), np.arange(task.g1.num_entities))
    directions = [(result.final_emb1, result.final_emb2, test, pools[0])]
    if bidirectional:
        directions.append((result.final_emb2, result.final_emb1, test[:, ::-1], pools[1]))
    low, high = [], []
    for queries, targets, pairs, pool in directions:
        dist = cdist(queries[pairs[:, 0]], targets[pool], "cityblock")
        true = dist[np.arange(len(pairs)), np.searchsorted(pool, pairs[:, 1])][:, None]
        low.append((dist < true * (1 - REL_TOL)).sum(axis=1) + 1)
        high.append((dist <= true * (1 + REL_TOL)).sum(axis=1))
    low, high = np.concatenate(low), np.concatenate(high)
    ranks = np.asarray(report.per_query_ranks)
    if ranks.shape != low.shape:
        return [f"{ranks.shape} ranks, expected {low.shape}"]
    problems = []
    outside = int(((ranks < low) | (ranks > high)).sum())
    if outside:
        problems.append(f"{outside} ranks disagree with the cdist oracle")
    if not _close(float(np.mean(ranks <= 1)), report.hits_at[1]):
        problems.append("hits@1 does not match the reported ranks")
    if not _close(float(np.mean(1.0 / ranks)), report.mrr):
        problems.append("MRR does not match the reported ranks")
    return problems


def roundtrip_problems(written, loaded):
    import numpy as np

    problems = []
    for side in ("g1", "g2"):
        a, b = getattr(written, side).base, getattr(loaded, side).base
        if a.num_relations != b.num_relations or not np.array_equal(a.triples, b.triples):
            problems.append(f"{side} triples differ after load")
    for key in ("seeds_train", "seeds_test", "init_emb1", "init_emb2"):
        if not np.array_equal(getattr(written, key), getattr(loaded, key)):
            problems.append(f"{key} differs after load")
    return problems


def load_references():
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


def write_references(workload, entries):
    references = load_references()
    references.setdefault(workload, {}).update(entries)
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


# ------------------------------------------------------------------ a run


def run_unit(mods, task, cfg, eval_kwargs):
    """One training.fit and one evaluate, with the fit's epoch timestamps."""
    clock = time.perf_counter
    stamps = []
    start = clock()
    result = mods["training"].fit(task, cfg, log=lambda record: stamps.append(clock()))
    fit_s = clock() - start
    eval_start = clock()
    report = mods["evaluation"].evaluate(task, result.final_emb1, result.final_emb2, **eval_kwargs)
    eval_s = clock() - eval_start
    unit = {
        "fit_s": fit_s,
        "eval_s": eval_s,
        "epoch_s": [b - a for a, b in zip([start] + stamps[:-1], stamps)],
        "outcome": {
            "losses": [record["loss"] for record in result.history],
            "train_pairs": int(len(result.train_pairs)),
            "hits_at_1": float(report.hits_at[1]),
            "mrr": float(report.mrr),
        },
    }
    return unit, result, report


def seed_growth(task, result):
    """Pairs added by seed expansion, and how many of them are true pairs."""
    import numpy as np

    truth = np.concatenate([task.seeds_train, task.seeds_test])
    partner = np.full(task.g1.num_entities, -1, dtype=np.int64)
    partner[truth[:, 0]] = truth[:, 1]
    added = result.train_pairs[len(task.seeds_train):]
    return len(added), int((partner[added[:, 0]] == added[:, 1]).sum())


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


class Run:
    """The samples and checks of one benchmark run."""

    def __init__(self, args, mods):
        self.args = args
        self.mods = mods
        self.workload = WORKLOADS[args.workload]
        self.size = "tiny" if args.smoke else "full"
        self.references = load_references().get(args.workload, {})
        self.tracer = Tracer()
        self.checks = []  # (operation, problems), one per attempted operation
        self.probe = None
        self.load_s = []
        self.units = []  # untraced units that passed
        self.traced_units = []
        self.first = None  # outcome of the run's first unit

    def check(self, operation, problems):
        self.checks.append((operation, problems))

    @property
    def failed(self):
        return sum(1 for _, problems in self.checks if problems)

    def generate(self, smoke, seed):
        generate = dict(self.workload.generate)
        if smoke:
            generate["n_entities"] = TINY_ENTITIES
        return self.mods["kg"].generate_synthetic_pair(**generate, rng_seed=seed)

    def config(self, seed):
        return self.mods["training"].TrainConfig(rng_seed=seed, **self.workload.train)

    def run_probe(self):
        """Train the tiny probe and compare it with the recorded reference."""
        task = self.generate(True, PROBE_SEED)
        try:
            self.probe, result, report = run_unit(
                self.mods, task, self.config(PROBE_SEED), self.workload.evaluate)
        except Exception:  # counted as a failed probe; the run goes on
            self.check("probe", [traceback.format_exc()])
            return
        problems = finite_problems(result, report)
        reference = self.references.get(f"tiny/{PROBE_SEED}")
        if reference:
            problems += compare(self.probe["outcome"], reference)
        elif not self.args.write_reference:
            problems.append(f"no reference recorded in {REFERENCE_FILE.name}")
        self.check("probe", problems)

    def write_dataset(self):
        data_dir = WORK_DIR / f"{self.args.workload}-{self.size}-seed{self.args.seed}"
        shutil.rmtree(data_dir, ignore_errors=True)
        self.mods["kg"].save_dbp15k(self.generate(self.args.smoke, self.args.seed), data_dir)
        return data_dir

    def load(self, data_dir, count):
        """Time `count` loads of the dataset and return the last task."""
        for _ in range(count):
            start = time.perf_counter()
            task = self.mods["kg"].load_dbp15k(data_dir, seed=self.args.seed)
            self.load_s.append(time.perf_counter() - start)
        return task

    def set_up(self, data_dir):
        """The first SETUP_LOADS loads, traced with --trace 1, and a round-trip check."""
        if self.args.trace:
            install(self.tracer, self.mods)
        try:
            task = self.load(data_dir, SETUP_LOADS)
        finally:
            self.tracer.uninstall()
        self.check("load", roundtrip_problems(self.generate(self.args.smoke, self.args.seed), task))
        return task

    def measure(self, task, data_dir):
        """One cold unit of fit + evaluate, then more loads until time is up.

        The unit is cold, as in a fresh `kgalign train` process. Warm units
        run faster, so adding them while time allows would make the figures
        depend on how many fit. The loads after it spread the set-up samples
        over the run, so a short slow spell of the host moves their median
        less. With tracing there are three units: cold untraced, traced, warm
        untraced; the overhead compares the last two.
        """
        cfg = self.config(self.args.seed)
        deadline = time.perf_counter() + self.args.seconds
        for attempt, traced in enumerate((False, True, False) if self.args.trace else (False,)):
            if traced:
                install(self.tracer, self.mods)
            try:
                unit, result, report = run_unit(self.mods, task, cfg, self.workload.evaluate)
            except Exception:  # counted as a failed unit; the run goes on
                self.check("unit", [traceback.format_exc()])
                continue
            finally:
                self.tracer.uninstall()
            problems = self.check_unit(task, unit, result, report)
            unit["attempt"] = attempt
            unit["seed_proposals"], unit["seed_correct"] = seed_growth(task, result)
            if not problems:
                (self.traced_units if traced else self.units).append(unit)

        while not self.args.trace and (len(self.load_s) < MIN_LOADS or
                                       time.perf_counter() + median(self.load_s) < deadline):
            self.load(data_dir, 1)

    def check_unit(self, task, unit, result, report):
        problems = finite_problems(result, report)
        if self.first is None:
            self.first = unit["outcome"]
            problems += oracle_problems(task, result, report, **self.workload.evaluate)
            reference = self.references.get(f"{self.size}/{self.args.seed}")
            if reference:
                problems += compare(self.first, reference)
        else:
            problems += compare(unit["outcome"], self.first)
        self.check("unit", problems)
        return problems

    def end_to_end_metrics(self):
        first = self.first or {"hits_at_1": 0.0, "mrr": 0.0}
        return {
            "setup_s": (median(self.load_s), "s"),
            "fit_s": (self.units[0]["fit_s"] if self.units else 0.0, "s"),
            "epoch_s_p50": (median(s for unit in self.units for s in unit["epoch_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "hits_at_1": (first["hits_at_1"], "ratio"),
            "mrr": (first["mrr"], "ratio"),
            "ok_frac": ((len(self.checks) - self.failed) / len(self.checks), "ratio"),
        }

    def per_layer_metrics(self):
        traced = self.traced_units
        per_unit = max(len(traced), 1)
        metrics = layer_metrics(self.tracer, per_unit, SETUP_LOADS)
        fit_traced = median(unit["fit_s"] for unit in traced)
        fit_untraced = median(unit["fit_s"] for unit in self.units if unit["attempt"] > 0)
        proposals = sum(unit["seed_proposals"] for unit in traced)
        correct = sum(unit["seed_correct"] for unit in traced)
        metrics.update({
            "kg.load_dbp15k.first_s": (self.load_s[0], "s"),
            "training.seed_proposals": (proposals / per_unit, "count"),
            "training.seed_precision": (correct / proposals if proposals else 0.0, "ratio"),
            "trace.fit_s_traced": (fit_traced, "s"),
            "trace.fit_s_untraced": (fit_untraced, "s"),
            "trace.overhead_s": (fit_traced - fit_untraced, "s"),
        })
        return metrics

    def report(self):
        """Write the result and spans, print the tables, then the JSON line."""
        args = self.args
        metrics = self.per_layer_metrics() if args.trace else self.end_to_end_metrics()
        result = {
            "correct": self.failed == 0,
            "attempted": len(self.checks),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        detail = {
            "workload": args.workload, "size": self.size, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "environment": environment(self.mods, args.seed),
            "load_s": self.load_s, "probe": self.probe,
            "units": self.units, "traced_units": self.traced_units,
            "epoch_samples": sum(len(u["epoch_s"]) for u in self.units + self.traced_units),
            "failures": [f"{op}: {p}" for op, problems in self.checks for p in problems],
            "result": result,
        }
        stem = f"{args.workload}-{self.size}-seed{args.seed}-trace{args.trace}"
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
        if args.trace:
            self.tracer.dump(OUT_DIR / f"{stem}-spans.jsonl")
        if args.write_reference and not self.failed:
            write_references(args.workload, {f"tiny/{PROBE_SEED}": self.probe["outcome"],
                                             f"{self.size}/{args.seed}": self.first})

        for line in detail["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
        print(f"{args.workload} seed={args.seed} size={self.size} trace={args.trace}: "
              f"{len(self.units)} untraced + {len(self.traced_units)} traced units, "
              f"{detail['epoch_samples']} epoch samples, {len(self.load_s)} load samples")
        print(f"  environment: {json.dumps(detail['environment'])}")
        if args.trace:
            print_layer_table(metrics)
        else:
            for name, (value, unit) in metrics.items():
                print(f"  {name:<14} {value:12.6g} {unit}")
        print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record this run's outputs in {REFERENCE_FILE.name}")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    run = Run(args, import_program())
    run.run_probe()
    data_dir = run.write_dataset()
    try:
        run.measure(run.set_up(data_dir), data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    run.report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
