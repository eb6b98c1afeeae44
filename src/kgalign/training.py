"""Margin-based alignment training with k-nearest negatives and seed expansion.

One epoch is a forward pass over both graphs (shared parameters), a hinge
loss over training pairs against their cached negatives, a reverse sweep,
and one optimizer step. The sweep holds one tape's activations at a time:
graph 1 is recorded as two ``ad.checkpoint`` ops, its body and then its
neighbor re-aggregation, which the sweep re-runs on tapes of their own
once the loss and graph 2 are swept. Negatives are refreshed from the
current embeddings every few epochs; in semi-supervised mode the training
pairs grow at each refresh by mutual-nearest cross-graph proposals.
"""

import contextlib
import math
import numbers
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import enhancer, evaluation, kernels, structure, triples
from .enhancer import CYCLE_STEPS
from .kg import AlignmentTask, DataError
from .triples import VARIANTS


class NumericalError(RuntimeError):
    """Raised when training produces non-finite values."""


class ConfigError(ValueError):
    """Raised for a ``TrainConfig`` value that is invalid, alone or for the task."""


@dataclass
class TrainConfig:
    margin: float = 3.0
    neg_k: int = 5
    neg_refresh_epochs: int = 5
    epochs: int = 50
    lr: float = 0.001
    cycle_mode: int = 2
    variant: str = "full"
    semi: bool = False
    rng_seed: int = 0
    d_r: int = 100
    d_t: int = 100
    gcn_depth: int = 2
    train_ratio: float = 0.30
    eval_every: int = 0

    def __post_init__(self):
        for f in fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        if not 0 < self.margin < math.inf:
            raise ConfigError("margin must be positive and finite")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be positive and finite")
        if self.neg_k < 1:
            raise ConfigError("neg_k must be at least 1")
        if self.neg_refresh_epochs < 1:
            raise ConfigError("neg_refresh_epochs must be at least 1")
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError("train_ratio must be in (0, 1)")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.cycle_mode not in CYCLE_STEPS:
            *others, last = CYCLE_STEPS
            raise ConfigError(f"cycle_mode must be {', '.join(map(str, others))}, or {last}")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be non-negative")
        if self.gcn_depth < 1:
            raise ConfigError("gcn_depth must be at least 1")
        if self.d_r < 0 or self.d_t < 0:
            raise ConfigError("d_r and d_t must be non-negative")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be non-negative")


CONFIG_FIELDS = tuple(f.name for f in fields(TrainConfig))

# what a TrainConfig field of each annotated type accepts; bool is never a number
_FIELD_TYPES = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


def _check_type(name, kind, value):
    accepted, noun = _FIELD_TYPES[kind]
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")


def margin_loss(pos_dist, neg_dist, margin):
    """Sum of hinge terms max(pos - neg + margin, 0) over aligned entries."""
    if pos_dist.data.shape != neg_dist.data.shape:
        raise ad.DimensionError(
            f"margin_loss: {pos_dist.data.shape} vs {neg_dist.data.shape}"
        )
    return ad.reduce_sum(ad.relu(pos_dist - neg_dist + float(margin)))


def _row_l1(a, b):
    return ad.reduce_sum(ad.absval(a - b), axis=1)


def alignment_loss(f1, f2, train_pairs, neg1, neg2, margin):
    """Hinge loss of training pairs against cached negatives on both sides.

    ``neg1[p]`` lists graph-1 entities replacing the pair's first entity;
    ``neg2[p]`` lists graph-2 entities replacing the second.
    """
    idx1, idx2 = train_pairs[:, 0], train_pairs[:, 1]
    k = neg1.shape[1]
    e1 = ad.take_rows(f1, idx1)
    e2 = ad.take_rows(f2, idx2)
    pos = _row_l1(e1, e2)

    rep = np.repeat(np.arange(len(train_pairs)), k)
    pos_rep = ad.take_rows(pos, rep)
    d_neg1 = _row_l1(ad.take_rows(f1, neg1.reshape(-1)), ad.take_rows(f2, idx2[rep]))
    d_neg2 = _row_l1(ad.take_rows(f1, idx1[rep]), ad.take_rows(f2, neg2.reshape(-1)))
    return margin_loss(pos_rep, d_neg1, margin) + margin_loss(pos_rep, d_neg2, margin)


def _k_nearest_rows(queries, candidates, k, exclude_cols):
    """Per query, the indices of the k L1-nearest candidates, ties broken by
    lower id, with candidate ``exclude_cols[i]`` masked out for query i.

    Each distance block finds every row's k-th smallest value with a
    partition, then sorts only the entries at or below it by (row, value,
    id): the k smallest entries of a row are a prefix of that order.
    """
    if k >= len(candidates):
        raise ValueError(f"k={k} must be smaller than the candidate count {len(candidates)}")
    out = np.empty((len(queries), k), dtype=np.int64)
    for rows, block in kernels.distance_blocks(queries, candidates):
        block[np.arange(len(block)), exclude_cols[rows]] = np.inf
        kth = np.partition(block, k - 1, axis=1)[:, k - 1]
        hit_rows, cols = np.nonzero(block <= kth[:, None])
        order = np.lexsort((cols, block[hit_rows, cols], hit_rows))
        starts = np.searchsorted(hit_rows, np.arange(len(block)))
        out[rows] = cols[order][starts[:, None] + np.arange(k)]
    return out


def _check_finite(name, *embeddings):
    if not all(np.isfinite(e).all() for e in embeddings):
        raise NumericalError(f"{name}: non-finite embeddings")


def _check_finite_params(what, epoch, names, arrays):
    """Raise on the first array, in the given name order, holding NaN or inf."""
    for name, array in zip(names, arrays):
        if array is not None and not np.isfinite(array).all():
            raise NumericalError(f"non-finite {what} of {name!r} at epoch {epoch}")


def refresh_negatives(f1, f2, train_pairs, k, epoch=0):
    """k nearest same-graph entities per pair side, excluding the entity itself.

    Returns ``(neg1, neg2)``, each (pairs, k): ``neg1`` ids in graph 1,
    ``neg2`` ids in graph 2.
    """
    _check_finite(f"refresh_negatives at epoch {epoch}", f1, f2)
    ids1, ids2 = train_pairs[:, 0], train_pairs[:, 1]
    return _k_nearest_rows(f1[ids1], f1, k, ids1), _k_nearest_rows(f2[ids2], f2, k, ids2)


def expand_seeds_bidirectional(f1, f2, train_pairs):
    """Mutual-nearest proposals among entities not already in a training pair.

    Nearest means smallest L1 distance, ties broken by lower id: within a
    distance block by ``argmin``, across blocks by keeping the earlier one.
    """
    _check_finite("expand_seeds_bidirectional", f1, f2)
    free1 = np.setdiff1d(np.arange(len(f1)), train_pairs[:, 0])
    free2 = np.setdiff1d(np.arange(len(f2)), train_pairs[:, 1])
    if free1.size == 0 or free2.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    best2 = np.empty(free1.size, dtype=np.int64)
    best1, best1_dist = np.zeros(free2.size, dtype=np.int64), np.full(free2.size, np.inf)
    for rows, block in kernels.distance_blocks(f1[free1], f2[free2]):
        best2[rows] = block.argmin(axis=1)
        col_best = block.argmin(axis=0)
        col_dist = block[col_best, np.arange(free2.size)]
        closer = col_dist < best1_dist
        best1[closer], best1_dist[closer] = col_best[closer] + rows.start, col_dist[closer]
    mutual = best1[best2] == np.arange(free1.size)
    return np.stack([free1[mutual], free2[best2[mutual]]], axis=1).astype(np.int64)


def encode_body(graph, emb, params, cfg):
    """A graph's entity embedding before neighbor re-aggregation: structure
    encoding, then triple encoding and the cycle, which ``wo-C`` skips."""
    x = structure.encode_structure(emb, graph.adjacency_norm, params, cfg.gcn_depth)
    if cfg.variant == "wo-C":
        return x  # without the cycle nothing reads the triple representation
    triple_repr = triples.encode_triples(x, graph, params, variant=cfg.variant)
    return enhancer.cycle_co_enhance(x, triple_repr, graph, params, cfg.cycle_mode)


def encode_head(graph, x, params):
    """Neighbor re-aggregation of ``encode_body``'s embedding: the graph's output."""
    return enhancer.neighbor_reaggregate(
        x, graph.neighbor_src, graph.neighbor_dst, params["enhance.neighbor_a"]
    )


def encode_graph(graph, emb, params, cfg):
    """One graph through structure encoding, triple encoding, and enhancement."""
    return encode_head(graph, encode_body(graph, emb, params, cfg), params)


def forward(task, params, cfg):
    """Both graphs' outputs, in one pass each.

    On a tape, graph 1 is two checkpoints, its body then its head, recorded
    before graph 2, so the sweep re-runs each stage on a tape of its own
    once the loss and graph 2 are swept. Parameters receive their
    contributions in a one-tape sweep's order (loss, graph 2, head, body),
    so gradients are bitwise equal to it.
    """
    body1 = ad.checkpoint(lambda emb: encode_body(task.g1, emb, params, cfg), params["emb1"])
    f1 = ad.checkpoint(lambda x: encode_head(task.g1, x, params), body1)
    return f1, encode_graph(task.g2, params["emb2"], params, cfg)


def check_task(task, cfg):
    """Raise ``ConfigError`` for a setting this task cannot train with."""
    n1, n2 = task.g1.num_entities, task.g2.num_entities
    if cfg.neg_k >= min(n1, n2):
        # each side's negatives are other entities of the same graph
        raise ConfigError(f"neg_k={cfg.neg_k} must be below the entity count of "
                          f"each graph ({n1} and {n2})")


def init_params(task, cfg, rng):
    d_e = task.emb_dim
    params = {
        "emb1": ad.Tensor(task.init_emb1.copy(), requires_grad=True),
        "emb2": ad.Tensor(task.init_emb2.copy(), requires_grad=True),
    }
    params.update(structure.init_structure_params(rng, d_e, cfg.gcn_depth))
    params.update(triples.init_triple_params(rng, d_e, cfg.d_r, cfg.d_t))
    params.update(
        enhancer.init_enhancer_params(
            rng, d_e, triples.triple_width(cfg.variant, cfg.d_r, cfg.d_t)
        )
    )
    return params


@dataclass
class FitResult:
    params: dict
    final_emb1: np.ndarray
    final_emb2: np.ndarray
    history: list = field(default_factory=list)
    train_pairs: np.ndarray = None


def fit(task: AlignmentTask, cfg: TrainConfig, log=None) -> FitResult:
    """Train on the task's seed pairs; deterministic for a fixed config seed."""
    check_task(task, cfg)
    params = init_params(task, cfg, np.random.default_rng(cfg.rng_seed))
    order = sorted(params)
    state = ad.AdamState()
    train_pairs = task.seeds_train.copy()
    history = []
    # one pass of each graph per parameter state: each epoch's loss,
    # negatives and seed proposals read the pass run after the previous
    # step, which also feeds that step's evaluation; the pass after the
    # last step is the output and is untaped: no step sweeps it, and a tape
    # would hold graph 2's activations until fit returns, leaving their
    # freed heap pages resident beneath the output arrays
    with ad.Tape() if cfg.epochs > 0 else contextlib.nullcontext() as tape:
        f1, f2 = forward(task, params, cfg)
    for epoch in range(cfg.epochs):
        with tape:
            if epoch % cfg.neg_refresh_epochs == 0:
                if cfg.semi and epoch > 0:
                    new_pairs = expand_seeds_bidirectional(f1.data, f2.data, train_pairs)
                    if len(new_pairs):
                        train_pairs = np.concatenate([train_pairs, new_pairs])
                neg1, neg2 = refresh_negatives(
                    f1.data, f2.data, train_pairs, cfg.neg_k, epoch
                )
            loss = alignment_loss(f1, f2, train_pairs, neg1, neg2, cfg.margin)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise NumericalError(f"non-finite loss at epoch {epoch}")
        del f1, f2  # the sweep reads neither, so graph 1's re-run meets neither
        tape.backward(loss)
        grads = [params[k].grad for k in order]
        _check_finite_params("gradient", epoch, order, grads)
        values = [params[k].data for k in order]
        ad.adam_step(values, grads, state, lr=cfg.lr)
        _check_finite_params("value", epoch, order, values)
        ad.zero_grads(params.values())

        with ad.Tape() if epoch + 1 < cfg.epochs else contextlib.nullcontext() as tape:
            f1, f2 = forward(task, params, cfg)
        record = {"epoch": epoch, "loss": loss_value, "train_pairs": len(train_pairs)}
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            _check_finite(f"evaluation after epoch {epoch}", f1.data, f2.data)
            record["hits1"] = evaluation.evaluate(task, f1.data, f2.data).hits_at[1]
        history.append(record)
        if log is not None:
            log(record)

    _check_finite("final output", f1.data, f2.data)
    return FitResult(params, f1.data, f2.data, history, train_pairs)


# ----------------------------------------------------------------- storage

CHECKPOINT_FORMAT = 1


def save_checkpoint(path, params):
    arrays = {key: tensor.data for key, tensor in params.items()}
    np.savez(path, __format__=np.array(CHECKPOINT_FORMAT), **arrays)


def load_checkpoint(path, task, cfg):
    """Parameters that ``save_checkpoint`` wrote for ``task`` under ``cfg``.

    Raises ``DataError`` naming ``path`` for any other file: one that is not
    a kgalign checkpoint, one whose keys or shapes differ from what
    ``init_params(task, cfg)`` builds (the first bad key in sorted order is
    named), or one holding anything but finite float64 values.
    """
    try:
        bundle = np.load(path)
        if not isinstance(bundle, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an .npz archive")
        with bundle:
            arrays = {key: bundle[key] for key in bundle.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not a readable checkpoint: {exc}") from None
    version = arrays.pop("__format__", None)
    if version is None:
        raise DataError(f"{path}: no __format__ entry, not a kgalign checkpoint")
    if version.shape != () or version != CHECKPOINT_FORMAT:
        raise DataError(f"{path}: unsupported checkpoint format {version}")
    expected = init_params(task, cfg, np.random.default_rng(cfg.rng_seed))
    for key in sorted(expected.keys() | arrays.keys()):
        if key not in arrays:
            raise DataError(f"{path}: checkpoint lacks parameter {key!r}")
        if key not in expected:
            raise DataError(f"{path}: checkpoint has unexpected parameter {key!r}")
        got, want = arrays[key].shape, expected[key].data.shape
        if got != want:
            raise DataError(
                f"{path}: parameter {key!r} has shape {got}, but the run's config on "
                f"this dataset ({task.g1.num_entities} and {task.g2.num_entities} "
                f"entities) needs {want}"
            )
        if arrays[key].dtype != np.float64:
            raise DataError(f"{path}: parameter {key!r} is {arrays[key].dtype}, not float64")
        if not np.isfinite(arrays[key]).all():
            raise DataError(f"{path}: parameter {key!r} holds a non-finite value")
    return {key: ad.Tensor(array, requires_grad=True) for key, array in arrays.items()}
