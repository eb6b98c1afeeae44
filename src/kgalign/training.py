"""Margin-based alignment training with k-nearest negatives and seed expansion.

One epoch is a full forward pass over both graphs (shared parameters),
a hinge loss over training pairs against their cached negatives, one
reverse sweep, and one optimizer step. Negatives are refreshed from the
current embeddings every few epochs; in semi-supervised mode the training
pairs grow at each refresh by mutual-nearest cross-graph proposals.
"""

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import enhancer, kernels, structure, triples
from .kg import AlignmentTask, DataError
from .triples import VARIANTS


class NumericalError(RuntimeError):
    """Raised when training produces non-finite values."""


@dataclass
class TrainConfig:
    margin: float = 3.0
    neg_k: int = 5
    neg_refresh_epochs: int = 5
    epochs: int = 50
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    cycle_mode: int = 2
    variant: str = "full"
    semi: bool = False
    rng_seed: int = 0
    d_e: int = None  # resolved from the task's embedding width
    d_r: int = 100
    d_t: int = 100
    gcn_depth: int = 2
    train_ratio: float = 0.30
    leaky_slope: float = 0.3
    neg_sample_all: bool = True
    eval_every: int = 0

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.neg_k < 1:
            raise ValueError("neg_k must be at least 1")
        if self.neg_refresh_epochs < 1:
            raise ValueError("neg_refresh_epochs must be at least 1")
        if not 0.0 < self.train_ratio < 1.0:
            raise ValueError("train_ratio must be in (0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.cycle_mode not in (1, 2, 3):
            raise ValueError("cycle_mode must be 1, 2, or 3")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")

    def as_dict(self):
        return asdict(self)


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


@dataclass
class NegativeCache:
    """Per-pair candidate ids replacing each side, plus the refresh epoch."""

    side1: np.ndarray  # (pairs, k) ids in graph 1
    side2: np.ndarray  # (pairs, k) ids in graph 2
    epoch: int = 0


_BLOCK_ELEMS = 1 << 22  # distance entries per row block of the top-k search


def _k_nearest_rows(dist, k, exclude_cols):
    """Per-row indices of the k smallest entries, ties broken by lower id.

    ``exclude_cols[i]`` is masked out of row i before selection. Each row
    block finds every row's k-th smallest value with a partition, then sorts
    only the entries at or below it by (row, value, id): the k smallest
    entries of a row are a prefix of that order.
    """
    n_rows, n_cols = dist.shape
    if k >= n_cols:
        raise ValueError(f"k={k} must be smaller than the candidate count {n_cols}")
    out = np.empty((n_rows, k), dtype=np.int64)
    step = max(1, _BLOCK_ELEMS // n_cols)
    for lo in range(0, n_rows, step):
        block = dist[lo:lo + step].copy()
        block[np.arange(len(block)), exclude_cols[lo:lo + step]] = np.inf
        kth = np.partition(block, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(block <= kth[:, None])
        order = np.lexsort((cols, block[rows, cols], rows))
        starts = np.searchsorted(rows, np.arange(len(block)))
        out[lo:lo + step] = cols[order][starts[:, None] + np.arange(k)]
    return out


def _check_finite(name, *embeddings):
    if not all(np.isfinite(e).all() for e in embeddings):
        raise NumericalError(f"{name}: non-finite embeddings")


def _check_finite_params(what, epoch, names, arrays):
    """Raise on the first array, in the given name order, holding NaN or inf."""
    for name, array in zip(names, arrays):
        if array is not None and not np.isfinite(array).all():
            raise NumericalError(f"non-finite {what} of {name!r} at epoch {epoch}")


def refresh_negatives(f1, f2, train_pairs, k, epoch=0) -> NegativeCache:
    """k nearest same-graph entities per pair side, excluding the entity itself."""
    _check_finite(f"refresh_negatives at epoch {epoch}", f1, f2)
    ids1, ids2 = train_pairs[:, 0], train_pairs[:, 1]
    # one distance matrix alive at a time
    neg1 = _k_nearest_rows(kernels.pairwise_manhattan(f1[ids1], f1), k, ids1)
    neg2 = _k_nearest_rows(kernels.pairwise_manhattan(f2[ids2], f2), k, ids2)
    return NegativeCache(neg1, neg2, epoch)


def expand_seeds_bidirectional(f1, f2, train_pairs, n1, n2):
    """Mutual-nearest proposals among entities not already in a training pair.

    Nearest means smallest L1 distance, ties broken by lower id.
    """
    _check_finite("expand_seeds_bidirectional", f1, f2)
    free1 = np.setdiff1d(np.arange(n1), train_pairs[:, 0])
    free2 = np.setdiff1d(np.arange(n2), train_pairs[:, 1])
    if free1.size == 0 or free2.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    dist = kernels.pairwise_manhattan(f1[free1], f2[free2])
    best2 = dist.argmin(axis=1)
    best1 = dist.argmin(axis=0)
    mutual = best1[best2] == np.arange(free1.size)
    proposals = np.stack([free1[mutual], free2[best2[mutual]]], axis=1)
    return proposals.astype(np.int64)


def forward(task, params, cfg):
    """Both graphs through structure encoding, triple encoding, and enhancement."""
    outputs = []
    for graph, emb_key in ((task.g1, "emb1"), (task.g2, "emb2")):
        x = structure.encode_structure(
            params[emb_key], graph.adjacency_norm, params, cfg.gcn_depth
        )
        encoding = triples.encode_triples(
            x, graph.base.triples, graph.base.num_relations, params,
            variant=cfg.variant, slope=cfg.leaky_slope,
        )
        final = enhancer.enhance_entities(
            x, encoding.triple_repr, graph, params, mode=cfg.cycle_mode,
            slope=cfg.leaky_slope, skip_cycle=(cfg.variant == "wo-C"),
        )
        outputs.append(final)
    return outputs[0], outputs[1]


def init_params(task, cfg, rng):
    d_e = task.emb_dim if cfg.d_e is None else cfg.d_e
    if d_e != task.emb_dim:
        raise ValueError(f"configured d_e={d_e} but embeddings have width {task.emb_dim}")
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
    from .evaluation import evaluate

    rng = np.random.default_rng(cfg.rng_seed)
    params = init_params(task, cfg, rng)
    order = sorted(params)
    state = ad.AdamState()
    train_pairs = task.seeds_train.copy()
    history = []
    final = tape = None
    for epoch in range(cfg.epochs):
        # one forward pass per parameter state: the search side reads the
        # taped pass's values before the loss is recorded, and an evaluation
        # pass taped after the previous step stands in for this epoch's
        if tape is None:
            with ad.Tape() as tape:
                f1, f2 = forward(task, params, cfg)
        with tape:
            if epoch % cfg.neg_refresh_epochs == 0:
                if cfg.semi and epoch > 0:
                    new_pairs = expand_seeds_bidirectional(
                        f1.data, f2.data, train_pairs,
                        task.g1.num_entities, task.g2.num_entities,
                    )
                    if len(new_pairs):
                        train_pairs = np.concatenate([train_pairs, new_pairs])
                cache = refresh_negatives(
                    f1.data, f2.data, train_pairs, cfg.neg_k, epoch
                )
            use1, use2 = cache.side1, cache.side2
            if not cfg.neg_sample_all:
                pick1 = rng.integers(0, cfg.neg_k, size=(len(train_pairs), 1))
                pick2 = rng.integers(0, cfg.neg_k, size=(len(train_pairs), 1))
                use1 = np.take_along_axis(cache.side1, pick1, axis=1)
                use2 = np.take_along_axis(cache.side2, pick2, axis=1)
            loss = alignment_loss(f1, f2, train_pairs, use1, use2, cfg.margin)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise NumericalError(f"non-finite loss at epoch {epoch}")
        tape.backward(loss)
        grads = [params[k].grad for k in order]
        _check_finite_params("gradient", epoch, order, grads)
        values = [params[k].data for k in order]
        ad.adam_step(
            values, grads, state,
            lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps,
        )
        _check_finite_params("value", epoch, order, values)
        ad.zero_grads(params.values())

        record = {"epoch": epoch, "loss": loss_value, "train_pairs": len(train_pairs)}
        final = tape = None
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            if epoch + 1 < cfg.epochs:
                with ad.Tape() as tape:
                    f1, f2 = final = forward(task, params, cfg)
            else:
                final = forward(task, params, cfg)
            report = evaluate(task, final[0].data, final[1].data)
            record["hits1"] = report.hits_at[1]
        history.append(record)
        if log is not None:
            log(record)

    f1, f2 = final if final is not None else forward(task, params, cfg)
    return FitResult(params, f1.data, f2.data, history, train_pairs)


# ----------------------------------------------------------------- storage

CHECKPOINT_FORMAT = 1


def save_checkpoint(path, params):
    arrays = {key: tensor.data for key, tensor in params.items()}
    np.savez(path, __format__=np.array(CHECKPOINT_FORMAT), **arrays)


def load_checkpoint(path):
    with np.load(path) as bundle:
        version = int(bundle["__format__"])
        if version != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {version}")
        return {
            key: ad.Tensor(bundle[key], requires_grad=True)
            for key in bundle.files
            if key != "__format__"
        }


def check_checkpoint(path, params, task, cfg):
    """Raise ``DataError`` unless ``params`` has the keys and shapes that
    ``init_params(task, cfg)`` builds; names the first bad key in sorted order."""
    expected = init_params(task, cfg, np.random.default_rng(cfg.rng_seed))
    for key in sorted(expected.keys() | params.keys()):
        if key not in params:
            raise DataError(f"{path}: checkpoint lacks parameter {key!r}")
        if key not in expected:
            raise DataError(f"{path}: checkpoint has unexpected parameter {key!r}")
        got, want = params[key].data.shape, expected[key].data.shape
        if got != want:
            raise DataError(
                f"{path}: parameter {key!r} has shape {got}, but the run's config on "
                f"this dataset ({task.g1.num_entities} and {task.g2.num_entities} "
                f"entities) needs {want}"
            )


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
