"""Numerical self-tests: finite-difference gradients and oracle equivalence.

Every operation a training step records and each composed stage is checked
against central differences; the grouped aggregations, the rank path and the
normalized adjacency are checked on random graph instances against the
brute-force references in ``kgalign.oracles``; the training pass's
checkpointed recompute is checked against one sweep of a single tape. Used by
the ``check`` CLI command and the acceptance tests.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import enhancer, evaluation, kernels, kg, structure, training, triples
from . import oracles as naive

FD_TOL = 1e-4
FD_SEED = 1234


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _away_from_zero(rng, shape, low=0.2, high=1.5):
    # keep magnitudes clear of activation kinks so central differences stay valid
    magnitude = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return magnitude * sign


def _param(rng, shape):
    return ad.Tensor(_away_from_zero(rng, shape), requires_grad=True)


# ------------------------------------------------------- finite differences


def _fd_case_matmul(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (4, 2))
    return lambda *_: ad.reduce_sum(ad.matmul(a, b)), [a, b]


def _fd_case_broadcast(op_name):
    def build(rng):
        a, b = _param(rng, (3, 4)), _param(rng, (4,))
        w = _away_from_zero(rng, (3, 4))
        return lambda *_: ad.reduce_sum(getattr(ad, op_name)(a, b) * w), [a, b]

    return build


def _fd_case_mul(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 1))
    return lambda *_: ad.reduce_sum(ad.mul(a, b)), [a, b]


def _fd_case_concat(rng):
    a, b = _param(rng, (3, 2)), _param(rng, (3, 3))
    w = _away_from_zero(rng, (3, 5))
    return lambda *_: ad.reduce_sum(ad.concat(a, b) * w), [a, b]


def _fd_case_elementwise(op_name):
    def build(rng):
        a = _param(rng, (4, 3))
        # looked up per call, so a patched ``ad`` function is the one checked
        return lambda *_: ad.reduce_sum(getattr(ad, op_name)(a)), [a]

    return build


def _fd_case_take_rows(rng):
    a = _param(rng, (5, 3))
    idx = rng.integers(0, 5, size=8)
    w = _away_from_zero(rng, (8, 3))
    return lambda *_: ad.reduce_sum(ad.take_rows(a, idx) * w), [a]


def _fd_case_reduce_sum_axis(rng):
    a = _param(rng, (4, 3))
    w = _away_from_zero(rng, (4,))
    return lambda *_: ad.reduce_sum(ad.reduce_sum(a, axis=1) * w), [a]


def _fd_case_left_matmul(rng):
    m = _away_from_zero(rng, (4, 5))
    a = _param(rng, (5, 3))
    return lambda *_: ad.reduce_sum(ad.left_matmul(m, a)), [a]


def _fd_case_segment_sum(rng):
    a = _param(rng, (7, 3))
    seg = kernels.Segments(rng.integers(0, 4, size=7), 4)
    w = _away_from_zero(rng, (4, 3))
    return lambda *_: ad.reduce_sum(ad.segment_sum(a, seg) * w), [a]


def _fd_case_grouped_attention(rng):
    # query as value, then a gathered query with key and value one gather
    x, q, a1, a2 = (_param(rng, shape) for shape in ((4, 5), (7, 3), (8, 1), (10, 1)))
    seg, other = (kernels.Segments(rng.integers(0, 4, size=7), 4) for _ in range(2))
    shared = (x, other)
    calls = [((q, shared, q, seg, a1), _away_from_zero(rng, (4, 3))),
             (((x, seg), shared, shared, seg, a2), _away_from_zero(rng, (4, 5)))]
    fn = lambda *_: sum(ad.reduce_sum(ad.grouped_attention(*c) * w) for c, w in calls)
    return fn, [x, q, a1, a2]


def _fd_case_checkpoint(rng):
    # two chained checkpoints, as graph 1 in a training pass; the first
    # one's output is also read outside the second
    x, w, v = _param(rng, (4, 3)), _param(rng, (3, 3)), _param(rng, (3, 2))
    c = _away_from_zero(rng, (4, 2))

    def fn(*_):
        h = ad.checkpoint(lambda a: ad.tanh(a @ w), x)
        out = ad.checkpoint(lambda a: ad.tanh(a @ v), h)
        return ad.reduce_sum(out * c) + ad.reduce_sum(h * h)

    return fn, [x, w, v]


def _fd_case_structure_encoder(rng):
    n, d_e, depth = 5, 3, 2
    trips = naive.random_connected_triples(rng, n, 8, 2)
    x = _param(rng, (n, d_e))
    adj = kg.build_normalized_adjacency(kg.KnowledgeGraph(n, 2, trips))
    params = structure.init_structure_params(rng, d_e, depth)

    def fn(*_):
        return ad.reduce_sum(structure.encode_structure(x, adj, params, depth))

    return fn, [x] + list(params.values())


def _fd_case_triple_encoder(rng):
    trips = naive.random_connected_triples(rng, 6, 10, 3)
    x = _param(rng, (6, 4))
    graph = kg.GraphStructure(kg.KnowledgeGraph(6, 3, trips))
    params = triples.init_triple_params(rng, 4, 3, 2)

    def fn(*_):
        return ad.reduce_sum(triples.encode_triples(x, graph, params, "full"))

    perturbed = [x, params["triple.head_a"], params["triple.mutual_fwd_a"],
                 params["triple.key_w"], params["triple.type_w"]]
    return fn, perturbed


def _fd_case_entity_enhancer(rng):
    trips = naive.random_connected_triples(rng, 6, 10, 3)
    x = _param(rng, (6, 4))
    graph = kg.GraphStructure(kg.KnowledgeGraph(6, 3, trips))
    width = 5
    t_repr = _param(rng, (len(trips), width))
    params = enhancer.init_enhancer_params(rng, 4, width)

    def fn(*_):
        out = enhancer.cycle_co_enhance(x, t_repr, graph, params, mode=2)
        return ad.reduce_sum(training.encode_head(graph, out, params))

    return fn, [x, t_repr, params["enhance.head_w"], params["enhance.neighbor_a"]]


def _fd_case_margin_loss(rng):
    f1 = _param(rng, (6, 4))
    f2 = _param(rng, (6, 4))
    pairs = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.int64)
    neg1 = rng.integers(0, 6, size=(3, 2)).astype(np.int64)
    neg2 = rng.integers(0, 6, size=(3, 2)).astype(np.int64)

    def fn(*_):
        return training.alignment_loss(f1, f2, pairs, neg1, neg2, margin=1.5)

    return fn, [f1, f2]


FD_CASES = [
    ("matmul", _fd_case_matmul),
    ("add", _fd_case_broadcast("add")),
    ("sub", _fd_case_broadcast("sub")),
    ("mul", _fd_case_mul),
    ("concat", _fd_case_concat),
    ("relu", _fd_case_elementwise("relu")),
    ("leaky_relu", _fd_case_elementwise("leaky_relu")),
    ("tanh", _fd_case_elementwise("tanh")),
    ("sigmoid", _fd_case_elementwise("sigmoid")),
    ("absval", _fd_case_elementwise("absval")),
    ("take_rows", _fd_case_take_rows),
    ("reduce_sum", _fd_case_reduce_sum_axis),
    ("left_matmul", _fd_case_left_matmul),
    ("segment_sum", _fd_case_segment_sum),
    ("grouped_attention", _fd_case_grouped_attention),
    ("checkpoint", _fd_case_checkpoint),
    ("structure_encoder", _fd_case_structure_encoder),
    ("triple_encoder", _fd_case_triple_encoder),
    ("entity_enhancer", _fd_case_entity_enhancer),
    ("margin_loss", _fd_case_margin_loss),
]


def run_fd_checks(trials=20):
    """Worst relative gradient error per case over ``trials`` random draws;
    a case no draw checked fails."""
    results = []
    for name, builder in FD_CASES:
        rng = np.random.default_rng(FD_SEED)
        worst = max((ad.fd_check(*builder(rng)) for _ in range(trials)), default=math.inf)
        results.append(
            CheckResult(f"grad/{name}", worst < FD_TOL, f"max_rel_err={worst:.3e}")
        )
    return results


# ------------------------------------------------------------ naive oracles

# largest library-vs-oracle difference each check accepts, in report order
ORACLE_TOLS = {
    "segment_sum": 1e-12,
    "global_relation": 1e-12,
    "grouped_attention": 1e-10,
    "mutual_attention_fwd": 1e-10,
    "mutual_attention_rev": 1e-10,
    "attention_enhance[head]": 1e-10,
    "attention_enhance[tail]": 1e-10,
    "neighbor_reaggregate": 1e-10,
    "rank_pairs": 0.0,
    "adjacency_symmetric": 0.0,
    "adjacency_norm_identity": 1e-9,
}


def _max_abs_diff(got, want):
    """Largest absolute difference; inf on a shape mismatch or a non-finite entry."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    diff = np.abs(got - want)
    return float(diff.max(initial=0.0)) if np.isfinite(diff).all() else math.inf


def _oracle_diffs(rng):
    """Draw one random graph instance and yield (check name, max abs diff);
    the library reads its ``kg.GraphStructure``, the oracles its raw ids."""
    n = int(rng.integers(10, 51))
    m = int(rng.integers(n, 201))
    n_rel = int(rng.integers(2, 7))
    d = int(rng.integers(3, 7))
    trips = naive.random_connected_triples(rng, n, m, n_rel)
    graph = kg.GraphStructure(kg.KnowledgeGraph(n, n_rel, trips))
    heads, rels, tails = trips.T
    m = len(trips)
    x = rng.normal(size=(n, d))
    xt = ad.Tensor(x)

    vals = rng.normal(size=(m, d))
    got = ad.segment_sum(ad.Tensor(vals), graph.rels).data
    yield "segment_sum", _max_abs_diff(got, naive.segment_sum(vals, rels, n_rel))

    got = triples.global_relation(xt, graph).data
    pair = np.concatenate([x[heads], x[tails]], axis=1)
    yield "global_relation", _max_abs_diff(got, naive.grouped_mean(pair, rels, n_rel))

    q, k, v = (rng.normal(size=(m, d)) for _ in range(3))
    a = rng.normal(size=(2 * d, 1))
    got = ad.grouped_attention(
        ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), graph.rels, ad.Tensor(a)
    ).data
    want = naive.grouped_attention(q, k, v, rels, n_rel, a)
    yield "grouped_attention", _max_abs_diff(got, want)

    a2 = rng.normal(size=(2 * d, 1))
    sem_agg, type_agg = triples.mutual_attention(
        ad.Tensor(q), ad.Tensor(k), graph.rels, ad.Tensor(a), ad.Tensor(a2)
    )
    want = np.maximum(naive.grouped_attention(q, k, q, rels, n_rel, a), 0.0)
    yield "mutual_attention_fwd", _max_abs_diff(sem_agg.data, want)
    want = np.maximum(naive.grouped_attention(k, q, k, rels, n_rel, a2), 0.0)
    yield "mutual_attention_rev", _max_abs_diff(type_agg.data, want)

    width = int(rng.integers(3, 6))
    t_repr = rng.normal(size=(m, width))
    w_proj = rng.normal(size=(width, d))
    a_ent = rng.normal(size=(2 * d, 1))
    proj = t_repr @ w_proj
    for role, ids, seg in (("head", heads, graph.heads), ("tail", tails, graph.tails)):
        got = enhancer.attention_enhance(
            xt, ad.Tensor(t_repr), seg, ad.Tensor(w_proj), ad.Tensor(a_ent)
        ).data
        agg = naive.grouped_attention(proj, x[ids], proj, ids, n, a_ent)
        yield f"attention_enhance[{role}]", _max_abs_diff(got, x + np.maximum(agg, 0.0))

    src, dst = graph.neighbor_src.ids, graph.neighbor_dst.ids
    a_nbr = rng.normal(size=(2 * d, 1))
    got = enhancer.neighbor_reaggregate(
        xt, graph.neighbor_src, graph.neighbor_dst, ad.Tensor(a_nbr)
    ).data
    agg = np.maximum(naive.grouped_attention(x[src], x[dst], x[dst], src, n, a_nbr), 0.0)
    yield "neighbor_reaggregate", _max_abs_diff(got, np.concatenate([x, agg], axis=1))

    # evaluate's rank path against a full sort of each query's distances;
    # small integer coordinates make distance ties common, and more targets
    # than kernels.TILE_COLS put ties on both sides of a tile seam
    n_t = 300
    emb_q = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    emb_t = rng.integers(-2, 3, size=(n_t, d)).astype(np.float64)
    pairs = np.stack([rng.permutation(n), rng.permutation(n_t)[:n]], axis=1)[: n // 2]
    pool = np.arange(n_t)
    got = evaluation.rank_pairs(emb_q, emb_t, pairs, pool)
    want = naive.ranks_by_sorting(emb_q[pairs[:, 0]], emb_t[pool],
                                  np.searchsorted(pool, pairs[:, 1]))
    yield "rank_pairs", _max_abs_diff(got, want)

    dense = graph.adjacency_norm.toarray()
    yield "adjacency_symmetric", _max_abs_diff(dense, dense.T)
    # fixed-vector identity of symmetric normalization: A_hat @ sqrt(d) == sqrt(d)
    sqrt_deg = np.sqrt((dense > 0).sum(axis=1))
    yield "adjacency_norm_identity", _max_abs_diff(dense @ sqrt_deg, sqrt_deg)


def run_oracle_checks(trials=20, seed=99):
    """Worst difference per oracle over ``trials`` random graph instances.

    A check that no instance reported fails.
    """
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(trials):
        for name, diff in _oracle_diffs(rng):
            worst[name] = max(worst.get(name, 0.0), diff)
    results = []
    for name, tol in ORACLE_TOLS.items():
        diff = worst.get(name, math.inf)
        results.append(CheckResult(f"oracle/{name}", diff <= tol, f"max_abs_diff={diff:.3e}"))
    return results


# ---------------------------------------------------- checkpointed recompute

STEP_SEED = 5


def one_tape_forward(task, params, cfg):
    """Both graphs' outputs with no checkpoint: on a tape, one tape holds
    both passes, the reference that ``training.forward`` is checked against."""
    return (training.encode_graph(task.g1, params["emb1"], params, cfg),
            training.encode_graph(task.g2, params["emb2"], params, cfg))


def step_grads(forward, task, params, cfg, pairs):
    """Parameter gradients (None where none flows) of one sweep of a training
    step's tape, with both graphs' outputs from ``forward``."""
    with ad.Tape() as tape:
        f1, f2 = forward(task, params, cfg)
        neg1, neg2 = training.refresh_negatives(f1.data, f2.data, pairs, cfg.neg_k)
        loss = training.alignment_loss(f1, f2, pairs, neg1, neg2, cfg.margin)
    tape.backward(loss)
    grads = {key: params[key].grad for key in sorted(params)}
    ad.zero_grads(params.values())
    return grads


def run_step_check():
    """Exact equality of every parameter gradient of one training step with
    a single-tape sweep, on a small generated task, worst over every model
    variant and cycle mode.

    The recompute assumes a deterministic forward pass, which this checks
    under the process's BLAS settings; a gradient present on one side only
    counts as an infinite difference.
    """
    task = kg.generate_synthetic_pair(60, 6, 4, emb_dim=12, rng_seed=STEP_SEED)
    worst = 0.0
    for variant, mode in itertools.product(triples.VARIANTS, enhancer.CYCLE_STEPS):
        cfg = training.TrainConfig(d_r=6, d_t=6, variant=variant, cycle_mode=mode)
        params = training.init_params(task, cfg, np.random.default_rng(STEP_SEED))
        want = step_grads(one_tape_forward, task, params, cfg, task.seeds_train)
        got = step_grads(training.forward, task, params, cfg, task.seeds_train)
        for key in want:
            if want[key] is None or got[key] is None:
                diff = 0.0 if want[key] is got[key] else math.inf
            else:
                diff = _max_abs_diff(got[key], want[key])
            worst = max(worst, diff)
    return CheckResult("step/recompute", worst == 0.0, f"max_abs_diff={worst:.3e}")
