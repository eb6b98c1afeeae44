"""Numerical self-tests: finite-difference gradients and oracle equivalence.

Every differentiable operation and each composed stage is checked against
central differences; the grouped aggregations are checked against plain
Python loops. Used by the ``check`` CLI command.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import enhancer, evaluation, kg, structure, training, triples

FD_TOL = 1e-4
ORACLE_TOL = 1e-10


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


def _fd_case_add(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (4,))
    w = _away_from_zero(rng, (3, 4))
    return lambda *_: ad.reduce_sum(ad.add(a, b) * w), [a, b]


def _fd_case_mul(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 1))
    return lambda *_: ad.reduce_sum(ad.mul(a, b)), [a, b]


def _fd_case_concat(rng):
    a, b = _param(rng, (3, 2)), _param(rng, (3, 3))
    w = _away_from_zero(rng, (3, 5))
    return lambda *_: ad.reduce_sum(ad.concat(a, b) * w), [a, b]


def _fd_case_relu(rng):
    a = _param(rng, (4, 3))
    return lambda *_: ad.reduce_sum(ad.relu(a)), [a]


def _fd_case_leaky_relu(rng):
    a = _param(rng, (4, 3))
    return lambda *_: ad.reduce_sum(ad.leaky_relu(a, 0.3)), [a]


def _fd_case_tanh(rng):
    a = _param(rng, (4, 3))
    return lambda *_: ad.reduce_sum(ad.tanh(a)), [a]


def _fd_case_sigmoid(rng):
    a = _param(rng, (4, 3))
    return lambda *_: ad.reduce_sum(ad.sigmoid(a)), [a]


def _fd_case_absval(rng):
    a = _param(rng, (4, 3))
    return lambda *_: ad.reduce_sum(ad.absval(a)), [a]


def _fd_case_take_rows(rng):
    a = _param(rng, (5, 3))
    idx = rng.integers(0, 5, size=8)
    w = _away_from_zero(rng, (8, 3))
    return lambda *_: ad.reduce_sum(ad.take_rows(a, idx) * w), [a]


def _fd_case_reduce_sum_axis(rng):
    a = _param(rng, (4, 3))
    w = _away_from_zero(rng, (4,))
    return lambda *_: ad.reduce_sum(ad.reduce_sum(a, axis=1) * w), [a]


def _fd_case_reshape(rng):
    a = _param(rng, (4, 3))
    w = _away_from_zero(rng, (12,))
    return lambda *_: ad.reduce_sum(ad.reshape(a, (12,)) * w), [a]


def _fd_case_left_matmul(rng):
    m = _away_from_zero(rng, (4, 5))
    a = _param(rng, (5, 3))
    return lambda *_: ad.reduce_sum(ad.left_matmul(m, a)), [a]


def _fd_case_segment_softmax(rng):
    a = _param(rng, (7,))
    ids = np.sort(rng.integers(0, 3, size=7))
    w = _away_from_zero(rng, (7,))
    return lambda *_: ad.reduce_sum(ad.segment_softmax(a, ids) * w), [a]


def _fd_case_segment_sum(rng):
    a = _param(rng, (7, 3))
    ids = rng.integers(0, 4, size=7)
    w = _away_from_zero(rng, (4, 3))
    return lambda *_: ad.reduce_sum(ad.segment_sum(a, ids, 4) * w), [a]


def _random_graph_tensors(rng, n=6, m=10, n_rel=3, d_e=4):
    heads = rng.integers(0, n, size=m)
    tails = (heads + 1 + rng.integers(0, n - 1, size=m)) % n
    rels = np.concatenate([np.arange(n_rel), rng.integers(0, n_rel, size=m - n_rel)])
    # link every entity no triple mentions to its successor, so the
    # instance is a valid KnowledgeGraph
    missing = np.setdiff1d(np.arange(n), np.concatenate([heads, tails]))
    triples_arr = np.concatenate([
        np.stack([heads, rels, tails], axis=1),
        np.stack([missing, np.zeros_like(missing), (missing + 1) % n], axis=1),
    ]).astype(np.int64)
    x = _param(rng, (n, d_e))
    return x, np.unique(triples_arr, axis=0)


def _fd_case_structure_encoder(rng):
    n, d_e, depth = 5, 3, 2
    x, trips = _random_graph_tensors(rng, n=n, m=8, n_rel=2, d_e=d_e)
    graph = kg.KnowledgeGraph(n, int(trips[:, 1].max()) + 1, trips)
    adj = kg.build_normalized_adjacency(graph)
    params = structure.init_structure_params(rng, d_e, depth)

    def fn(*_):
        return ad.reduce_sum(structure.encode_structure(x, adj, params, depth))

    return fn, [x] + list(params.values())


def _fd_case_triple_encoder(rng):
    x, trips = _random_graph_tensors(rng, n=6, m=10, n_rel=3, d_e=4)
    n_rel = int(trips[:, 1].max()) + 1
    params = triples.init_triple_params(rng, 4, 3, 2)

    def fn(*_):
        enc = triples.encode_triples(x, trips, n_rel, params)
        return ad.reduce_sum(enc.triple_repr)

    perturbed = [x, params["triple.head_a"], params["triple.mutual_fwd_a"],
                 params["triple.key_w"], params["triple.type_w"]]
    return fn, perturbed


def _fd_case_entity_enhancer(rng):
    x, trips = _random_graph_tensors(rng, n=6, m=10, n_rel=3, d_e=4)
    graph = kg.GraphStructure(kg.KnowledgeGraph(6, int(trips[:, 1].max()) + 1, trips))
    width = 5
    t_repr = _param(rng, (len(trips), width))
    params = enhancer.init_enhancer_params(rng, 4, width)

    def fn(*_):
        out = enhancer.enhance_entities(x, t_repr, graph, params, mode=2)
        return ad.reduce_sum(out)

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
    ("add", _fd_case_add),
    ("mul", _fd_case_mul),
    ("concat", _fd_case_concat),
    ("relu", _fd_case_relu),
    ("leaky_relu", _fd_case_leaky_relu),
    ("tanh", _fd_case_tanh),
    ("sigmoid", _fd_case_sigmoid),
    ("absval", _fd_case_absval),
    ("take_rows", _fd_case_take_rows),
    ("reduce_sum", _fd_case_reduce_sum_axis),
    ("reshape", _fd_case_reshape),
    ("left_matmul", _fd_case_left_matmul),
    ("segment_softmax", _fd_case_segment_softmax),
    ("segment_sum", _fd_case_segment_sum),
    ("structure_encoder", _fd_case_structure_encoder),
    ("triple_encoder", _fd_case_triple_encoder),
    ("entity_enhancer", _fd_case_entity_enhancer),
    ("margin_loss", _fd_case_margin_loss),
]


def run_fd_checks(trials=20, seed=1234, tol=FD_TOL):
    results = []
    for name, builder in FD_CASES:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            fn, inputs = builder(rng)
            worst = max(worst, ad.fd_check(fn, inputs))
        results.append(
            CheckResult(f"grad/{name}", worst < tol, f"max_rel_err={worst:.3e}")
        )
    return results


# ------------------------------------------------------------ naive oracles


def naive_segment_softmax(logits, ids):
    out = np.zeros_like(logits)
    for seg in set(ids.tolist()):
        pos = [i for i, s in enumerate(ids) if s == seg]
        mx = max(logits[i] for i in pos)
        exps = [math.exp(logits[i] - mx) for i in pos]
        total = sum(exps)
        for i, e in zip(pos, exps):
            out[i] = e / total
    return out


def naive_segment_sum(values, ids, num_segments):
    out = np.zeros((num_segments, values.shape[1]))
    for i, seg in enumerate(ids):
        for j in range(values.shape[1]):
            out[seg, j] += values[i, j]
    return out


def naive_grouped_mean(rows, ids, num_groups):
    out = np.zeros((num_groups, rows.shape[1]))
    for g in range(num_groups):
        members = [i for i, s in enumerate(ids) if s == g]
        out[g] = sum(rows[i] for i in members) / len(members)
    return out


def _leaky(v, slope=0.3):
    return np.where(v > 0, v, slope * v)


def naive_grouped_attention(query, key, value, ids, num_groups, a, out_act, slope=0.3):
    logits = _leaky(np.concatenate([query, key], axis=1) @ a, slope).reshape(-1)
    out = np.zeros((num_groups, value.shape[1]))
    for g in range(num_groups):
        members = [i for i, s in enumerate(ids) if s == g]
        if not members:
            continue
        mx = max(logits[i] for i in members)
        weights = {i: math.exp(logits[i] - mx) for i in members}
        total = sum(weights.values())
        acc = np.zeros(value.shape[1])
        for i in members:
            acc += (weights[i] / total) * value[i]
        out[g] = acc
    return out_act(out)


def _check_close(name, got, want, tol=ORACLE_TOL):
    diff = float(np.max(np.abs(got - want))) if np.size(got) else 0.0
    return CheckResult(f"oracle/{name}", diff <= tol, f"max_abs_diff={diff:.3e}")


def run_oracle_checks(seed=99, entities=30, n_triples=80, n_rel=5):
    rng = np.random.default_rng(seed)
    results = []

    logits = rng.normal(size=40)
    ids = np.sort(rng.integers(0, 6, size=40))
    got = ad.segment_softmax(ad.Tensor(logits), ids).data
    results.append(_check_close("segment_softmax", got, naive_segment_softmax(logits, ids)))

    vals = rng.normal(size=(40, 5))
    got = ad.segment_sum(ad.Tensor(vals), ids, 6).data
    results.append(_check_close("segment_sum", got, naive_segment_sum(vals, ids, 6), tol=1e-12))

    x = rng.normal(size=(entities, 6))
    heads = rng.integers(0, entities, size=n_triples)
    tails = (heads + 1 + rng.integers(0, entities - 1, size=n_triples)) % entities
    rels = np.concatenate([np.arange(n_rel), rng.integers(0, n_rel, size=n_triples - n_rel)])
    xt = ad.Tensor(x)

    got = triples.global_relation(xt, heads, tails, rels, n_rel).data
    pair = np.concatenate([x[heads], x[tails]], axis=1)
    results.append(_check_close("global_relation", got, naive_grouped_mean(pair, rels, n_rel), tol=1e-12))

    d = 4
    q = rng.normal(size=(n_triples, d))
    k = rng.normal(size=(n_triples, d))
    v = rng.normal(size=(n_triples, d))
    a = rng.normal(size=(2 * d, 1))
    got = triples.role_aware_attention(
        ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), rels, n_rel, ad.Tensor(a)
    ).data
    want = naive_grouped_attention(q, k, v, rels, n_rel, a, _leaky)
    results.append(_check_close("role_aware_attention", got, want))

    a_fwd = rng.normal(size=(2 * d, 1))
    a_rev = rng.normal(size=(2 * d, 1))
    sem_agg, type_agg = triples.mutual_attention(
        ad.Tensor(q), ad.Tensor(k), rels, n_rel, ad.Tensor(a_fwd), ad.Tensor(a_rev)
    )
    relu_act = lambda m: np.maximum(m, 0.0)
    want_fwd = naive_grouped_attention(q, k, q, rels, n_rel, a_fwd, relu_act)
    want_rev = naive_grouped_attention(k, q, k, rels, n_rel, a_rev, relu_act)
    results.append(_check_close("mutual_attention_fwd", sem_agg.data, want_fwd))
    results.append(_check_close("mutual_attention_rev", type_agg.data, want_rev))

    width = 5
    t_repr = rng.normal(size=(n_triples, width))
    w_proj = rng.normal(size=(width, 6))
    a_ent = rng.normal(size=(12, 1))
    proj = t_repr @ w_proj
    for role, ids in (("head", heads), ("tail", tails)):
        got = enhancer.attention_enhance(
            xt, ad.Tensor(t_repr), ids, entities, ad.Tensor(w_proj), ad.Tensor(a_ent)
        ).data
        want = x + relu_act(
            naive_grouped_attention(proj, x[ids], proj, ids, entities, a_ent, lambda m: m)
        )
        results.append(_check_close(f"attention_enhance[{role}]", got, want))

    trips = np.stack([heads, rels, tails], axis=1).astype(np.int64)
    src, dst = kg.neighbor_edges(trips)
    a_nbr = rng.normal(size=(12, 1))
    got = enhancer.neighbor_reaggregate(xt, src, dst, entities, ad.Tensor(a_nbr)).data
    want_agg = relu_act(
        naive_grouped_attention(x[src], x[dst], x[dst], src, entities, a_nbr, lambda m: m)
    )
    results.append(_check_close("neighbor_reaggregate", got, np.concatenate([x, want_agg], axis=1)))

    # evaluate's rank path against a full sort of each query's distances
    emb_q = rng.normal(size=(20, 4))
    emb_c = rng.normal(size=(20, 4))
    pairs = np.stack([np.arange(5), np.arange(5)], axis=1)
    got_ranks = evaluation.rank_pairs(emb_q, emb_c, pairs, np.arange(20))
    want_ranks = [
        int(np.searchsorted(np.sort(dist), dist[q], side="right"))
        for q, dist in enumerate(np.abs(emb_c[None] - emb_q[:5, None]).sum(axis=2))
    ]
    results.append(CheckResult("oracle/rank_pairs", got_ranks.tolist() == want_ranks,
                               f"ranks {got_ranks.tolist()} vs full sort {want_ranks}"))

    graph = kg.KnowledgeGraph(entities, n_rel, np.unique(trips, axis=0))
    adj = kg.build_normalized_adjacency(graph)
    sym = float(np.abs(adj - adj.T).max())
    results.append(CheckResult("oracle/adjacency_symmetric", sym == 0.0, f"max_asym={sym:.1e}"))
    # fixed-vector identity of symmetric normalization: A_hat @ sqrt(d) == sqrt(d)
    dense = adj.toarray()
    deg = (dense > 0).sum(axis=1).astype(float)
    err = float(np.max(np.abs(dense @ np.sqrt(deg) - np.sqrt(deg))))
    results.append(CheckResult("oracle/adjacency_norm_identity", err < 1e-9, f"max_err={err:.3e}"))

    return results


def run_all(trials=20):
    return run_fd_checks(trials=trials) + run_oracle_checks()
