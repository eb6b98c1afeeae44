import numpy as np
import pytest

from kgalign import autodiff as ad
from kgalign import kg, triples
from kgalign import oracles as naive

import testlib
from kgalign.kernels import Segments


def make_instance(rng, n=12, m=30, n_rel=4, d_e=5):
    trips = naive.random_connected_triples(rng, n, m, n_rel)
    x = rng.normal(size=(n, d_e))
    return x, trips


def graph_of(trips, n):
    trips = np.asarray(trips, dtype=np.int64)
    return kg.GraphStructure(kg.KnowledgeGraph(n, int(trips[:, 1].max()) + 1, trips))


# ----------------------------------------------------------- global relation


def test_global_relation_single_triple_per_relation(rng):
    x = rng.normal(size=(4, 3))
    graph = graph_of([[0, 0, 1], [2, 1, 3]], 4)
    out = triples.global_relation(ad.Tensor(x), graph).data
    np.testing.assert_array_equal(out[0], np.concatenate([x[0], x[1]]))
    np.testing.assert_array_equal(out[1], np.concatenate([x[2], x[3]]))


def test_global_relation_swapped_pair_mean(rng):
    x = rng.normal(size=(2, 3))
    out = triples.global_relation(ad.Tensor(x), graph_of([[0, 0, 1], [1, 0, 0]], 2)).data
    u, v = x[0], x[1]
    want = (np.concatenate([u, v]) + np.concatenate([v, u])) / 2.0
    np.testing.assert_allclose(out[0], want, atol=1e-15)


def test_global_relation_matches_naive_mean(rng):
    x, trips = make_instance(rng, m=50)
    heads, rels, tails = trips.T
    n_rel = int(rels.max()) + 1
    out = triples.global_relation(ad.Tensor(x), graph_of(trips, len(x))).data
    pair = np.concatenate([x[heads], x[tails]], axis=1)
    np.testing.assert_allclose(out, naive.grouped_mean(pair, rels, n_rel), atol=1e-12)


def test_global_relation_empty_relation_errors(rng):
    # relation 1 of 2 has no triple, so it has no mean; the graph that
    # global_relation reads refuses to be built
    with pytest.raises(ValueError, match="relation 1 has no triples"):
        graph = kg.GraphStructure(kg.KnowledgeGraph(2, 2, np.array([[0, 0, 1]])))
        triples.global_relation(ad.Tensor(rng.normal(size=(2, 3))), graph)


# ------------------------------------------------------------- specificity


def test_specificity_zero_embeddings():
    x = ad.Tensor(np.zeros((3, 2)))
    w = ad.Tensor(np.ones((4, 2)))
    out, _ = triples.triple_specificity(x, [0, 1], [1, 2], w)
    np.testing.assert_array_equal(out.data, np.zeros((2, 6)))


def test_specificity_width(rng):
    d_e, d_r = 5, 3
    x = ad.Tensor(rng.normal(size=(6, d_e)))
    w = ad.Tensor(rng.normal(size=(2 * d_e, d_r)))
    out, _ = triples.triple_specificity(x, [0, 1, 2], [3, 4, 5], w)
    assert out.data.shape == (3, 2 * d_e + d_r)


def test_specificity_hand_computed():
    # d_e=2, d_r=1, one triple (0, r, 1)
    x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    w = ad.Tensor([[1.0], [1.0], [1.0], [1.0]])
    out, local = triples.triple_specificity(x, [0], [1], w)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 10.0, 3.0, 4.0]])
    np.testing.assert_array_equal(local.data, [[1.0, 2.0, 3.0, 4.0]])


# -------------------------------------------------------------- attention


def test_attention_singleton_group(rng):
    q = rng.normal(size=(1, 4))
    k = rng.normal(size=(1, 4))
    a = rng.normal(size=(8, 1))
    out = ad.grouped_attention(
        ad.Tensor(q), ad.Tensor(k), ad.Tensor(q), Segments([0], 1), ad.Tensor(a)
    ).data
    np.testing.assert_allclose(out, q, atol=1e-12)


def test_attention_duplicated_identical_triples(rng):
    q = np.tile(rng.normal(size=(1, 4)), (5, 1))
    k = np.tile(rng.normal(size=(1, 4)), (5, 1))
    a = rng.normal(size=(8, 1))
    dup = ad.grouped_attention(
        ad.Tensor(q), ad.Tensor(k), ad.Tensor(q), Segments([0] * 5, 1), ad.Tensor(a)
    ).data
    single = ad.grouped_attention(
        ad.Tensor(q[:1]), ad.Tensor(k[:1]), ad.Tensor(q[:1]), Segments([0], 1), ad.Tensor(a)
    ).data
    np.testing.assert_allclose(dup, single, atol=1e-12)


def test_attention_weights_sum_to_one(rng):
    m = 30
    rels = rng.integers(0, 4, size=m)
    logits = rng.normal(size=m)
    weights = testlib.segment_softmax(ad.Tensor(logits), Segments(rels, 4)).data
    sums = np.zeros(4)
    np.add.at(sums, rels, weights)
    np.testing.assert_allclose(sums[np.unique(rels)], 1.0, atol=1e-9)


def test_attention_empty_group_is_zero_row(rng):
    q = rng.normal(size=(2, 3))
    a = rng.normal(size=(6, 1))
    out = ad.grouped_attention(
        ad.Tensor(q), ad.Tensor(q), ad.Tensor(q), Segments([0, 0], 2), ad.Tensor(a)
    ).data
    np.testing.assert_array_equal(out[1], np.zeros(3))


def test_encode_empty_relation_errors(rng):
    x, trips = make_instance(rng, n_rel=2)
    params = triples.init_triple_params(np.random.default_rng(0), 5, 3, 2)
    for variant in triples.VARIANTS:
        with pytest.raises(ValueError, match="relation 2 has no triples"):
            graph = kg.GraphStructure(kg.KnowledgeGraph(len(x), 3, trips))
            triples.encode_triples(ad.Tensor(x), graph, params, variant=variant)


# ---------------------------------------------------------- semantic fusion


def test_semantic_without_attention_is_projected_specificity(rng):
    x, trips = make_instance(rng)
    params = triples.init_triple_params(np.random.default_rng(1), 5, 3, 2)
    got = triples.semantic_triple(
        ad.Tensor(x), graph_of(trips, len(x)), params, with_attention=False
    ).data
    spec, _ = triples.triple_specificity(
        ad.Tensor(x), trips[:, 0], trips[:, 2], params["triple.local_w"]
    )
    want = spec.data @ params["triple.key_w"].data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_semantic_shape(rng):
    x, trips = make_instance(rng)
    params = triples.init_triple_params(np.random.default_rng(1), 5, 3, 2)
    out = triples.semantic_triple(ad.Tensor(x), graph_of(trips, len(x)), params)
    assert out.data.shape == (len(trips), 3)


def test_semantic_hand_built_two_triples(rng):
    # with all projections known, the fused value is the sum of the four parts
    x, trips = make_instance(rng, n=4, m=2, n_rel=2, d_e=3)
    heads, rels, tails = trips.T
    params = triples.init_triple_params(np.random.default_rng(5), 3, 2, 2)
    got = triples.semantic_triple(ad.Tensor(x), graph_of(trips, 4), params).data

    local_w = params["triple.local_w"].data
    key_w = params["triple.key_w"].data
    local = np.concatenate([x[heads], x[tails]], axis=1)
    spec = np.concatenate([x[heads], local @ local_w, x[tails]], axis=1)
    key = spec @ key_w
    rbar = naive.grouped_mean(local, rels, 2)
    q_h = x[heads] @ params["triple.head_w"].data
    q_t = x[tails] @ params["triple.tail_w"].data
    q_r = rbar[rels] @ params["triple.global_w"].data + local @ local_w
    agg_h = naive.leaky(naive.grouped_attention(q_h, key, q_h, rels, 2, params["triple.head_a"].data))
    agg_t = naive.leaky(naive.grouped_attention(q_t, key, q_t, rels, 2, params["triple.tail_a"].data))
    agg_r = naive.leaky(naive.grouped_attention(q_r, key, q_r, rels, 2, params["triple.rel_a"].data))
    want = agg_h[rels] + agg_t[rels] + agg_r[rels] + key
    np.testing.assert_allclose(got, want, atol=1e-10)


# --------------------------------------------------------------- type space


def test_type_projection_zero_weights():
    x = ad.Tensor(np.ones((3, 4)))
    out = triples.type_projection(x, ad.Tensor(np.zeros((4, 2))), ad.Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_type_projection_range(rng):
    # moderate inputs: float64 tanh only reaches exactly +-1 beyond |z| ~ 19
    x = ad.Tensor(rng.normal(size=(5, 4)))
    out = triples.type_projection(
        x, ad.Tensor(rng.normal(size=(4, 3))), ad.Tensor(rng.normal(size=3))
    ).data
    assert (out > -1).all() and (out < 1).all()


def test_type_projection_gradient(rng):
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=2), requires_grad=True)
    err = ad.fd_check(lambda *_: ad.reduce_sum(triples.type_projection(x, w, b)), [x, w, b])
    assert err < 1e-4


def test_type_triple_singleton_doubles_local(rng):
    d_t, d_r = 3, 2
    xt = rng.normal(size=(2, d_t))
    w = rng.normal(size=(2 * d_t, d_r))
    rel_global, type_spec = triples.type_triple(
        ad.Tensor(xt), graph_of([[0, 0, 1]], 2), ad.Tensor(w)
    )
    local = np.concatenate([xt[0], xt[1]])
    np.testing.assert_allclose(rel_global.data[0], local, atol=1e-15)
    # middle block is (2 * local) @ w for a single-triple relation
    np.testing.assert_allclose(type_spec.data[0, d_t:d_t + d_r], (2 * local) @ w, atol=1e-12)
    assert type_spec.data.shape[1] == 2 * d_t + d_r


def test_type_triple_matches_naive(rng):
    x, trips = make_instance(rng, d_e=4)
    heads, rels, tails = trips.T
    n_rel = int(rels.max()) + 1
    w = rng.normal(size=(8, 3))
    rel_global, type_spec = triples.type_triple(ad.Tensor(x), graph_of(trips, len(x)), ad.Tensor(w))
    pair = np.concatenate([x[heads], x[tails]], axis=1)
    want_global = naive.grouped_mean(pair, rels, n_rel)
    np.testing.assert_allclose(rel_global.data, want_global, atol=1e-12)
    want_spec = np.concatenate(
        [x[heads], (want_global[rels] + pair) @ w, x[tails]], axis=1
    )
    np.testing.assert_allclose(type_spec.data, want_spec, atol=1e-12)


# ---------------------------------------------------------- mutual attention


def test_mutual_attention_singleton_relations(rng):
    sem = rng.normal(size=(2, 3))
    typ = rng.normal(size=(2, 3))
    a1 = rng.normal(size=(6, 1))
    a2 = rng.normal(size=(6, 1))
    sem_agg, type_agg = triples.mutual_attention(
        ad.Tensor(sem), ad.Tensor(typ), Segments([0, 1], 2), ad.Tensor(a1), ad.Tensor(a2)
    )
    np.testing.assert_allclose(sem_agg.data, np.maximum(sem, 0.0), atol=1e-12)
    np.testing.assert_allclose(type_agg.data, np.maximum(typ, 0.0), atol=1e-12)


# -------------------------------------------------------------------- fusion


def test_fuse_all_zero_summands_keeps_relation_type_vector(rng):
    m, d_r, d_t = 4, 3, 2
    rels = np.array([0, 1, 0, 1])
    zeros = ad.Tensor(np.zeros((m, d_r)))
    zero_agg = ad.Tensor(np.zeros((2, d_r)))
    rel_type = ad.Tensor(rng.normal(size=(2, 2 * d_t)))
    out = triples.fuse_type_enhanced(zeros, zero_agg, zeros, zero_agg, rel_type, rels).data
    np.testing.assert_array_equal(out[:, :d_r], np.zeros((m, d_r)))
    np.testing.assert_array_equal(out[:, d_r:], rel_type.data[rels])


def test_encode_widths(rng):
    x, trips = make_instance(rng)
    graph = graph_of(trips, len(x))
    params = triples.init_triple_params(np.random.default_rng(0), 5, 3, 2)
    for variant, width in (("full", 3 + 4), ("wo-E", 3 + 4), ("wo-T", 3)):
        enc = triples.encode_triples(ad.Tensor(x), graph, params, variant=variant)
        assert triples.triple_width(variant, 3, 2) == width
        assert enc.data.shape == (len(trips), width)
        assert np.isfinite(enc.data).all()


def test_duplicating_uniform_relation_triples_changes_nothing(rng):
    # relation 0's triples read identical rows (entities 0, 6 and 8 share
    # one, as do 1, 7 and 9); adding one more such triple must leave every
    # per-relation aggregate unchanged
    x = rng.normal(size=(10, 4))
    x[[6, 8]] = x[0]
    x[[7, 9]] = x[1]
    base = np.array([[0, 0, 1], [6, 0, 7], [2, 1, 3], [4, 1, 5]], dtype=np.int64)
    dup = np.concatenate([base, [[8, 0, 9]]], axis=0)
    params = triples.init_triple_params(np.random.default_rng(2), 4, 3, 2)

    enc_base = triples.encode_triples(ad.Tensor(x[:8]), graph_of(base, 8), params, "full")
    enc_dup = triples.encode_triples(ad.Tensor(x), graph_of(dup, 10), params, "full")
    # compare the representation of one relation-0 triple and one relation-1 triple
    np.testing.assert_allclose(enc_base.data[0], enc_dup.data[0], atol=1e-10)
    np.testing.assert_allclose(enc_base.data[2], enc_dup.data[2], atol=1e-10)


def test_end_to_end_gradient_wrt_embeddings(rng):
    x_data, trips = make_instance(rng, n=10, m=18, n_rel=3, d_e=4)
    graph = graph_of(trips, 10)
    params = triples.init_triple_params(np.random.default_rng(4), 4, 3, 2)
    x = ad.Tensor(x_data, requires_grad=True)

    def fn(*_):
        return ad.reduce_sum(triples.encode_triples(x, graph, params, "full"))

    assert ad.fd_check(fn, [x]) < 1e-4
