import numpy as np
import pytest

from kgalign import autodiff as ad
from kgalign import enhancer, kg

import naive_oracles as naive


def make_instance(rng, n=10, m=20, n_rel=3, d_e=4, width=5):
    trips = naive.random_connected_triples(rng, n, m, n_rel)
    x = rng.normal(size=(n, d_e))
    t_repr = rng.normal(size=(len(trips), width))
    params = enhancer.init_enhancer_params(np.random.default_rng(17), d_e, width)
    return x, trips, t_repr, params


def structure_of(trips, n):
    return kg.GraphStructure(kg.KnowledgeGraph(n, int(trips[:, 1].max()) + 1, trips))


# ----------------------------------------------------------- head/tail steps


def test_entity_without_triples_is_bitwise_unchanged(rng):
    x = rng.normal(size=(4, 3))
    t_repr = rng.normal(size=(2, 5))
    w = ad.Tensor(rng.normal(size=(5, 3)))
    a = ad.Tensor(rng.normal(size=(6, 1)))
    out = enhancer.attention_enhance(ad.Tensor(x), ad.Tensor(t_repr),
                                     np.array([0, 1]), 4, w, a).data
    # entities 2 and 3 head nothing
    assert (out[2] == x[2]).all() and (out[3] == x[3]).all()


def test_singleton_head_group_residual(rng):
    x = rng.normal(size=(2, 3))
    t_repr = rng.normal(size=(1, 4))
    w = rng.normal(size=(4, 3))
    a = rng.normal(size=(6, 1))
    out = enhancer.attention_enhance(ad.Tensor(x), ad.Tensor(t_repr),
                                     np.array([0]), 2, ad.Tensor(w), ad.Tensor(a)).data
    want = x.copy()
    want[0] = x[0] + np.maximum(t_repr[0] @ w, 0.0)
    np.testing.assert_allclose(out, want, atol=1e-12)


@pytest.mark.parametrize("role, column", [("head", 0), ("tail", 2)], ids=["head", "tail"])
def test_attention_enhance_matches_naive(rng, role, column):
    x, trips, t_repr, params = make_instance(rng)
    ids = trips[:, column]
    w, a = params[f"enhance.{role}_w"], params[f"enhance.{role}_a"]
    got = enhancer.attention_enhance(ad.Tensor(x), ad.Tensor(t_repr), ids, 10, w, a).data
    proj = t_repr @ w.data
    agg = naive.grouped_attention(proj, x[ids], proj, ids, 10, a.data)
    np.testing.assert_allclose(got, x + np.maximum(agg, 0.0), atol=1e-10)


def test_residual_change_localized_to_touched_entities(rng):
    x, trips, t_repr, params = make_instance(rng)
    heads = set(trips[:, 0].tolist())
    got = enhancer.attention_enhance(
        ad.Tensor(x), ad.Tensor(t_repr), trips[:, 0], 10,
        params["enhance.head_w"], params["enhance.head_a"],
    ).data
    for e in range(10):
        if e not in heads:
            assert (got[e] == x[e]).all()


# ------------------------------------------------------------------- cycle


def test_cycle_mode1_is_prefix_of_mode2(rng):
    x, trips, t_repr, params = make_instance(rng)
    heads, tails = trips[:, 0], trips[:, 2]
    xt = ad.Tensor(x)
    tr = ad.Tensor(t_repr)
    mode1 = enhancer.cycle_co_enhance(xt, tr, heads, tails, 10, params, mode=1).data
    # replaying head on top of mode1's output reproduces mode2
    manual = enhancer.attention_enhance(
        ad.Tensor(mode1), tr, heads, 10,
        params["enhance.head_w"], params["enhance.head_a"],
    ).data
    mode2 = enhancer.cycle_co_enhance(xt, tr, heads, tails, 10, params, mode=2).data
    np.testing.assert_allclose(mode2, manual, atol=1e-12)


def test_cycle_modes_differ_on_nondegenerate_chain(rng):
    # 3-entity chain where entity 0 heads a triple
    trips = np.array([[0, 0, 1], [1, 1, 2]], dtype=np.int64)
    x = rng.normal(size=(3, 4))
    t_repr = rng.normal(size=(2, 5))
    params = enhancer.init_enhancer_params(np.random.default_rng(1), 4, 5)
    xt, tr = ad.Tensor(x), ad.Tensor(t_repr)
    m1 = enhancer.cycle_co_enhance(xt, tr, trips[:, 0], trips[:, 2], 3, params, mode=1).data
    m2 = enhancer.cycle_co_enhance(xt, tr, trips[:, 0], trips[:, 2], 3, params, mode=2).data
    assert not np.allclose(m1, m2)


def test_cycle_invalid_mode(rng):
    x, trips, t_repr, params = make_instance(rng)
    with pytest.raises(ValueError):
        enhancer.cycle_co_enhance(ad.Tensor(x), ad.Tensor(t_repr),
                                  trips[:, 0], trips[:, 2], 10, params, mode=4)


# ----------------------------------------------------------- neighbor layer


def test_neighbor_edges_undirected_unique_sorted():
    trips = np.array([[0, 0, 1], [1, 1, 0], [1, 0, 2], [2, 2, 2]], dtype=np.int64)
    src, dst = kg.neighbor_edges(trips)
    # multi-edges collapse, self-loop dropped, both directions present
    assert list(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_neighbor_single_neighbor(rng):
    x = rng.normal(size=(2, 3))
    a = rng.normal(size=(6, 1))
    src, dst = np.array([0, 1]), np.array([1, 0])
    out = enhancer.neighbor_reaggregate(ad.Tensor(x), src, dst, 2, ad.Tensor(a)).data
    np.testing.assert_allclose(out[0], np.concatenate([x[0], np.maximum(x[1], 0)]), atol=1e-12)
    np.testing.assert_allclose(out[1], np.concatenate([x[1], np.maximum(x[0], 0)]), atol=1e-12)


def test_neighbor_identical_neighbors_aggregate_to_relu_v(rng):
    v = rng.normal(size=3)
    x = np.vstack([rng.normal(size=3), v, v, v])
    src = np.array([0, 0, 0])
    dst = np.array([1, 2, 3])
    a = rng.normal(size=(6, 1))
    out = enhancer.neighbor_reaggregate(ad.Tensor(x), src, dst, 4, ad.Tensor(a)).data
    np.testing.assert_allclose(out[0, 3:], np.maximum(v, 0.0), atol=1e-12)


def test_neighbor_star_matches_naive(rng):
    # 4-neighbor star centered at 0
    x = rng.normal(size=(5, 3))
    trips = np.array([[0, 0, i] for i in range(1, 5)], dtype=np.int64)
    src, dst = kg.neighbor_edges(trips)
    a = rng.normal(size=(6, 1))
    out = enhancer.neighbor_reaggregate(ad.Tensor(x), src, dst, 5, ad.Tensor(a)).data
    agg = naive.grouped_attention(x[src], x[dst], x[dst], src, 5, a)
    np.testing.assert_allclose(out, np.concatenate([x, np.maximum(agg, 0.0)], axis=1),
                               atol=1e-10)


def test_empty_neighborhood_gets_zero_block(rng):
    # only a self-loop triple: no undirected neighbors at all
    trips = np.array([[0, 0, 0], [1, 0, 2]], dtype=np.int64)
    x = rng.normal(size=(3, 3))
    src, dst = kg.neighbor_edges(trips)
    a = rng.normal(size=(6, 1))
    out = enhancer.neighbor_reaggregate(ad.Tensor(x), src, dst, 3, ad.Tensor(a)).data
    assert (out[0, 3:] == 0.0).all()


def test_final_width_doubles(rng):
    x, trips, t_repr, params = make_instance(rng)
    out = enhancer.enhance_entities(ad.Tensor(x), ad.Tensor(t_repr), structure_of(trips, 10),
                                    params)
    assert out.data.shape == (10, 8)


def test_skip_cycle_variant_well_formed(rng):
    x, trips, t_repr, params = make_instance(rng)
    out = enhancer.enhance_entities(ad.Tensor(x), ad.Tensor(t_repr), structure_of(trips, 10),
                                    params, skip_cycle=True)
    assert out.data.shape == (10, 8)
    assert np.isfinite(out.data).all()
    # without the cycle, the first half is exactly the input
    np.testing.assert_array_equal(out.data[:, :4], x)


def test_attention_weights_per_entity_sum_to_one(rng):
    x, trips, t_repr, params = make_instance(rng)
    heads = trips[:, 0]
    proj = t_repr @ params["enhance.head_w"].data
    logits = np.concatenate([proj, x[heads]], axis=1) @ params["enhance.head_a"].data
    weights = ad.segment_softmax(
        ad.leaky_relu(ad.Tensor(logits.reshape(-1)), 0.3), heads
    ).data
    sums = np.zeros(10)
    np.add.at(sums, heads, weights)
    np.testing.assert_allclose(sums[np.unique(heads)], 1.0, atol=1e-9)


def test_full_module_gradient(rng):
    x_data, trips, t_data, params = make_instance(rng, n=8, m=14, d_e=3, width=4)
    params = enhancer.init_enhancer_params(np.random.default_rng(3), 3, 4)
    x = ad.Tensor(x_data, requires_grad=True)
    t_repr = ad.Tensor(t_data, requires_grad=True)
    graph = structure_of(trips, 8)

    def fn(*_):
        out = enhancer.enhance_entities(x, t_repr, graph, params, mode=2)
        return ad.reduce_sum(out)

    assert ad.fd_check(fn, [x, t_repr]) < 1e-4
