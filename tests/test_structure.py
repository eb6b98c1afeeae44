import numpy as np
import pytest

from kgalign import autodiff as ad
from kgalign import kg, structure
from kgalign import oracles as naive


def line_graph(n=2):
    trips = np.array([[i, 0, i + 1] for i in range(n - 1)], dtype=np.int64)
    return kg.KnowledgeGraph(n, 1, trips)


def test_propagate_zero_input_gives_zero():
    adj = kg.build_normalized_adjacency(line_graph(4))
    out = structure.gcn_propagate(ad.Tensor(np.zeros((4, 3))), adj)
    np.testing.assert_array_equal(out.data, np.zeros((4, 3)))


def test_propagate_single_self_looped_entity():
    g = kg.KnowledgeGraph(1, 1, np.array([[0, 0, 0]]))
    adj = kg.build_normalized_adjacency(g)
    v = np.array([[-1.0, 0.5, 2.0]])
    out = structure.gcn_propagate(ad.Tensor(v), adj)
    np.testing.assert_allclose(out.data, np.maximum(v, 0.0), atol=1e-15)


def test_propagate_matches_dense_hand_computation(rng):
    # two-node path: A_hat = [[1,1],[1,1]], degrees 2 -> all entries 0.5
    adj = kg.build_normalized_adjacency(line_graph(2))
    x = rng.normal(size=(2, 4))
    dense = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = structure.gcn_propagate(ad.Tensor(x), adj)
    np.testing.assert_allclose(out.data, np.maximum(dense @ x, 0.0), atol=1e-12)


def test_propagate_shape_mismatch():
    adj = kg.build_normalized_adjacency(line_graph(3))
    with pytest.raises(ad.DimensionError):
        structure.gcn_propagate(ad.Tensor(np.zeros((5, 2))), adj)


def test_highway_equal_inputs_pass_through(rng):
    x = ad.Tensor(rng.normal(size=(4, 3)))
    w = ad.Tensor(rng.normal(size=(3, 3)))
    b = ad.Tensor(rng.normal(size=(3,)))
    out = structure.highway_combine(x, x, w, b)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_highway_saturated_gate_keeps_old(rng):
    x_old = ad.Tensor(rng.normal(size=(4, 3)))
    x_new = ad.Tensor(rng.normal(size=(4, 3)))
    w = ad.Tensor(np.zeros((3, 3)))
    b = ad.Tensor(np.full(3, -50.0))
    out = structure.highway_combine(x_old, x_new, w, b)
    np.testing.assert_allclose(out.data, x_old.data, atol=1e-9)


def test_highway_output_is_convex_combination(rng):
    for _ in range(10):
        x_old = ad.Tensor(rng.normal(size=(5, 4)))
        x_new = ad.Tensor(rng.normal(size=(5, 4)))
        w = ad.Tensor(rng.normal(size=(4, 4)))
        b = ad.Tensor(rng.normal(size=(4,)))
        out = structure.highway_combine(x_old, x_new, w, b).data
        lo = np.minimum(x_old.data, x_new.data)
        hi = np.maximum(x_old.data, x_new.data)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()


def test_encode_depth_one_equals_single_application(rng):
    g = kg.KnowledgeGraph(5, 2, naive.random_connected_triples(rng, 5, 8, 2))
    adj = kg.build_normalized_adjacency(g)
    params = structure.init_structure_params(np.random.default_rng(3), 4, 1)
    x = ad.Tensor(rng.normal(size=(5, 4)))
    combined = structure.encode_structure(x, adj, params, depth=1)
    manual = structure.highway_combine(
        x, structure.gcn_propagate(x, adj), params["gcn.gate_w0"], params["gcn.gate_b0"]
    )
    np.testing.assert_array_equal(combined.data, manual.data)


def test_encode_permutation_equivariance(rng):
    n, d = 20, 5
    trips = naive.random_connected_triples(rng, n, 35, 3)
    g = kg.KnowledgeGraph(n, 3, trips)
    adj = kg.build_normalized_adjacency(g)
    params = structure.init_structure_params(np.random.default_rng(9), d, 2)
    x = rng.normal(size=(n, d))
    base = structure.encode_structure(ad.Tensor(x), adj, params, 2).data

    perm = rng.permutation(n)
    permuted_trips = trips.copy()
    permuted_trips[:, 0] = perm[trips[:, 0]]
    permuted_trips[:, 2] = perm[trips[:, 2]]
    g_perm = kg.KnowledgeGraph(n, 3, permuted_trips)
    adj_perm = kg.build_normalized_adjacency(g_perm)
    x_perm = np.empty_like(x)
    x_perm[perm] = x
    out_perm = structure.encode_structure(ad.Tensor(x_perm), adj_perm, params, 2).data
    np.testing.assert_allclose(out_perm[perm], base, atol=1e-10)


def test_encoder_gradients_match_fd(rng):
    g = kg.KnowledgeGraph(5, 2, naive.random_connected_triples(rng, 5, 8, 2))
    adj = kg.build_normalized_adjacency(g)
    params = structure.init_structure_params(np.random.default_rng(2), 3, 2)
    x = ad.Tensor(rng.normal(size=(5, 3)) + 0.2, requires_grad=True)

    def fn(*_):
        return ad.reduce_sum(structure.encode_structure(x, adj, params, 2))

    err = ad.fd_check(fn, [x] + list(params.values()))
    assert err < 1e-4
