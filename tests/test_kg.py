import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import kg
from kgalign.kg import DataError


def tiny_graph():
    return kg.KnowledgeGraph(2, 1, np.array([[0, 0, 1]]))


# ------------------------------------------------------------- graph model


def test_rejects_isolated_entities():
    with pytest.raises(DataError, match="isolated"):
        kg.KnowledgeGraph(3, 1, np.array([[0, 0, 1]]))


def test_rejects_empty_triple_set():
    with pytest.raises(DataError, match="no triples"):
        kg.KnowledgeGraph(2, 1, np.empty((0, 3), dtype=np.int64))


def test_rejects_duplicate_triples():
    with pytest.raises(DataError, match="duplicate"):
        kg.KnowledgeGraph(2, 1, np.array([[0, 0, 1], [0, 0, 1]]))


def test_rejects_out_of_range_ids():
    with pytest.raises(DataError):
        kg.KnowledgeGraph(2, 1, np.array([[0, 0, 5]]))
    with pytest.raises(DataError):
        kg.KnowledgeGraph(2, 1, np.array([[0, 3, 1]]))


# ---------------------------------------------------------- graph structure


def test_graph_structure_holds_base_adjacency_and_neighbors():
    base = kg.KnowledgeGraph(4, 2, np.array([[0, 0, 1], [1, 1, 2], [2, 0, 3], [3, 1, 3]]))
    graph = kg.GraphStructure(base)
    assert graph.base is base and graph.num_entities == 4
    want = kg.build_normalized_adjacency(base)
    assert (graph.adjacency_norm != want).nnz == 0
    # the self-loop (3, 1, 3) has no neighbor entry
    assert list(zip(graph.neighbor_src.tolist(), graph.neighbor_dst.tolist())) == [
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)
    ]


# --------------------------------------------------------------- adjacency


def test_adjacency_two_node_pair():
    adj = kg.build_normalized_adjacency(tiny_graph()).toarray()
    np.testing.assert_allclose(adj, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_adjacency_self_loop_only_entity():
    g = kg.KnowledgeGraph(1, 1, np.array([[0, 0, 0]]))
    adj = kg.build_normalized_adjacency(g).toarray()
    np.testing.assert_allclose(adj, [[1.0]], atol=1e-15)


def test_adjacency_symmetric_and_fixed_vector(rng):
    heads = rng.integers(0, 15, size=40)
    tails = (heads + 1 + rng.integers(0, 14, size=40)) % 15
    trips = np.unique(np.stack([heads, np.zeros(40, dtype=int), tails], axis=1), axis=0)
    missing = np.setdiff1d(np.arange(15), np.concatenate([trips[:, 0], trips[:, 2]]))
    assert missing.size == 0 or missing.size < 15
    if missing.size:
        extra = np.stack([missing, np.zeros_like(missing), (missing + 1) % 15], axis=1)
        trips = np.unique(np.concatenate([trips, extra]), axis=0)
    g = kg.KnowledgeGraph(15, 1, trips)
    adj = kg.build_normalized_adjacency(g)
    assert (adj != adj.T).nnz == 0
    dense = adj.toarray()
    deg = (dense > 0).sum(axis=1).astype(float)
    np.testing.assert_allclose(dense @ np.sqrt(deg), np.sqrt(deg), atol=1e-9)


def test_adjacency_collapses_multi_relation_edges():
    g = kg.KnowledgeGraph(2, 2, np.array([[0, 0, 1], [0, 1, 1]]))
    adj = kg.build_normalized_adjacency(g).toarray()
    np.testing.assert_allclose(adj, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


# -------------------------------------------------------------- seed splits


def test_split_ratio_counts():
    pairs = np.stack([np.arange(15000), np.arange(15000)], axis=1)
    train, test = kg.split_seed_pairs(pairs, 0.30, seed=0)
    assert len(train) == 4500 and len(test) == 10500


def test_split_is_order_invariant(rng):
    pairs = np.stack([np.arange(50), rng.permutation(50)], axis=1)
    shuffled = pairs[rng.permutation(50)]
    t1, e1 = kg.split_seed_pairs(pairs, 0.3, seed=4)
    t2, e2 = kg.split_seed_pairs(shuffled, 0.3, seed=4)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(e1, e2)


# ---------------------------------------------------------------- round trip


def test_round_trip_is_lossless(tmp_path, small_task):
    out = tmp_path / "ds"
    kg.save_dbp15k(small_task, out)
    reloaded = kg.load_dbp15k(out, train_ratio=0.30, seed=0)
    kg.save_dbp15k(reloaded, tmp_path / "ds2")
    again = kg.load_dbp15k(tmp_path / "ds2", train_ratio=0.30, seed=0)

    np.testing.assert_array_equal(reloaded.g1.base.triples, again.g1.base.triples)
    np.testing.assert_array_equal(reloaded.g2.base.triples, again.g2.base.triples)
    np.testing.assert_array_equal(reloaded.seeds_train, again.seeds_train)
    np.testing.assert_array_equal(reloaded.seeds_test, again.seeds_test)
    np.testing.assert_array_equal(reloaded.init_emb1, again.init_emb1)
    np.testing.assert_array_equal(reloaded.init_emb2, again.init_emb2)
    assert reloaded.g1.base.entity_names == again.g1.base.entity_names


@settings(max_examples=25, deadline=None)
@given(
    n_entities=st.integers(10, 30),
    n_relations=st.integers(2, 5),
    avg_degree=st.floats(1.0, 4.0),
    drop_triple_prob=st.floats(0.0, 0.5),
    emb_noise_sigma=st.floats(0.0, 2.0),
    emb_dim=st.integers(1, 5),
    train_ratio=st.floats(0.1, 0.9),
    rng_seed=st.integers(0, 2**16),
)
def test_save_load_round_trip_is_bitwise_on_fuzzed_tasks(train_ratio, rng_seed, **sizes):
    task = kg.generate_synthetic_pair(train_ratio=train_ratio, rng_seed=rng_seed, **sizes)
    with tempfile.TemporaryDirectory() as directory:
        kg.save_dbp15k(task, directory)
        loaded = kg.load_dbp15k(directory, train_ratio=train_ratio, seed=rng_seed)
    for want, got in ((task.g1, loaded.g1), (task.g2, loaded.g2)):
        np.testing.assert_array_equal(got.base.triples, want.base.triples)
        assert got.base.num_relations == want.base.num_relations
        assert got.base.entity_names == want.base.entity_names
        np.testing.assert_array_equal(got.adjacency_norm.toarray(), want.adjacency_norm.toarray())
        np.testing.assert_array_equal(got.neighbor_src, want.neighbor_src)
        np.testing.assert_array_equal(got.neighbor_dst, want.neighbor_dst)
    np.testing.assert_array_equal(loaded.seeds_train, task.seeds_train)
    np.testing.assert_array_equal(loaded.seeds_test, task.seeds_test)
    np.testing.assert_array_equal(loaded.init_emb1, task.init_emb1)
    np.testing.assert_array_equal(loaded.init_emb2, task.init_emb2)


def test_loader_errors(tmp_path, small_task):
    with pytest.raises(DataError, match="missing"):
        kg.load_dbp15k(tmp_path / "nowhere")

    out = tmp_path / "ds"
    kg.save_dbp15k(small_task, out)
    triples_path = out / "triples_1"
    lines = triples_path.read_text().splitlines()
    lines[3] = "not\tan\tint"
    triples_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=":4"):
        kg.load_dbp15k(out)

    lines[3] = "0\t0\t999999"
    triples_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="unknown entity"):
        kg.load_dbp15k(out)


def test_graph_stats_reads_core_files_only(tmp_path, small_task):
    out = tmp_path / "ds"
    kg.save_dbp15k(small_task, out)
    (out / "ent_emb_1").unlink()  # stats must not need embedding files
    stats1, stats2, links = kg.read_graph_stats(out)
    assert stats1 == (small_task.g1.num_entities, small_task.g1.base.num_relations,
                      len(small_task.g1.base.triples))
    assert links == len(small_task.seeds_train) + len(small_task.seeds_test)


def test_loader_rejects_malformed_embedding(tmp_path, small_task):
    out = tmp_path / "ds"
    kg.save_dbp15k(small_task, out)
    emb_path = out / "ent_emb_1"
    lines = emb_path.read_text().splitlines()
    lines[0] = lines[0].rsplit(" ", 1)[0]  # truncate one value
    emb_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="width"):
        kg.load_dbp15k(out)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_loader_rejects_non_finite_embedding(tmp_path, small_task, bad):
    out = tmp_path / "ds"
    kg.save_dbp15k(small_task, out)
    emb_path = out / "ent_emb_2"
    lines = emb_path.read_text().splitlines()
    for row in (6, 2):
        eid, values = lines[row].split("\t")
        lines[row] = f"{eid}\t{bad} " + values.split(" ", 1)[1]
    emb_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"ent_emb_2:3: non-finite"):
        kg.load_dbp15k(out)


def test_loader_rejects_duplicate_embedding_row(tmp_path, small_task):
    out = tmp_path / "ds"
    kg.save_dbp15k(small_task, out)
    emb_path = out / "ent_emb_1"
    lines = emb_path.read_text().splitlines()
    eid = lines[0].split("\t")[0]
    lines.append(f"{eid}\t" + " ".join(["9.0"] * small_task.emb_dim))
    emb_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(
        DataError, match=rf"ent_emb_1:{len(lines)}: duplicate embedding for entity id {eid}$"
    ):
        kg.load_dbp15k(out)


# ----------------------------------------------------------------- synthetic


def test_synthetic_zero_noise_aligns_by_nearest_neighbor():
    from kgalign.evaluation import evaluate

    task = kg.generate_synthetic_pair(40, 4, 3, drop_triple_prob=0.0,
                                      emb_noise_sigma=0.0, emb_dim=8, rng_seed=5)
    # identical embeddings up to the permutation: nearest neighbor is exact
    perm_pairs = np.concatenate([task.seeds_train, task.seeds_test])
    for e1, e2 in perm_pairs[:10]:
        np.testing.assert_array_equal(task.init_emb1[e1], task.init_emb2[e2])
    assert len(task.g2.base.triples) == len(task.g1.base.triples)
    assert evaluate(task, task.init_emb1, task.init_emb2).hits_at[1] == 1.0


def test_synthetic_rejects_full_drop():
    with pytest.raises(DataError, match="isolate"):
        kg.generate_synthetic_pair(20, 2, 2, drop_triple_prob=1.0)


def test_synthetic_rejects_degenerate_sizes():
    with pytest.raises(DataError):
        kg.generate_synthetic_pair(5, 2, 2)
    with pytest.raises(DataError):
        kg.generate_synthetic_pair(20, 1, 2)


def test_synthetic_deterministic_with_frozen_counts():
    a = kg.generate_synthetic_pair(200, 20, 5, drop_triple_prob=0.15,
                                   emb_noise_sigma=0.3, emb_dim=32, rng_seed=7)
    b = kg.generate_synthetic_pair(200, 20, 5, drop_triple_prob=0.15,
                                   emb_noise_sigma=0.3, emb_dim=32, rng_seed=7)
    np.testing.assert_array_equal(a.g1.base.triples, b.g1.base.triples)
    np.testing.assert_array_equal(a.g2.base.triples, b.g2.base.triples)
    np.testing.assert_array_equal(a.init_emb1, b.init_emb1)
    # counts recorded from the first generation with this seed
    assert len(a.g1.base.triples) == 500
    assert len(a.g2.base.triples) == 439
    assert len(a.seeds_train) == 60 and len(a.seeds_test) == 140


def test_synthetic_entity_and_relation_coverage(small_task):
    for graph in (small_task.g1.base, small_task.g2.base):
        seen = np.zeros(graph.num_entities, dtype=bool)
        seen[graph.heads] = True
        seen[graph.tails] = True
        assert seen.all()
        assert set(np.unique(graph.rels)) == set(range(graph.num_relations))
