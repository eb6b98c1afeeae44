import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgalign import kg
from kgalign.kg import DataError

import testlib


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


def test_entity_ids_default_to_indices():
    np.testing.assert_array_equal(tiny_graph().entity_ids, [0, 1])
    g = kg.KnowledgeGraph(2, 1, np.array([[0, 0, 1]]), entity_ids=[4, 1000])
    np.testing.assert_array_equal(g.entity_ids, [4, 1000])


@pytest.mark.parametrize("ids", [[5], [5, 6, 7], [5, 5], [6, 5], [0.5, 1.5]],
                         ids=["short", "long", "repeated", "decreasing", "float"])
def test_rejects_entity_ids_that_are_not_increasing_integers(ids):
    with pytest.raises(DataError, match="entity_ids must be 2 strictly increasing integers"):
        kg.KnowledgeGraph(2, 1, np.array([[0, 0, 1]]), entity_ids=ids)


# ---------------------------------------------------------- graph structure


def test_graph_structure_holds_base_adjacency_and_neighbors():
    base = kg.KnowledgeGraph(4, 2, np.array([[0, 0, 1], [1, 1, 2], [2, 0, 3], [3, 1, 3]]))
    graph = kg.GraphStructure(base)
    assert graph.base is base and graph.num_entities == 4
    want = kg.build_normalized_adjacency(base)
    assert (graph.adjacency_norm != want).nnz == 0
    # the self-loop (3, 1, 3) has no neighbor entry
    assert list(zip(graph.neighbor_src.ids.tolist(), graph.neighbor_dst.ids.tolist())) == [
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)
    ]
    for name, column, count in (("heads", 0, 4), ("rels", 1, 2), ("tails", 2, 4)):
        seg = getattr(graph, name)
        assert seg.ids.tolist() == base.triples[:, column].tolist()
        assert seg.num_segments == count
    assert graph.neighbor_src.num_segments == graph.neighbor_dst.num_segments == 4
    assert graph.relation_counts.tolist() == [2, 2]


def test_graph_structure_rejects_empty_relation():
    # a relation no triple uses has no mean; this is found when the graph is
    # built, for an inner and for a trailing relation id
    for (r1, r2), empty in (((0, 2), 1), ((0, 1), 2)):
        base = kg.KnowledgeGraph(3, 3, np.array([[0, r1, 1], [1, r2, 2]]))
        with pytest.raises(DataError, match=f"relation {empty} has no triples"):
            kg.GraphStructure(base)


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
    for side in ("g1", "g2"):
        ids = getattr(small_task, side).base.entity_ids
        np.testing.assert_array_equal(getattr(reloaded, side).base.entity_ids, ids)
        np.testing.assert_array_equal(getattr(again, side).base.entity_ids, ids)


def _rewrite_columns(path, columns, change):
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    for row in rows:
        for col in columns:
            row[col] = str(change(int(row[col])))
    path.write_text("".join("\t".join(row) + "\n" for row in rows))


def test_save_keeps_dataset_ids_of_a_loaded_dataset(tmp_path, small_task):
    first = tmp_path / "first"
    kg.save_dbp15k(small_task, first)
    # graph 2's entity ids start at 1000 and relation ids are spaced out
    for name, columns in (("ent_ids_2", [0]), ("ent_emb_2", [0]),
                          ("triples_2", [0, 2]), ("ref_ent_ids", [1])):
        _rewrite_columns(first / name, columns, lambda e: e + 1000)
    for side in (1, 2):
        _rewrite_columns(first / f"triples_{side}", [1], lambda r: 10 * r + 3)
    loaded = kg.load_dbp15k(first)
    np.testing.assert_array_equal(loaded.g2.base.entity_ids, np.arange(1000, 1060))
    kg.save_dbp15k(loaded, tmp_path / "second")
    again = kg.load_dbp15k(tmp_path / "second")
    for side in ("g1", "g2"):
        a, b = getattr(loaded, side).base, getattr(again, side).base
        np.testing.assert_array_equal(a.entity_ids, b.entity_ids)
        np.testing.assert_array_equal(a.triples, b.triples)
        assert a.num_relations == b.num_relations
    for key in ("seeds_train", "seeds_test", "init_emb1", "init_emb2"):
        np.testing.assert_array_equal(getattr(loaded, key), getattr(again, key))
    refs = set((first / "ref_ent_ids").read_text().splitlines())
    assert set((tmp_path / "second" / "ref_ent_ids").read_text().splitlines()) == refs


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
        for name in ("heads", "rels", "tails", "neighbor_src", "neighbor_dst"):
            np.testing.assert_array_equal(getattr(got, name).ids, getattr(want, name).ids)
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

    lines[3] = f"0\t{2**64}\t1"
    triples_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=":4: bad relation id"):
        kg.load_dbp15k(out)

    lines[3] = "0\t0\t999999"
    triples_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="unknown entity"):
        kg.load_dbp15k(out)

    # drop every triple that mentions entity 0
    triples_path.write_text("".join(line + "\n" for line in lines[:3] + lines[4:]
                                    if "0" not in line.split("\t")[::2]))
    with pytest.raises(DataError, match=rf"^{re.escape(str(triples_path))}: 1 isolated"):
        kg.load_dbp15k(out)


@pytest.fixture(scope="module")
def saved_task(tmp_path_factory, small_task):
    out = tmp_path_factory.mktemp("saved") / "ds"
    kg.save_dbp15k(small_task, out)
    return out


LINE_MUTATIONS = {
    "drop-field": lambda line: line.rsplit(b"\t", 1)[0],
    "extra-field": lambda line: line + b"\t7",
    "non-integer-id": lambda line: b"x" + line,
    "non-utf8": lambda line: line + b"\xff",
    "duplicate-line": lambda line: line + b"\n" + line,
    "unknown-entity": lambda line: b"999999" + line[line.index(b"\t"):],
    "id-beyond-int64": lambda line: str(2**64).encode() + line[line.index(b"\t"):],
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(kg._CORE_FILES + kg._EMB_FILES),
       mutation=st.sampled_from(sorted(LINE_MUTATIONS)), pick=st.integers(0, 10**6))
def test_loader_names_file_and_line_of_a_malformed_line(saved_task, name, mutation, pick):
    # an entity-id file declares ids, so no id in it can be unknown
    assume(not (name.startswith("ent_ids") and mutation == "unknown-entity"))
    with tempfile.TemporaryDirectory() as directory:
        shutil.copytree(saved_task, directory, dirs_exist_ok=True)
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        row = pick % len(lines)
        lines[row] = LINE_MUTATIONS[mutation](lines[row])
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        lineno = row + (2 if mutation == "duplicate-line" else 1)
        with pytest.raises(DataError, match=rf"^{re.escape(path)}:{lineno}: "):
            kg.load_dbp15k(directory)


def test_graph_stats_reads_core_files_only(tmp_path, small_task):
    out = tmp_path / "ds"
    kg.save_dbp15k(small_task, out)
    (out / "ent_emb_1").unlink()  # stats must not need embedding files
    stats1, stats2, links = testlib.read_graph_stats(out)
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


@pytest.mark.parametrize("rows", ["first", "all"])
def test_loader_rejects_empty_embedding_row(tmp_path, small_task, rows):
    # an empty first row must not size the matrix at width 0
    out = tmp_path / "ds"
    kg.save_dbp15k(small_task, out)
    emb_path = out / "ent_emb_1"
    lines = emb_path.read_text().splitlines()
    cut = len(lines) if rows == "all" else 1
    lines[:cut] = [line.split("\t")[0] + "\t" for line in lines[:cut]]
    emb_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"ent_emb_1:1: empty embedding row$"):
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
        seen[graph.triples[:, 0]] = True
        seen[graph.triples[:, 2]] = True
        assert seen.all()
        assert set(np.unique(graph.triples[:, 1])) == set(range(graph.num_relations))
