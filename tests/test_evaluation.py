import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import evaluation, kernels, kg
from kgalign.evaluation import EvalReport, evaluate, rank_pairs
from kgalign import oracles as naive

import testlib


def make_eval_task(rng, n=30, emb_dim=6):
    return kg.generate_synthetic_pair(n, 3, 3, drop_triple_prob=0.0,
                                      emb_noise_sigma=0.2, emb_dim=emb_dim,
                                      rng_seed=int(rng.integers(1 << 20)))


# ------------------------------------------------------------------ ranking
# rank_pairs is the rank path evaluate uses


def rank_one(query, cands, true_idx):
    """Rank of candidate ``true_idx`` for one query, every candidate pooled."""
    pairs = np.array([[0, true_idx]])
    return int(rank_pairs(np.atleast_2d(query), cands, pairs, np.arange(len(cands)))[0])


def test_rank_unique_nearest_is_one(rng):
    cands = rng.normal(size=(10, 4))
    query = cands[3] + 1e-6
    assert rank_one(query, cands, 3) == 1


def test_rank_all_tied_is_pool_size(rng):
    task = make_eval_task(rng)
    n = task.g1.num_entities
    tied1, tied2 = np.zeros((n, 4)), np.ones((n, 4))
    report = evaluate(task, tied1, tied2, candidate_pool="all")
    assert (report.per_query_ranks == task.g2.num_entities).all()
    report = evaluate(task, tied1, tied2)
    assert (report.per_query_ranks == len(np.unique(task.seeds_test[:, 1]))).all()


def test_all_nan_embeddings_rank_last(rng):
    task = make_eval_task(rng)
    nan = np.full((task.g1.num_entities, 4), np.nan)
    pool = len(np.unique(task.seeds_test[:, 1]))
    with np.errstate(all="raise"):
        report = evaluate(task, nan, nan)
    assert (report.per_query_ranks == pool).all()
    assert report.hits_at == {1: 0.0, 10: 0.0}
    assert report.mrr == pytest.approx(1.0 / pool)


def test_nan_candidate_counts_as_closer_for_every_query(rng):
    cands = rng.normal(size=(10, 4))
    cands[7] = np.nan
    queries = cands + 1e-6
    pairs = np.array([[i, i] for i in range(10) if i != 7])
    ranks = rank_pairs(queries, cands, pairs, np.arange(10))
    assert (ranks == 2).all()


def test_rank_matches_full_sort_oracle(rng):
    for _ in range(20):
        cands = rng.normal(size=(20, 5))
        query = rng.normal(size=5)
        true_idx = int(rng.integers(20))
        want = naive.ranks_by_sorting(query[None, :], cands, [true_idx])[0]
        assert rank_one(query, cands, true_idx) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from(testlib.BLOCK_SIZES), st.sampled_from(testlib.TILE_SIZES))
def test_rank_pairs_equals_sorting_oracle(n_queries, n_cands, seed, block_elems, tile_cols):
    rng = np.random.default_rng(seed)
    # a small grid makes distance ties common, within and across blocks and tiles
    queries = rng.integers(0, 3, size=(n_queries, 2)).astype(np.float64)
    cands = rng.integers(0, 3, size=(n_cands + 3, 2)).astype(np.float64)
    pool = np.sort(rng.choice(len(cands), size=n_cands, replace=False))
    pairs = np.stack([np.arange(n_queries), rng.choice(pool, size=n_queries)], axis=1)
    with testlib.search_sizes(block_elems, tile_cols):
        got = rank_pairs(queries, cands, pairs, pool)
    want = naive.ranks_by_sorting(queries, cands[pool], np.searchsorted(pool, pairs[:, 1]))
    np.testing.assert_array_equal(got, want)


def test_rank_rejects_bad_index(rng):
    with pytest.raises(ValueError, match="missing from the candidate pool"):
        rank_pairs(np.zeros((1, 3)), rng.normal(size=(8, 3)), np.array([[0, 7]]),
                   np.arange(5))


# ----------------------------------------------------------------- evaluate


def test_perfect_embeddings_are_all_ones(rng):
    task = make_eval_task(rng)
    n = task.g1.num_entities
    emb1 = rng.normal(size=(n, 6))
    emb2 = np.empty_like(emb1)
    pairs = np.concatenate([task.seeds_train, task.seeds_test])
    emb2[pairs[:, 1]] = emb1[pairs[:, 0]]
    report = evaluate(task, emb1, emb2)
    assert report.hits_at[1] == 1.0 and report.hits_at[10] == 1.0 and report.mrr == 1.0


def test_adversarial_embeddings_closed_form(rng):
    task = make_eval_task(rng)
    n = task.g1.num_entities
    m = len(np.unique(task.seeds_test[:, 1]))
    emb1 = np.zeros((n, 2))
    emb2 = np.ones((n, 2))  # every candidate at the same distance...
    for e1, e2 in task.seeds_test:
        emb2[e2] = [100.0, 100.0]  # ...but the true one strictly farthest
    # queries all at origin: every true target is ranked last, rank = m
    report = evaluate(task, emb1, emb2)
    assert report.hits_at[1] == 0.0
    np.testing.assert_allclose(report.mrr, 1.0 / m, atol=1e-12)


def test_evaluate_matches_sort_oracle(rng):
    task = make_eval_task(rng)
    emb1 = rng.normal(size=(task.g1.num_entities, 6))
    emb2 = rng.normal(size=(task.g2.num_entities, 6))
    report = evaluate(task, emb1, emb2)
    pool = np.unique(task.seeds_test[:, 1])
    true_cols = np.searchsorted(pool, task.seeds_test[:, 1])
    want = naive.ranks_by_sorting(emb1[task.seeds_test[:, 0]], emb2[pool], true_cols)
    np.testing.assert_array_equal(report.per_query_ranks, want)


def test_metrics_invariant_under_pair_permutation(rng):
    task = make_eval_task(rng)
    emb1 = rng.normal(size=(task.g1.num_entities, 6))
    emb2 = rng.normal(size=(task.g2.num_entities, 6))
    base = evaluate(task, emb1, emb2)
    shuffled = kg.AlignmentTask(
        task.g1, task.g2, task.seeds_train,
        task.seeds_test[rng.permutation(len(task.seeds_test))],
        task.init_emb1, task.init_emb2,
    )
    other = evaluate(shuffled, emb1, emb2)
    assert base.hits_at == other.hits_at and base.mrr == other.mrr


def test_metric_monotonicity_and_bounds(rng):
    task = make_eval_task(rng)
    emb1 = rng.normal(size=(task.g1.num_entities, 6))
    emb2 = rng.normal(size=(task.g2.num_entities, 6))
    report = evaluate(task, emb1, emb2)
    assert 0.0 <= report.hits_at[1] <= report.hits_at[10] <= 1.0
    assert report.mrr >= report.hits_at[1] * 1.0
    assert 0.0 < report.mrr <= 1.0


def test_all_entity_pool_and_bidirectional(rng):
    task = make_eval_task(rng)
    emb1 = rng.normal(size=(task.g1.num_entities, 6))
    emb2 = rng.normal(size=(task.g2.num_entities, 6))
    wide = evaluate(task, emb1, emb2, candidate_pool="all")
    narrow = evaluate(task, emb1, emb2, candidate_pool="test")
    assert wide.hits_at[1] <= narrow.hits_at[1] + 1e-12
    both = evaluate(task, emb1, emb2, bidirectional=True)
    assert len(both.per_query_ranks) == 2 * len(task.seeds_test)


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("pool", ["test", "all"])
def test_blocked_ranks_equal_unblocked(monkeypatch, rng, pool, bidirectional):
    task = make_eval_task(rng, n=60)
    # integer coordinates make distance ties common
    emb1 = rng.integers(-1, 2, size=(task.g1.num_entities, 6)).astype(np.float64)
    emb2 = rng.integers(-1, 2, size=(task.g2.num_entities, 6)).astype(np.float64)
    whole = evaluate(task, emb1, emb2, candidate_pool=pool, bidirectional=bidirectional)
    blocks = []
    real = kernels.pairwise_manhattan

    def recording(a, b):
        blocks.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(kernels, "pairwise_manhattan", recording)
    pool_size = len(task.seeds_test) if pool == "test" else task.g2.num_entities
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", 4 * pool_size + 3)  # 4 queries a block
    blocked = evaluate(task, emb1, emb2, candidate_pool=pool, bidirectional=bidirectional)
    assert np.array_equal(blocked.per_query_ranks, whole.per_query_ranks)
    assert blocked.hits_at == whole.hits_at and blocked.mrr == whole.mrr
    rows = [n for n, _ in blocks]
    assert len(task.seeds_test) % 4 != 0  # the last block of each direction is partial
    assert rows == ([4] * (len(task.seeds_test) // 4) + [len(task.seeds_test) % 4]) * (
        2 if bidirectional else 1)
    assert len(rows) >= 3 and {m for _, m in blocks} == {pool_size}


def test_empty_test_set_errors(rng):
    task = make_eval_task(rng)
    bad = kg.AlignmentTask(task.g1, task.g2,
                           np.concatenate([task.seeds_train, task.seeds_test]),
                           np.empty((0, 2), dtype=np.int64),
                           task.init_emb1, task.init_emb2)
    with pytest.raises(ValueError):
        evaluate(bad, task.init_emb1, task.init_emb2)


# ---------------------------------------------------------------------- io


def test_report_lines_and_files(tmp_path):
    report = EvalReport({1: 0.5, 10: 0.75}, 0.6, np.array([1, 2, 4, 8]))
    assert report.lines() == ["hits@1\t0.500000", "hits@10\t0.750000", "mrr\t0.600000"]
    evaluation.write_report(report, tmp_path / "metrics.tsv")
    assert (tmp_path / "metrics.tsv").read_text().splitlines() == report.lines()
    pairs = np.array([[0, 1], [2, 3], [4, 5], [6, 7]])
    evaluation.write_rank_dump(report, pairs, tmp_path / "ranks.tsv")
    rows = (tmp_path / "ranks.tsv").read_text().splitlines()
    assert rows == ["0\t1\t1", "2\t3\t2", "4\t5\t4", "6\t7\t8"]
