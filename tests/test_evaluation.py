import numpy as np
import pytest

from kgalign import evaluation, kg
from kgalign.evaluation import EvalReport, evaluate, rank_pairs

import naive_oracles as naive


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


def test_rank_matches_full_sort_oracle(rng):
    for _ in range(20):
        cands = rng.normal(size=(20, 5))
        query = rng.normal(size=5)
        true_idx = int(rng.integers(20))
        want = naive.ranks_by_sorting(query[None, :], cands, [true_idx])[0]
        assert rank_one(query, cands, true_idx) == want


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
