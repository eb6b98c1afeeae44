"""Ranking-based alignment metrics: Hits@k and mean reciprocal rank.

Queries go from graph 1 into a candidate pool on graph 2 (by default the
test pairs' target entities). Ties are broken pessimistically: candidates
at the same distance as the true target count as closer, so reported
metrics are deterministic lower bounds.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass
class EvalReport:
    hits_at: dict
    mrr: float
    per_query_ranks: np.ndarray
    direction: str = "g1->g2"

    def lines(self):
        out = [f"hits@{k}\t{v:.6f}" for k, v in sorted(self.hits_at.items())]
        out.append(f"mrr\t{self.mrr:.6f}")
        return out


def rank_pairs(query_embs, target_embs, pairs, pool):
    """Pessimistic L1 rank of each pair's target among the sorted ``pool`` ids."""
    pool = np.asarray(pool, dtype=np.int64)
    pos_in_pool = np.searchsorted(pool, pairs[:, 1])
    if (pos_in_pool >= len(pool)).any() or (pool[pos_in_pool] != pairs[:, 1]).any():
        raise ValueError("a test pair's target entity is missing from the candidate pool")
    dist = kernels.pairwise_manhattan(query_embs[pairs[:, 0]], target_embs[pool])
    true_dist = dist[np.arange(len(pairs)), pos_in_pool]
    return (dist <= true_dist[:, None]).sum(axis=1).astype(np.int64)


def _metrics(ranks, ks):
    hits = {int(k): float(np.mean(ranks <= k)) for k in ks}
    return hits, float(np.mean(1.0 / ranks))


def evaluate(task, final_emb1, final_emb2, ks=(1, 10), candidate_pool="test",
             bidirectional=False) -> EvalReport:
    """Rank every test pair's true counterpart among the candidate pool.

    ``candidate_pool`` is either "test" (target entities of the test pairs)
    or "all" (every entity of the target graph). With ``bidirectional`` the
    metrics are averaged over both query directions.
    """
    test = task.seeds_test
    if len(test) == 0:
        raise ValueError("test seed set is empty")
    if candidate_pool not in ("test", "all"):
        raise ValueError(f"candidate_pool must be 'test' or 'all', got {candidate_pool!r}")

    if candidate_pool == "test":
        pool2 = np.unique(test[:, 1])
        pool1 = np.unique(test[:, 0])
    else:
        pool2 = np.arange(task.g2.num_entities)
        pool1 = np.arange(task.g1.num_entities)

    ranks = rank_pairs(final_emb1, final_emb2, test, pool2)
    hits, mrr = _metrics(ranks, ks)
    if not bidirectional:
        return EvalReport(hits, mrr, ranks)

    reverse = test[:, ::-1]
    ranks_rev = rank_pairs(final_emb2, final_emb1, reverse, pool1)
    hits_rev, mrr_rev = _metrics(ranks_rev, ks)
    merged = {k: (hits[k] + hits_rev[k]) / 2.0 for k in hits}
    return EvalReport(
        merged,
        (mrr + mrr_rev) / 2.0,
        np.concatenate([ranks, ranks_rev]),
        direction="avg(g1->g2, g2->g1)",
    )


def write_report(report: EvalReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        for line in report.lines():
            fh.write(line + "\n")


def write_rank_dump(report: EvalReport, test_pairs, path):
    """One `query_id\\ttrue_id\\trank` row per forward-direction test pair."""
    with open(path, "w", encoding="utf-8") as fh:
        for (q, t), rank in zip(test_pairs.tolist(), report.per_query_ranks.tolist()):
            fh.write(f"{q}\t{t}\t{rank}\n")
