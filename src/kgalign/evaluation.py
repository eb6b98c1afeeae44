"""Ranking-based alignment metrics: Hits@k and mean reciprocal rank.

Queries go from graph 1 into a candidate pool on graph 2 (by default the
test pairs' target entities). Ties are broken pessimistically: candidates
at the same distance as the true target count as closer, as do candidates
at a NaN distance, and a NaN true distance ranks last, so reported metrics
are deterministic lower bounds.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

HITS_KS = (1, 10)  # the k of every reported hits@k
CANDIDATE_POOLS = ("test", "all")  # the target side's test entities, or all of them


@dataclass
class EvalReport:
    hits_at: dict
    mrr: float
    per_query_ranks: np.ndarray

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
    ranks = np.empty(len(pairs), dtype=np.int64)
    for rows, dist in kernels.distance_blocks(query_embs[pairs[:, 0]], target_embs[pool]):
        true_dist = dist[np.arange(len(dist)), pos_in_pool[rows]]
        ranks[rows] = len(pool) - (dist > true_dist[:, None]).sum(axis=1)
    return ranks


def evaluate(task, final_emb1, final_emb2, candidate_pool="test",
             bidirectional=False) -> EvalReport:
    """Rank every test pair's true counterpart among the candidate pool.

    ``candidate_pool`` is either "test" (target entities of the test pairs)
    or "all" (every entity of the target graph). With ``bidirectional`` the
    metrics are averaged over both query directions.
    """
    test = task.seeds_test
    if len(test) == 0:
        raise ValueError("test seed set is empty")
    if candidate_pool not in CANDIDATE_POOLS:
        raise ValueError(f"candidate_pool must be {' or '.join(map(repr, CANDIDATE_POOLS))}, "
                         f"got {candidate_pool!r}")

    # (queries, targets, pairs, target graph) per query direction
    directions = [(final_emb1, final_emb2, test, task.g2)]
    if bidirectional:
        directions.append((final_emb2, final_emb1, test[:, ::-1], task.g1))
    hits, mrr, ranks = dict.fromkeys(HITS_KS, 0.0), 0.0, []
    for queries, targets, pairs, graph in directions:
        pool = np.unique(pairs[:, 1]) if candidate_pool == "test" else np.arange(graph.num_entities)
        ranks.append(rank_pairs(queries, targets, pairs, pool))
        for k in HITS_KS:
            hits[k] += float(np.mean(ranks[-1] <= k))
        mrr += float(np.mean(1.0 / ranks[-1]))
    n = len(directions)
    return EvalReport({k: h / n for k, h in hits.items()}, mrr / n, np.concatenate(ranks))


def write_report(report: EvalReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        for line in report.lines():
            fh.write(line + "\n")


def write_rank_dump(report: EvalReport, test_pairs, path):
    """One `query_id\\ttrue_id\\trank` row per forward-direction test pair."""
    with open(path, "w", encoding="utf-8") as fh:
        for (q, t), rank in zip(test_pairs.tolist(), report.per_query_ranks.tolist()):
            fh.write(f"{q}\t{t}\t{rank}\n")
