"""Independent brute-force reference implementations used by the tests.

Everything here is plain Python loops over numpy rows, written without
looking at the library's vectorized/kernel code paths.
"""

import math

import numpy as np


def segment_softmax(logits, ids):
    out = np.zeros(len(logits))
    for seg in sorted(set(int(s) for s in ids)):
        members = [i for i in range(len(logits)) if ids[i] == seg]
        mx = max(logits[i] for i in members)
        exps = {i: math.exp(logits[i] - mx) for i in members}
        total = sum(exps.values())
        for i in members:
            out[i] = exps[i] / total
    return out


def segment_sum(values, ids, num_segments):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64).T).T
    out = np.zeros((num_segments, values.shape[1]))
    for i in range(values.shape[0]):
        out[int(ids[i])] += values[i]
    return out


def grouped_mean(rows, ids, num_groups):
    out = np.zeros((num_groups, rows.shape[1]))
    for g in range(num_groups):
        members = [i for i in range(len(ids)) if ids[i] == g]
        out[g] = sum(rows[i] for i in members) / len(members)
    return out


def leaky(v, slope=0.3):
    return np.where(np.asarray(v) > 0, v, slope * np.asarray(v))


def grouped_attention(query, key, value, ids, num_groups, attn_vec, slope=0.3):
    """Softmax-within-group aggregation of `value` rows, before any outer
    activation; groups absent from `ids` stay zero."""
    logits = [
        float(leaky(np.concatenate([query[i], key[i]]) @ np.asarray(attn_vec).reshape(-1), slope))
        for i in range(len(ids))
    ]
    out = np.zeros((num_groups, value.shape[1]))
    for g in range(num_groups):
        members = [i for i in range(len(ids)) if ids[i] == g]
        if not members:
            continue
        mx = max(logits[i] for i in members)
        weights = {i: math.exp(logits[i] - mx) for i in members}
        total = sum(weights.values())
        for i in members:
            out[g] += (weights[i] / total) * value[i]
    return out


def ranks_by_sorting(query_embs, candidate_embs, true_cols):
    """Pessimistic ranks computed through a full sort per query."""
    ranks = []
    for q in range(len(query_embs)):
        dist = np.abs(candidate_embs - query_embs[q]).sum(axis=1)
        ordered = np.sort(dist)
        ranks.append(int(np.searchsorted(ordered, dist[true_cols[q]], side="right")))
    return np.array(ranks)


def random_connected_triples(rng, n_entities, n_triples, n_relations):
    """Random triple array where every entity and relation occurs at least once."""
    heads = rng.integers(0, n_entities, size=n_triples)
    tails = (heads + 1 + rng.integers(0, n_entities - 1, size=n_triples)) % n_entities
    rels = np.concatenate(
        [np.arange(n_relations), rng.integers(0, n_relations, size=n_triples - n_relations)]
    )
    missing = np.setdiff1d(np.arange(n_entities), np.concatenate([heads, tails]))
    trips = np.concatenate([
        np.stack([heads, rels, tails], axis=1),
        np.stack([missing, np.zeros_like(missing), (missing + 1) % n_entities], axis=1),
    ]).astype(np.int64)
    return np.unique(trips, axis=0)


def k_nearest_by_sorting(dist, k, exclude_cols):
    """Per row, the k smallest entries after masking one column, by a full
    (value, id) sort of the row."""
    cols = np.arange(dist.shape[1])
    out = []
    for i in range(dist.shape[0]):
        row = dist[i].copy()
        row[exclude_cols[i]] = np.inf
        out.append(np.lexsort((cols, row))[:k])
    return np.array(out, dtype=np.int64).reshape(dist.shape[0], k)


def mutual_nearest(dist):
    """(row, col) pairs that are each other's nearest, lower id on ties."""
    best_col = [min(range(dist.shape[1]), key=lambda j: (dist[i, j], j))
                for i in range(dist.shape[0])]
    best_row = [min(range(dist.shape[0]), key=lambda i: (dist[i, j], i))
                for j in range(dist.shape[1])]
    return [(i, j) for i, j in enumerate(best_col) if best_row[j] == i]


def backward_keep_all(tape, loss):
    """Reverse sweep by the accumulate-from-zeros rule, freeing nothing.

    Records hold gradient slots (an input slot is ``None`` when it needs no
    gradient). Every gradient starts as zeros shaped like its first
    contribution and each contribution is added to it; the tape's records
    and every intermediate ``.grad`` stay in place.
    """
    loss.grad = np.ones((), dtype=np.float64)
    for inputs, output, backward in reversed(tape.ops):
        if output.grad is None:
            continue
        for node, grad in zip(inputs, backward(output.grad)):
            if grad is None or node is None:
                continue
            if node.grad is None:
                node.grad = np.zeros_like(grad)
            node.grad = node.grad + grad
