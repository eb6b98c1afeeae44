"""Test-only helpers: loop oracles, two taped ops no model stage records, the
search's block and tile sizes under test, and a count reader for DBP15K
folders.

``kgalign`` ships only what a command runs (see ``test_reachability.py``);
what only the tests read lives here.
"""

import math
import os
from contextlib import contextmanager

import numpy as np
import pytest

from kgalign import autodiff as ad
from kgalign import kernels, kg

# ------------------------------------------------------------- taped ops
# rebuild ``ad.grouped_attention``'s eight-op reference chain from the
# primitives, and tape its private softmax for the softmax unit tests


def reshape(a, shape):
    a = ad.as_tensor(a)
    old = a.data.shape
    return ad._record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def segment_softmax(logits, seg):
    """Softmax of 1-D ``logits`` within each segment of ``seg``, by the rule
    that ``ad.grouped_attention`` runs."""
    logits = ad.as_tensor(logits)
    out, rule = ad._softmax(logits.data, seg)
    return ad._record(out, (logits,), lambda g: (rule(g),))


# --------------------------------------------------------------- oracles
# plain loops over numpy rows, written without looking at the library's
# vectorized paths


def segment_softmax_by_loops(logits, ids):
    out = np.zeros(len(logits))
    for seg in sorted(set(int(s) for s in ids)):
        members = [i for i in range(len(logits)) if ids[i] == seg]
        mx = max(logits[i] for i in members)
        exps = {i: math.exp(logits[i] - mx) for i in members}
        total = sum(exps.values())
        for i in members:
            out[i] = exps[i] / total
    return out


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


# ------------------------------------------------------ search sizes
# every search reads ``kernels.distance_blocks``; its results must not
# depend on how the distances are cut into row blocks and column tiles

BLOCK_SIZES = [1, 7, kernels.BLOCK_ELEMS]  # one row a block, a few rows, all rows
TILE_SIZES = [1, 7, kernels.TILE_COLS]  # one candidate a tile, a few, the default


@contextmanager
def search_sizes(block_elems, tile_cols):
    """Run the searches inside with these ``BLOCK_ELEMS`` and ``TILE_COLS``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "BLOCK_ELEMS", block_elems)
        patch.setattr(kernels, "TILE_COLS", tile_cols)
        yield


# ------------------------------------------------------------- file IO


def read_graph_stats(directory):
    """Per-side (entities, relations, triples) counts plus the link count.

    Only needs the five core files, so it works on stock DBP15K folders that
    lack embedding files.
    """
    paths = {name: os.path.join(directory, name) for name in kg._CORE_FILES}
    stats = {}
    for side in (1, 2):
        id_map, _ = kg._read_entities(paths[f"ent_ids_{side}"])
        triples, nrel, _ = kg._read_triples(paths[f"triples_{side}"], id_map)
        stats[side] = (len(id_map), nrel, len(triples))
    links = len(kg._read_tsv(paths["ref_ent_ids"], 2, "reference"))
    return stats[1], stats[2], links
