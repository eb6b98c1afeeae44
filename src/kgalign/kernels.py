"""Hot numeric kernels: segment aggregation and pairwise L1 distances.

A ``Segments`` checks its ids once, when built: one outside ``[0,
num_segments)`` raises ``IndexError``. The aggregations check only that
there is one value row per id (``ValueError``). Zero rows are legal. A
segment sum adds each value row into its segment in input order, starting
from zero, exactly as ``np.add.at`` does, through the ``Segments``' column-
compressed 0/1 matrix (column i holds a single 1 in row ``ids[i]``).
Pairwise distances come from scipy's ``cdist``, which adds one dimension at
a time from the first. Every output is therefore bitwise reproducible.
Every query-by-candidate search (negatives, seed proposals, ranks) reads
its distances from ``distance_blocks``, so the whole matrix never exists;
each entry depends only on its two rows, so the row blocks and the column
tiles that fill them change no result.
"""

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

# distance entries per block of ``distance_blocks`` (one row may exceed it),
# which bounds every search's distances and their temporaries: 2 MB
BLOCK_ELEMS = 1 << 18
# candidates per ``cdist`` call that fills a block, so the tile's candidate
# rows stay in cache across the block's query rows
TILE_COLS = 256


class Segments:
    """Checked segment ids with their 0/1 segment matrix, built once."""

    def __init__(self, ids, num_segments):
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
            raise IndexError(f"segment id outside [0, {num_segments})")
        self.ids = ids
        self.num_segments = num_segments
        self.matrix = sparse.csc_matrix(
            (np.ones(len(ids)), ids, np.arange(len(ids) + 1)), shape=(num_segments, len(ids))
        )


def segment_sum(values, seg):
    """Sum rows of `values` into the buckets of the ``Segments`` `seg`.

    Accepts 1-D or 2-D values; empty segments come back as zero rows.
    Each segment accumulates its rows in input order.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or len(values) != len(seg.ids):
        raise ValueError(f"expected {len(seg.ids)} value rows, got shape {values.shape}")
    return seg.matrix @ values


def segment_max(values, seg):
    """Per-segment maximum of a 1-D array; empty segments give -inf."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) != len(seg.ids):
        raise ValueError(f"expected {len(seg.ids)} values, got shape {values.shape}")
    out = np.full(seg.num_segments, -np.inf, dtype=np.float64)
    np.maximum.at(out, seg.ids, values)
    return out


def _l1_operands(a, b):
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return a, b


def pairwise_manhattan(a, b):
    """Dense (len(a), len(b)) matrix of L1 distances between row vectors."""
    return cdist(*_l1_operands(a, b), "cityblock")


def distance_blocks(queries, candidates):
    """Yield ``(rows, block)``: ``block`` is a fresh array holding the ``rows``
    slice of ``pairwise_manhattan(queries, candidates)``, at most
    ``max(BLOCK_ELEMS, len(candidates))`` entries, in row order. Each block is
    filled one ``TILE_COLS``-candidate column tile at a time."""
    queries, candidates = _l1_operands(queries, candidates)
    width = len(candidates)
    step = max(1, BLOCK_ELEMS // max(width, 1))
    for lo in range(0, len(queries), step):
        rows = queries[lo:lo + step]
        block = np.empty((len(rows), width))
        for c in range(0, width, TILE_COLS):
            block[:, c:c + TILE_COLS] = pairwise_manhattan(rows, candidates[c:c + TILE_COLS])
        yield slice(lo, lo + step), block
