"""Hot numeric kernels: segment aggregation and pairwise L1 distances.

One numpy/scipy path, and the one place that checks segment ids: an id
outside ``[0, num_segments)`` raises ``IndexError``, a values/ids length
mismatch ``ValueError``. Zero rows are legal and give an empty or all-zero
result. A segment sum adds each value row into its segment in input order,
starting from zero, exactly as ``np.add.at`` does, through a
column-compressed 0/1 segment matrix (column i holds a single 1 in row
``ids[i]``, so no sort is needed). Pairwise distances come from scipy's
``cdist``, which adds one dimension at a time from the first. Every output
is therefore bitwise reproducible at float64.
"""

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist


def _segment_ids(values, ids, num_segments, ndims):
    """``ids`` as int64 after the contract checks against ``values``."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise IndexError(f"segment id outside [0, {num_segments})")
    if values.ndim not in ndims or len(values) != len(ids):
        raise ValueError(f"expected {len(ids)} value rows, got shape {values.shape}")
    return ids


def segment_sum(values, ids, num_segments):
    """Sum rows of `values` into `num_segments` buckets given by `ids`.

    Accepts 1-D or 2-D values; empty segments come back as zero rows.
    Each segment accumulates its rows in input order.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    ids = _segment_ids(values, ids, num_segments, (1, 2))
    n = len(ids)
    matrix = sparse.csc_matrix(
        (np.ones(n), ids, np.arange(n + 1)), shape=(num_segments, n)
    )
    return matrix @ values


def segment_max(values, ids, num_segments):
    """Per-segment maximum of a 1-D array; empty segments give -inf."""
    values = np.asarray(values, dtype=np.float64)
    ids = _segment_ids(values, ids, num_segments, (1,))
    out = np.full(num_segments, -np.inf, dtype=np.float64)
    np.maximum.at(out, ids, values)
    return out


def pairwise_manhattan(a, b):
    """Dense (len(a), len(b)) matrix of L1 distances between row vectors."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return cdist(a, b, "cityblock")
