import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgalign import kernels

import naive_oracles as naive


def test_segment_sum_matches_naive_loop(rng):
    values = rng.normal(size=(40, 6))
    ids = rng.integers(0, 7, size=40)
    got = kernels.segment_sum(values, ids, 7)
    np.testing.assert_array_equal(got, naive.segment_sum(values, ids, 7))


def test_segment_sum_1d_and_empty_segments():
    values = np.array([1.0, 2.0, 3.0])
    out = kernels.segment_sum(values, [0, 0, 3], 5)
    np.testing.assert_array_equal(out, [3.0, 0.0, 0.0, 3.0, 0.0])


def test_segment_max(rng):
    values = rng.normal(size=30)
    ids = rng.integers(0, 4, size=30)
    got = kernels.segment_max(values, ids, 5)
    for seg in range(4):
        members = values[ids == seg]
        expected = members.max() if members.size else -np.inf
        assert got[seg] == expected
    assert got[4] == -np.inf


@pytest.mark.parametrize("ids", [[0, 3, 1], [0, -1, 1]])
@pytest.mark.parametrize("width", [None, 2])
def test_segment_sum_rejects_ids_outside_segments(ids, width):
    values = np.ones(3) if width is None else np.ones((3, width))
    with pytest.raises(IndexError):
        kernels.segment_sum(values, ids, 3)


def test_pairwise_manhattan_matches_direct(rng):
    a = rng.normal(size=(9, 5))
    b = rng.normal(size=(7, 5))
    got = kernels.pairwise_manhattan(a, b)
    want = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pairwise_manhattan_accumulates_dimensions_in_order(rng):
    # bitwise equal to adding |a_k - b_k| one dimension at a time from zero
    a = rng.normal(size=(6, 33)) * 10.0 ** rng.integers(-3, 4, size=33)
    b = rng.normal(size=(8, 33))
    want = np.zeros((6, 8))
    for k in range(a.shape[1]):
        want += np.abs(a[:, k, None] - b[None, :, k])
    np.testing.assert_array_equal(kernels.pairwise_manhattan(a, b), want)


def test_pairwise_manhattan_rejects_width_mismatch():
    with pytest.raises(ValueError):
        kernels.pairwise_manhattan(np.zeros((2, 3)), np.zeros((2, 4)))


# ------------------------------------------- properties against the oracles


@st.composite
def segment_layouts(draw):
    """Random values with segment ids; some segments are always left empty."""
    rows = draw(st.integers(0, 30))
    width = draw(st.integers(1, 4))
    num_segments = draw(st.integers(1, 9))
    used = draw(st.integers(1, num_segments))
    ids = draw(hnp.arrays(np.int64, rows, elements=st.integers(0, used - 1)))
    values = draw(hnp.arrays(
        np.float64, (rows, width),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ))
    return values, ids, num_segments


@settings(max_examples=60, deadline=None)
@given(segment_layouts())
def test_segment_sum_bitwise_equals_naive_oracle(layout):
    values, ids, num_segments = layout
    got = kernels.segment_sum(values, ids, num_segments)
    np.testing.assert_array_equal(got, naive.segment_sum(values, ids, num_segments))
    got_1d = kernels.segment_sum(values[:, 0], ids, num_segments)
    np.testing.assert_array_equal(got_1d, naive.segment_sum(values[:, 0], ids, num_segments)[:, 0])
