import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgalign import kernels
from kgalign import oracles as naive

import testlib


def test_segment_sum_matches_naive_loop(rng):
    values = rng.normal(size=(40, 6))
    ids = rng.integers(0, 7, size=40)
    got = kernels.segment_sum(values, kernels.Segments(ids, 7))
    np.testing.assert_array_equal(got, naive.segment_sum(values, ids, 7))


def test_segment_sum_1d_and_empty_segments():
    values = np.array([1.0, 2.0, 3.0])
    out = kernels.segment_sum(values, kernels.Segments([0, 0, 3], 5))
    np.testing.assert_array_equal(out, [3.0, 0.0, 0.0, 3.0, 0.0])


def test_segment_max(rng):
    values = rng.normal(size=30)
    ids = rng.integers(0, 4, size=30)
    got = kernels.segment_max(values, kernels.Segments(ids, 5))
    for seg in range(4):
        members = values[ids == seg]
        expected = members.max() if members.size else -np.inf
        assert got[seg] == expected
    assert got[4] == -np.inf


def test_segment_max_rejects_length_mismatch():
    # a length-1 values array must not broadcast over the ids
    with pytest.raises(ValueError):
        kernels.segment_max(np.ones(1), kernels.Segments([0, 1, 1], 2))


# segment ids are checked once, when their Segments is built
@pytest.mark.parametrize("ids", [[0, 3, 1], [0, -1, 1]])
@pytest.mark.parametrize("width", [None, 2])
def test_segment_sum_rejects_ids_outside_segments(ids, width):
    values = np.ones(3) if width is None else np.ones((3, width))
    with pytest.raises(IndexError):
        kernels.segment_sum(values, kernels.Segments(ids, 3))


@pytest.mark.parametrize("op, shape, empty", [(kernels.segment_sum, (0, 2), 0.0),
                                              (kernels.segment_sum, (0,), 0.0),
                                              (kernels.segment_max, (0,), -np.inf)])
def test_segments_with_zero_rows_are_legal(op, shape, empty):
    out = op(np.zeros(shape), kernels.Segments([], 3))
    np.testing.assert_array_equal(out, np.full((3,) + shape[1:], empty))


@pytest.mark.parametrize("op, shape", [(kernels.segment_sum, (2, 4)),
                                       (kernels.segment_sum, (4,)),
                                       (kernels.segment_sum, (3, 2, 1)),
                                       (kernels.segment_max, (3, 1))])
def test_segment_ops_reject_values_not_one_row_per_id(op, shape):
    with pytest.raises(ValueError):
        op(np.ones(shape), kernels.Segments([0, 2, 2], 3))


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


# 1 << 22 entries hold the whole matrix in one block
@pytest.mark.parametrize("block_elems, rows_per_block", [(1, 1), (7, 1), (20, 2), (1 << 22, 9)])
def test_distance_blocks_tile_the_matrix_in_row_order(rng, monkeypatch, block_elems,
                                                      rows_per_block):
    a, b = rng.normal(size=(9, 5)), rng.normal(size=(8, 5))
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", block_elems)
    for tile_cols in testlib.TILE_SIZES:
        monkeypatch.setattr(kernels, "TILE_COLS", tile_cols)
        blocks = list(kernels.distance_blocks(a, b))
        assert [rows.start for rows, _ in blocks] == list(range(0, 9, rows_per_block))
        assert all(block.size <= max(block_elems, len(b)) for _, block in blocks)
        whole = np.concatenate([block for _, block in blocks])
        np.testing.assert_array_equal(whole, kernels.pairwise_manhattan(a, b))


@pytest.mark.parametrize("tile_cols", testlib.TILE_SIZES)
@pytest.mark.parametrize("queries, candidates", [(0, 8), (9, 0), (0, 0)])
def test_distance_blocks_of_an_empty_side(monkeypatch, queries, candidates, tile_cols):
    monkeypatch.setattr(kernels, "TILE_COLS", tile_cols)
    blocks = list(kernels.distance_blocks(np.ones((queries, 5)), np.ones((candidates, 5))))
    # no query gives no block; no candidate gives zero-width blocks of every query
    assert bool(blocks) == (queries > 0)
    assert sum(len(block) for _, block in blocks) == queries
    assert all(block.shape[1] == candidates for _, block in blocks)


@pytest.mark.parametrize("candidates", [0, 3])
def test_distance_blocks_reject_width_mismatch(candidates):
    # checked once per search, so also when no tile is ever computed
    with pytest.raises(ValueError):
        next(kernels.distance_blocks(np.zeros((2, 3)), np.zeros((candidates, 4))))


def test_distance_blocks_make_inputs_contiguous_once(rng, monkeypatch):
    a, b = rng.normal(size=(9, 10)), rng.normal(size=(8, 10))
    calls = []
    real = kernels.pairwise_manhattan

    def recording(q, c):
        calls.append((q, c))
        return real(q, c)

    monkeypatch.setattr(kernels, "pairwise_manhattan", recording)
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", 16)
    monkeypatch.setattr(kernels, "TILE_COLS", 3)
    # strided and Fortran-ordered inputs: each needs one contiguous copy
    blocks = list(kernels.distance_blocks(a[:, ::2], np.asfortranarray(b[:, ::2])))
    whole = np.concatenate([block for _, block in blocks])
    np.testing.assert_array_equal(whole, real(a[:, ::2], b[:, ::2]))
    assert len(calls) == 5 * 3  # 2 rows a block, 3 tiles a block
    for side in (0, 1):
        args = [call[side] for call in calls]
        assert all(arg.flags.c_contiguous for arg in args)
        assert len({id(arg.base) for arg in args}) == 1  # views of one copy


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
    seg = kernels.Segments(ids, num_segments)
    got = kernels.segment_sum(values, seg)
    np.testing.assert_array_equal(got, naive.segment_sum(values, ids, num_segments))
    got_1d = kernels.segment_sum(values[:, 0], seg)
    np.testing.assert_array_equal(got_1d, naive.segment_sum(values[:, 0], ids, num_segments)[:, 0])
