import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import autodiff as ad
from kgalign import evaluation, kernels, kg, selfcheck, training, triples
from kgalign.training import TrainConfig
from kgalign import oracles as naive

import testlib


# --------------------------------------------------------------- distances
# the L1 distance the model uses everywhere: negatives, seed growth, ranking


def l1(u, v):
    return float(kernels.pairwise_manhattan(np.atleast_2d(u), np.atleast_2d(v))[0, 0])


def test_manhattan_self_distance_zero(rng):
    v = rng.normal(size=8)
    assert l1(v, v) == 0.0


def test_manhattan_example():
    assert l1([0.0, 0.0], [1.0, -2.0]) == 3.0


def test_manhattan_symmetry(rng):
    for _ in range(10):
        u, v = rng.normal(size=6), rng.normal(size=6)
        assert l1(u, v) == l1(v, u)


def test_manhattan_width_mismatch():
    with pytest.raises(ValueError):
        l1(np.zeros(3), np.zeros(4))


# -------------------------------------------------------------- margin loss


def test_margin_inactive_when_negative_beats_positive_by_margin():
    pos = ad.Tensor([0.0])
    neg = ad.Tensor([3.0])
    assert training.margin_loss(pos, neg, 3.0).data == 0.0


def test_margin_example_value():
    loss = training.margin_loss(ad.Tensor([2.0]), ad.Tensor([1.0]), 3.0)
    assert loss.data == 4.0


def test_margin_loss_nonnegative(rng):
    for _ in range(10):
        pos = ad.Tensor(rng.uniform(0, 5, size=7))
        neg = ad.Tensor(rng.uniform(0, 5, size=7))
        assert training.margin_loss(pos, neg, 3.0).data >= 0.0


def test_margin_gradient_on_three_pair_toy(rng):
    f1 = ad.Tensor(rng.normal(size=(4, 5)) + 0.3, requires_grad=True)
    f2 = ad.Tensor(rng.normal(size=(4, 5)) + 0.3, requires_grad=True)
    pairs = np.array([[0, 0], [1, 1], [2, 2]], dtype=np.int64)
    neg1 = np.array([[3], [3], [3]], dtype=np.int64)
    neg2 = np.array([[3], [3], [3]], dtype=np.int64)

    def fn(*_):
        return training.alignment_loss(f1, f2, pairs, neg1, neg2, margin=3.0)

    assert ad.fd_check(fn, [f1, f2]) < 1e-4


def test_alignment_loss_equals_loop_over_pairs_and_negatives(rng):
    # graphs of different sizes, pairs whose two ids differ and independent
    # negatives per side, so that reading a side's rows or ids from the
    # other side changes the sum
    f1, f2 = rng.normal(size=(9, 4)), rng.normal(size=(11, 4))
    pairs = np.array([[0, 7], [3, 10], [8, 1], [5, 4]], dtype=np.int64)
    neg1 = rng.integers(0, 9, size=(4, 3))
    neg2 = rng.integers(0, 11, size=(4, 3))
    margin = 4.0
    want = 0.0
    for p, (e1, e2) in enumerate(pairs):
        pos = np.abs(f1[e1] - f2[e2]).sum()
        for n1, n2 in zip(neg1[p], neg2[p]):
            want += max(pos - np.abs(f1[n1] - f2[e2]).sum() + margin, 0.0)
            want += max(pos - np.abs(f1[e1] - f2[n2]).sum() + margin, 0.0)
    got = training.alignment_loss(ad.Tensor(f1), ad.Tensor(f2), pairs, neg1, neg2, margin)
    assert float(got.data) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- negatives


def test_refresh_negatives_hand_toy():
    f1 = np.array([[0.0], [1.0], [10.0]])
    f2 = np.array([[0.0], [2.0], [3.0]])
    pairs = np.array([[0, 0]])
    neg1, neg2 = training.refresh_negatives(f1, f2, pairs, k=1, epoch=5)
    assert neg1[0, 0] == 1  # nearest non-self entity in graph 1
    assert neg2[0, 0] == 1


def test_refresh_excludes_the_entity_itself(rng):
    f1 = rng.normal(size=(12, 4))
    f2 = rng.normal(size=(12, 4))
    # the two sides' ids differ, so masking the other graph's id leaves the entity in
    pairs = np.stack([np.arange(6), 6 + np.arange(6)], axis=1)
    neg1, neg2 = training.refresh_negatives(f1, f2, pairs, k=5)
    for p, (e1, e2) in enumerate(pairs):
        assert e1 not in neg1[p]
        assert e2 not in neg2[p]


def test_refresh_tie_break_prefers_lower_id():
    f1 = np.zeros((4, 2))  # all candidates tied at distance 0
    f2 = np.zeros((4, 2))
    pairs = np.array([[2, 2]])
    neg1, _ = training.refresh_negatives(f1, f2, pairs, k=2)
    assert neg1[0].tolist() == [0, 1]


def test_refresh_rejects_k_too_large():
    f = np.zeros((3, 2))
    with pytest.raises(ValueError):
        training.refresh_negatives(f, f, np.array([[0, 0]]), k=3)


# ------------------------------------------------------------ seed expansion


def test_expansion_finds_single_mutual_pair():
    # entity 1 <-> entity 2 are mutually nearest; others are not
    f1 = np.array([[0.0, 0.0], [5.0, 5.0], [20.0, 20.0]])
    f2 = np.array([[40.0, 40.0], [30.0, 30.0], [5.1, 5.1]])
    pairs = np.empty((0, 2), dtype=np.int64)
    got = training.expand_seeds_bidirectional(f1, f2, pairs)
    assert [1, 2] in got.tolist()
    # every proposal is mutual: ids appear at most once per side
    assert len(set(got[:, 0].tolist())) == len(got)
    assert len(set(got[:, 1].tolist())) == len(got)


def test_expansion_never_reproposes_aligned_entities():
    f1 = np.array([[0.0], [1.0], [2.0]])
    f2 = np.array([[0.0], [1.0], [2.0]])
    pairs = np.array([[0, 0], [1, 1]])
    got = training.expand_seeds_bidirectional(f1, f2, pairs)
    assert got.tolist() == [[2, 2]]


def test_expansion_requires_mutuality():
    # g1 entity 0's nearest is g2 entity 0, but g2 entity 0 prefers g1 entity 1
    f1 = np.array([[0.0], [0.15]])
    f2 = np.array([[0.1], [50.0]])
    pairs = np.empty((0, 2), dtype=np.int64)
    got = training.expand_seeds_bidirectional(f1, f2, pairs)
    assert got.tolist() == [[1, 0]]  # 0 -> 0 is not mutual, 1 <-> 0 is


# ------------------------------------------------- search side equivalence


# a small grid makes distance ties common; the huge finite coordinates make
# some L1 sums overflow to inf (1e308 + 1e308 in 2-d, 1e308 - -1e308 in 1-d)
COORDS = [0.0, 1.0, 2.0, 1e308, -1e308]


@st.composite
def tied_embeddings(draw):
    """Queries and candidates on a few coordinates, so distance ties straddle
    the k-th entry and some rows' k-th distance is inf."""
    rows, cols, dim = draw(st.integers(1, 12)), draw(st.integers(2, 15)), draw(st.integers(1, 2))
    k = draw(st.integers(1, cols - 1))

    def points(n):
        coords = draw(st.lists(st.sampled_from(COORDS), min_size=n * dim, max_size=n * dim))
        return np.array(coords, dtype=np.float64).reshape(n, dim)

    exclude = draw(st.lists(st.integers(0, cols - 1), min_size=rows, max_size=rows))
    return points(rows), points(cols), k, np.array(exclude)


def brute_l1(queries, candidates):
    with np.errstate(over="ignore"):
        return np.abs(queries[:, None, :] - candidates[None, :, :]).sum(axis=2)


@settings(max_examples=80, deadline=None)
@given(tied_embeddings(), st.sampled_from(testlib.BLOCK_SIZES),
       st.sampled_from(testlib.TILE_SIZES))
def test_k_nearest_rows_equals_sorting_oracle(case, block_elems, tile_cols):
    queries, candidates, k, exclude = case
    with testlib.search_sizes(block_elems, tile_cols):
        got = training._k_nearest_rows(queries, candidates, k, exclude)
    want = testlib.k_nearest_by_sorting(brute_l1(queries, candidates), k, exclude)
    np.testing.assert_array_equal(got, want)


def test_k_nearest_rows_tie_at_kth_takes_lower_ids():
    # distances [3, 1, 2, 1, 2, 2, 0.5] and [1, 1, 0, 1, 0, 0, 1.5]; the
    # k-th entry ties with the next, and the excluded id is the nearest
    candidates = np.array([[3.0], [1.0], [2.0], [1.0], [2.0], [2.0], [0.5]])
    for sizes in itertools.product(testlib.BLOCK_SIZES, testlib.TILE_SIZES):
        with testlib.search_sizes(*sizes):
            got = training._k_nearest_rows(np.array([[0.0], [2.0]]), candidates, 3,
                                           np.array([6, 2]))
        assert got.tolist() == [[1, 3, 2], [4, 5, 0]], sizes


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.sampled_from(testlib.BLOCK_SIZES), st.sampled_from(testlib.TILE_SIZES))
def test_expansion_equals_mutual_nearest_oracle(n1, n2, seed, block_elems, tile_cols):
    rng = np.random.default_rng(seed)
    # few coordinates make distance ties common, within and across blocks
    # and tiles, and include inf distances
    f1 = rng.choice(COORDS, size=(n1, 2))
    f2 = rng.choice(COORDS, size=(n2, 2))
    pairs = np.empty((0, 2), dtype=np.int64)
    with testlib.search_sizes(block_elems, tile_cols):
        got = training.expand_seeds_bidirectional(f1, f2, pairs)
    assert [tuple(p) for p in got.tolist()] == testlib.mutual_nearest(brute_l1(f1, f2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_refresh_negatives_rejects_non_finite_embeddings(rng, bad):
    f1 = rng.normal(size=(6, 3))
    f2 = rng.normal(size=(6, 3))
    f2[4, 1] = bad
    with pytest.raises(training.NumericalError, match="epoch 7"):
        training.refresh_negatives(f1, f2, np.array([[0, 0], [1, 1]]), k=2, epoch=7)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_expansion_rejects_non_finite_embeddings(rng, bad):
    f1 = rng.normal(size=(5, 3))
    f2 = rng.normal(size=(5, 3))
    f1[3, 0] = bad
    with pytest.raises(training.NumericalError, match="non-finite"):
        training.expand_seeds_bidirectional(f1, f2, np.empty((0, 2), dtype=np.int64))


# ----------------------------------------------------------------- training


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(margin=0.0)
    with pytest.raises(ValueError):
        TrainConfig(neg_k=0)
    with pytest.raises(ValueError):
        TrainConfig(variant="bogus")
    with pytest.raises(ValueError):
        TrainConfig(train_ratio=1.5)
    for bad in ({"gcn_depth": 0}, {"lr": -1.0}, {"lr": float("nan")}, {"eval_every": -1},
                {"margin": float("inf")}, {"d_r": -1}, {"rng_seed": -1}, {"cycle_mode": 4}):
        with pytest.raises(training.ConfigError, match=f"^{next(iter(bad))}"):
            TrainConfig(**bad)


def test_config_checks_each_field_against_its_annotation():
    # an int is a real number, a numpy integer is an integer, a bool is neither
    cfg = TrainConfig(margin=3, d_r=np.int64(8), semi=True, variant="wo-T")
    assert (cfg.margin, cfg.d_r) == (3, 8)
    for bad in ({"d_r": 8.0}, {"epochs": True}, {"margin": False}, {"margin": "3.0"},
                {"semi": 1}, {"variant": None}):
        with pytest.raises(training.ConfigError, match=f"^{next(iter(bad))} must be "):
            TrainConfig(**bad)


def test_zero_epochs_returns_init(small_task):
    cfg = TrainConfig(epochs=0, d_r=6, d_t=6, rng_seed=3)
    result = training.fit(small_task, cfg)
    assert result.history == []
    rng = np.random.default_rng(3)
    expected = training.init_params(small_task, cfg, rng)
    for key in expected:
        np.testing.assert_array_equal(result.params[key].data, expected[key].data)


def test_fit_deterministic_bitwise(small_task):
    cfg = TrainConfig(epochs=6, d_r=6, d_t=6, rng_seed=5)
    r1 = training.fit(small_task, cfg)
    r2 = training.fit(small_task, cfg)
    assert [h["loss"] for h in r1.history] == [h["loss"] for h in r2.history]
    np.testing.assert_array_equal(r1.final_emb1, r2.final_emb1)
    np.testing.assert_array_equal(r1.final_emb2, r2.final_emb2)


@pytest.mark.parametrize("variant", ["full", "wo-E", "wo-T", "wo-C"])
def test_variants_train_without_error(small_task, variant):
    cfg = TrainConfig(epochs=2, d_r=6, d_t=6, variant=variant, rng_seed=1)
    result = training.fit(small_task, cfg)
    assert len(result.history) == 2
    assert all(np.isfinite(h["loss"]) for h in result.history)


def test_training_pairs_grow_monotonically_in_semi_mode(small_task):
    cfg = TrainConfig(epochs=12, d_r=6, d_t=6, semi=True, rng_seed=2)
    counts = []
    training_log = lambda rec: counts.append(rec["train_pairs"])
    result = training.fit(small_task, cfg, log=training_log)
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > len(small_task.seeds_train)
    both = result.train_pairs
    assert len(set(both[:, 0].tolist())) == len(both)
    assert len(set(both[:, 1].tolist())) == len(both)


def test_loss_curve_non_increasing_within_refresh_windows():
    # noisier instance so the hinge stays active across the run
    task = kg.generate_synthetic_pair(120, 10, 5, drop_triple_prob=0.15,
                                      emb_noise_sigma=1.0, emb_dim=16, rng_seed=3)
    cfg = TrainConfig(epochs=20, d_r=8, d_t=8, rng_seed=1)
    result = training.fit(task, cfg)
    losses = [h["loss"] for h in result.history]
    p = cfg.neg_refresh_epochs
    for start in range(0, cfg.epochs, p):
        window = losses[start:start + p]
        assert window[-1] <= window[0], f"loss rose across window at epoch {start}"


def test_eval_every_records_hits(small_task):
    cfg = TrainConfig(epochs=4, d_r=6, d_t=6, rng_seed=0, eval_every=2)
    result = training.fit(small_task, cfg)
    assert "hits1" in result.history[1] and "hits1" in result.history[3]
    assert "hits1" not in result.history[0]


def test_non_finite_loss_aborts_with_epoch(small_task):
    bad = kg.AlignmentTask(
        small_task.g1, small_task.g2, small_task.seeds_train, small_task.seeds_test,
        np.where(np.arange(small_task.init_emb1.size).reshape(small_task.init_emb1.shape) == 0,
                 np.inf, small_task.init_emb1),
        small_task.init_emb2,
    )
    cfg = TrainConfig(epochs=2, d_r=6, d_t=6, rng_seed=0)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(training.NumericalError, match="epoch 0"):
            training.fit(bad, cfg)


def _capture_params(monkeypatch):
    captured = {}
    real = training.init_params

    def capturing(*args, **kwargs):
        captured.update(real(*args, **kwargs))
        return captured

    monkeypatch.setattr(training, "init_params", capturing)
    return captured


def test_non_finite_gradient_aborts_naming_first_parameter(monkeypatch, small_task):
    params = _capture_params(monkeypatch)
    real_backward = ad.Tape.backward

    def poisoned_backward(tape, output, grad=None):
        real_backward(tape, output, grad)
        for key in ("triple.head_w", "gcn.gate_b1"):  # the second sorts first
            params[key].grad = np.full_like(params[key].data, np.nan)

    monkeypatch.setattr(ad.Tape, "backward", poisoned_backward)
    cfg = TrainConfig(epochs=2, d_r=6, d_t=6, rng_seed=0)
    with pytest.raises(training.NumericalError, match="gradient of 'gcn.gate_b1' at epoch 0"):
        training.fit(small_task, cfg)


def test_non_finite_parameter_after_step_aborts(monkeypatch, small_task):
    params = _capture_params(monkeypatch)
    real_step = ad.adam_step
    steps = []

    def poisoned_step(values, grads, state, **kwargs):
        real_step(values, grads, state, **kwargs)
        steps.append(1)
        if len(steps) == 2:
            params["gcn.gate_w0"].data[0, 0] = np.inf

    monkeypatch.setattr(ad, "adam_step", poisoned_step)
    cfg = TrainConfig(epochs=3, d_r=6, d_t=6, rng_seed=0)
    with pytest.raises(training.NumericalError, match="value of 'gcn.gate_w0' at epoch 1"):
        training.fit(small_task, cfg)


@pytest.mark.parametrize("eval_every, message", [
    (0, "final output: non-finite"),
    (1, "evaluation after epoch 1: non-finite"),
])
def test_non_finite_last_pass_aborts(monkeypatch, small_task, eval_every, message):
    # finite values whose type projection sums overflow to inf, set by the
    # last step, so only the pass after it is non-finite
    params = _capture_params(monkeypatch)
    real_step = ad.adam_step
    steps = []

    def poisoned_step(values, grads, state, **kwargs):
        real_step(values, grads, state, **kwargs)
        steps.append(1)
        if len(steps) == 2:
            params["triple.type_key_w"].data[...] = 1e308

    monkeypatch.setattr(ad, "adam_step", poisoned_step)
    cfg = TrainConfig(epochs=2, d_r=6, d_t=6, rng_seed=0, eval_every=eval_every)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(training.NumericalError, match=message):
            training.fit(small_task, cfg)


def test_checkpoint_round_trip(tmp_path, small_task):
    cfg = TrainConfig(epochs=1, d_r=6, d_t=6, rng_seed=0)
    result = training.fit(small_task, cfg)
    path = tmp_path / "ckpt.npz"
    training.save_checkpoint(path, result.params)
    loaded = training.load_checkpoint(path, small_task, cfg)
    assert set(loaded) == set(result.params)
    for key in loaded:
        np.testing.assert_array_equal(loaded[key].data, result.params[key].data)


@pytest.mark.parametrize("arrays, cut, message", [
    ({"__format__": np.array(1), "w": np.ones(64)}, True, "not a readable checkpoint"),
    ({"w": np.ones(2)}, False, "no __format__ entry"),
    ({"__format__": np.array(99)}, False, "unsupported checkpoint format 99"),
], ids=["cut-in-half", "no-format", "format-99"])
def test_load_checkpoint_rejects_damaged_or_foreign_file(tmp_path, small_task, arrays, cut,
                                                         message):
    path = tmp_path / "ckpt.npz"
    np.savez(path, **arrays)
    if cut:
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(kg.DataError, match=f"^{re.escape(str(path))}: {message}"):
        training.load_checkpoint(path, small_task, TrainConfig())


def _count_stage_passes(monkeypatch, task):
    """Per stage, per graph, the number of passes a fit runs of it."""
    calls = {"body": {1: 0, 2: 0}, "head": {1: 0, 2: 0}}
    for stage in calls:
        real = getattr(training, f"encode_{stage}")

        def counting(graph, *args, _stage=stage, _real=real, **kwargs):
            calls[_stage][1 if graph is task.g1 else 2] += 1
            return _real(graph, *args, **kwargs)

        monkeypatch.setattr(training, f"encode_{stage}", counting)
    return calls


def test_supervised_fit_runs_one_forward_per_epoch_plus_final(monkeypatch, small_task):
    calls = _count_stage_passes(monkeypatch, small_task)
    training.fit(small_task, TrainConfig(epochs=6, d_r=6, d_t=6, rng_seed=0))
    # negatives reuse the pass of epochs 0 and 5; each step re-runs both of
    # graph 1's stages on tapes for its sweep
    passes = {1: 7 + 6, 2: 7}
    assert calls == {"body": passes, "head": passes}


def test_semi_fit_reuses_last_evaluation_pass_as_output(monkeypatch, small_task):
    calls = _count_stage_passes(monkeypatch, small_task)
    cfg = TrainConfig(epochs=3, d_r=6, d_t=6, rng_seed=0, semi=True,
                      neg_refresh_epochs=1, eval_every=1)
    training.fit(small_task, cfg)
    # epoch 0's pass, then one evaluation pass per epoch: the first two are
    # reused by epochs 1 and 2, the last is the output; plus graph 1's
    # re-run in each step
    passes = {1: 4 + 3, 2: 4}
    assert calls == {"body": passes, "head": passes}


@pytest.mark.parametrize(
    "variant, cycle_mode",
    [("full", 1), ("full", 2), ("wo-E", 2), ("wo-T", 2), ("wo-C", 2), ("full", 3)],
)
def test_checkpointed_step_gradients_equal_single_tape_sweep(small_task, variant, cycle_mode):
    cfg = TrainConfig(d_r=6, d_t=6, variant=variant, cycle_mode=cycle_mode)
    params = training.init_params(small_task, cfg, np.random.default_rng(3))
    pairs = small_task.seeds_train
    want = selfcheck.step_grads(selfcheck.one_tape_forward, small_task, params, cfg, pairs)
    got = selfcheck.step_grads(training.forward, small_task, params, cfg, pairs)
    assert np.any(want["emb1"]) and np.any(want["emb2"]) and np.any(want["gcn.gate_w0"])
    for key in sorted(params):
        if want[key] is None:
            assert got[key] is None, key
        else:
            assert np.array_equal(got[key], want[key]), key


def test_wo_c_fit_runs_no_triple_encoder(monkeypatch, small_task):
    # without the cycle nothing reads the triple representation
    calls = []
    monkeypatch.setattr(triples, "encode_triples", lambda *args, **kwargs: calls.append(1))
    training.fit(small_task, TrainConfig(epochs=2, d_r=6, d_t=6, variant="wo-C"))
    assert calls == []


@pytest.mark.parametrize("semi", [False, True])
def test_graph_constants_built_once_per_graph_not_per_forward(monkeypatch, semi):
    calls = []
    real = kg.build_normalized_adjacency
    monkeypatch.setattr(kg, "build_normalized_adjacency",
                        lambda *args: calls.append(1) or real(*args))
    task = kg.generate_synthetic_pair(40, 4, 3, emb_dim=6, rng_seed=2)
    assert len(calls) == 2
    training.fit(task, TrainConfig(epochs=5, d_r=4, d_t=4, semi=semi, neg_refresh_epochs=2,
                                   eval_every=2))
    assert len(calls) == 2


def test_taped_forward_and_backward_build_no_segments(monkeypatch, small_task):
    # segment ids are checked and indexed once per graph, in GraphStructure
    cfg = TrainConfig(d_r=4, d_t=4)
    params = training.init_params(small_task, cfg, np.random.default_rng(0))
    built = []
    real_init = kernels.Segments.__init__

    def counting(self, ids, num_segments):
        built.append(num_segments)
        real_init(self, ids, num_segments)

    monkeypatch.setattr(kernels.Segments, "__init__", counting)
    with ad.Tape() as tape:
        f1, f2 = training.forward(small_task, params, cfg)
        loss = ad.reduce_sum(f1) + ad.reduce_sum(f2)
    tape.backward(loss)
    assert built == []
    assert all(params[key].grad is not None for key in ("emb1", "emb2", "triple.rel_a"))


# sha256 over final_emb1 then final_emb2 bytes, recorded from the per-row
# sort search side with a separate untaped pass at each refresh; any change
# to summation order, tie-breaking or which pass feeds the search moves it
GOLDEN_FIT = {
    "supervised": (
        dict(epochs=7, rng_seed=4, neg_refresh_epochs=3),
        "201925e9915ef8169ce4d8ec97fc4fa39b69c10743a8efa18bc445045c53d3d8",
    ),
    "semi": (
        dict(epochs=6, rng_seed=2, semi=True, neg_refresh_epochs=2, eval_every=3),
        "b08c3a40439a431e7c8892ba8f1538724bb4b168f6db89b3be3d46a4f3e30c9c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIT))
def test_fit_final_embeddings_match_golden_hash(small_task, name):
    overrides, want = GOLDEN_FIT[name]
    result = training.fit(small_task, TrainConfig(d_r=6, d_t=6, **overrides))
    got = hashlib.sha256(result.final_emb1.tobytes() + result.final_emb2.tobytes())
    assert got.hexdigest() == want


def test_fit_searches_hold_one_distance_block_at_a_time(small_task, monkeypatch):
    # semi mode runs all three searches: negatives, seed proposals, ranks
    overrides, want = GOLDEN_FIT["semi"]
    block_elems, tile_cols = 300, 7  # both under each search's width on small_task
    widths, tiles = [], []  # each search's candidate count; each tile's shape
    real_blocks, real_tile = kernels.distance_blocks, kernels.pairwise_manhattan

    def recording_blocks(queries, candidates):
        widths.append(len(candidates))
        return real_blocks(queries, candidates)

    def recording_tile(a, b):
        tiles.append((len(a), len(b), widths[-1]))
        return real_tile(a, b)

    monkeypatch.setattr(kernels, "distance_blocks", recording_blocks)
    monkeypatch.setattr(kernels, "pairwise_manhattan", recording_tile)
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", block_elems)
    monkeypatch.setattr(kernels, "TILE_COLS", tile_cols)
    result = training.fit(small_task, TrainConfig(d_r=6, d_t=6, **overrides))
    assert tiles and all(cols <= tile_cols and rows <= max(1, block_elems // width)
                         for rows, cols, width in tiles)
    assert any(rows > 1 for rows, _, _ in tiles) and any(cols < w for _, cols, w in tiles)
    got = hashlib.sha256(result.final_emb1.tobytes() + result.final_emb2.tobytes())
    assert got.hexdigest() == want


# four 2 MB distance blocks: a search's own peak, over the rows it gathers and
# returns, whatever the size of its whole query-by-candidate matrix (bytes)
SEARCH_WORKING_SET = 4 * (1 << 18) * 8


@pytest.fixture(scope="module")
def wide_task():
    # at 2000 x 64 one whole query-by-candidate matrix would be 32 MB
    return kg.generate_synthetic_pair(2000, 5, 3, emb_dim=64, rng_seed=3)


@pytest.mark.parametrize("search", ["refresh_negatives", "expand_seeds_bidirectional",
                                    "evaluate"])
def test_searches_peak_within_four_distance_blocks(wide_task, monkeypatch, search):
    f1, f2 = wide_task.init_emb1, wide_task.init_emb2
    rng = np.random.default_rng(3)
    pairs = np.stack([rng.permutation(2000), rng.permutation(2000)], axis=1)
    runs = {  # each returns its output arrays
        "refresh_negatives": lambda: training.refresh_negatives(f1, f2, pairs[:1965], k=5),
        "expand_seeds_bidirectional": lambda: [
            training.expand_seeds_bidirectional(f1, f2, pairs[:0])],
        "evaluate": lambda: [evaluation.evaluate(wide_task, f1, f2, candidate_pool="all",
                                                 bidirectional=True).per_query_ranks],
    }
    gathered = []  # bytes of each search's queries and candidates
    real_blocks = kernels.distance_blocks

    def recording_blocks(queries, candidates):
        gathered.append(queries.nbytes + candidates.nbytes)
        return real_blocks(queries, candidates)

    monkeypatch.setattr(kernels, "distance_blocks", recording_blocks)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outputs = runs[search]()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    own = peak - sum(gathered) - sum(out.nbytes for out in outputs)
    assert gathered and own < SEARCH_WORKING_SET, own
