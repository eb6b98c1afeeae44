import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import autodiff as ad
from kgalign import evaluation, kernels, kg, training
from kgalign.training import TrainConfig

import naive_oracles as naive


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


# ---------------------------------------------------------------- negatives


def test_refresh_negatives_hand_toy():
    f1 = np.array([[0.0], [1.0], [10.0]])
    f2 = np.array([[0.0], [2.0], [3.0]])
    pairs = np.array([[0, 0]])
    cache = training.refresh_negatives(f1, f2, pairs, k=1, epoch=5)
    assert cache.side1[0, 0] == 1  # nearest non-self entity in graph 1
    assert cache.side2[0, 0] == 1
    assert cache.epoch == 5


def test_refresh_excludes_the_entity_itself(rng):
    f1 = rng.normal(size=(12, 4))
    f2 = rng.normal(size=(12, 4))
    pairs = np.stack([np.arange(6), np.arange(6)], axis=1)
    cache = training.refresh_negatives(f1, f2, pairs, k=5)
    for p, (e1, e2) in enumerate(pairs):
        assert e1 not in cache.side1[p]
        assert e2 not in cache.side2[p]


def test_refresh_tie_break_prefers_lower_id():
    f1 = np.zeros((4, 2))  # all candidates tied at distance 0
    f2 = np.zeros((4, 2))
    pairs = np.array([[2, 2]])
    cache = training.refresh_negatives(f1, f2, pairs, k=2)
    assert cache.side1[0].tolist() == [0, 1]


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
    got = training.expand_seeds_bidirectional(f1, f2, pairs, 3, 3)
    assert [1, 2] in got.tolist()
    # every proposal is mutual: ids appear at most once per side
    assert len(set(got[:, 0].tolist())) == len(got)
    assert len(set(got[:, 1].tolist())) == len(got)


def test_expansion_never_reproposes_aligned_entities():
    f1 = np.array([[0.0], [1.0], [2.0]])
    f2 = np.array([[0.0], [1.0], [2.0]])
    pairs = np.array([[0, 0], [1, 1]])
    got = training.expand_seeds_bidirectional(f1, f2, pairs, 3, 3)
    assert got.tolist() == [[2, 2]]


def test_expansion_requires_mutuality():
    # g1 entity 0's nearest is g2 entity 0, but g2 entity 0 prefers g1 entity 1
    f1 = np.array([[0.0], [0.15]])
    f2 = np.array([[0.1], [50.0]])
    pairs = np.empty((0, 2), dtype=np.int64)
    got = training.expand_seeds_bidirectional(f1, f2, pairs, 2, 2)
    assert got.tolist() == [[1, 0]]  # 0 -> 0 is not mutual, 1 <-> 0 is


# ------------------------------------------------- search side equivalence


@st.composite
def tied_distances(draw):
    """Distance rows drawn from a few levels, so ties straddle the k-th entry."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(2, 15))
    k = draw(st.integers(1, cols - 1))
    levels = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, np.inf]),
                           min_size=rows * cols, max_size=rows * cols))
    exclude = draw(st.lists(st.integers(0, cols - 1), min_size=rows, max_size=rows))
    return np.array(levels).reshape(rows, cols), k, np.array(exclude)


@settings(max_examples=80, deadline=None)
@given(tied_distances(), st.sampled_from([1, 7, 1 << 22]))
def test_k_nearest_rows_equals_sorting_oracle(case, block_elems):
    dist, k, exclude = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_BLOCK_ELEMS", block_elems)
        got = training._k_nearest_rows(dist, k, exclude)
    np.testing.assert_array_equal(got, naive.k_nearest_by_sorting(dist, k, exclude))


def test_k_nearest_rows_tie_at_kth_takes_lower_ids():
    dist = np.array([[3.0, 1.0, 2.0, 1.0, 2.0, 2.0, 0.5]])
    got = training._k_nearest_rows(dist, 3, np.array([6]))
    assert got.tolist() == [[1, 3, 2]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_expansion_equals_mutual_nearest_oracle(n1, n2, seed):
    rng = np.random.default_rng(seed)
    # integer coordinates make distance ties common
    f1 = rng.integers(0, 3, size=(n1, 2)).astype(np.float64)
    f2 = rng.integers(0, 3, size=(n2, 2)).astype(np.float64)
    pairs = np.empty((0, 2), dtype=np.int64)
    got = training.expand_seeds_bidirectional(f1, f2, pairs, n1, n2)
    dist = np.abs(f1[:, None, :] - f2[None, :, :]).sum(axis=2)
    assert [tuple(p) for p in got.tolist()] == naive.mutual_nearest(dist)


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
        training.expand_seeds_bidirectional(f1, f2, np.empty((0, 2), dtype=np.int64), 5, 5)


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

    def poisoned_backward(tape, loss):
        real_backward(tape, loss)
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


def test_checkpoint_round_trip(tmp_path, small_task):
    cfg = TrainConfig(epochs=1, d_r=6, d_t=6, rng_seed=0)
    result = training.fit(small_task, cfg)
    path = tmp_path / "ckpt.npz"
    training.save_checkpoint(path, result.params)
    loaded = training.load_checkpoint(path)
    assert set(loaded) == set(result.params)
    for key in loaded:
        np.testing.assert_array_equal(loaded[key].data, result.params[key].data)


def _count_forward_calls(monkeypatch):
    calls = []
    real = training.forward

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "forward", counting)
    return calls


def test_supervised_fit_runs_one_forward_per_epoch_plus_final(monkeypatch, small_task):
    calls = _count_forward_calls(monkeypatch)
    training.fit(small_task, TrainConfig(epochs=6, d_r=6, d_t=6, rng_seed=0))
    assert len(calls) == 7  # negatives reuse the taped pass of epochs 0 and 5


def test_semi_fit_reuses_last_evaluation_pass_as_output(monkeypatch, small_task):
    calls = _count_forward_calls(monkeypatch)
    cfg = TrainConfig(epochs=3, d_r=6, d_t=6, rng_seed=0, semi=True,
                      neg_refresh_epochs=1, eval_every=1)
    training.fit(small_task, cfg)
    # epoch 0's taped pass, then one evaluation pass per epoch: the first
    # two are taped and reused by epochs 1 and 2, the last is the output
    assert len(calls) == 4


@pytest.mark.parametrize("semi", [False, True])
def test_graph_constants_built_once_per_graph_not_per_forward(monkeypatch, semi):
    calls = {"neighbor_edges": 0, "build_normalized_adjacency": 0}
    for name in calls:
        real = getattr(kg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(kg, name, counting)
    task = kg.generate_synthetic_pair(40, 4, 3, emb_dim=6, rng_seed=2)
    assert calls == {"neighbor_edges": 2, "build_normalized_adjacency": 2}
    training.fit(task, TrainConfig(epochs=5, d_r=4, d_t=4, semi=semi, neg_refresh_epochs=2,
                                   eval_every=2))
    assert calls == {"neighbor_edges": 2, "build_normalized_adjacency": 2}


# sha256 over final_emb1 then final_emb2 bytes, recorded from the per-row
# sort search side with a separate untaped pass at each refresh; any change
# to summation order, tie-breaking or which pass feeds the search moves it
GOLDEN_FIT = {
    "supervised": (
        dict(epochs=7, rng_seed=4, neg_refresh_epochs=3, neg_sample_all=False),
        "1a540f8aa250606da363bde1bdbc0edff6772e6b09e3503ed455d4855ed1dabe",
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
