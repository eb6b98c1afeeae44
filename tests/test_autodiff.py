import math
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kgalign import autodiff as ad
from kgalign import kg, selfcheck, training
from kgalign.kernels import Segments
from kgalign.training import TrainConfig
from kgalign import oracles as naive

import testlib


def grad_of(fn, *tensors):
    with ad.Tape() as tape:
        loss = fn()
    tape.backward(loss)
    return [t.grad for t in tensors]


# ----------------------------------------------------------------- matmul


def test_matmul_identity_left():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, ad.Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_identity_times_column():
    out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5.0], [7.0]])


def test_matmul_gradient_vs_finite_differences(rng):
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    err = ad.fd_check(lambda *_: ad.reduce_sum(ad.matmul(a, b)), [a, b])
    assert err < 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


# ----------------------------------------------------------------- concat


def test_concat_vectors():
    out = ad.concat(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0]))
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_concat_with_empty_is_identity():
    x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.concat(x, ad.Tensor(np.zeros((2, 0))))
    np.testing.assert_array_equal(out.data, x.data)


def test_concat_gradient_splits(rng):
    a = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3, 6))
    err = ad.fd_check(lambda *_: ad.reduce_sum(ad.concat(a, b) * w), [a, b])
    assert err < 1e-6


def test_concat_of_three_matches_nested_concat(rng):
    parts = [ad.Tensor(rng.normal(size=(3, w)), requires_grad=True) for w in (2, 1, 4)]
    w = rng.normal(size=(7, 2))

    def run(join):
        with ad.Tape() as tape:
            out = join(*parts)
            loss = ad.reduce_sum(ad.matmul(out, w))
        tape.backward(loss)
        grads = [p.grad for p in parts]
        ad.zero_grads(parts)
        return out.data, grads

    flat, flat_grads = run(ad.concat)
    nested, nested_grads = run(lambda a, b, c: ad.concat(ad.concat(a, b), c))
    assert np.array_equal(flat, nested)
    for got, want in zip(flat_grads, nested_grads):
        assert np.array_equal(got, want)
    mask = rng.normal(size=(3, 7))
    assert ad.fd_check(lambda *_: ad.reduce_sum(ad.concat(*parts) * mask), parts) < 1e-6


def test_concat_backward_returns_views_of_the_gradient(rng):
    widths = (2, 1, 3)
    parts = [ad.Tensor(rng.normal(size=(4, w)), requires_grad=True) for w in widths]
    with ad.Tape() as tape:
        out = ad.concat(*parts)
    ((_, _, backward),) = tape.ops
    g = rng.normal(size=out.data.shape)
    bounds = np.cumsum((0,) + widths)
    for grad, lo, hi in zip(backward(g), bounds[:-1], bounds[1:]):
        assert np.shares_memory(grad, g)
        assert np.array_equal(grad, g[:, lo:hi])


def test_concat_leading_shape_mismatch():
    with pytest.raises(ad.DimensionError):
        ad.concat(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 3))))


# --------------------------------------------------------- segment softmax


def test_segment_softmax_uniform_for_equal_logits():
    out = testlib.segment_softmax(ad.Tensor([0.0, 0.0, 0.0]), Segments([0, 0, 0], 1))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_segment_softmax_singleton():
    out = testlib.segment_softmax(ad.Tensor([5.0]), Segments([0], 1))
    np.testing.assert_array_equal(out.data, [1.0])


def test_segment_softmax_two_elements():
    # direct evaluation of the two-element softmax
    expect = [1.0 / (1.0 + math.e), math.e / (1.0 + math.e)]
    out = testlib.segment_softmax(ad.Tensor([1.0, 2.0]), Segments([0, 0], 1))
    np.testing.assert_allclose(out.data, expect, rtol=1e-15)
    assert abs(out.data[0] - 0.2689) < 1e-4 and abs(out.data[1] - 0.7311) < 1e-4


def test_segment_softmax_sums_to_one_and_positive(rng):
    for _ in range(20):
        logits = rng.normal(size=25) * rng.uniform(0.5, 50)
        ids = rng.integers(0, 5, size=25)
        out = testlib.segment_softmax(ad.Tensor(logits), Segments(ids, 5)).data
        assert (out > 0).all() and (out <= 1).all()
        sums = np.zeros(5)
        np.add.at(sums, ids, out)
        present = np.unique(ids)
        np.testing.assert_allclose(sums[present], 1.0, atol=1e-9)


def test_segment_softmax_shift_invariance(rng):
    logits = rng.normal(size=12)
    ids = rng.integers(0, 3, size=12)
    base = testlib.segment_softmax(ad.Tensor(logits), Segments(ids, 3)).data
    shifted = logits + np.array([100.0, -250.0, 1000.0])[ids]
    out = testlib.segment_softmax(ad.Tensor(shifted), Segments(ids, 3)).data
    np.testing.assert_allclose(out, base, atol=1e-12)


def test_segment_softmax_matches_naive(rng):
    logits = rng.normal(size=30)
    ids = rng.integers(0, 6, size=30)
    out = testlib.segment_softmax(ad.Tensor(logits), Segments(ids, 6)).data
    np.testing.assert_allclose(out, testlib.segment_softmax_by_loops(logits, ids), atol=1e-12)


def test_segment_softmax_empty_and_bad_ids():
    assert testlib.segment_softmax(ad.Tensor(np.zeros(0)), Segments([], 0)).data.shape == (0,)
    with pytest.raises(IndexError):
        testlib.segment_softmax(ad.Tensor([1.0, 2.0]), Segments([0, -1], 1))


# -------------------------------------------------------------- segment sum


def test_segment_sum_example():
    out = ad.segment_sum(ad.Tensor([[1.0], [2.0], [3.0]]), Segments([0, 0, 1], 2))
    np.testing.assert_array_equal(out.data, [[3.0], [3.0]])


def test_segment_sum_all_one_segment(rng):
    values = rng.normal(size=(8, 3))
    out = ad.segment_sum(ad.Tensor(values), Segments(np.zeros(8, dtype=int), 1))
    np.testing.assert_allclose(out.data, values.sum(axis=0, keepdims=True), atol=1e-12)


def test_segment_sum_matches_naive_exactly(rng):
    values = rng.normal(size=(10, 4))
    ids = rng.integers(0, 3, size=10)
    out = ad.segment_sum(ad.Tensor(values), Segments(ids, 3))
    np.testing.assert_array_equal(out.data, naive.segment_sum(values, ids, 3))


def test_segment_sum_id_out_of_range():
    with pytest.raises(IndexError):
        ad.segment_sum(ad.Tensor(np.ones((2, 2))), Segments([0, 5], 3))


# -------------------------------------------------------------- elementwise


def test_relu_example():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_passes_nan_and_zeroes_negative_zero():
    out = ad.relu(ad.Tensor([np.nan, -np.inf, -0.0, np.inf])).data
    assert np.isnan(out[0])
    np.testing.assert_array_equal(out[1:], [0.0, 0.0, np.inf])
    assert not np.signbit(out[2])


def test_tanh_at_zero():
    assert ad.tanh(ad.Tensor(0.0)).data == 0.0


def test_leaky_relu_definition():
    assert ad.leaky_relu(ad.Tensor(-10.0)).data == -3.0
    assert ad.leaky_relu(ad.Tensor(4.0)).data == 4.0


def test_broadcast_add_bias():
    out = ad.add(ad.Tensor(np.ones((3, 2))), ad.Tensor([1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [[2.0, 3.0]] * 3)


def test_incompatible_broadcast_raises():
    with pytest.raises(ad.DimensionError):
        ad.add(ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones((4, 2))))


@pytest.mark.parametrize("op", [ad.relu, ad.tanh, ad.sigmoid, ad.absval,
                                lambda t: ad.leaky_relu(t)])
def test_elementwise_gradients(op, rng):
    x = ad.Tensor(rng.uniform(0.2, 1.5, size=(4, 3)) * rng.choice([-1, 1], size=(4, 3)),
                  requires_grad=True)
    err = ad.fd_check(lambda *_: ad.reduce_sum(op(x)), [x])
    assert err < 1e-6


# ----------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (g,) = grad_of(lambda: ad.reduce_sum(x), x)
    np.testing.assert_array_equal(g, [1.0, 1.0, 1.0])


def test_backward_square():
    x = ad.Tensor([2.0], requires_grad=True)
    (g,) = grad_of(lambda: ad.reduce_sum(x * x), x)
    np.testing.assert_array_equal(g, [4.0])


def test_backward_composite_matches_fd(rng):
    a = ad.Tensor(rng.normal(size=(3, 4)) + 0.3, requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4, 2)) + 0.3, requires_grad=True)
    err = ad.fd_check(lambda *_: ad.reduce_sum(ad.relu(ad.matmul(a, b))), [a, b])
    assert err < 1e-5


def test_backward_rejects_non_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = x * 2.0
    with pytest.raises(ValueError):
        tape.backward(y)


def test_backward_twice_errors():
    x = ad.Tensor([1.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.reduce_sum(x * x)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_seeded_backward_checks_grad_shape_and_sweeps_once(rng):
    x = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))
    with ad.Tape() as tape:
        y = x * w
    for bad in (np.ones((2, 3)), np.ones(6), np.ones(())):
        with pytest.raises(ValueError, match="seed gradient has shape"):
            tape.backward(y, bad)
    seed = rng.normal(size=(3, 2))
    tape.backward(y, seed)
    np.testing.assert_array_equal(x.grad, seed * w)
    with pytest.raises(RuntimeError, match="already ran"):
        tape.backward(y, seed)


def test_backward_consumes_tape_and_keeps_only_leaf_grads():
    x = ad.Tensor([1.0, -2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = x * x
        loss = ad.reduce_sum(y)
    tape.backward(loss)
    assert tape.ops == []
    assert y.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_shared_first_contribution_stays_unchanged():
    # add hands one gradient array to both inputs; a's later contribution
    # must not leak into b's adopted gradient
    a = ad.Tensor([1.0, 2.0], requires_grad=True)
    b = ad.Tensor([3.0, 4.0], requires_grad=True)
    c = np.array([5.0, 7.0])
    w = np.array([0.5, -1.5])
    with ad.Tape() as tape:
        z = a * c
        y = a + b
        loss = ad.reduce_sum(y * w) + ad.reduce_sum(z)
    tape.backward(loss)
    np.testing.assert_array_equal(b.grad, w)
    np.testing.assert_array_equal(a.grad, w + c)


# parameter-name prefixes a variant leaves unused, so without a gradient;
# without the cycle the triple representation is not computed
_UNUSED_BY_VARIANT = {"wo-T": ("triple.type", "triple.mutual"),
                      "wo-C": ("enhance.head", "enhance.tail", "triple.")}


@pytest.mark.parametrize(
    "variant, cycle_mode", [("full", 2), ("wo-T", 2), ("wo-C", 2), ("full", 3)]
)
def test_backward_matches_keep_all_sweep_on_full_model(small_task, variant, cycle_mode):
    # mode 3 rebuilds the triple representation for four attention readers
    unused = _UNUSED_BY_VARIANT.get(variant, ())
    cfg = TrainConfig(d_r=6, d_t=6, variant=variant, cycle_mode=cycle_mode)
    params = training.init_params(small_task, cfg, np.random.default_rng(3))
    pairs = small_task.seeds_train

    def record():
        with ad.Tape() as tape:
            f1, f2 = selfcheck.one_tape_forward(small_task, params, cfg)
            neg1, neg2 = training.refresh_negatives(f1.data, f2.data, pairs, cfg.neg_k)
            loss = training.alignment_loss(f1, f2, pairs, neg1, neg2, cfg.margin)
        return tape, loss

    lean_tape, lean_loss = record()
    kept_tape, kept_loss = record()
    recorded = len(kept_tape.ops)
    lean_tape.backward(lean_loss)
    lean = {k: params[k].grad for k in params}
    ad.zero_grads(params.values())
    testlib.backward_keep_all(kept_tape, kept_loss)
    # wo-C, the smallest model, records 67 ops: it runs no triple encoder
    assert len(kept_tape.ops) == recorded > 60
    for key in sorted(params):
        assert (lean[key] is None) == key.startswith(unused), key
        if lean[key] is None:
            assert params[key].grad is None, key
        else:
            assert np.array_equal(lean[key], params[key].grad), key


# op -> whether its backward rule reads the input array x (3x4), so the
# tape must keep that array alive after the caller drops x
_INPUT_RETENTION = {
    "add": (lambda x, o: x + o, False),
    "sub": (lambda x, o: o - x, False),
    "concat": (lambda x, o: ad.concat(x, o), False),
    "take_rows": (lambda x, o: ad.take_rows(x, [0, 2, 2]), False),
    "segment_sum": (lambda x, o: ad.segment_sum(x, Segments([0, 1, 0], 2)), False),
    "relu": (lambda x, o: ad.relu(x), False),
    "leaky_relu": (lambda x, o: ad.leaky_relu(x), False),
    "reduce_sum": (lambda x, o: ad.reduce_sum(x, axis=0), False),
    "left_matmul": (lambda x, o: ad.left_matmul(np.ones((2, 3)), x), False),
    "matmul": (lambda x, o: x @ testlib.reshape(o, (4, 3)), True),
    "mul": (lambda x, o: x * o, True),
    "absval": (lambda x, o: ad.absval(x), True),
}
# "<op>-of-<copy>": x is a copy op's output, which is never kept; the
# reading rule rebuilds it
_INPUT_RETENTION.update({
    f"{reader}-of-{copy}": (_INPUT_RETENTION[reader][0], False)
    for reader in ("matmul", "mul", "absval") for copy in ("concat", "take_rows")
})

# how x (3x4) is made from a source tensor of the given shape
_MAKE_X = {
    "leaf": ((3, 4), lambda s: s),
    "concat": ((3, 2), lambda s: ad.concat(s, s)),
    "take_rows": ((4, 4), lambda s: ad.take_rows(s, [3, 0, 3])),
}


@pytest.mark.parametrize("name", sorted(_INPUT_RETENTION))
def test_tape_keeps_an_input_array_only_if_its_backward_reads_it(rng, name):
    op, kept = _INPUT_RETENTION[name]
    made_by = name.partition("-of-")[2] or "leaf"
    shape, make = _MAKE_X[made_by]
    other = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    source = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    with ad.Tape() as tape:
        x = make(source)
        loss = ad.reduce_sum(op(x, other))
    ref = weakref.ref(x.data)
    del x
    if made_by == "leaf":
        del source
    assert (ref() is not None) == kept
    tape.backward(loss)  # the sweep needs nothing that was freed
    if made_by != "leaf":
        assert source.grad is not None


# tracemalloc bytes that the taped forward pass plus loss below retained
# when copy outputs were kept for the rules that read them (numpy 2.4)
_RETAINED_KEEPING_COPIES = 42_580_390


def test_taped_forward_retains_at_most_40_percent_of_keeping_copies():
    task = kg.generate_synthetic_pair(300, 20, 9, emb_dim=60, rng_seed=5)
    cfg = TrainConfig(d_r=20, d_t=20)
    params = training.init_params(task, cfg, np.random.default_rng(0))
    pairs = task.seeds_train
    selfcheck.one_tape_forward(task, params, cfg)  # first-call allocations are not activations
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            f1, f2 = selfcheck.one_tape_forward(task, params, cfg)
            neg1, neg2 = training.refresh_negatives(f1.data, f2.data, pairs, cfg.neg_k)
            loss = training.alignment_loss(f1, f2, pairs, neg1, neg2, cfg.margin)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 0.4 * _RETAINED_KEEPING_COPIES
    tape.backward(loss)


# tracemalloc peak bytes of the fit below when one tape held both graphs'
# passes and the loss (numpy 2.4)
_FIT_PEAK_ONE_TAPE = 20_669_929


def test_fit_peak_is_at_most_85_percent_of_one_tape():
    # graph 1's activations are taped only after the loss and graph 2 are swept
    task = kg.generate_synthetic_pair(300, 20, 9, emb_dim=60, rng_seed=5)
    cfg = TrainConfig(d_r=20, d_t=20, epochs=2)
    training.forward(task, training.init_params(task, cfg, np.random.default_rng(0)), cfg)
    tracemalloc.start()
    try:
        training.fit(task, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.85 * _FIT_PEAK_ONE_TAPE


def test_fit_step_reruns_graph_one_head_then_body_within_taped_pass_peak(monkeypatch):
    # graph 1 is two checkpoints recorded before graph 2, so the sweep
    # re-runs each stage on a nested tape of its own once the loss and
    # graph 2 are swept: no stage meets graph 2's tape or another stage's
    task = kg.generate_synthetic_pair(300, 20, 9, emb_dim=60, rng_seed=5)
    cfg = TrainConfig(d_r=20, d_t=20, epochs=1)
    training.forward(task, training.init_params(task, cfg, np.random.default_rng(0)), cfg)
    marks = []  # (event, output width, peak since the previous mark)
    real_backward = ad.Tape.backward

    def marking(tape, output, grad=None):
        def mark(event):
            marks.append((event, output.data.shape[1:], tracemalloc.get_traced_memory()[1]))
            tracemalloc.reset_peak()

        mark("start")
        real_backward(tape, output, grad)
        mark("end")

    monkeypatch.setattr(ad.Tape, "backward", marking)
    tracemalloc.start()
    try:
        training.fit(task, cfg)
    finally:
        tracemalloc.stop()
    head, body = (2 * task.emb_dim,), (task.emb_dim,)
    assert [mark[:2] for mark in marks] == [
        ("start", ()), ("start", head), ("end", head), ("start", body), ("end", body), ("end", ())
    ]
    # the taped pass with the loss; graph 2's sweep and the head's re-run;
    # the head's sweep; the body's re-run; the body's sweep; the rest
    taped_pass, _, head_sweep, body_rerun, body_sweep, _ = (mark[2] for mark in marks)
    assert max(head_sweep, body_rerun, body_sweep) <= 1.05 * taped_pass, marks
    assert head_sweep < body_sweep, marks


def test_concat_rebuild_equals_the_joined_array(rng):
    source = ad.Tensor(rng.normal(size=(500, 40)), requires_grad=True)
    rows = rng.integers(0, 500, size=3000)
    with ad.Tape():
        joined = ad.concat(*(ad.take_rows(source, rows) for _ in range(3)))
    np.testing.assert_array_equal(ad._saved(joined)(), joined.data)


def test_backward_empty_tape_errors():
    with ad.Tape() as tape:
        pass
    with pytest.raises(ValueError):
        tape.backward(ad.Tensor(1.0))


def test_no_tape_means_no_recording():
    x = ad.Tensor([1.0], requires_grad=True)
    y = x * 3.0
    assert not y.requires_grad and y.grad is None


def in_two_threads(*fns):
    """Run each function on a thread of its own; re-raise a thread's error."""
    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(fn) for fn in fns]
        return [future.result() for future in futures]


def test_threads_record_on_tapes_of_their_own(rng):
    both_open = threading.Barrier(2, timeout=10)
    xs = [ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2)]

    def record(x):
        with ad.Tape() as tape:
            both_open.wait()
            loss = ad.reduce_sum(x * x)
            both_open.wait()  # neither tape closes before both have recorded
        ops = [op[0] for op in tape.ops]
        tape.backward(loss)
        return ops

    ops = in_two_threads(lambda: record(xs[0]), lambda: record(xs[1]))
    for x, inputs in zip(xs, ops):
        assert inputs[0] == (x._node, x._node) and len(inputs) == 2
        np.testing.assert_array_equal(x.grad, 2 * x.data)


def test_checkpoint_leaves_another_threads_tape_recording(rng):
    # thread B opens its tape, thread A's checkpoint runs fn off A's tape,
    # and B records while fn runs
    step = threading.Barrier(2, timeout=10)
    x, y = (ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
    calls = []

    def fn(a):
        if not calls:  # the sweep re-runs fn, after thread B is done
            step.wait()  # fn runs
            step.wait()  # B has recorded
        calls.append(a)
        return ad.tanh(a)

    def thread_a():
        step.wait()  # B's tape is open
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.checkpoint(fn, x))
        tape.backward(loss)

    def thread_b():
        with ad.Tape() as tape:
            step.wait()
            step.wait()
            out = ad.reduce_sum(y * y)
            step.wait()
        assert out.requires_grad
        tape.backward(out)

    in_two_threads(thread_a, thread_b)
    assert len(calls) == 2
    np.testing.assert_allclose(x.grad, 1 - np.tanh(x.data) ** 2, rtol=1e-15)
    np.testing.assert_array_equal(y.grad, 2 * y.data)


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_gradients_equal_the_plain_call(rng):
    # chained as graph 1 in a training pass, the first output also read outside
    x, w, v = (ad.Tensor(rng.normal(size=s), requires_grad=True)
               for s in ((5, 4), (4, 4), (4, 3)))
    c = rng.normal(size=(5, 3))

    def grads(call):
        with ad.Tape() as tape:
            h = call(lambda a: ad.tanh(a @ w), x)
            out = call(lambda a: ad.absval(a @ v), h)
            loss = ad.reduce_sum(out * c) + ad.reduce_sum(h * h)
        tape.backward(loss)
        got = [t.grad for t in (x, w, v)]
        ad.zero_grads((x, w, v))
        return got

    for got, want in zip(grads(ad.checkpoint), grads(lambda fn, a: fn(a))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("checkpointed", [True, False])
def test_checkpoint_frees_what_fn_made(rng, checkpointed):
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    refs = []

    def fn(a):
        hidden = ad.tanh(a)  # kept by tanh's and mul's backward rules on a tape
        refs.append(weakref.ref(hidden.data))
        return hidden * hidden

    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.checkpoint(fn, x) if checkpointed else fn(x))
    assert (refs[0]() is None) == checkpointed
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2))
    assert len(refs) == 1 + checkpointed  # the sweep re-ran fn


def test_checkpoint_off_a_tape_is_a_plain_call(rng):
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    calls = []

    def fn(a):
        calls.append(a)
        return ad.tanh(a)

    y = ad.checkpoint(fn, x)
    assert calls == [x] and not y.requires_grad and y.grad is None
    np.testing.assert_array_equal(y.data, np.tanh(x.data))


def test_checkpoint_on_an_input_needing_no_gradient_errors(rng):
    # no op would be recorded, so w's gradient would be lost silently
    w = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with ad.Tape(), pytest.raises(ValueError, match="needs no gradient"):
        ad.checkpoint(lambda a: a @ w, ad.Tensor(rng.normal(size=(4, 3))))


# ----------------------------------------------------------------- fd_check


def test_fd_check_linear_is_exact(rng):
    w = rng.normal(size=(5,))
    x = ad.Tensor(rng.normal(size=(5,)), requires_grad=True)
    err = ad.fd_check(lambda *_: ad.reduce_sum(x * w), [x])
    assert err < 1e-9


def test_fd_check_constant_function():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    err = ad.fd_check(lambda *_: ad.Tensor(5.0), [x])
    assert err == 0.0


# --------------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_params_and_decays_moments():
    p = np.array([1.0, -2.0])
    state = ad.AdamState()
    ad.adam_step([p], [np.array([1.0, 1.0])], state, lr=0.1)
    moved = p.copy()
    m_before = state.m[0].copy()
    ad.adam_step([p], [np.zeros(2)], state, lr=0.0)
    np.testing.assert_array_equal(p, moved)
    np.testing.assert_allclose(state.m[0], 0.9 * m_before, atol=1e-15)


def test_adam_first_step_is_signed_lr():
    # closed form: with m=v=0 and gradient g, the first update is
    # -lr * g / (|g| + eps) which is -lr*sign(g) for |g| >> eps
    p = np.array([1.0, 1.0, 1.0])
    g = np.array([0.5, -2.0, 3.0])
    ad.adam_step([p], [g], ad.AdamState(), lr=0.01)
    np.testing.assert_allclose(p, 1.0 - 0.01 * np.sign(g), atol=1e-8)


def test_adam_converges_on_quadratic():
    x = np.array([0.0])
    state = ad.AdamState()
    for _ in range(200):
        grad = 2.0 * (x - 3.0)
        ad.adam_step([x], [grad], state, lr=0.1)
    assert abs(x[0] - 3.0) < 0.1


# ------------------------------------------------------------ other pieces


def test_take_rows_gradient_accumulates_duplicates():
    x = ad.Tensor([[1.0], [2.0]], requires_grad=True)
    (g,) = grad_of(lambda: ad.reduce_sum(ad.take_rows(x, [0, 0, 1])), x)
    np.testing.assert_array_equal(g, [[2.0], [1.0]])


def test_take_rows_out_of_range():
    with pytest.raises(IndexError):
        ad.take_rows(ad.Tensor(np.zeros((2, 2))), [0, 2])


def test_reduce_sum_axis(rng):
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3,))
    err = ad.fd_check(lambda *_: ad.reduce_sum(ad.reduce_sum(x, axis=1) * w), [x])
    assert err < 1e-8


def test_gradient_suite_randomized(rng):
    # tape gradients match central differences across stacked random trials
    for _ in range(20):
        x = ad.Tensor(rng.uniform(0.2, 1.0, size=(4, 3)) * rng.choice([-1, 1], (4, 3)),
                      requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        seg = Segments(rng.integers(0, 3, size=4), 3)

        def fn(*_):
            h = ad.leaky_relu(ad.matmul(x, w))
            s = ad.segment_sum(h, seg)
            return ad.reduce_sum(ad.sigmoid(s) * ad.tanh(s))

        assert ad.fd_check(fn, [x, w]) < 1e-4


# ------------------------------------------------------- grouped attention


def _composite_attention(query, key, value, seg, attn_vec):
    """The eight-op chain that ``ad.grouped_attention`` fuses, with one
    ``take_rows`` per distinct gather, made in operand order."""
    made = []

    def rows(op):
        if not isinstance(op, tuple):
            return op
        for pair, gathered in made:
            if pair is op:
                return gathered
        made.append((op, ad.take_rows(*op)))
        return made[-1][1]

    q, k, v = rows(query), rows(key), rows(value)
    logits = testlib.reshape(ad.matmul(ad.concat(q, k), attn_vec), (-1,))
    weights = testlib.segment_softmax(ad.leaky_relu(logits), seg)
    return ad.segment_sum(testlib.reshape(weights, (-1, 1)) * v, seg)


# (query, key, value) of each attention call site, from entity rows x, two
# per-row tensors p and r, and two gathers of x; seg is the first gather's
_ATTENTION_SITES = {
    "role_aware": lambda x, p, r, centers, others: (p, r, p),
    "mutual_fwd": lambda x, p, r, centers, others: (p, r, p),
    "mutual_rev": lambda x, p, r, centers, others: (r, p, r),
    "attention_enhance": lambda x, p, r, centers, others: (p, centers, p),
    "neighbor_reaggregate": lambda x, p, r, centers, others: (centers, others, others),
}


@pytest.mark.parametrize("width", [1, 6, 7, 64])
@pytest.mark.parametrize("site", sorted(_ATTENTION_SITES))
def test_grouped_attention_is_bitwise_the_composite(site, width):
    # entity 0 heads one row and entities 6, 7 none; every leaf already holds
    # a gradient, so adding the contributions in another order shows
    rng = np.random.default_rng(width)
    n, rows = 8, 30
    seg = Segments(np.concatenate([[0], rng.integers(1, 6, size=rows - 1)]), n)
    others = Segments(rng.integers(0, n, size=rows), n)
    arrays = {"x": rng.normal(size=(n, width)), "p": rng.normal(size=(rows, width)),
              "r": rng.normal(size=(rows, width)), "a": rng.normal(size=(2 * width, 1))}
    held = {name: rng.normal(size=value.shape) for name, value in arrays.items()}
    w_out = rng.normal(size=(n, width))

    def run(op):
        leaves = {name: ad.Tensor(value.copy(), requires_grad=True)
                  for name, value in arrays.items()}
        for name, leaf in leaves.items():
            leaf.grad = held[name].copy()
        x = leaves["x"]
        operands = _ATTENTION_SITES[site](x, leaves["p"], leaves["r"], (x, seg), (x, others))
        with ad.Tape() as tape:
            out = op(*operands, seg, leaves["a"])
            loss = ad.reduce_sum(out * w_out)
        tape.backward(loss)
        return out.data, {name: leaf.grad for name, leaf in leaves.items()}

    fused_out, fused_grads = run(ad.grouped_attention)
    want_out, want_grads = run(_composite_attention)
    assert np.array_equal(fused_out, want_out)
    np.testing.assert_array_equal(want_out[6:], 0.0)
    for name in arrays:
        assert np.array_equal(fused_grads[name], want_grads[name]), name


def test_grouped_attention_rejects_mismatched_operands():
    seg = Segments([0, 1, 1], 2)
    rows3, a = ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones((4, 1)))
    with pytest.raises(ad.DimensionError, match="grouped_attention"):
        ad.grouped_attention(rows3, ad.Tensor(np.ones((2, 2))), rows3, seg, a)
    with pytest.raises(ad.DimensionError, match="grouped_attention"):
        ad.grouped_attention(rows3, rows3, rows3, seg, ad.Tensor(np.ones((3, 1))))


@pytest.mark.parametrize("role", [0, 1, 2])
def test_gathers_reject_segments_over_another_row_count(role):
    # a scatter over 4 segments would hand the 5-row tensor a 4-row gradient
    x, four = ad.Tensor(np.ones((5, 2)), requires_grad=True), Segments([0, 3, 3], 4)
    with pytest.raises(ad.DimensionError, match="take_rows"):
        ad.take_rows(x, four)
    operands = [ad.Tensor(np.ones((3, 2)))] * 3
    operands[role] = (x, four)
    with pytest.raises(ad.DimensionError, match="grouped_attention"):
        ad.grouped_attention(*operands, Segments([0, 1, 1], 2), ad.Tensor(np.ones((4, 1))))


def test_grouped_attention_peak_is_under_125_percent_of_logits_buffer(rng):
    # the neighbour call's shape: a gathered query, key and value one gather
    n, rows, d = 400, 4000, 64
    x = ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    src = Segments(np.sort(rng.integers(0, n, size=rows)), n)
    neighbors = (x, Segments(rng.integers(0, n, size=rows), n))
    attn_vec = ad.Tensor(0.1 * rng.normal(size=(2 * d, 1)), requires_grad=True)
    seed = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            out = ad.grouped_attention((x, src), neighbors, neighbors, src, attn_vec)
        tape.backward(out, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None and attn_vec.grad is not None
    # the composite's gathers, their concat and its rebuild reach about 2x
    assert peak - before < 1.25 * rows * 2 * d * 8
