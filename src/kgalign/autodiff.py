"""Reverse-mode automatic differentiation over dense float64 arrays.

Operations record onto the innermost active ``Tape`` (a context manager) of
the calling thread, not of the process, so each thread records on tapes of
its own. Recording order is execution order, which is already topological
for a define-by-run graph, so the backward pass is a single reverse sweep
that visits each recorded node exactly once.

A record holds gradient slots (``_Node``), not tensors, and each backward
rule captures only the arrays and shapes it reads. An intermediate array is
therefore freed as soon as the model code drops it, unless a backward rule
needs it. Only ``matmul``, ``mul``, ``absval``, ``grouped_attention`` and
``checkpoint`` read input arrays, through ``_saved``. The output of a copy
op (``concat``, ``take_rows``) is never kept for them: ``_saved`` hands
back a function that rebuilds it bit for bit from its sources, so the copy
exists again only while the reading rule runs. This needs every source
array unchanged between the forward pass and the sweep; ``adam_step`` and
``fd_check``'s perturbations only run after it. ``checkpoint`` goes
further: it keeps none of a function's activations and re-runs the
function in the sweep.

The sweep consumes the tape: each op record is dropped once its backward
has run, and each intermediate gradient once it has been passed on, so
the peak holds the retained activations but not their gradients too. Only
leaf tensors (those no recorded op produced) keep ``.grad``. A leaf's first
gradient contribution is adopted as its buffer, not copied, so leaf
gradients may share memory with each other: treat them as read-only
(``adam_step`` only reads them).
"""

import threading
from dataclasses import dataclass, field

import numpy as np

from . import kernels


class DimensionError(ValueError):
    """Raised when operand shapes cannot be combined."""


class _Recording(threading.local):
    tape = None  # the calling thread's innermost active Tape


_active = _Recording()


class Tape:
    """Ordered record of operations for one forward pass."""

    def __init__(self):
        # (input nodes, output node, backward) in execution order; an input
        # node is None when that input needs no gradient
        self.ops = []
        self._consumed = False
        self._outer = None

    def __enter__(self):
        self._outer, _active.tape = _active.tape, self
        return self

    def __exit__(self, exc_type, exc, tb):
        _active.tape, self._outer = self._outer, None
        return False

    def backward(self, output, grad=None):
        """Populate ``grad`` on every requires_grad leaf reachable from output.

        Without ``grad`` the output must be a scalar loss, seeded with 1.
        With ``grad`` (an array of the output's shape, such as the gradient
        that reached a ``checkpoint`` op) the sweep starts from it, so a
        pass can be swept after the tape that read its output: leaves then
        receive this tape's contributions after that tape's, added as if
        both had been one tape.

        Consumes the tape: each record is popped, freeing its closure and the
        arrays it captured, and each op output's ``grad`` is reset to ``None``
        once passed on. A leaf's first contribution becomes its gradient
        without a copy and later ones are added into new arrays, so leaf
        gradients may share memory and must be treated as read-only; the
        seed ``grad`` is passed on without a copy too.
        """
        if self._consumed:
            raise RuntimeError("backward already ran on this tape; record a new tape")
        if grad is None:
            if output.data.shape != ():
                raise ValueError(f"loss must be scalar, got shape {output.data.shape}")
            grad = np.ones((), dtype=np.float64)
        elif np.shape(grad) != output.data.shape:
            raise ValueError(
                f"seed gradient has shape {np.shape(grad)}, output has {output.data.shape}"
            )
        if not self.ops:
            raise ValueError("tape is empty; nothing was recorded")
        self._consumed = True
        output.grad = grad
        while self.ops:
            inputs, out_node, backward = self.ops.pop()
            out_grad, out_node.grad = out_node.grad, None
            if out_grad is None:
                continue
            for node, part in zip(inputs, backward(out_grad)):
                if part is None or node is None:
                    continue
                node.grad = part if node.grad is None else node.grad + part
            part = None  # not kept through a later op's nested sweep (``checkpoint``)


class _Node:
    """A tensor's gradient slot: what a tape record keeps of the tensor."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "_node", "_rebuild")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._node = _Node()
        self._rebuild = None  # set on a copy op's output made on a tape

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(data, inputs, backward, rebuild=None):
    """Wrap ``data``; on a tape, record gradient slots, never the tensors.

    ``backward`` must close over only the arrays and shapes it reads, not
    over the input tensors, so that the rest is freed with the model's
    references. A copy op passes ``rebuild``, which returns ``data`` anew;
    on a tape the output keeps it for ``_saved``.
    """
    tape = _active.tape
    out_requires = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=out_requires)
    if tape is not None:
        out._rebuild = rebuild
    if out_requires:
        nodes = tuple(t._node if t.requires_grad else None for t in inputs)
        tape.ops.append((nodes, out._node, backward))
    return out


def _saved(t):
    """A function returning ``t``'s array, for a backward rule to call.

    The one way a rule reads an input array. For a copy op's output it
    rebuilds the array from the op's sources, so the copy is not kept; any
    other array is kept as it is.
    """
    if t._rebuild is not None:
        return t._rebuild
    data = t.data
    return lambda: data


def _unbroadcast(grad, shape):
    # sum the gradient of a broadcast result back down to the operand shape
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(a, b, opname):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise DimensionError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    sa, sb = a.data.shape, b.data.shape
    return _record(
        a.data + b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb))
    )


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    sa, sb = a.data.shape, b.data.shape
    return _record(
        a.data - b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb))
    )


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    xs, ys = _saved(a), _saved(b)
    sa, sb = a.data.shape, b.data.shape
    return _record(
        a.data * b.data, (a, b),
        lambda g: (_unbroadcast(g * ys(), sa), _unbroadcast(g * xs(), sb)),
    )


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    xs, ys = _saved(a), _saved(b)

    def backward(g):
        # b's gradient first, so a rebuilt x is freed before a's is allocated
        grad_b = xs().T @ g
        return g @ ys().T, grad_b

    return _record(a.data @ b.data, (a, b), backward)


def left_matmul(matrix, x):
    """Multiply by a constant matrix (dense or scipy sparse) on the left."""
    x = as_tensor(x)
    if matrix.shape[1] != x.data.shape[0]:
        raise DimensionError(f"left_matmul: {matrix.shape} against {x.data.shape}")
    return _record(matrix @ x.data, (x,), lambda g: (matrix.T @ g,))


def relu(a):
    a = as_tensor(a)
    mask = (a.data > 0) | np.isnan(a.data)  # NaN passes, so it stays visible
    return _record(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


LEAKY_SLOPE = 0.3  # negative-side slope of every attention score
ATTENTION_BLOCK_ROWS = 256  # rows per copy into grouped_attention's logits buffer


def _leaky(x):
    # leaky_relu's value and backward rule, which keeps only the mask
    mask = x > 0
    return np.where(mask, x, LEAKY_SLOPE * x), lambda g: g * np.where(mask, 1.0, LEAKY_SLOPE)


def leaky_relu(a):
    a = as_tensor(a)
    out, rule = _leaky(a.data)
    return _record(out, (a,), lambda g: (rule(g),))


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _record(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a):
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _record(out, (a,), lambda g: (g * out * (1.0 - out),))


def absval(a):
    a = as_tensor(a)
    xs = _saved(a)
    return _record(np.abs(a.data), (a,), lambda g: (g * np.sign(xs()),))


def concat(*parts):
    """Join tensors along the last axis; each part's gradient is a view of ``g``."""
    parts = [as_tensor(p) for p in parts]
    shapes = [p.data.shape for p in parts]
    if len({s[:-1] for s in shapes}) > 1:
        raise DimensionError(f"concat: shapes {', '.join(map(str, shapes))} differ "
                             "before the last axis")
    splits = np.cumsum([s[-1] for s in shapes])[:-1]
    sources = [_saved(p) for p in parts]
    return _record(np.concatenate([p.data for p in parts], axis=-1), parts,
                   lambda g: np.split(g, splits, axis=-1),
                   lambda: np.concatenate([source() for source in sources], axis=-1))


def take_rows(a, rows):
    """Gather rows (axis 0) by a ``kernels.Segments`` over ``a``'s rows or an
    index array, wrapped into one here; the backward scatter-adds duplicates."""
    a = as_tensor(a)
    if not isinstance(rows, kernels.Segments):
        rows = kernels.Segments(rows, a.data.shape[0])
    if rows.num_segments != a.data.shape[0]:
        raise DimensionError(f"take_rows: {rows.num_segments} segments over {a.data.shape[0]} rows")
    ids, source = rows.ids, _saved(a)
    return _record(
        a.data[ids], (a,),
        lambda g: (kernels.segment_sum(g, rows),),
        lambda: source()[ids],
    )


def reduce_sum(a, axis=None):
    a = as_tensor(a)
    shape = a.data.shape

    def backward(g):
        kept = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(kept, shape).copy(),)

    return _record(np.sum(a.data, axis=axis), (a,), backward)


def _softmax(logits, seg):
    # softmax within each segment of ``seg``, stabilized by the segment's
    # maximum, and its backward rule, which keeps the value
    exp = np.exp(logits - kernels.segment_max(logits, seg)[seg.ids])
    out = exp / kernels.segment_sum(exp, seg)[seg.ids]

    def backward(g):
        # within each segment: dL/dz = out * (g - sum(g * out))
        inner = kernels.segment_sum(g * out, seg)
        return out * (g - inner[seg.ids])

    return out, backward


def segment_sum(values, seg):
    """Sum value rows into the buckets of ``seg``; empty segments are zero."""
    values = as_tensor(values)
    return _record(
        kernels.segment_sum(values.data, seg), (values,), lambda g: (g[seg.ids],)
    )


def grouped_attention(query, key, value, seg, attn_vec):
    """GAT-style softmax-within-group aggregation of ``value`` rows as one
    tape record, bitwise equal to the take_rows, concat, matmul, leaky_relu,
    segment softmax, mul, segment_sum chain; see ``oracles.grouped_attention``.
    Logits are ``leaky_relu((query ‖ key) @ attn_vec)``, normalized within each
    group of ``seg``. An operand is a tensor with a row per ``seg`` id or a
    ``(tensor, Segments)`` pair that the op gathers, once per pair object.
    """
    operands = (query, key, value)
    tensors, gathers = zip(*(op if isinstance(op, tuple) else (op, None) for op in operands))
    attn_vec, n = as_tensor(attn_vec), len(seg.ids)
    sizes = [len(t.data) for t in tensors]
    counts = [s if g is None else len(g.ids) for s, g in zip(sizes, gathers)]
    spans = [s if g is None else g.num_segments for s, g in zip(sizes, gathers)]
    dq, dk = (t.data.shape[-1] for t in tensors[:2])
    if counts != [n] * 3 or spans != sizes or attn_vec.data.shape != (dq + dk, 1):
        raise DimensionError(f"grouped_attention: rows {counts}, {n} ids, gathers over {spans} "
                             f"of {sizes} rows, attn {attn_vec.data.shape}")
    sources, attn_data = [_saved(t) for t in tensors], _saved(attn_vec)

    def rows_of(r, data, block=np.s_[:]):  # a gathered operand's rows are a new array
        return data[block] if gathers[r] is None else data[gathers[r].ids[block]]

    def logit_rows():
        # (query ‖ key), filled in blocks so that a gather's copy stays small
        buf, q_data, k_data = np.empty((n, dq + dk)), sources[0](), sources[1]()
        for lo in range(0, n, ATTENTION_BLOCK_ROWS):
            block = np.s_[lo:lo + ATTENTION_BLOCK_ROWS]
            buf[block, :dq], buf[block, dq:] = rows_of(0, q_data, block), rows_of(1, k_data, block)
        return buf

    scores, leaky_grad = _leaky((logit_rows() @ attn_vec.data).reshape(-1))
    weights, softmax_grad = _softmax(scores, seg)
    weighted = rows_of(2, tensors[2].data) * weights[:, None]
    out = kernels.segment_sum(weighted, seg)

    # attn_vec, then the composite's order: value, query, key, then one scatter
    # per gather, last gathered first, of its roles' gradients summed in that order
    order = (2, 0, 1)
    firsts = [r for r in range(3)
              if gathers[r] is not None and not any(operands[s] is operands[r] for s in range(r))]
    slots = [[r] for r in order if gathers[r] is None]
    slots += [[s for s in order if operands[s] is operands[r]] for r in reversed(firsts)]

    def backward(g):
        g_rows = g[seg.ids] * rows_of(2, sources[2]())
        g_weights = _unbroadcast(g_rows, (n, 1)).reshape(-1)
        del g_rows  # before the buffer is rebuilt
        g_logits = leaky_grad(softmax_grad(g_weights)).reshape(-1, 1)
        halves = np.split(attn_data(), [dq])

        def role_grad(r):  # query's and key's entries are one product each, as in g @ aᵀ
            return g_logits @ halves[r].T if r < 2 else g[seg.ids] * weights[:, None]

        parts = [logit_rows().T @ g_logits]
        for slot in slots:
            total = role_grad(slot[0])
            for r in slot[1:]:
                total += role_grad(r)
            rows = gathers[slot[0]]
            parts.append(total if rows is None else kernels.segment_sum(total, rows))
        return parts

    return _record(out, [attn_vec] + [tensors[slot[0]] for slot in slots], backward)


def checkpoint(fn, x):
    """``fn(x)`` recorded as one op that re-runs ``fn`` in the sweep, so the
    tape keeps none of ``fn``'s activations (gradient checkpointing, Chen et
    al. 2016, arXiv:1604.06174). Off a tape it is a plain call.

    The op's backward re-runs ``fn(x)`` on a tape of its own and sweeps it
    from the output's gradient; that sweep leaves gradients on ``x``'s node
    and on every leaf ``fn`` reads, in the order one tape would. ``fn`` must
    be deterministic and read only arrays left unchanged until the sweep.
    """
    tape = _active.tape
    if tape is None:
        return fn(x)
    if not x.requires_grad:
        raise ValueError("checkpoint: x needs no gradient, so no op would be recorded "
                         "and the gradients of what fn reads would be lost")
    _active.tape = None
    try:
        out = fn(x).data
    finally:
        _active.tape = tape
    node, source = x._node, _saved(x)

    def backward(g):
        rerun_x = Tensor(source(), requires_grad=True)
        rerun_x._node = node
        with Tape() as tape:
            rerun = fn(rerun_x)
        tape.backward(rerun, g)
        return ()

    return _record(out, (x,), backward)


# ------------------------------------------------------------- verification


FD_EPS = 1e-5  # central-difference step


def fd_check(forward_fn, inputs):
    """Compare tape gradients of a scalar function against central differences.

    Returns the maximum over all input components of
    ``|g_ad - g_fd| / max(1, |g_fd|)``, or inf when any analytic or numeric
    gradient component is not finite.
    """
    with Tape() as tape:
        loss = forward_fn(*inputs)
    if tape.ops and loss.requires_grad:
        tape.backward(loss)

    worst = 0.0
    for tensor in inputs:
        if not tensor.requires_grad:
            continue
        g_ad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not tensor.data.flags["C_CONTIGUOUS"]:
            tensor.data = np.ascontiguousarray(tensor.data)
        flat = tensor.data.reshape(-1)  # view; perturbations hit tensor.data
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            f_plus = float(forward_fn(*inputs).data)
            flat[i] = orig - FD_EPS
            f_minus = float(forward_fn(*inputs).data)
            flat[i] = orig
            g_fd = (f_plus - f_minus) / (2.0 * FD_EPS)
            err = abs(g_ad.reshape(-1)[i] - g_fd) / max(1.0, abs(g_fd))
            # max() would drop a NaN error
            worst = max(worst, err) if np.isfinite(err) else np.inf
        tensor.grad = None
    return worst


# --------------------------------------------------------------- optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers keyed by parameter position."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params, grads, state, lr):
    """One adaptive-moment update; mutates `params` arrays in place."""
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must align")
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            g = np.zeros_like(p)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ------------------------------------------------------------ initializers


def glorot(rng, rows, cols):
    """Variance-preserving uniform init for a projection matrix."""
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


UNIFORM_BOUND = 0.1  # half-width of every attention vector's init


def uniform_vec(rng, size):
    return Tensor(rng.uniform(-UNIFORM_BOUND, UNIFORM_BOUND, size=size), requires_grad=True)


def zeros_param(shape):
    return Tensor(np.zeros(shape), requires_grad=True)
