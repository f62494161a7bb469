"""Dense-tensor kernel with recorded reverse-mode differentiation.

Every network and loss computation in this package is assembled from the
primitives defined here. Values are float64 throughout so that central
finite differences are a reliable oracle for the adjoints. Forward
evaluation is deterministic: identical inputs give bit-identical outputs.

An operation is recorded only when one of its inputs requires gradients,
so inference on constant inputs builds no graph. `backward` traces the
tape reachable from a scalar loss and replays the adjoints in reverse
visit order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

ACTIVATIONS = ("none", "relu", "sigmoid", "tanh")


class Tensor:
    """Dense float64 array participating in a recorded computation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- elementwise / reductions -------------------------------------------

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    def tanh(self):
        return tanh(self)

    def abs(self):
        return absolute(self)

    def square(self):
        return mul(self, self)

    def sum(self):
        return total(self)

    def mean(self):
        return mean(self)

    def reshape(self, shape):
        return reshape(self, shape)


class Tape:
    """Ordered record of the operations reachable from one output tensor.

    The order is topological (producers before consumers), so replaying
    the adjoints in reverse visit order accumulates exactly the chain-rule
    gradient of the output with respect to every recorded tensor.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, output: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(output, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def replay(self, output: Tensor) -> None:
        grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        for node in reversed(self.nodes):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None:
                    continue
                pid = id(parent)
                grads[pid] = pg if pid not in grads else grads[pid] + pg


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every requires_grad tensor reachable from `loss`."""
    if loss.size != 1:
        raise InputError(f"backward needs a scalar loss, got shape {loss.shape}")
    Tape.trace(loss).replay(loss)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# -- helpers ------------------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise primitives ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _record(-a.data, (a,), lambda g: (-g,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    return _record(a.data * mask, (a,), lambda g: (g * mask,))


def _logistic(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-x) -> inf for x << 0 gives s == 0 exactly
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    s = _logistic(a.data)
    return _record(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    t = np.tanh(a.data)
    return _record(t, (a,), lambda g: (g * (1.0 - t * t),))


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)
    return _record(np.abs(a.data), (a,), lambda g: (g * sign,))


def total(a) -> Tensor:
    a = _as_tensor(a)
    return _record(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def mean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.size
    return _record(
        a.data.mean(), (a,), lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),)
    )


# -- structural primitives -----------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise InputError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise InputError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    # no gradient for a constant operand, such as conv1d's (L*k, L) tap matrix
    return _record(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T if a.requires_grad else None,
                   a.data.T @ g if b.requires_grad else None),
    )


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concatenate(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise InputError("concatenate needs at least one tensor")
    ndim = tensors[0].ndim
    ax = axis if axis >= 0 else axis + ndim
    if not 0 <= ax < ndim:
        raise InputError(f"concatenate axis {axis} out of range for ndim {ndim}")
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or any(
            other[i] != base[i] for i in range(ndim) if i != ax
        ):
            raise InputError(
                f"concatenate extent mismatch off axis {ax}: {base} vs {other}"
            )
    data = np.concatenate([t.data for t in tensors], axis=ax)
    splits = np.cumsum([t.shape[ax] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=ax))

    return _record(data, tensors, vjp)


def pool(a, axis: int, mode: str) -> Tensor:
    """Reduce one axis by max or mean.

    Max routes the gradient to the first maximal element along the axis;
    mean distributes it uniformly.
    """
    a = _as_tensor(a)
    if a.ndim == 0:
        raise InputError("pool needs at least one axis")
    ax = axis if axis >= 0 else axis + a.ndim
    if not 0 <= ax < a.ndim:
        raise InputError(f"pool axis {axis} out of range for shape {a.shape}")
    extent = a.shape[ax]
    if extent == 0:
        raise InputError("pool over an empty axis")
    if mode == "max":
        idx = np.expand_dims(a.data.argmax(axis=ax), ax)

        def vjp(g):
            ga = np.zeros_like(a.data)
            np.put_along_axis(ga, idx, np.expand_dims(g, ax), ax)
            return (ga,)

        return _record(a.data.max(axis=ax), (a,), vjp)
    if mode == "mean":

        def vjp(g):
            return (np.repeat(np.expand_dims(g / extent, ax), extent, axis=ax),)

        return _record(a.data.mean(axis=ax), (a,), vjp)
    raise InputError(f"unknown pool mode {mode!r}")


@lru_cache(maxsize=16)
def _bin_matrix(rows: int, out_len: int) -> np.ndarray:
    """Read-only (out_len, rows) matrix; row i is 1/(e-s) on bin i's rows [s, e)."""
    edges = np.arange(out_len + 1) * rows // out_len
    member = (edges[:-1, None] <= np.arange(rows)) & (np.arange(rows) < edges[1:, None])
    bins = member / member.sum(axis=1, keepdims=True)
    bins.setflags(write=False)
    return bins


def adaptive_mean_rows(a, out_len: int) -> Tensor:
    """Mean-pool the rows of a 2-D tensor into `out_len` floor-formula bins.

    Bin i covers input rows [floor(i*L/out_len), floor((i+1)*L/out_len)).
    Requires out_len <= L so every bin is nonempty.
    """
    a = _as_tensor(a)
    if a.ndim != 2:
        raise InputError(f"adaptive_mean_rows needs a 2-D tensor, got {a.shape}")
    rows = a.shape[0]
    if not 1 <= out_len <= rows:
        raise InputError(f"cannot pool {rows} rows into {out_len} bins")
    return matmul(Tensor(_bin_matrix(rows, out_len)), a)


# -- composite building blocks ---------------------------------------------


def _activate(x: Tensor, activation: str) -> Tensor:
    if activation == "none":
        return x
    if activation == "relu":
        return relu(x)
    if activation == "sigmoid":
        return sigmoid(x)
    if activation == "tanh":
        return tanh(x)
    raise InputError(f"unknown activation {activation!r}")


def affine(x, weight, bias, activation: str = "none") -> Tensor:
    """Fully-connected layer: act(x @ weight + bias)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if activation not in ACTIVATIONS:
        raise InputError(f"unknown activation {activation!r}")
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise InputError(
            f"affine expects (L,C) @ (C,K) + (K,), got {x.shape}, {weight.shape}, {bias.shape}"
        )
    if weight.shape[1] != bias.shape[0]:
        raise InputError(
            f"affine bias width {bias.shape[0]} != output width {weight.shape[1]}"
        )
    return _activate(add(matmul(x, weight), bias), activation)


@lru_cache(maxsize=16)
def _tap_matrix(length: int, k: int, dilation: int) -> np.ndarray:
    """Read-only (length*k, length) 0/1 matrix: row t*k + j selects input row
    t + j*dilation - left, and is zero (the padding) where that row is off the ends."""
    left = (k - 1) * dilation // 2
    source = np.arange(length)[:, None] + np.arange(k) * dilation - left
    taps = (source.reshape(-1, 1) == np.arange(length)).astype(np.float64)
    taps.setflags(write=False)
    return taps


def conv1d(x, weight, bias, dilation: int = 1) -> Tensor:
    """Dilated 1-D convolution over the rows of x with same-zero padding.

    `weight` has shape (k, c_in, c_out); output length equals input length;
    the receptive span per layer is (k-1)*dilation + 1. One GEMM applies
    the (k*c_in, c_out) kernel to each row's k taps, laid side by side.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if weight.ndim != 3:
        raise InputError(f"conv1d weight must be (k, c_in, c_out), got {weight.shape}")
    k, c_in, c_out = weight.shape
    if k < 1:
        raise InputError(f"conv1d kernel size must be >= 1, got {k}")
    if dilation < 1:
        raise InputError(f"conv1d dilation must be >= 1, got {dilation}")
    if x.ndim != 2 or x.shape[1] != c_in:
        raise InputError(
            f"conv1d input {x.shape} does not match weight c_in={c_in}"
        )
    length = x.shape[0]
    if length < 1:
        raise InputError("conv1d needs at least one input row")
    cols = reshape(matmul(Tensor(_tap_matrix(length, k, dilation)), x), (length, k * c_in))
    return add(matmul(cols, reshape(weight, (k * c_in, c_out))), bias)


def lstm_forward(seq, wx, wh, bias) -> Tensor:
    """Single-layer LSTM over the rows of `seq`, emitting every hidden state.

    `seq` is (L, C), one sequence, or (B, L, C): B independent sequences
    (the batch axis) sharing parameters, each stepped along its L rows.
    Returns (L, hidden) or (B, L, hidden). Gate blocks in `wx`/`wh`/`bias`
    are ordered input, forget, candidate, output. Initial hidden and cell
    states are zero; no peepholes. One GEMM projects the inputs of all steps.

    The LSTM is one recorded node. Its adjoint runs backpropagation through
    time by hand, writing every step's gate gradient into one buffer, and
    then forms the `seq`, `wx` and `wh` gradients in one GEMM each and the
    bias gradient in one sum; a constant operand gets no gradient.
    """
    seq, wx, wh, bias = _as_tensor(seq), _as_tensor(wx), _as_tensor(wh), _as_tensor(bias)
    if seq.ndim not in (2, 3) or 0 in seq.shape[:-1]:
        raise InputError(f"lstm_forward expects nonempty (L, C) or (B, L, C) input, got {seq.shape}")
    if wx.ndim != 2 or wh.ndim != 2 or bias.ndim != 1:
        raise InputError("lstm_forward parameter shapes are invalid")
    hidden = wh.shape[0]
    if wx.shape[0] != seq.shape[-1] or wx.shape[1] != 4 * hidden:
        raise InputError(
            f"lstm_forward wx {wx.shape} incompatible with input {seq.shape} and hidden {hidden}"
        )
    if wh.shape[1] != 4 * hidden or bias.shape[0] != 4 * hidden:
        raise InputError("lstm_forward wh/bias widths must be 4*hidden")
    batched = seq.ndim == 3
    b, length, channels = seq.shape if batched else (1, *seq.shape)
    rows = seq.data.reshape(b * length, channels)
    zx = (rows @ wx.data + bias.data).reshape(b, length, 4 * hidden)
    gates = np.empty_like(zx)  # i, f, g, o after their nonlinearities
    cells = np.empty((b, length, hidden))
    tanh_cells = np.empty_like(cells)
    out = np.empty_like(cells)
    h = c = np.zeros((b, hidden))
    for t in range(length):
        z = zx[:, t] + h @ wh.data
        gates[:, t] = _logistic(z)
        gates[:, t, 2 * hidden:3 * hidden] = np.tanh(z[:, 2 * hidden:3 * hidden])
        gate_in, gate_forget, candidate, gate_out = np.split(gates[:, t], 4, axis=1)
        c = cells[:, t] = gate_forget * c + gate_in * candidate
        tanh_cells[:, t] = np.tanh(c)
        h = out[:, t] = gate_out * tanh_cells[:, t]

    def vjp(g_out):
        g_out = g_out.reshape(out.shape)
        dz = np.empty_like(gates)  # gradient of each step's pre-activation gates
        dh = dc = np.zeros((b, hidden))  # carried back from step t + 1
        for t in reversed(range(length)):
            gate_in, gate_forget, candidate, gate_out = np.split(gates[:, t], 4, axis=1)
            tanh_c = tanh_cells[:, t]
            c_prev = cells[:, t - 1] if t else 0.0
            dh = g_out[:, t] + dh
            dc = dh * gate_out * (1.0 - tanh_c * tanh_c) + dc
            dz[:, t] = np.concatenate([
                dc * candidate * gate_in * (1.0 - gate_in),
                dc * c_prev * gate_forget * (1.0 - gate_forget),
                dc * gate_in * (1.0 - candidate * candidate),
                dh * tanh_c * gate_out * (1.0 - gate_out),
            ], axis=1)
            dc = dc * gate_forget
            dh = dz[:, t] @ wh.data.T
        dz_rows = dz.reshape(b * length, 4 * hidden)
        # step 0 sees h = 0, so only steps 1.. contribute to the wh gradient
        h_prev = out[:, :-1].reshape(-1, hidden)
        return (
            (dz_rows @ wx.data.T).reshape(seq.shape) if seq.requires_grad else None,
            rows.T @ dz_rows if wx.requires_grad else None,
            h_prev.T @ dz[:, 1:].reshape(-1, 4 * hidden) if wh.requires_grad else None,
            dz_rows.sum(axis=0) if bias.requires_grad else None,
        )

    return _record(out if batched else out.reshape(length, hidden), (seq, wx, wh, bias), vjp)


# -- verification ------------------------------------------------------------


def parameter_leaves(loss: Tensor) -> list[Tensor]:
    """Leaf tensors with requires_grad reachable from `loss`, in trace order."""
    return [
        node
        for node in Tape.trace(loss).nodes
        if node.requires_grad and not node._parents
    ]


def grad_check(build: Callable[[], Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of build() against central differences.

    `build` must reconstruct the scalar graph from the same persistent
    parameter tensors on every call. Returns the max over all parameter
    elements of |analytic - numeric| / max(1e-8, |numeric|).
    """
    loss = build()
    if loss.size != 1:
        raise InputError("grad_check needs a scalar-valued builder")
    params = parameter_leaves(loss)
    zero_grads(params)
    backward(loss)
    analytic = {id(p): (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for p in params}
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        flat_analytic = analytic[id(p)].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            up = float(build().data)
            flat[i] = saved - eps
            down = float(build().data)
            flat[i] = saved
            numeric = (up - down) / (2.0 * eps)
            err = abs(flat_analytic[i] - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, err)
    zero_grads(params)
    return worst


# -- parameter construction ---------------------------------------------------


def uniform_param(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Trainable tensor drawn uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
