"""Dense tensors with reverse-mode differentiation.

numpy supplies the raw array arithmetic; this module adds graph recording
and the vector-Jacobian products for every primitive the model needs.
Tensors take the process default dtype, float64 unless
``set_default_dtype`` says otherwise, so gradient checks and tensors
built directly have double-precision headroom; whether ops record a
graph (``no_grad``) is set per thread. Training and evaluation run in
float32 by default: ``vld.train.configured_precision`` makes the run's
``train.precision`` (``single`` unless a config says ``double``) the
default for the run only; ``vld.hub.VideoModel.forward`` decodes the
stored uint8 frames into it. Retrieval ranks in float64 whatever the
model's precision.

Backward consumes its graph. As it passes each non-leaf node it drops
the node's parents and VJP, and with them the buffers the VJP kept, so a
step's graph is freed during its backward rather than when the caller
drops the loss; a second backward through a consumed graph raises
``ContractError``. Only leaves receive ``.grad``. Gradients accumulate by
summation across multiple uses of a tensor and across backward calls over
fresh graphs; callers zero them explicitly between steps.

Each node keeps only what its VJP cannot cheaply recompute (selective
activation recomputation): matrix-product outputs stay, cheap elementwise
buffers are recomputed in backward by the same operations the forward ran,
so gradients are unchanged bit for bit. ``mlp`` keeps its pre-activation
and ``layer_norm`` its per-row mean and inverse deviation; ``attention``
keeps its projections, probabilities and mixed values, and concatenates a
shared projection weight again in backward. The VJPs of the products
(``matmul``, ``linear``, ``mlp``, ``attention``) and of ``layer_norm``
return None for a parent that requires no gradient, and skip its work.
No op writes into its inputs, so ``getitem`` returns a view and a VJP
may read its parents' data.

Numerics contract of the fused nodes (``mlp``, ``attention``): the forward
runs the same floating-point operations in the same order as the
composition of single ops it replaces, so it is bit-identical to it, and
the gradients agree with the composition's within 1e-12 relative error.
They differ by rounding only: the attention backward sums the projections
of a shared input in one product, and the GELU derivative recovers tanh
from the 1 + tanh buffer. Given ``residual``, each adds it into its own
output, bit-identical to ``residual + node(...)``. ``tests/reference.py``
holds the composition.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

_DEFAULT_DTYPE = np.float64

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715
_LN_EPS = 1e-5


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    if dtype not in (np.float64, np.float32):
        raise ConfigError(f"unsupported default dtype: {dtype!r}")
    _DEFAULT_DTYPE = dtype


def default_dtype():
    return _DEFAULT_DTYPE


class _GradMode(threading.local):
    """Whether ops record graph nodes, per thread: a ``no_grad`` block in
    one thread leaves recording in every other thread as it was."""

    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph recording in the calling thread."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- autodiff core ------------------------------------------------------

    def backward(self) -> None:
        """Accumulate this scalar's gradient into every leaf reaching it.

        Backward consumes its graph: each non-leaf node drops its parents
        and its VJP, with the buffers the VJP kept, once it is passed, so
        a second backward through it raises ``ContractError``. Only leaves
        (tensors built with ``requires_grad``) receive ``.grad``; it sums
        across backward calls over fresh graphs until zeroed.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise ContractError("backward() on a tensor with no gradient path")

        topo: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        # Accumulation is out-of-place: vjp outputs may alias their input
        # gradient (or each other, as in add), so in-place += could corrupt
        # a sibling's pending buffer. Popping topo drops each node as soon
        # as it is passed.
        pending = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = pending.pop(id(node), None)
            vjp = node._vjp
            if vjp is None:
                if g is not None:
                    # Leaves get their own buffer; callers treat .grad as owned.
                    node.grad = (np.array(g, copy=True) if node.grad is None
                                 else node.grad + g)
                continue
            parents = node._parents
            node._parents, node._vjp = (), _released
            if g is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if id(parent) in pending:
                    pending[id(parent)] = pending[id(parent)] + pg
                else:
                    pending[id(parent)] = pg

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(as_tensor(other)))

    def __rsub__(self, other):
        return add(as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self) -> "Tensor":
        return tmean(self)


def _released(g):
    """The VJP of a node that an earlier backward already passed."""
    raise ContractError("backward() through a graph an earlier backward() "
                        "already consumed")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(parents) -> bool:
    """Whether an op on ``parents`` becomes a graph node."""
    return _GRAD_MODE.enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _records(parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape`` by summation."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _make(data, (a, b), vjp)


def texp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,))


def tsqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)
    return _make(data, (a,), lambda g: (g * 0.5 / data,))


def softplus(a) -> Tensor:
    """log(1 + exp(x)), overflow-safe in both directions."""
    a = as_tensor(a)
    data = np.logaddexp(0.0, a.data)

    def vjp(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * a.data))
        return (g * sig,)

    return _make(data, (a,), vjp)


def clamp_max(a, cap: float) -> Tensor:
    """min(x, cap); zero gradient wherever the cap binds."""
    a = as_tensor(a)
    data = np.minimum(a.data, cap)
    mask = (a.data < cap).astype(a.data.dtype)
    return _make(data, (a,), lambda g: (g * mask,))


# -- shape manipulation ----------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    data = a.data.reshape(shape)
    return _make(data, (a,), lambda g: (g.reshape(old),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = np.transpose(a.data, axes)
    return _make(data, (a,), lambda g: (np.transpose(g, inverse),))


def swap_axes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    perm = list(range(a.data.ndim))
    perm[ax1], perm[ax2] = perm[ax2], perm[ax1]
    return transpose(a, perm)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    data = np.broadcast_to(a.data, shape)
    return _make(data, (a,), lambda g: (_unbroadcast(g, old),))


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, tuple(tensors), vjp)


def getitem(a, idx) -> Tensor:
    """Basic slicing. The output's data is a view of the input's, which is
    safe because no op writes into its inputs."""
    a = as_tensor(a)
    if isinstance(idx, (np.ndarray, list)):
        raise ShapeError("only basic slicing is supported")
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _make(np.asarray(a.data[idx]), (a,), vjp)


# -- reductions -------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(data, (a,), vjp)


def sorted_mean(a, axis: int) -> Tensor:
    """Mean over ``axis`` accumulated in value-sorted order.

    Sorting makes the reduction bit-identical under any permutation along
    the reduced axis; the gradient is the usual uniform 1/n either way.
    """
    a = as_tensor(a)
    n = a.data.shape[axis]
    data = np.sort(a.data, axis=axis).sum(axis=axis) / n
    shape = a.data.shape

    def vjp(g):
        g = np.expand_dims(g, axis) / n
        return (np.broadcast_to(g, shape).copy(),)

    return _make(data, (a,), vjp)


def tmean(a) -> Tensor:
    """The mean of every element."""
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.data.size)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul needs 2-d or higher operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}"
        )
    data = a.data @ b.data

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _make(data, (a, b), vjp)


def linear(x, w, b) -> Tensor:
    """x @ w + b over the last axis, flattened to a single 2-D product."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(
            f"linear inner extents differ: {x.data.shape} @ {w.data.shape}"
        )
    lead = x.data.shape[:-1]
    d, h = w.data.shape
    x2 = np.ascontiguousarray(x.data.reshape(-1, d))
    out = x2 @ w.data
    out += b.data
    data = out.reshape(*lead, h)

    def vjp(g):
        g2 = g.reshape(-1, h)
        gx = (g2 @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        gb = g2.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _make(data, (x, w, b), vjp)


# -- fused numeric primitives -------------------------------------------------


def logsumexp(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    data = np.log(np.exp(a.data - m).sum(axis=axis, keepdims=True)) + m
    soft = np.exp(a.data - data)

    def vjp(g):
        return (np.expand_dims(g, axis) * soft,)

    return _make(data.squeeze(axis), (a,), vjp)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Backward keeps the per-row mean and inverse deviation ([..., 1]) and
    recomputes the normalized input from the input its parent holds.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        xhat = x.data - mu
        xhat *= inv
        dx = dgain = dbias = None
        if x.requires_grad:
            dxhat = g * gain.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        if gain.requires_grad:
            dgain = (g * xhat).sum(axis=lead)
        if bias.requires_grad:
            dbias = g.sum(axis=lead)
        return dx, dgain, dbias

    return _make(data, (x, gain, bias), vjp)


# -- fused layer nodes --------------------------------------------------------


def _add_residual(out: np.ndarray, residual: Tensor) -> None:
    """Add ``residual`` into a node's fresh output in place."""
    if residual.data.shape != out.shape:
        raise ShapeError(f"residual {residual.data.shape} does not match "
                         f"the output {out.shape}")
    out += residual.data


def _gelu_gate(pre: np.ndarray) -> np.ndarray:
    """1 + tanh(C (pre + K pre^3)), the tanh GELU's gate, as an in-place
    chain; the same operations in forward and backward give the same bits."""
    t = pre * pre
    t *= _GELU_K
    t *= pre
    t += pre
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    return t


def mlp(x, w1, b1, w2, b2, residual=None) -> Tensor:
    """linear -> GELU (tanh approximation) -> linear over the last axis,
    plus ``residual`` when given.

    One node for the whole MLP. The GELU runs as an in-place chain, and
    backward keeps only the pre-activation: it re-runs the chain on it.
    ``residual``, of the output's shape, is added into the output in place
    and receives the output's gradient, as ``add`` would give it.
    """
    parents = tuple(as_tensor(t) for t in (x, w1, b1, w2, b2))
    if residual is not None:
        parents += (as_tensor(residual),)
    x, w1, b1, w2, b2 = parents[:5]
    d, hidden = w1.data.shape
    if x.data.shape[-1] != d or w2.data.shape[0] != hidden:
        raise ShapeError(
            f"mlp extents differ: {x.data.shape} @ {w1.data.shape} "
            f"@ {w2.data.shape}"
        )
    out_dim = w2.data.shape[1]
    x2 = np.ascontiguousarray(x.data.reshape(-1, d))
    pre = x2 @ w1.data
    pre += b1.data
    gate = _gelu_gate(pre)
    # Without a graph the pre-activation is dead here: scale it in place.
    act = pre * 0.5 if _records(parents) else np.multiply(pre, 0.5, out=pre)
    act *= gate
    del gate
    out = act @ w2.data
    out += b2.data
    out = out.reshape(*x.data.shape[:-1], out_dim)
    if residual is not None:
        _add_residual(out, parents[5])

    def vjp(g):
        g2 = g.reshape(-1, out_dim)
        gate = _gelu_gate(pre)
        gw2 = None
        if w2.requires_grad:
            act = pre * 0.5
            act *= gate
            gw2 = act.T @ g2
            del act
        gb2 = g2.sum(axis=0) if b2.requires_grad else None
        # d gelu / d pre, with sech^2 = 1 - tanh^2.
        local = pre * pre
        local *= 3.0 * _GELU_K
        local += 1.0
        local *= _GELU_C
        sech2 = gate - 1.0
        sech2 *= sech2
        np.subtract(1.0, sech2, out=sech2)
        local *= sech2
        local *= pre
        local += gate
        local *= 0.5
        local *= g2 @ w2.data.T
        gx = (local @ w1.data.T).reshape(x.data.shape) if x.requires_grad else None
        gw1 = x2.T @ local if w1.requires_grad else None
        gb1 = local.sum(axis=0) if b1.requires_grad else None
        return (gx, gw1, gb1, gw2, gb2) + (() if residual is None else (g,))

    return _make(out, parents, vjp)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, folded one column at a time.

    numpy's reduce runs a loop per row, slow on the short rows of attention
    scores. Max is exact in any order and ``np.maximum`` propagates NaN as
    ``max`` does, so the result is the same bit for bit.
    """
    m = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j:j + 1], out=m)
    return m


def _group_param(params, idx, which: int) -> np.ndarray:
    """The weights (``which`` 0) or biases (1) of the projections ``idx``
    of one shared input, side by side."""
    if len(idx) == 1:
        return params[2 * idx[0] + which].data
    return np.concatenate([params[2 * i + which].data for i in idx], axis=-1)


def attention(q, k, v, params, heads: int, residual=None):
    """Multi-head scaled dot-product attention as one node, plus
    ``residual`` when given.

    q is [..., Lq, D]; k and v are [..., Lk, D]; ``params`` is
    (wq, bq, wk, bk, wv, bv, wo, bo), each weight D x D. Scores use the
    1/sqrt(D/heads) scale. Inputs that are the same tensor share one
    projection product: Q/K/V in one when ``q is k is v``, K/V in one when
    ``k is v``. Backward keeps the projections, the attention probabilities
    and the mixed values; it concatenates a shared weight again.
    ``residual``, of the output's shape, is added into the output in place
    and receives the output's gradient, as ``add`` would give it.
    """
    converted = {}
    q, k, v = (converted.setdefault(id(t), as_tensor(t)) for t in (q, k, v))
    if q is k and k is v:
        groups = [(q, (0, 1, 2))]
    elif k is v:
        groups = [(q, (0,)), (k, (1, 2))]
    else:
        groups = [(q, (0,)), (k, (1,)), (v, (2,))]
    params = tuple(as_tensor(p) for p in params)
    d = q.data.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"dim {d} not divisible by {heads} heads")
    if (k.data.shape[-1] != d or q.data.shape[:-2] != k.data.shape[:-2]
            or k.data.shape != v.data.shape):
        raise ShapeError(
            f"attention extents differ: q {q.data.shape}, k {k.data.shape}, "
            f"v {v.data.shape}"
        )
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    # One product per group; each projection's heads are a view into it.
    head_views = [None, None, None]
    saved = []
    for x, idx in groups:
        x2 = np.ascontiguousarray(x.data.reshape(-1, d))
        proj = x2 @ _group_param(params, idx, 0)
        proj += _group_param(params, idx, 1)
        split = proj.reshape(*x.data.shape[:-1], len(idx), heads, dh)
        for j, i in enumerate(idx):
            head_views[i] = np.swapaxes(split[..., j, :, :], -3, -2)
        saved.append((x, idx, x2))
    qh, kh, vh = head_views

    attn = qh @ np.swapaxes(kh, -1, -2)
    attn *= scale
    attn -= _row_max(attn)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    mixed = np.swapaxes(attn @ vh, -3, -2).reshape(-1, d)
    wo, bo = params[6], params[7]
    out = mixed @ wo.data
    out += bo.data
    out = out.reshape(*q.data.shape[:-1], d)
    parents = tuple(x for x, _, _ in saved) + params
    if residual is not None:
        parents += (as_tensor(residual),)
        _add_residual(out, parents[-1])

    def vjp(g):
        g2 = g.reshape(-1, d)
        gwo = mixed.T @ g2 if wo.requires_grad else None
        gbo = g2.sum(axis=0) if bo.requires_grad else None
        g_ctx = np.swapaxes((g2 @ wo.data.T).reshape(
            *q.data.shape[:-1], heads, dh), -3, -2)
        g_vh = np.swapaxes(attn, -1, -2) @ g_ctx
        g_scores = g_ctx @ np.swapaxes(vh, -1, -2)
        # softmax backward, then the score scale
        inner = (g_scores * attn).sum(axis=-1, keepdims=True)
        g_scores -= inner
        g_scores *= attn
        g_scores *= scale
        g_heads = (g_scores @ kh,
                   np.swapaxes(np.swapaxes(qh, -1, -2) @ g_scores, -1, -2),
                   g_vh)

        input_grads = []
        param_grads = [None] * 6
        for x, idx, x2 in saved:
            gp = np.empty(x.data.shape[:-1] + (len(idx), heads, dh),
                          dtype=g_vh.dtype)
            for j, i in enumerate(idx):
                gp[..., j, :, :] = np.swapaxes(g_heads[i], -3, -2)
            gp = gp.reshape(-1, len(idx) * d)
            input_grads.append(
                (gp @ _group_param(params, idx, 0).T).reshape(x.data.shape)
                if x.requires_grad else None)
            if any(params[2 * i].requires_grad or params[2 * i + 1].requires_grad
                   for i in idx):
                gw = x2.T @ gp
                gb = gp.sum(axis=0)
                for j, i in enumerate(idx):
                    param_grads[2 * i] = gw[:, j * d:(j + 1) * d]
                    param_grads[2 * i + 1] = gb[j * d:(j + 1) * d]
        return (*input_grads, *param_grads, gwo, gbo,
                *(() if residual is None else (g,)))

    return _make(out, parents, vjp)
