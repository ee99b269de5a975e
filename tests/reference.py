"""Reference implementations the tests hold the program against.

The composite nodes are the single-op compositions that
``vld.tensor.mlp`` and ``vld.tensor.attention`` replace: GELU and softmax
with their own VJPs, the three-projection GEMM, and the head split/merge
built from reshape and swap_axes. Tests compare the fused nodes against
them: forwards bit for bit, gradients within 1e-12. ``keeping_mlp`` and
``keeping_layer_norm`` are the fused nodes as they were before backward
recomputed buffers: each keeps every buffer its VJP reads, and the
program's nodes must give their gradients bit for bit. ``brute_force_eval``
is the retrieval oracle ``vld.retrieval.evaluate`` must equal exactly.
``tlog`` and ``ttanh`` are elementwise ops only the gradient tests use.

The sequential definitions at the end are the ones the vectorised
``vld.rng`` and ``vld.data`` code replaced: one ``Rng`` call per swap,
per hashed byte, per pattern term and per frame, and augmentation
applied frame by frame to decoded float frames. Their outputs must be
equal bit for bit.
"""

import math

import numpy as np

from vld.data import _GOLDEN, NOISE_INFRARED, NOISE_VISIBLE, VISIBLE
from vld.tensor import (_GELU_C, _GELU_K, _LN_EPS, _make, as_tensor, linear,
                        matmul, reshape, swap_axes)


def gelu(a):
    """GELU with the tanh approximation used by standard ViT blocks."""
    a = as_tensor(a)
    x = a.data
    x2 = x * x
    t = np.tanh(_GELU_C * (x + _GELU_K * x2 * x))
    one_plus_t = 1.0 + t
    data = 0.5 * x * one_plus_t

    def vjp(g):
        local = x2 * (3.0 * _GELU_K)
        local += 1.0
        local *= _GELU_C                 # d(inner)/dx
        tsq = t * t
        np.subtract(1.0, tsq, out=tsq)   # sech^2
        local *= tsq
        local *= x
        local += one_plus_t
        local *= 0.5
        local *= g
        return (local,)

    return _make(data, (a,), vjp)


def tlog(a):
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def ttanh(a):
    a = as_tensor(a)
    data = np.tanh(a.data)
    return _make(data, (a,), lambda g: (g * (1.0 - data * data),))


def softmax(a, axis: int = -1):
    """Max-subtracted softmax; slices along ``axis`` sum to one."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _make(data, (a,), vjp)


def linear3(x, wq, bq, wk, bk, wv, bv):
    """Three projections of the same input in one GEMM; returns (q, k, v)."""
    x = as_tensor(x)
    parents = (x,) + tuple(as_tensor(t) for t in (wq, bq, wk, bk, wv, bv))
    lead = x.data.shape[:-1]
    d, h = parents[1].data.shape
    w_all = np.concatenate([parents[i].data for i in (1, 3, 5)], axis=1)
    b_all = np.concatenate([parents[i].data for i in (2, 4, 6)])
    x2 = np.ascontiguousarray(x.data.reshape(-1, d))
    out = x2 @ w_all + b_all

    outs = []
    for i in range(3):
        chunk = out[:, i * h:(i + 1) * h].reshape(*lead, h)

        def vjp(g, i=i):
            g2 = g.reshape(-1, h)
            grads = [None] * 7
            grads[0] = (g2 @ parents[1 + 2 * i].data.T).reshape(x.data.shape)
            grads[1 + 2 * i] = x2.T @ g2
            grads[2 + 2 * i] = g2.sum(axis=0)
            return tuple(grads)

        outs.append(_make(np.ascontiguousarray(chunk), parents, vjp))
    return tuple(outs)


def split_heads(x, heads: int):
    *lead, length, dim = x.shape
    x = reshape(x, (*lead, length, heads, dim // heads))
    return swap_axes(x, -3, -2)  # [..., heads, length, dim//heads]


def merge_heads(x):
    *lead, heads, length, dh = x.shape
    x = swap_axes(x, -3, -2)
    return reshape(x, (*lead, length, heads * dh))


def composite_attention(q, k, v, w, return_weights: bool = False):
    """Multi-head attention as a chain of single-op nodes."""
    dim = q.shape[-1]
    scale = 1.0 / math.sqrt(dim // w.heads)
    if q is k and k is v:
        pq, pk, pv = linear3(q, w.wq, w.bq, w.wk, w.bk, w.wv, w.bv)
    else:
        pq = linear(q, w.wq, w.bq)
        pk = linear(k, w.wk, w.bk)
        pv = linear(v, w.wv, w.bv)
    qh = split_heads(pq, w.heads)
    kh = split_heads(pk, w.heads)
    vh = split_heads(pv, w.heads)

    scores = matmul(qh, swap_axes(kh, -2, -1)) * scale
    attn = softmax(scores, axis=-1)
    out = linear(merge_heads(matmul(attn, vh)), w.wo, w.bo)
    if return_weights:
        return out, attn
    return out


def composite_mlp(x, w1, b1, w2, b2):
    """linear -> GELU -> linear as three nodes."""
    return linear(gelu(linear(x, w1, b1)), w2, b2)


def keeping_mlp(x, w1, b1, w2, b2):
    """``vld.tensor.mlp`` keeping the pre-activation, the 1 + tanh buffer
    and the activation for its VJP."""
    parents = x, w1, b1, w2, b2 = tuple(as_tensor(t)
                                        for t in (x, w1, b1, w2, b2))
    d = w1.data.shape[0]
    out_dim = w2.data.shape[1]
    x2 = np.ascontiguousarray(x.data.reshape(-1, d))
    pre = x2 @ w1.data
    pre += b1.data
    t = pre * pre
    t *= _GELU_K
    t *= pre
    t += pre
    t *= _GELU_C
    np.tanh(t, out=t)
    one_plus_t = t
    one_plus_t += 1.0
    act = pre * 0.5
    act *= one_plus_t
    out = act @ w2.data
    out += b2.data

    def vjp(g):
        g2 = g.reshape(-1, out_dim)
        gw2 = act.T @ g2
        gb2 = g2.sum(axis=0)
        local = pre * pre
        local *= 3.0 * _GELU_K
        local += 1.0
        local *= _GELU_C
        sech2 = one_plus_t - 1.0
        sech2 *= sech2
        np.subtract(1.0, sech2, out=sech2)
        local *= sech2
        local *= pre
        local += one_plus_t
        local *= 0.5
        local *= g2 @ w2.data.T
        gx = (local @ w1.data.T).reshape(x.data.shape)
        return gx, x2.T @ local, local.sum(axis=0), gw2, gb2

    return _make(out.reshape(*x.data.shape[:-1], out_dim), parents, vjp)


def keeping_layer_norm(x, gain, bias, eps: float = _LN_EPS):
    """``vld.tensor.layer_norm`` keeping the normalized input for its VJP."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return _make(data, (x, gain, bias), vjp)


def brute_force_eval(queries, gallery):
    """Independent CMC/mAP: explicit loops, python sort with tuple keys."""
    g = len(gallery.tracklet_ids)
    cmc = [0.0] * g
    aps = []
    for qi in range(len(queries.tracklet_ids)):
        scored = []
        for gi in range(g):
            sim = float(np.dot(queries.features[qi], gallery.features[gi]))
            scored.append((-sim, int(gallery.tracklet_ids[gi]), gi))
        scored.sort()
        ranked = [gi for _, _, gi in scored]
        good = [r for r, gi in enumerate(ranked)
                if gallery.identities[gi] == queries.identities[qi]]
        if not good:
            continue
        for r in range(good[0], g):
            cmc[r] += 1.0
        precisions = [(k + 1) / (rank + 1) for k, rank in enumerate(good)]
        aps.append(sum(precisions) / len(precisions))
    return np.asarray(cmc) / len(aps), sum(aps) / len(aps)


def fnv1a(tag: str) -> np.uint64:
    """FNV-1a over the UTF-8 bytes of ``tag`` in numpy uint64 arithmetic."""
    h = np.uint64(0xCBF29CE484222325)
    with np.errstate(over="ignore"):
        for byte in tag.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * np.uint64(0x100000001B3)
    return h


def permutation(rng, n: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n), one ``randint`` per swap."""
    order = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def identity_latent(identity, spec, rng):
    """Per-identity pattern, channel color, stripe frequency and speed,
    two scalar draws per pattern term."""
    id_rng = rng.split(f"identity{identity}")
    h, w = spec.image_h, spec.image_w
    yy = np.linspace(0.0, 1.0, h)[:, None]
    xx = np.linspace(0.0, 1.0, w)[None, :]
    pattern = np.zeros((h, w))
    for u in range(3):
        for v in range(3):
            amp = id_rng.normal()
            phase = id_rng.uniform(high=2.0 * np.pi)
            pattern += amp * np.cos(np.pi * u * yy + phase) * np.cos(np.pi * v * xx)
    pattern /= max(1e-9, np.abs(pattern).max())
    color = id_rng.uniform((3,), low=0.4, high=1.0)
    color *= 0.7 / color.mean()
    stripe_freq = 1 + identity % 2
    speed = 2.0 * np.pi * (0.08 + 0.84 * ((identity * _GOLDEN) % 1.0))
    return pattern, color, stripe_freq, speed


def render_tracklet(identity, modality, spec, latents, tr_rng):
    """One frame per step; all but one random clear frame are crossed by a
    distractor identity's pattern at ``occlusion`` strength (plus extra
    noise)."""
    pattern, color, stripe_freq, speed = latents[identity]
    h, w = spec.image_h, spec.image_w
    xx = np.linspace(0.0, 1.0, w)[None, :]
    phase0 = tr_rng.uniform(high=2.0 * np.pi)
    clear_frame = tr_rng.randint(spec.frames)
    frames = np.zeros((spec.frames, h, w, 3))
    for t in range(spec.frames):
        stripe = np.sin(2.0 * np.pi * stripe_freq * xx + phase0 + t * speed)
        if t == clear_frame:
            content = spec.pattern_amp * pattern
            extra_noise = 1.0
        else:
            distractor = (identity + 1 + tr_rng.randint(len(latents) - 1)) \
                % len(latents)
            content = spec.pattern_amp * spec.occlusion * latents[distractor][0]
            extra_noise = 1.5
        field = 0.5 + content + spec.stripe_amp * np.broadcast_to(stripe, (h, w))
        if modality == VISIBLE:
            img = field[:, :, None] * color[None, None, :]
            img = img + tr_rng.normal((h, w, 3),
                                      std=NOISE_VISIBLE * extra_noise)
        else:
            lum = field * color.mean() * 0.85 + 0.12
            img = lum[:, :, None] + tr_rng.normal(
                (h, w, 1), std=NOISE_INFRARED * extra_noise)
            img = np.broadcast_to(img, (h, w, 3))
        frames[t] = np.clip(img, 0.0, 1.0)
    return np.round(frames * 255.0).astype(np.uint8)


def hflip(frame):
    return frame[:, ::-1, :].copy()


def pad_crop(frame, offset_y, offset_x, pad=10):
    """Zero-pad by ``pad`` on every side, then crop back to the original size
    at the given offset; offset == pad is the identity crop."""
    h, w, c = frame.shape
    padded = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=frame.dtype)
    padded[pad:pad + h, pad:pad + w] = frame
    return padded[offset_y:offset_y + h, offset_x:offset_x + w].copy()


def channel_erase(frame, channel):
    out = frame.copy()
    out[:, :, channel] = 0.0
    return out


def channel_swap(frame, perm):
    return frame[:, :, list(perm)].copy()


def augment_clip(clip, rng, visible, pad=10):
    """Decisions drawn once per tracklet, then applied frame by frame to
    decoded float frames."""
    flip = rng.uniform() < 0.5
    oy = rng.randint(2 * pad + 1)
    ox = rng.randint(2 * pad + 1)
    erase = swap = False
    erase_ch, perm = 0, (0, 1, 2)
    if visible:
        erase = rng.uniform() < 0.5
        erase_ch = rng.randint(3)
        swap = rng.uniform() < 0.5
        perm = tuple(rng.permutation(3))
    out = []
    for frame in clip:
        if flip:
            frame = hflip(frame)
        frame = pad_crop(frame, oy, ox, pad=pad)
        if erase:
            frame = channel_erase(frame, erase_ch)
        if swap:
            frame = channel_swap(frame, perm)
        out.append(frame)
    return np.stack(out)
