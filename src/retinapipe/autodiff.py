"""Minimal fp64 tensor core with an explicit tape and reverse-mode gradients.

Just enough ops for a small conv/GAP/linear classifier and an LSTM decoder:
no broadcasting zoo, no fusion, no GPU. Every op validates shapes up front
and raises ShapeError with a readable message.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .rng import Xoshiro256


class ShapeError(ValueError):
    """Raised when operand shapes do not line up."""


class Tensor:
    """Dense float64 array with an optional gradient of the same shape.

    A tensor made with needs_grad=False (an input batch, say) never holds a
    gradient, and ops may skip computing one for it. copy=False wraps a float64
    ndarray as it is: ops use it for the fresh arrays they compute.
    """

    __slots__ = ("data", "grad", "name", "needs_grad")

    def __init__(self, data, name: str | None = None, needs_grad: bool = True,
                 copy: bool = True):
        self.data = np.array(data, dtype=np.float64, copy=copy)
        self.grad: np.ndarray | None = None
        self.name = name
        self.needs_grad = needs_grad

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        if not self.needs_grad:
            return
        if self.grad is None:
            self.grad = np.add(g, 0.0)  # a fresh array, with the bits of zeros + g
        else:
            self.grad += g

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class Arena:
    """Buffers for the arrays a training step's taped ops keep for backward.

    The i-th buffer taken after a recycle reuses the memory of the i-th buffer
    taken before it, and is allocated afresh (a miss) only when that is too
    small. So a step that runs the same ops as the one before, on a batch no
    larger, allocates nothing: the freed memory of a step is not handed back
    to the OS only to be faulted in again by the next. Recycling ends the life
    of every array taken before it, and backward refuses a tape that recorded
    them.
    """

    def __init__(self):
        self._slots: list[np.ndarray] = []  # raw bytes
        self._taken = 0
        self.generation = 0
        self.misses = 0

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous array; the caller writes every element."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        i, self._taken = self._taken, self._taken + 1
        if i == len(self._slots) or self._slots[i].nbytes < nbytes:
            self._slots[i : i + 1] = [np.empty(nbytes, np.uint8)]  # replaces or appends slot i
            self.misses += 1
        return self._slots[i][:nbytes].view(dtype).reshape(shape)

    def recycle(self) -> None:
        self._taken = 0
        self.generation += 1


class Tape:
    """Ordered record of executed ops; creation order is topological order.

    With an arena, the ops recorded here take the arrays they keep for
    backward from it; the tape is good for backward until the arena is next
    recycled.
    """

    def __init__(self, arena: Arena | None = None):
        self._records: list[tuple[tuple[Tensor, ...], object]] = []
        self.arena = arena
        self._generation = None

    def __enter__(self) -> "Tape":
        if self.arena is not None:
            self._generation = self.arena.generation
        _STACK.tapes.append(self)
        return self

    def __exit__(self, *exc):
        _STACK.tapes.pop()
        return False

    def __len__(self):
        return len(self._records)

    def produced(self, t: Tensor) -> bool:
        return any(out is t for outs, _ in self._records for out in outs)


class _TapeStack(threading.local):
    """The open tapes of the current thread, innermost last: an op records on its
    own thread's innermost tape only."""

    def __init__(self):
        self.tapes: list[Tape] = []


_STACK = _TapeStack()


def _buffer(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialised array for an op to keep for backward: from the innermost
    open tape's arena if it has one, else fresh, so an untaped result never
    shares memory with another."""
    tapes = _STACK.tapes
    arena = tapes[-1].arena if tapes else None
    return np.empty(shape, dtype) if arena is None else arena.take(shape, dtype)


def _emit(outputs: tuple[Tensor, ...], backward_fn) -> None:
    tapes = _STACK.tapes
    if tapes:
        tapes[-1]._records.append((outputs, backward_fn))


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate .grad on everything reachable from the scalar loss."""
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if not tape.produced(loss):
        raise ValueError("loss was not produced on this tape")
    if tape.arena is not None and tape.arena.generation != tape._generation:
        raise ValueError("the tape's arena was recycled after the tape recorded its ops")
    loss.grad = np.ones_like(loss.data)
    for outputs, fn in reversed(tape._records):
        if all(out.grad is None for out in outputs):
            continue
        grads = tuple(
            out.grad if out.grad is not None else np.zeros_like(out.data)
            for out in outputs
        )
        fn(grads)


# ---------------------------------------------------------------------------
# elementwise ops

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0, out=_buffer(x.data.shape)), copy=False)
    mask = np.greater(x.data, 0.0, out=_buffer(x.data.shape, bool))

    def bwd(gs):
        x.accumulate(gs[0] * mask)

    _emit((out,), bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out = Tensor(a.data + b.data)

    def bwd(gs):
        a.accumulate(gs[0])
        b.accumulate(gs[0])

    _emit((out,), bwd)
    return out


def scale(x: Tensor, s: float) -> Tensor:
    out = Tensor(x.data * s)

    def bwd(gs):
        x.accumulate(gs[0] * s)

    _emit((out,), bwd)
    return out


# ---------------------------------------------------------------------------
# linear algebra

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """weight @ x[b] + bias for each row b of a B x D batch, each row bit for bit
    as a lone matrix-vector product."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear: expected B x D input and matrix, "
                         f"got {x.data.shape}, {weight.data.shape}")
    m, d = weight.data.shape
    if x.data.shape[1] != d:
        raise ShapeError(f"linear: weight is {m}x{d} but input has dim {x.data.shape[1]}")
    if bias.data.shape != (m,):
        raise ShapeError(f"linear: bias shape {bias.data.shape} != ({m},)")
    out = Tensor(matvec_rows(weight.data, x.data) + bias.data)

    def bwd(gs):
        g = gs[0]
        x.accumulate(g @ weight.data)
        weight.accumulate(g.T @ x.data)
        bias.accumulate(g.sum(axis=0))

    _emit((out,), bwd)
    return out


# ---------------------------------------------------------------------------
# conv / pool

def _zero_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """x (B x C x H x W) with `pad` zeros around each map, as np.pad gives it."""
    if not pad:
        return x
    n, c, h, w = x.shape
    xp = _buffer((n, c, h + 2 * pad, w + 2 * pad))
    xp.fill(0.0)
    xp[:, :, pad:-pad, pad:-pad] = x
    return xp


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """B x C x Hp x Wp -> B x (C*kh*kw) x (ho*wo): row (ch, a, b) and column (i, j)
    of image n hold xp[n, ch, a + stride*i, b + stride*j]."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(  # B, C, kh, kw, ho, wo
        xp, (n, c, kh, kw, ho, wo), (sn, sc, sh, sw, stride * sh, stride * sw), writeable=False)
    cols = _buffer((n, c * kh * kw, ho * wo))
    np.copyto(cols.reshape(win.shape), win)
    return cols


def _col2im_add(gcols: np.ndarray, shape, kh, kw, stride, ho, wo) -> np.ndarray:
    """The adjoint of _im2col, into a zero array of `shape` (B x C x Hp x Wp). Each
    element receives its additions in the same (a, b) order as a per-channel loop."""
    gxp = np.zeros(shape, dtype=np.float64)
    g = gcols.reshape(shape[0], shape[1], kh, kw, ho, wo)
    for a in range(kh):
        for b in range(kw):
            gxp[:, :, a : a + stride * ho : stride, b : b + stride * wo : stride] += g[:, :, a, b]
    return gxp


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) of an NCHW batch, each image computed
    exactly as it would be alone."""
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(f"conv2d: expected NCHW input and KCkhkw kernels, "
                         f"got {x.data.shape}, {kernels.data.shape}")
    n, c, h, w = x.data.shape
    k, kc, kh, kw = kernels.data.shape
    if kc != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernels expect {kc}")
    if bias.data.shape != (k,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({k},)")
    if stride < 1:
        raise ValueError("conv2d: stride must be >= 1")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    xp = _zero_pad(x.data, pad)
    cols = _im2col(xp, kh, kw, stride, ho, wo)  # B x CKK x (ho*wo)
    kmat = kernels.data.reshape(k, c * kh * kw)
    y = np.matmul(kmat, cols, out=_buffer((n, k, ho * wo)))  # one GEMM per image
    y += bias.data[:, None]
    out = Tensor(y.reshape(n, k, ho, wo), copy=False)

    def bwd(gs):
        gflat = gs[0].reshape(n, k, ho * wo)
        bias.accumulate(gflat.sum(axis=2).sum(axis=0))
        gkmat = (gflat @ cols.transpose(0, 2, 1)).sum(axis=0)
        kernels.accumulate(gkmat.reshape(kernels.data.shape))
        if not x.needs_grad:
            return
        gxp = _col2im_add(kmat.T @ gflat, (n, c, hp, wp), kh, kw, stride, ho, wo)
        if pad:
            gxp = gxp[:, :, pad:-pad, pad:-pad]
        x.accumulate(gxp)

    _emit((out,), bwd)
    return out


def maxpool2d(x: Tensor, window: int) -> Tensor:
    """Max over the non-overlapping window x window patches of each map of an NCHW batch."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d: expected NCHW input, got {x.data.shape}")
    h, w = x.data.shape[2:]
    if window > h or window > w:
        raise ShapeError(f"maxpool2d: window {window} exceeds spatial extent {h}x{w}")
    ho = h // window
    wo = w // window
    offsets = [(a, b) for a in range(window) for b in range(window)]

    def at(arr, a, b):  # the element at offset (a, b) of every window
        return arr[:, :, a : a + window * ho : window, b : b + window * wo : window]

    top = _buffer(x.data.shape[:2] + (ho, wo))
    np.copyto(top, at(x.data, 0, 0))
    for a, b in offsets[1:]:
        np.maximum(top, at(x.data, a, b), out=top)
    out = Tensor(top, copy=False)

    def bwd(gs):
        gx = np.zeros_like(x.data)
        unclaimed = np.ones(top.shape, dtype=bool)  # a tie goes to the first offset, as argmax's
        for a, b in offsets:
            hit = unclaimed & (at(x.data, a, b) == top)
            unclaimed &= ~hit
            at(gx, a, b)[...] += gs[0] * hit
        x.accumulate(gx)

    _emit((out,), bwd)
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean of each map of an NCHW batch: N x C out."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected NCHW input, got {x.data.shape}")
    h, w = x.data.shape[2:]
    out = Tensor(x.data.mean(axis=(2, 3)))

    def bwd(gs):
        x.accumulate(np.broadcast_to((gs[0] / (h * w))[:, :, None, None], x.data.shape))

    _emit((out,), bwd)
    return out


# ---------------------------------------------------------------------------
# loss

def log_softmax_np(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis (each row of a B x V matrix on its own)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_np(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max())
    return z / z.sum()


def softmax_cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean cross-entropy of B x C logits against B class ids."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be B x C, got {logits.data.shape}")
    ids = np.asarray(target)
    b, n = logits.data.shape
    if ids.shape != (b,) or ids.dtype.kind not in "iu":
        raise ValueError(f"softmax_cross_entropy: need {b} integer class ids, got {target!r}")
    if ((ids < 0) | (ids >= n)).any():
        raise ValueError(f"target class {target} out of range for {n} classes")
    rows = np.arange(b)
    logp = log_softmax_np(logits.data)
    out = Tensor(-logp[rows, ids].mean())
    p = np.exp(logp)

    def bwd(gs):
        g = p.copy()
        g[rows, ids] -= 1.0
        g *= float(gs[0]) / b
        logits.accumulate(g)

    _emit((out,), bwd)
    return out


# ---------------------------------------------------------------------------
# LSTM cell

@dataclass
class LstmParams:
    """Gate parameters: wx (4H x D), wh (4H x H), b (4H) in i,f,o,g order."""

    wx: Tensor
    wh: Tensor
    b: Tensor

    @property
    def hidden_size(self) -> int:
        return self.b.data.shape[0] // 4

    def open_forget_gates(self) -> "LstmParams":
        self.b.data[self.hidden_size : 2 * self.hidden_size] = 1.0  # stabilizes early training
        return self


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Stable logistic without masks: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def matvec_rows(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row b of the result is w @ x[b], bit for bit.

    A plain x @ w.T GEMM sums in another order and can differ in the last bits;
    the stacked form runs the same matrix-vector product once per row.
    """
    return (w[None] @ x[:, :, None])[:, :, 0]


def lstm_cell_np(wx: np.ndarray, wh: np.ndarray, b: np.ndarray,
                 x: np.ndarray, h: np.ndarray, c: np.ndarray):
    """Pure-numpy LSTM step over a batch: x is B x D, h and c are B x H.

    The decoding cell: beam search runs it, each row exactly as a lone
    vector would.
    """
    return _lstm_gates(matvec_rows(wx, x) + matvec_rows(wh, h) + b, c)


def _lstm_gates(a: np.ndarray, c: np.ndarray):
    """The state after one step from the B x 4H gate pre-activations a."""
    hid = c.shape[1]
    ifo = _sigmoid_np(a[:, : 3 * hid])  # the three sigmoid gates in one pass
    i, f, o = ifo[:, :hid], ifo[:, hid : 2 * hid], ifo[:, 2 * hid :]
    g = np.tanh(a[:, 3 * hid :])
    c2 = f * c + i * g
    t = np.tanh(c2)
    h2 = o * t
    return h2, c2, (i, f, o, g, t)


def lstm_sequence_xent(x0: Tensor, inputs: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                       embedding: Tensor, cell: LstmParams, out_w: Tensor, out_b: Tensor) -> Tensor:
    """Teacher-forced LSTM cross-entropy over a batch of sequences, as one op.

    From a zero state, step 0 feeds x0 (B x D); step s >= 1 feeds embedding row inputs[:, s-1] and scores the
    softmax of out_w @ h + out_b against targets[:, s-1] with weight
    weights[:, s-1] (inputs, targets and weights are B x T). The loss is the
    weighted sum of the scores' negative log-probabilities.

    The forward pass projects the inputs of every step in one GEMM
    (Appleyard et al., arXiv 1604.01946); the backward pass is hand-written
    backpropagation through time, with each weight gradient one GEMM over
    all B x T steps.
    """
    n, t_len = inputs.shape
    d = embedding.data.shape[1]
    hid = cell.hidden_size
    if x0.data.shape != (n, d) or targets.shape != (n, t_len) or weights.shape != (n, t_len):
        raise ShapeError(f"lstm_sequence_xent: x0 {x0.data.shape}, inputs {inputs.shape}, "
                         f"targets {targets.shape} and weights {weights.shape} disagree")
    wx, wh = cell.wx.data, cell.wh.data
    xs = np.concatenate([x0.data[None], embedding.data[inputs.T]]).reshape(-1, d)  # step-major
    ax = (xs @ wx.T + cell.b.data).reshape(t_len + 1, n, 4 * hid)
    hs = np.zeros((t_len + 2, n, hid))  # hs[s] is the state step s reads, hs[s + 1] the one it writes
    cs = np.zeros((t_len + 2, n, hid))
    gates = []
    for s in range(t_len + 1):
        hs[s + 1], cs[s + 1], gate = _lstm_gates(ax[s] + hs[s] @ wh.T, cs[s])
        gates.append(gate)
    h_out = hs[2:].reshape(-1, hid)  # the states after steps 1..T, step-major
    logp = log_softmax_np(h_out @ out_w.data.T + out_b.data)
    rows = np.arange(logp.shape[0])
    ids, wts = targets.T.reshape(-1), weights.T.reshape(-1)
    out = Tensor(-(wts * logp[rows, ids]).sum())

    def bwd(gs):
        dlogits = np.exp(logp)
        dlogits[rows, ids] -= 1.0
        dlogits *= (float(gs[0]) * wts)[:, None]
        out_w.accumulate(dlogits.T @ h_out)
        out_b.accumulate(dlogits.sum(axis=0))
        dh_out = (dlogits @ out_w.data).reshape(t_len, n, hid)
        da = np.empty((t_len + 1, n, 4 * hid))
        dh, dc = np.zeros((n, hid)), np.zeros((n, hid))
        for s in range(t_len, -1, -1):
            if s:
                dh = dh + dh_out[s - 1]
            i, f, o, g, t = gates[s]
            dc = dc + dh * o * (1.0 - t * t)
            da[s, :, :hid] = dc * g * i * (1.0 - i)
            da[s, :, hid : 2 * hid] = dc * cs[s] * f * (1.0 - f)
            da[s, :, 2 * hid : 3 * hid] = dh * t * o * (1.0 - o)
            da[s, :, 3 * hid :] = dc * i * (1.0 - g * g)
            dh = da[s] @ wh
            dc = dc * f
        da = da.reshape(-1, 4 * hid)
        cell.wx.accumulate(da.T @ xs)
        cell.wh.accumulate(da.T @ hs[:-1].reshape(-1, hid))
        cell.b.accumulate(da.sum(axis=0))
        dxs = da @ wx
        x0.accumulate(dxs[:n])
        demb = np.zeros_like(embedding.data)
        np.add.at(demb, inputs.T.reshape(-1), dxs[n:])
        embedding.accumulate(demb)

    _emit((out,), bwd)
    return out


def lstm_step(x: Tensor, h: Tensor, c: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """One taped LSTM step on D and H vectors. No package code calls it; it stays
    because perfbench/layertrace.py wraps it by name."""
    hid = params.hidden_size
    d = params.wx.data.shape[1]
    if x.data.shape != (d,):
        raise ShapeError(f"lstm_step: input shape {x.data.shape} != ({d},)")
    if h.data.shape != (hid,) or c.data.shape != (hid,):
        raise ShapeError(f"lstm_step: state shapes {h.data.shape}/{c.data.shape} != ({hid},)")
    h2, c2, gates = lstm_cell_np(
        params.wx.data, params.wh.data, params.b.data, x.data[None], h.data[None], c.data[None]
    )
    i, f, o, g, t = (v[0] for v in gates)
    out_h, out_c = Tensor(h2[0]), Tensor(c2[0])

    def bwd(gs):
        gh, gc = gs
        go = gh * t
        gct = gc + gh * o * (1.0 - t * t)
        gf = gct * c.data
        gi = gct * g
        gg = gct * i
        ga = np.concatenate([
            gi * i * (1.0 - i),
            gf * f * (1.0 - f),
            go * o * (1.0 - o),
            gg * (1.0 - g * g),
        ])
        params.wx.accumulate(np.outer(ga, x.data))
        params.wh.accumulate(np.outer(ga, h.data))
        params.b.accumulate(ga)
        x.accumulate(params.wx.data.T @ ga)
        h.accumulate(params.wh.data.T @ ga)
        c.accumulate(gct * f)

    _emit((out_h, out_c), bwd)
    return out_h, out_c


# ---------------------------------------------------------------------------
# init / optimizer

def glorot_uniform(rng: Xoshiro256, shape) -> np.ndarray:
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, shape)


def parameters_from(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Named parameter tensors holding copies of the arrays."""
    return {name: Tensor(arr, name=name) for name, arr in arrays.items()}


def init_arrays(rng: Xoshiro256, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Every model's init rule: Glorot-uniform matrices and kernels, zero vectors,
    drawn from rng in declaration order."""
    return {name: glorot_uniform(rng, shape) if len(shape) > 1 else np.zeros(shape)
            for name, shape in shapes.items()}


@dataclass
class SgdConfig:
    learning_rate: float = 0.1
    decay_factor: float = 5.0
    decay_period_epochs: int = 50

    def __post_init__(self):
        for name in ("learning_rate", "decay_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.decay_period_epochs < 1:
            raise ValueError("decay_period_epochs must be >= 1")


def sgd_step(params: list[Tensor], lr: float) -> None:
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    for p in params:
        if p.grad is None:
            raise ValueError(f"sgd_step: parameter {p.name or '<unnamed>'} has no gradient")
        if not np.isfinite(p.grad).all():
            raise NonFiniteError(f"the gradient of {p.name or '<unnamed>'} is not finite")
    for p in params:
        p.data -= lr * p.grad


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.zero_grad()
