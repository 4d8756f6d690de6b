"""Network layers with hand-written forward and backward passes.

All math runs in float64 for gradient-check fidelity. Every layer follows the
same contract: ``forward(x, training, rng) -> (y, ctx)`` and
``backward(dy, ctx) -> dx``, with parameter gradients accumulated into
``Param.grad``. Backward passes are exact reverse-mode derivatives of the
forward code, verified against central finite differences.

What ``ctx`` holds. ``Conv2D`` keeps its input and, in training mode only,
its im2col matrix, which backward reuses; an eval-mode ctx keeps no im2col
matrix (validation and inference batches are large), and backward rebuilds
it. ``MaxPool2x2`` keeps the flat index of each chosen element. ``Conv2D``
returns a C-contiguous (N, F, OH, OW) array, so the relu and pooling after it
run on unit strides.

Bit-exactness. Training must be reproducible bit for bit across refactors,
since a last-bit change retrains a different network. ``Conv2D``'s three
GEMMs therefore take exactly the operands ``np.tensordot`` builds: the
C-contiguous (N·OH·OW, C·kh·kw) im2col matrix with columns in (c, p, q)
order, the weights as ``w.transpose(1, 2, 3, 0).reshape(K, F)`` and
``w.reshape(F, K)``, and ``dy.transpose(1, 0, 2, 3).reshape(F, M)`` and
``dy.transpose(0, 2, 3, 1).reshape(M, F)`` with M = N·OH·OW. The bias
gradient is ``dy.sum(axis=(0, 2, 3))`` over the ``dy`` it is given, and
col2im sums each input element over its kernel offsets in row-major order,
starting from +0.0. A different orientation, layout or order changes the
last bits.
``tests/test_layers_exact.py`` checks all of this against the former
implementations.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError


class Param:
    """A trainable tensor with its gradient slot."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    kind = "?"
    #: whether the constructor takes an ``rng`` for its initial weights
    random_init = False

    def params(self) -> list[Param]:
        return []

    def forward(self, x, training=False, rng=None):
        raise NotImplementedError

    def backward(self, dy, ctx):
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": self.kind}

    def out_shape(self, in_shape: tuple) -> tuple:
        return in_shape


class Conv2D(Layer):
    """Valid 2D convolution (stride 1) over (N, C, H, W) input."""

    kind = "conv2d"
    random_init = True

    def __init__(self, in_channels: int, filters: int, kh: int, kw: int,
                 rng: np.random.Generator):
        self.in_channels = in_channels
        self.filters = filters
        self.kh = kh
        self.kw = kw
        fan_in = in_channels * kh * kw
        self.w = Param("w", fan_in_uniform(rng, (filters, in_channels, kh, kw), fan_in))
        self.b = Param("b", fan_in_uniform(rng, (filters,), fan_in))

    def params(self):
        return [self.w, self.b]

    def spec(self):
        return {"kind": self.kind, "in_channels": self.in_channels,
                "filters": self.filters, "kh": self.kh, "kw": self.kw}

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_channels or h < self.kh or w < self.kw:
            raise ShapeError(
                f"conv2d({self.in_channels}ch {self.kh}x{self.kw}) cannot take input {in_shape}"
            )
        return (self.filters, h - self.kh + 1, w - self.kw + 1)

    def _cols(self, x: np.ndarray) -> np.ndarray:
        """The C-contiguous (N·OH·OW, C·kh·kw) im2col matrix of a C-contiguous
        ``x``: rows in (n, oh, ow) order, columns in (c, p, q) order, the
        operand ``np.tensordot`` builds from the window view."""
        n, c, h, w = x.shape
        oh, ow = h - self.kh + 1, w - self.kw + 1
        # gathered through flat offsets into one sample; copying the window
        # view directly runs kw-long inner loops
        plane = np.arange(c * h * w).reshape(c, h, w)
        s = plane.strides
        offsets = np.lib.stride_tricks.as_strided(
            plane, (oh, ow, c, self.kh, self.kw), (s[1], s[2], s[0], s[1], s[2]),
            writeable=False).reshape(oh * ow, -1)
        return np.take(x.reshape(n, -1), offsets, axis=1).reshape(n * oh * ow, -1)

    def forward(self, x, training=False, rng=None):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"conv2d expects (N,{self.in_channels},H,W), got {x.shape}")
        if x.shape[2] < self.kh or x.shape[3] < self.kw:
            raise ShapeError(f"conv2d kernel {self.kh}x{self.kw} larger than input {x.shape}")
        n, c, h, w = x.shape
        oh, ow = h - self.kh + 1, w - self.kw + 1
        cols = self._cols(x)
        y = np.dot(cols, self.w.value.transpose(1, 2, 3, 0).reshape(-1, self.filters))
        ctx = (x, cols if training else None)
        del cols  # in eval mode, freed before the output is built
        # C-contiguous (N, F, OH, OW), so relu and pooling read unit strides
        out = np.ascontiguousarray(y.reshape(n, oh, ow, self.filters).transpose(0, 3, 1, 2))
        out += self.b.value[:, None, None]
        return out, ctx

    def backward(self, dy, ctx):
        x, cols = ctx
        n, c, h, w = x.shape
        oh, ow = h - self.kh + 1, w - self.kw + 1
        if cols is None:
            cols = self._cols(x)
        f = self.filters
        self.w.grad += np.dot(dy.transpose(1, 0, 2, 3).reshape(f, -1),
                              cols).reshape(self.w.value.shape)
        self.b.grad += dy.sum(axis=(0, 2, 3))
        dcols = np.dot(dy.transpose(0, 2, 3, 1).reshape(-1, f), self.w.value.reshape(f, -1))
        dcols = dcols.reshape(n, oh, ow, c, self.kh, self.kw)
        # col2im: each dx entry sums its kernel offsets (p, q) in row-major
        # order from +0.0, accumulated channels-last for unit-stride writes
        dx = np.zeros((n, h, w, c))
        for p in range(self.kh):
            for q in range(self.kw):
                dx[:, p:p + oh, q:q + ow] += dcols[..., p, q]
        return np.ascontiguousarray(dx.transpose(0, 3, 1, 2))


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2; odd edges pool the partial block.

    Each output takes the first maximum of its block in row-major order (a
    later element wins only when strictly greater), and backward routes the
    gradient to that position. For finite inputs this is ``argmax``'s rule,
    signed zeros included.
    """

    kind = "maxpool2x2"

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c, (h + 1) // 2, (w + 1) // 2)

    def forward(self, x, training=False, rng=None):
        n, c, h, w = x.shape
        h2, w2 = 2 * ((h + 1) // 2), 2 * ((w + 1) // 2)
        if (h2, w2) != (h, w):
            xp = np.full((n, c, h2, w2), -np.inf, dtype=np.float64)
            xp[:, :, :h, :w] = x
        else:
            xp = np.asarray(x, dtype=np.float64)
        oh, ow = h2 // 2, w2 // 2
        top_l, top_r = xp[:, :, 0::2, 0::2], xp[:, :, 0::2, 1::2]
        bot_l, bot_r = xp[:, :, 1::2, 0::2], xp[:, :, 1::2, 1::2]
        right_top = top_r > top_l
        right_bot = bot_r > bot_l
        bottom = np.maximum(bot_l, bot_r) > np.maximum(top_l, top_r)
        # flat index of the chosen element in xp
        idx = (np.arange(n * c).reshape(n, c, 1, 1) * (h2 * w2)
               + (2 * w2) * np.arange(oh)[:, None] + 2 * np.arange(ow))
        idx += bottom * w2
        idx += right_top ^ ((right_top ^ right_bot) & bottom)  # column within the chosen row
        y = np.take(xp.reshape(-1), idx)
        return y, (x.shape, idx)

    def backward(self, dy, ctx):
        (n, c, h, w), idx = ctx
        h2, w2 = 2 * ((h + 1) // 2), 2 * ((w + 1) // 2)
        dxp = np.zeros((n, c, h2, w2), dtype=np.float64)
        dxp.reshape(-1)[idx] = dy
        return np.ascontiguousarray(dxp[:, :, :h, :w])


class Dropout(Layer):
    """Inverted dropout: active only in training, scales by keep probability."""

    kind = "dropout"

    def __init__(self, rate: float = 0.25):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def spec(self):
        return {"kind": self.kind, "rate": self.rate}

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ConfigError("dropout in training mode needs an rng stream")
        keep = 1.0 - self.rate
        mask = (rng.random(x.shape) >= self.rate) / keep
        return x * mask, mask

    def backward(self, dy, ctx):
        if ctx is None:
            return dy
        return dy * ctx


class Dense(Layer):
    """Affine map y = x W^T + b over (N, in) input."""

    kind = "dense"
    random_init = True

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.w = Param("w", fan_in_uniform(rng, (out_features, in_features), in_features))
        self.b = Param("b", fan_in_uniform(rng, (out_features,), in_features))

    def params(self):
        return [self.w, self.b]

    def spec(self):
        return {"kind": self.kind, "in_features": self.in_features,
                "out_features": self.out_features}

    def out_shape(self, in_shape):
        if int(np.prod(in_shape)) != self.in_features:
            raise ShapeError(f"dense({self.in_features}) cannot take input {in_shape}")
        return (self.out_features,)

    def forward(self, x, training=False, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects (N,{self.in_features}), got {x.shape}")
        return x @ self.w.value.T + self.b.value, x

    def backward(self, dy, ctx):
        x = ctx
        self.w.grad += dy.T @ x
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value


class Relu(Layer):
    kind = "relu"

    def forward(self, x, training=False, rng=None):
        return np.maximum(x, 0.0), x

    def backward(self, dy, ctx):
        return dy * (ctx > 0)


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, training=False, rng=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, ctx):
        return dy.reshape(ctx)


class Softmax(Layer):
    """Row-wise softmax with log-sum-exp stabilization."""

    kind = "softmax"

    def forward(self, x, training=False, rng=None):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        return p, p

    def backward(self, dy, ctx):
        p = ctx
        return p * (dy - (dy * p).sum(axis=1, keepdims=True))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Bilstm(Layer):
    """Single-layer bidirectional LSTM; emits concatenated final hidden states.

    Accepts a (N, T, D) sequence or an image-framed (N, 1, D, T) input, which
    is read column-by-column as T steps of D features. Output is (N, 2H).
    Backward is full backpropagation through time from the final-state
    gradients only.
    """

    kind = "bilstm"
    random_init = True

    def __init__(self, input_size: int, hidden: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden = hidden
        self._p = {}
        for d in ("f", "b"):
            self._p[f"wx_{d}"] = Param(f"wx_{d}",
                                       fan_in_uniform(rng, (4 * hidden, input_size), input_size))
            self._p[f"wh_{d}"] = Param(f"wh_{d}",
                                       fan_in_uniform(rng, (4 * hidden, hidden), hidden))
            self._p[f"bias_{d}"] = Param(f"bias_{d}",
                                         fan_in_uniform(rng, (4 * hidden,), hidden))

    def params(self):
        return [self._p[k] for k in sorted(self._p)]

    def spec(self):
        return {"kind": self.kind, "input_size": self.input_size, "hidden": self.hidden}

    def out_shape(self, in_shape):
        if len(in_shape) == 3:
            c, d, t = in_shape
            if c != 1 or d != self.input_size:
                raise ShapeError(f"bilstm({self.input_size}) cannot take input {in_shape}")
        elif len(in_shape) == 2:
            t, d = in_shape
            if d != self.input_size:
                raise ShapeError(f"bilstm({self.input_size}) cannot take input {in_shape}")
        else:
            raise ShapeError(f"bilstm cannot take input {in_shape}")
        return (2 * self.hidden,)

    def _as_sequence(self, x):
        if x.ndim == 4:
            if x.shape[1] != 1 or x.shape[2] != self.input_size:
                raise ShapeError(f"bilstm expects (N,1,{self.input_size},T), got {x.shape}")
            return x[:, 0].transpose(0, 2, 1), x.shape
        if x.ndim == 3:
            if x.shape[2] != self.input_size:
                raise ShapeError(f"bilstm expects (N,T,{self.input_size}), got {x.shape}")
            return x, None
        raise ShapeError(f"bilstm cannot take input of shape {x.shape}")

    def _run_direction(self, seq, d):
        n, t, _ = seq.shape
        hsz = self.hidden
        wx = self._p[f"wx_{d}"].value
        wh = self._p[f"wh_{d}"].value
        bias = self._p[f"bias_{d}"].value
        h = np.zeros((n, hsz))
        c = np.zeros((n, hsz))
        steps = []
        order = range(t) if d == "f" else range(t - 1, -1, -1)
        for ti in order:
            x_t = seq[:, ti]
            z = x_t @ wx.T + h @ wh.T + bias
            i = _sigmoid(z[:, :hsz])
            f = _sigmoid(z[:, hsz:2 * hsz])
            g = np.tanh(z[:, 2 * hsz:3 * hsz])
            o = _sigmoid(z[:, 3 * hsz:])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            steps.append((ti, x_t, h, c, i, f, g, o, c_new, tanh_c))
            h, c = h_new, c_new
        return h, steps

    def forward(self, x, training=False, rng=None):
        seq, img_shape = self._as_sequence(np.asarray(x, dtype=np.float64))
        h_f, steps_f = self._run_direction(seq, "f")
        h_b, steps_b = self._run_direction(seq, "b")
        y = np.concatenate([h_f, h_b], axis=1)
        return y, (seq.shape, img_shape, steps_f, steps_b)

    def _backward_direction(self, dh_final, steps, d, dseq):
        hsz = self.hidden
        wx = self._p[f"wx_{d}"]
        wh = self._p[f"wh_{d}"]
        bias = self._p[f"bias_{d}"]
        dh = dh_final
        dc = np.zeros_like(dh)
        for (ti, x_t, h_prev, c_prev, i, f, g, o, c_new, tanh_c) in reversed(steps):
            do = dh * tanh_c
            dct = dh * o * (1.0 - tanh_c ** 2) + dc
            di = dct * g
            dg = dct * i
            df = dct * c_prev
            dc = dct * f
            dz = np.concatenate(
                [di * i * (1 - i), df * f * (1 - f), dg * (1 - g ** 2), do * o * (1 - o)],
                axis=1,
            )
            wx.grad += dz.T @ x_t
            wh.grad += dz.T @ h_prev
            bias.grad += dz.sum(axis=0)
            dseq[:, ti] += dz @ wx.value
            dh = dz @ wh.value

    def backward(self, dy, ctx):
        seq_shape, img_shape, steps_f, steps_b = ctx
        hsz = self.hidden
        dseq = np.zeros(seq_shape)
        self._backward_direction(dy[:, :hsz], steps_f, "f", dseq)
        self._backward_direction(dy[:, hsz:], steps_b, "b", dseq)
        if img_shape is not None:
            return dseq.transpose(0, 2, 1)[:, None, :, :]
        return dseq


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Conv2D, MaxPool2x2, Dropout, Dense, Relu, Flatten, Softmax, Bilstm)
}


def layer_from_spec(spec: dict, rng: np.random.Generator) -> Layer:
    """Rebuild a layer from its ``spec()``; layers with weights draw their
    initial values from ``rng``."""
    args = dict(spec)
    kind = args.pop("kind", None)
    cls = LAYER_KINDS.get(kind)
    if cls is None:
        raise ConfigError(f"unknown layer kind '{kind}'")
    return cls(**args, rng=rng) if cls.random_init else cls(**args)
