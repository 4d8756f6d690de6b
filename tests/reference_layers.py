"""Reference convolution and pooling: the window-view/``np.tensordot``
``Conv2D`` and the ``argmax`` ``MaxPool2x2`` that the layers in
``fusetrack.neuralcore.layers`` replaced.

The layers must reproduce these bit for bit: same outputs, same input
gradients, same parameter gradients. ``tests/test_layers_exact.py`` compares
them on random shapes and values.
"""

import numpy as np

from fusetrack.neuralcore import Conv2D, MaxPool2x2


class ReferenceConv2D(Conv2D):
    """Valid stride-1 convolution through ``np.tensordot`` on a window view."""

    def _window_view(self, x):
        n, c, h, w = x.shape
        oh, ow = h - self.kh + 1, w - self.kw + 1
        s = x.strides
        shape = (n, c, self.kh, self.kw, oh, ow)
        strides = (s[0], s[1], s[2], s[3], s[2], s[3])
        return np.lib.stride_tricks.as_strided(x, shape, strides, writeable=False)

    def forward(self, x, training=False, rng=None):
        x = np.ascontiguousarray(x, dtype=np.float64)
        cols = self._window_view(x)
        y = np.tensordot(cols, self.w.value, axes=([1, 2, 3], [1, 2, 3]))
        y = y.transpose(0, 3, 1, 2) + self.b.value[None, :, None, None]
        return y, x

    def backward(self, dy, ctx):
        x = ctx
        n, c, h, w = x.shape
        oh, ow = h - self.kh + 1, w - self.kw + 1
        cols = self._window_view(x)
        self.w.grad += np.tensordot(dy, cols, axes=([0, 2, 3], [0, 4, 5]))
        self.b.grad += dy.sum(axis=(0, 2, 3))
        # (N, OH, OW, C, kh, kw)
        dcols = np.tensordot(dy, self.w.value, axes=([1], [0]))
        dx = np.zeros_like(x)
        for p in range(self.kh):
            for q in range(self.kw):
                dx[:, :, p:p + oh, q:q + ow] += dcols[:, :, :, :, p, q].transpose(0, 3, 1, 2)
        return dx


class ReferenceMaxPool2x2(MaxPool2x2):
    """2x2 stride-2 pooling by ``argmax`` over a transposed block copy."""

    def forward(self, x, training=False, rng=None):
        n, c, h, w = x.shape
        h2, w2 = 2 * ((h + 1) // 2), 2 * ((w + 1) // 2)
        if (h2, w2) != (h, w):
            xp = np.full((n, c, h2, w2), -np.inf, dtype=np.float64)
            xp[:, :, :h, :w] = x
        else:
            xp = np.asarray(x, dtype=np.float64)
        oh, ow = h2 // 2, w2 // 2
        blocks = xp.reshape(n, c, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5)
        blocks = blocks.reshape(n, c, oh, ow, 4)
        idx = blocks.argmax(axis=-1)
        y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
        return y, (x.shape, idx)

    def backward(self, dy, ctx):
        (n, c, h, w), idx = ctx
        oh, ow = (h + 1) // 2, (w + 1) // 2
        dblocks = np.zeros((n, c, oh, ow, 4), dtype=np.float64)
        np.put_along_axis(dblocks, idx[..., None], dy[..., None], axis=-1)
        dxp = dblocks.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        dxp = dxp.reshape(n, c, 2 * oh, 2 * ow)
        return np.ascontiguousarray(dxp[:, :, :h, :w])
