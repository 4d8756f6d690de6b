"""Conv2D and MaxPool2x2 against their reference implementations, byte for byte.

Training reproducibility rests on every float64 operation of these layers
giving the same bits as the reference in ``reference_layers.py``: outputs,
input gradients and parameter gradients, for any shape (batch 1, odd H/W that
pooling pads with -inf), for tie-heavy values (signed zeros, equal blocks) and
for upstream gradients stored in any layout.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fusetrack.neuralcore import Conv2D, MaxPool2x2
from reference_layers import ReferenceConv2D, ReferenceMaxPool2x2

SETTINGS = settings(max_examples=200, deadline=None)

#: few distinct values, so that ties, signed zeros and equal blocks are common
TIED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, -np.inf])
FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def values(shape, pool):
    """An array of ``shape``: arbitrary floats, tie-heavy, or one constant.
    Pooling also sees -inf; convolutions see finite values only."""
    tied = TIED if pool else TIED.filter(np.isfinite)
    return st.one_of(
        hnp.arrays(np.float64, shape, elements=FINITE),
        hnp.arrays(np.float64, shape, elements=tied),
        tied.map(lambda v: np.full(shape, v)),
    )


@st.composite
def laid_out(draw, arr):
    """``arr`` as C-contiguous NCHW, NHWC storage, a reversed view, or a
    strided view into a larger buffer."""
    layout = draw(st.sampled_from(["nchw", "nhwc", "reversed", "strided"]))
    if layout == "nchw":
        return np.ascontiguousarray(arr)
    if layout == "nhwc":
        return np.ascontiguousarray(arr.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "reversed":
        return np.ascontiguousarray(arr[..., ::-1])[..., ::-1]
    big = np.full(arr.shape[:-1] + (2 * arr.shape[-1],), np.nan)
    big[..., ::2] = arr
    return big[..., ::2]


@st.composite
def conv_case(draw):
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    f = draw(st.integers(1, 4))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h, w = draw(st.integers(kh, kh + 5)), draw(st.integers(kw, kw + 5))
    x = draw(values((n, c, h, w), pool=False))
    weights = draw(values((f, c, kh, kw), pool=False))
    bias = draw(values((f,), pool=False))
    dy = draw(laid_out(draw(values((n, f, h - kh + 1, w - kw + 1), pool=False))))
    return x, weights, bias, dy


def same_bytes(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def conv_pair(weights, bias):
    f, c, kh, kw = weights.shape
    rng = np.random.default_rng(0)
    layers = Conv2D(c, f, kh, kw, rng), ReferenceConv2D(c, f, kh, kw, rng)
    for layer in layers:
        layer.w.value[...] = weights
        layer.b.value[...] = bias
    return layers


def s1_conv2_case(n=5):
    """The S1 network's second convolution at batch 5: GEMMs large enough that
    OpenBLAS sums differently when an operand's orientation changes."""
    rng = np.random.default_rng(5)
    return (rng.normal(size=(n, 16, 5, 23)), rng.normal(size=(32, 16, 3, 3)),
            rng.normal(size=32), rng.normal(size=(n, 32, 3, 21)))


@SETTINGS
@given(case=conv_case(), training=st.booleans())
@example(case=s1_conv2_case(), training=True)
def test_conv2d_matches_reference_bitwise(case, training):
    x, weights, bias, dy = case
    layer, ref = conv_pair(weights, bias)
    y, ctx = layer.forward(x, training=training)
    y_ref, ctx_ref = ref.forward(x, training=training)
    assert same_bytes(y, y_ref)
    dx = layer.backward(dy, ctx)
    dx_ref = ref.backward(dy, ctx_ref)
    assert same_bytes(dx, dx_ref)
    assert same_bytes(layer.w.grad, ref.w.grad)
    assert same_bytes(layer.b.grad, ref.b.grad)


@st.composite
def pool_case(draw):
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    x = draw(values((n, c, h, w), pool=True))
    dy = draw(laid_out(draw(values((n, c, (h + 1) // 2, (w + 1) // 2), pool=False))))
    return x, dy


@SETTINGS
@given(case=pool_case())
@example(case=(np.array([[[[0.0, -0.0], [-0.0, 0.0]]], [[[-0.0, 0.0], [0.0, -0.0]]]]),
               np.ones((2, 1, 1, 1))))
def test_maxpool_matches_reference_bitwise(case):
    x, dy = case
    y, ctx = MaxPool2x2().forward(x)
    y_ref, ctx_ref = ReferenceMaxPool2x2().forward(x)
    assert same_bytes(y, y_ref)
    dx = MaxPool2x2().backward(dy, ctx)
    assert same_bytes(dx, ReferenceMaxPool2x2().backward(dy, ctx_ref))
    assert dx.flags.c_contiguous


def test_eval_forward_keeps_no_im2col_matrix():
    layer = Conv2D(2, 3, 2, 3, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 2, 5, 6))
    cols_size = 4 * 4 * 4 * 2 * 2 * 3  # N·OH·OW × C·kh·kw

    def arrays(ctx):
        return [a for a in ctx if isinstance(a, np.ndarray)]

    _, train_ctx = layer.forward(x, training=True)
    assert cols_size in [a.size for a in arrays(train_ctx)]
    _, eval_ctx = layer.forward(x, training=False)
    assert cols_size not in [a.size for a in arrays(eval_ctx)]
