import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    gelu_grad_reference,
    gelu_reference,
    layer_norm_backward_reference,
    layer_norm_reference,
)

from factpool.numerics import gelu_cached, gelu_grad_cached, layer_norm, layer_norm_backward

DTYPES = st.sampled_from([np.float64, np.float32])
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def arrays_like(draw, count: int):
    """`count` finite arrays of one random 1-3-D shape and float dtype."""
    dtype = draw(DTYPES)
    shape = draw(SHAPES)
    elements = st.floats(-1e4, 1e4, width=np.dtype(dtype).itemsize * 8)
    return [draw(hnp.arrays(dtype, shape, elements=elements)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(arrays_like(2))
def test_gelu_kernels_byte_equal_to_reference_and_pure(arrays):
    x, upstream = arrays
    x_before = x.copy()
    y, t = gelu_cached(x)
    y_ref, t_ref = gelu_reference(x)
    assert same_bytes(y, y_ref) and same_bytes(t, t_ref)
    t_before = t.copy()
    grad = gelu_grad_cached(x, t)
    assert same_bytes(grad, gelu_grad_reference(x, t))
    assert same_bytes(x, x_before) and same_bytes(t, t_before)
    # the trunk multiplies the gradient into its own buffer
    grad *= upstream
    assert same_bytes(grad, upstream * gelu_grad_reference(x, t))


@settings(max_examples=200, deadline=None)
@given(arrays_like(2), st.data())
def test_layer_norm_kernels_byte_equal_to_reference_and_pure(arrays, data):
    x, d_y = arrays
    width = x.shape[-1]
    vec = hnp.arrays(x.dtype, width, elements=st.floats(-4, 4, width=x.dtype.itemsize * 8))
    gain, bias = data.draw(vec), data.draw(vec)
    inputs = [arr.copy() for arr in (x, d_y, gain, bias)]
    y, cache = layer_norm(x, gain, bias)
    y_ref, cache_ref = layer_norm_reference(x, gain, bias)
    assert same_bytes(y, y_ref)
    assert all(same_bytes(a, b) for a, b in zip(cache, cache_ref))
    cache_before = [a.copy() for a in cache]
    got = layer_norm_backward(d_y, cache, gain)
    want = layer_norm_backward_reference(d_y, cache_ref, gain)
    assert all(same_bytes(a, b) for a, b in zip(got, want))
    assert all(same_bytes(a, b) for a, b in zip((x, d_y, gain, bias), inputs))
    assert all(same_bytes(a, b) for a, b in zip(cache, cache_before))


@pytest.mark.parametrize("shape", [(16, 30, 256), (7, 64), (3,)])
def test_kernels_byte_equal_at_trunk_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    x, d_y = 2.0 * rng.standard_normal(shape), rng.standard_normal(shape)
    gain, bias = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
    y, t = gelu_cached(x)
    y_ref, t_ref = gelu_reference(x)
    assert same_bytes(y, y_ref) and same_bytes(t, t_ref)
    assert same_bytes(gelu_grad_cached(x, t), gelu_grad_reference(x, t))
    y, cache = layer_norm(x, gain, bias)
    y_ref, cache_ref = layer_norm_reference(x, gain, bias)
    assert same_bytes(y, y_ref)
    got = layer_norm_backward(d_y, cache, gain)
    want = layer_norm_backward_reference(d_y, cache_ref, gain)
    assert all(same_bytes(a, b) for a, b in zip(got, want))
