import numpy as np
import pytest

from cst import autodiff as ad
from helpers import assert_close, check_op_gradient


def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_softmax_uniform_example():
    t = ad.softmax(ad.Tensor([0.0, 0.0]))
    assert_close(t.values, [0.5, 0.5], rtol=0, atol=1e-12)


def test_softmax_rows_sum_to_one():
    r = rng()
    x = r.normal(size=(6, 9)) * 50.0
    s = ad.softmax(ad.Tensor(x), axis=-1).values
    assert_close(s.sum(axis=-1), np.ones(6), rtol=0, atol=1e-6)
    assert s.min() >= 0.0


def test_softmax_max_subtraction_handles_large_logits():
    s = ad.softmax(ad.Tensor([1e4, 1e4 + 1.0])).values
    assert np.all(np.isfinite(s))
    assert_close(s.sum(), 1.0, rtol=0, atol=1e-12)


def test_softmax_large_negative_bias_gives_exact_zero():
    # The attention masking convention relies on exp underflowing to 0.0.
    s = ad.softmax(ad.Tensor([0.3, 0.3 - 1e9, 0.1])).values
    assert s[1] == 0.0


def test_relu_sigmoid_values():
    x = ad.Tensor([-2.0, 0.0, 3.0])
    assert np.all(ad.relu(x).values == [0.0, 0.0, 3.0])
    assert_close(ad.sigmoid(ad.Tensor([0.0])).values, [0.5], rtol=0, atol=1e-12)


def test_conv2d_k3_preserves_extents_and_matches_direct_sum():
    r = rng()
    x = r.normal(size=(3, 5, 4))
    w = r.normal(size=(2, 3, 3, 3))
    b = r.normal(size=(2,))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).values
    assert out.shape == (2, 5, 4)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    expect = np.zeros((2, 5, 4))
    for co in range(2):
        for i in range(5):
            for j in range(4):
                expect[co, i, j] = (w[co] * xp[:, i:i + 3, j:j + 3]).sum() + b[co]
    assert_close(out, expect, rtol=0, atol=1e-10)


def test_conv2d_k1_is_channel_mixing():
    r = rng()
    x = r.normal(size=(4, 3, 3))
    w = r.normal(size=(2, 4, 1, 1))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w)).values
    expect = np.tensordot(w[:, :, 0, 0], x, axes=([1], [0]))
    assert_close(out, expect, rtol=0, atol=1e-12)


def test_conv2d_rejects_bad_kernel():
    with pytest.raises(ad.ShapeError):
        ad.conv2d(ad.Tensor(np.zeros((3, 4, 4))), ad.Tensor(np.zeros((2, 3, 5, 5))))


def test_group_norm_constant_groups_map_to_zero():
    x = np.repeat([[1.0, 1.0, 7.0, 7.0, -2.0, -2.0, 0.5, 0.5]], 3, axis=0)
    out = ad.group_norm(ad.Tensor(x), ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)),
                        groups=4).values
    assert np.all(out == 0.0)


def test_group_norm_normalizes_each_group():
    r = rng()
    x = r.normal(size=(10, 8))
    out = ad.group_norm(ad.Tensor(x), ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)),
                        groups=4).values
    grouped = out.reshape(10, 4, 2)
    assert_close(grouped.mean(axis=-1), np.zeros((10, 4)), rtol=0, atol=1e-9)


def test_avg_pool_grid_extents():
    x = ad.Tensor(np.arange(144 * 5, dtype=np.float64).reshape(144, 5))
    assert ad.avg_pool_grid(x, (12, 12), 4).values.shape == (9, 5)
    y = ad.Tensor(np.ones((9, 2)))
    assert ad.avg_pool_grid(y, (3, 3), 3).values.shape == (1, 2)


def test_avg_pool_grid_rejects_non_tiling_kernel():
    with pytest.raises(ad.ShapeError):
        ad.avg_pool_grid(ad.Tensor(np.ones((25, 2))), (5, 5), 4)


def test_avg_pool_grid_values():
    x = np.arange(16, dtype=np.float64).reshape(16, 1)
    out = ad.avg_pool_grid(ad.Tensor(x), (4, 4), 2).values
    # windows on the 4x4 grid: means of {0,1,4,5}, {2,3,6,7}, {8,9,12,13}, {10,11,14,15}
    assert_close(out.ravel(), [2.5, 4.5, 10.5, 12.5], rtol=0, atol=1e-12)


def test_bilinear_resize_identity_and_constant():
    r = rng()
    x = r.normal(size=(5, 7))
    same = ad.bilinear_resize(ad.Tensor(x), (5, 7)).values
    assert np.all(same == x)
    up = ad.bilinear_resize(ad.Tensor(np.full((1, 1), 3.25)), (4, 4)).values
    assert np.all(up == 3.25)


def test_bilinear_resize_ramp_oracle():
    # Independent loop implementation of the declared half-pixel convention.
    def oracle(src, oh, ow):
        h, w = src.shape
        out = np.zeros((oh, ow))
        for i in range(oh):
            for j in range(ow):
                sy = min(max((i + 0.5) * h / oh - 0.5, 0.0), h - 1.0)
                sx = min(max((j + 0.5) * w / ow - 0.5, 0.0), w - 1.0)
                y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                ty, tx = sy - y0, sx - x0
                out[i, j] = (src[y0, x0] * (1 - ty) * (1 - tx)
                             + src[y0, x1] * (1 - ty) * tx
                             + src[y1, x0] * ty * (1 - tx)
                             + src[y1, x1] * ty * tx)
        return out

    ramp = np.arange(16, dtype=np.float64).reshape(4, 4)
    got = ad.bilinear_resize(ad.Tensor(ramp), (2, 2)).values
    assert_close(got, oracle(ramp, 2, 2), rtol=0, atol=1e-12)
    # frozen values for the 4x4 ramp -> 2x2 case under this convention
    assert_close(got, [[2.5, 4.5], [10.5, 12.5]], rtol=0, atol=1e-12)

    r = rng()
    for _ in range(5):
        src = r.normal(size=(r.integers(2, 7), r.integers(2, 7)))
        oh, ow = int(r.integers(1, 9)), int(r.integers(1, 9))
        got = ad.bilinear_resize(ad.Tensor(src), (oh, ow)).values
        assert_close(got, oracle(src, oh, ow), rtol=0, atol=1e-12)


def test_global_avg_pool():
    x = np.stack([np.full((2, 3), 1.0), np.arange(6, dtype=np.float64).reshape(2, 3)])
    out = ad.global_avg_pool(ad.Tensor(x)).values
    assert_close(out, [1.0, 2.5], rtol=0, atol=1e-12)


def test_log_rejects_nonpositive():
    with pytest.raises(ad.NonFiniteError):
        ad.log(ad.Tensor([1.0, 0.0]))


def test_add_shape_mismatch_names_operation():
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))


def test_nonfinite_result_is_an_error():
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError, match="mul"):
            ad.mul(ad.Tensor([1e308]), ad.Tensor([1e308]))


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

def test_backward_sum_example():
    x = ad.Tensor([5.0, -1.0], requires_grad=True)
    loss = ad.sum_(x)
    ad.backward(loss)
    assert np.all(x.grad == [1.0, 1.0])


def test_backward_accumulates_over_shared_use():
    x = ad.Tensor([2.0], requires_grad=True)
    loss = ad.sum_(ad.add(x, x))
    ad.backward(loss)
    assert np.all(x.grad == [2.0])


def test_backward_rejects_nonscalar_loss():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.add(x, x))


def test_backward_rejects_consumed_graph():
    x = ad.Tensor([1.0], requires_grad=True)
    loss = ad.sum_(ad.scale(x, 2.0))
    ad.backward(loss)
    with pytest.raises(ad.GraphConsumedError):
        ad.backward(loss)


def test_unreached_parameter_grad_stays_zero():
    x = ad.Tensor([1.0], requires_grad=True)
    y = ad.Tensor([4.0], requires_grad=True)
    y.zero_grad()
    ad.backward(ad.sum_(ad.scale(x, 3.0)))
    assert np.all(y.grad == 0.0)


def test_constant_inputs_record_no_graph():
    z = ad.add(ad.constant([1.0]), ad.constant([2.0]))
    assert not z.requires_grad and z._backward is None


# ---------------------------------------------------------------------------
# gradient checks: every differentiable kernel on a few random extents
# ---------------------------------------------------------------------------

def test_gradients_elementwise_ops():
    r = rng()
    for shape in [(3,), (4, 5), (2, 3, 4)]:
        a = r.normal(size=shape)
        b = r.normal(size=shape)
        check_op_gradient(lambda t, u: ad.add(t, u), [a, b], f"add {shape}")
        check_op_gradient(lambda t, u: ad.mul(t, u), [a, b], f"mul {shape}")
        check_op_gradient(lambda t: ad.scale(t, -1.7), [a], f"scale {shape}")
        check_op_gradient(lambda t: ad.sigmoid(t), [a], f"sigmoid {shape}")
        # keep relu inputs away from the kink
        a_off = a + np.sign(a) * 0.05
        check_op_gradient(lambda t: ad.relu(t), [a_off], f"relu {shape}")
        check_op_gradient(lambda t: ad.log(ad.add_scalar(ad.mul(t, t), 0.5)),
                          [a], f"log {shape}")


def test_gradients_bias_broadcast_add():
    r = rng()
    x = r.normal(size=(4, 3, 6))
    b = r.normal(size=(6,))
    check_op_gradient(lambda t, u: ad.add(t, u), [x, b], "add broadcast")


def test_gradients_reductions_and_structure():
    r = rng()
    x = r.normal(size=(3, 4, 5))
    check_op_gradient(lambda t: ad.sum_(t, axis=1), [x], "sum axis")
    check_op_gradient(lambda t: ad.mean(t, axis=(1, 2)), [x], "mean axes")
    check_op_gradient(lambda t: ad.reshape(t, (3, 20)), [x], "reshape")
    check_op_gradient(lambda t: ad.transpose(t, (2, 0, 1)), [x], "transpose")
    index = [3, 0, 2]    # non-contiguous, out of order, on a middle axis
    assert np.array_equal(ad.take(ad.Tensor(x), 1, index).values, x[:, index])
    check_op_gradient(lambda t: ad.take(t, 1, index), [x], "take")
    a = r.normal(size=(2, 5))
    b = r.normal(size=(3, 5))
    check_op_gradient(lambda t, u: ad.concat([t, u], axis=0), [a, b], "concat")


def test_gradients_matmul_plain_and_batched():
    r = rng()
    a = r.normal(size=(4, 6))
    b = r.normal(size=(6, 3))
    check_op_gradient(lambda t, u: ad.matmul(t, u), [a, b], "matmul 2d")
    a3 = r.normal(size=(5, 4, 6))
    check_op_gradient(lambda t, u: ad.matmul(t, u), [a3, b], "matmul batched rhs2d")
    b3 = r.normal(size=(5, 6, 2))
    check_op_gradient(lambda t, u: ad.matmul(t, u), [a3, b3], "matmul batched")


def test_gradients_softmax_l2norm_groupnorm():
    r = rng()
    x = r.normal(size=(5, 7))
    check_op_gradient(lambda t: ad.softmax(t, axis=-1), [x], "softmax")
    g = r.normal(size=(8,))
    beta = r.normal(size=(8,))
    xg = r.normal(size=(6, 8))
    check_op_gradient(lambda t, s, sh: ad.group_norm(t, s, sh, groups=4),
                      [xg, g, beta], "group_norm")


def test_gradients_spatial_kernels():
    r = rng()
    x = r.normal(size=(3, 4, 4))
    w3 = r.normal(size=(2, 3, 3, 3))
    w1 = r.normal(size=(2, 3, 1, 1))
    b = r.normal(size=(2,))
    check_op_gradient(lambda t, u, v: ad.conv2d(t, u, v), [x, w3, b], "conv2d k3")
    check_op_gradient(lambda t, u: ad.conv2d(t, u), [x, w1], "conv2d k1")
    pooled = r.normal(size=(2, 16, 3))
    check_op_gradient(lambda t: ad.avg_pool_grid(t, (4, 4), 2), [pooled], "avg_pool")
    img = r.normal(size=(4, 6))
    check_op_gradient(lambda t: ad.bilinear_resize(t, (7, 3)), [img], "bilinear")
    cmap = r.normal(size=(3, 4, 5))
    check_op_gradient(lambda t: ad.global_avg_pool(t), [cmap], "gap")
