"""The tests' primitive graph ops (`graph_ops`) and the graph walk they
build for: values, gradients against central differences, subgradients at
kinks, broadcasting, shape and finiteness errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnn_energy_lab.autodiff import NonFiniteError, ShapeError, Tensor, gradients

import graph_ops as ops
from oracles import fd_check, finite_difference, max_relative_error, random_op_mix_graph


def test_add_sub_mul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    fd_check(lambda ts: ops.tsum(ops.mul(ops.add(ts[0], ts[1]), ops.sub(ts[0], ts[1]))), [a, b])


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    row = rng.normal(size=(3,))
    col = rng.normal(size=(4, 1))
    fd_check(lambda ts: ops.tsum(ops.mul(ops.add(ts[0], ts[1]), ts[2])), [x, row, col])


def test_matmul_vector_and_batch_gradients():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5,))
    xb = rng.normal(size=(3, 5))
    w = rng.normal(size=(5, 2))
    fd_check(lambda ts: ops.tsum(ops.matmul(ts[0], ts[1])), [x, w])
    fd_check(lambda ts: ops.tsum(ops.matmul(ts[0], ts[1])), [xb, w])


def test_activation_gradients():
    rng = np.random.default_rng(3)
    # keep away from the relu kink so central differences are exact
    x = rng.uniform(0.1, 2.0, size=(6,)) * rng.choice([-1.0, 1.0], size=6)
    fd_check(lambda ts: ops.tsum(ops.relu(ts[0])), [x])
    fd_check(lambda ts: ops.tsum(ops.sigmoid(ts[0])), [x])
    fd_check(lambda ts: ops.tsum(ops.tanh(ts[0])), [x])


def test_log_and_norm_gradients():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.2, 3.0, size=(5,))
    fd_check(lambda ts: ops.tsum(ops.log(ts[0])), [x])
    fd_check(lambda ts: ops.l2_norm(ts[0]), [x])
    xb = rng.uniform(0.2, 3.0, size=(3, 5))
    fd_check(lambda ts: ops.tsum(ops.l2_norm(ts[0], axis=-1)), [xb])


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(5)
    logits = rng.normal(scale=3.0, size=(7, 4))
    probs = ops.softmax(Tensor(logits)).data
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(3, 4))
    mix = rng.uniform(0.1, 1.0, size=(3, 4))
    fd_check(lambda ts: ops.tsum(ops.mul(ops.softmax(ts[0]), ts[1])), [logits, mix])


def test_reduction_gradients():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    fd_check(lambda ts: ops.tsum(ts[0]), [x])
    fd_check(lambda ts: ops.tmean(ts[0]), [x])
    fd_check(lambda ts: ops.tsum(ops.tmean(ts[0], axis=0)), [x])
    fd_check(lambda ts: ops.tsum(ops.tsum(ts[0], axis=-1)), [x])


@pytest.mark.parametrize("shape, axis", [((), None), ((3,), None), ((3,), 0), ((3,), -1),
                                         ((2, 3), None), ((2, 3), 0), ((2, 3), 1),
                                         ((2, 3), -1)])
def test_sum_gradient_equals_the_broadcast_copy(shape, axis):
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=shape))
    out = ops.tsum(x, axis=axis)
    g = rng.normal(size=out.shape)
    grad = out._vjps[0][1](g)
    expected = np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy()
    assert grad.shape == shape and grad.flags.writeable
    assert grad.tobytes() == expected.tobytes()


def test_maximum_threshold_gradient_and_kink_subgradient():
    x = Tensor([-1.0, 0.5, 2.0])
    out = ops.maximum(x, 0.5)
    assert out.data.tolist() == [0.5, 0.5, 2.0]
    (g,) = gradients(ops.tsum(out), [x])
    # the tied coordinate sits exactly at the kink: subgradient 0
    assert g.tolist() == [0.0, 0.0, 1.0]


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor([0.0, -1.0, 1.0])
    (g,) = gradients(ops.tsum(ops.relu(x)), [x])
    assert g.tolist() == [0.0, 0.0, 1.0]


def test_l2_norm_subgradient_at_origin_is_zero():
    x = Tensor([0.0, 0.0])
    (g,) = gradients(ops.l2_norm(x), [x])
    assert g.tolist() == [0.0, 0.0]


def test_gradient_accumulates_when_tensor_is_reused():
    x = Tensor([2.0, 3.0])
    loss = ops.tsum(ops.add(ops.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    (g,) = gradients(loss, [x])
    assert g.tolist() == [5.0, 7.0]


def test_unused_parameter_gets_zero_gradient():
    x = Tensor([1.0])
    unused = Tensor([[1.0, 2.0]])
    (gx, gu) = gradients(ops.tsum(ops.mul(x, 3.0)), [x, unused])
    assert gx.tolist() == [3.0]
    assert gu.tolist() == [[0.0, 0.0]]


def test_gradients_requires_scalar_output():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ShapeError):
        gradients(ops.mul(x, 2.0), [x])


def test_shape_mismatch_raises_named_error():
    with pytest.raises(ShapeError) as err:
        ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "matmul" in str(err.value)
    with pytest.raises(ShapeError):
        ops.add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_log_of_nonpositive_raises_nonfinite_error():
    with pytest.raises(NonFiniteError):
        ops.log(Tensor([1.0, 0.0]))
    with pytest.raises(NonFiniteError):
        ops.log(Tensor([-1.0]))


def test_construction_rejects_nan():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])


def test_evaluation_is_pure_and_bitwise_repeatable():
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(2,))]

    def run():
        x, w, b = [Tensor(a) for a in arrays]
        return ops.tmean(ops.softmax(ops.add(ops.matmul(ops.tanh(x), w), b)))

    first, second = run(), run()
    assert first.data.tobytes() == second.data.tobytes()
    # downstream evaluation never mutates the inputs
    assert arrays[0].tobytes() == arrays[0].tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_graph_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    build, arrays = random_op_mix_graph(rng)
    tensors = [Tensor(a) for a in arrays]
    loss = build(tensors)
    assert np.isfinite(loss.item())
    ad_grads = gradients(loss, tensors)
    fd = finite_difference(lambda arrs: build([Tensor(a) for a in arrs]).item(), arrays)
    assert max_relative_error(ad_grads, fd) < 1e-6
