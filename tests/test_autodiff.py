import gc
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adnn_energy_lab import autodiff as ad
from adnn_energy_lab.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    gradients,
)
from adnn_energy_lab.attacks import IlfoAttack, IlfoConfig, InputBasedAttack
from adnn_energy_lab.attacks import TestGenConfig, UniversalAttack
from adnn_energy_lab.data import estimator_corpus, generate_dataset
from adnn_energy_lab.defense import FilterModel
from adnn_energy_lab.estimator import EnergyEstimator
from adnn_energy_lab.models import EarlyExitNet, GatedSkipNet
from adnn_energy_lab.nn import Dense, ResidualBlock, ResidualMLP, cross_entropy, fit_minibatch
from adnn_energy_lab.optim import Adam

from oracles import (
    adam_per_parameter_steps,
    adam_reference_steps,
    finite_difference,
    max_relative_error,
    minibatch_reference,
    random_op_mix_graph,
    step_loss,
    unfused_entropy_hinge_sum,
    unfused_estimator_forward,
    unfused_estimator_loss,
    unfused_exit_forward,
    unfused_exit_loss,
    unfused_filter_loss,
    unfused_hinge_sum,
    unfused_mean_of_means,
    unfused_skip_forward,
    unfused_skip_loss,
    unfused_softmax_cross_entropy,
    unfused_squared_error,
    unfused_tanh_unit,
)


def fd_check(build, arrays, tol=1e-6):
    tensors = [Tensor(a) for a in arrays]
    loss = build(tensors)
    ad_grads = gradients(loss, tensors)
    fd_grads = finite_difference(lambda arrs: build([Tensor(a) for a in arrs]).item(), arrays)
    assert max_relative_error(ad_grads, fd_grads) < tol


def test_add_sub_mul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    fd_check(lambda ts: ad.tsum(ad.mul(ad.add(ts[0], ts[1]), ad.sub(ts[0], ts[1]))), [a, b])


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    row = rng.normal(size=(3,))
    col = rng.normal(size=(4, 1))
    fd_check(lambda ts: ad.tsum(ad.mul(ad.add(ts[0], ts[1]), ts[2])), [x, row, col])


def test_matmul_vector_and_batch_gradients():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5,))
    xb = rng.normal(size=(3, 5))
    w = rng.normal(size=(5, 2))
    fd_check(lambda ts: ad.tsum(ad.matmul(ts[0], ts[1])), [x, w])
    fd_check(lambda ts: ad.tsum(ad.matmul(ts[0], ts[1])), [xb, w])


def test_activation_gradients():
    rng = np.random.default_rng(3)
    # keep away from the relu kink so central differences are exact
    x = rng.uniform(0.1, 2.0, size=(6,)) * rng.choice([-1.0, 1.0], size=6)
    fd_check(lambda ts: ad.tsum(ad.relu(ts[0])), [x])
    fd_check(lambda ts: ad.tsum(ad.sigmoid(ts[0])), [x])
    fd_check(lambda ts: ad.tsum(ad.tanh(ts[0])), [x])


def test_log_and_norm_gradients():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.2, 3.0, size=(5,))
    fd_check(lambda ts: ad.tsum(ad.log(ts[0])), [x])
    fd_check(lambda ts: ad.l2_norm(ts[0]), [x])
    xb = rng.uniform(0.2, 3.0, size=(3, 5))
    fd_check(lambda ts: ad.tsum(ad.l2_norm(ts[0], axis=-1)), [xb])


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(5)
    logits = rng.normal(scale=3.0, size=(7, 4))
    probs = ad.softmax(Tensor(logits)).data
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(3, 4))
    mix = rng.uniform(0.1, 1.0, size=(3, 4))
    fd_check(lambda ts: ad.tsum(ad.mul(ad.softmax(ts[0]), ts[1])), [logits, mix])


def test_reduction_gradients():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    fd_check(lambda ts: ad.tsum(ts[0]), [x])
    fd_check(lambda ts: ad.tmean(ts[0]), [x])
    fd_check(lambda ts: ad.tsum(ad.tmean(ts[0], axis=0)), [x])
    fd_check(lambda ts: ad.tsum(ad.tsum(ts[0], axis=-1)), [x])


@pytest.mark.parametrize("shape, axis", [((), None), ((3,), None), ((3,), 0), ((3,), -1),
                                         ((2, 3), None), ((2, 3), 0), ((2, 3), 1),
                                         ((2, 3), -1)])
def test_sum_gradient_equals_the_broadcast_copy(shape, axis):
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=shape))
    out = ad.tsum(x, axis=axis)
    g = rng.normal(size=out.shape)
    grad = out._vjps[0][1](g)
    expected = np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy()
    assert grad.shape == shape and grad.flags.writeable
    assert grad.tobytes() == expected.tobytes()


def test_maximum_threshold_gradient_and_kink_subgradient():
    x = Tensor([-1.0, 0.5, 2.0])
    out = ad.maximum(x, 0.5)
    assert out.data.tolist() == [0.5, 0.5, 2.0]
    (g,) = gradients(ad.tsum(out), [x])
    # the tied coordinate sits exactly at the kink: subgradient 0
    assert g.tolist() == [0.0, 0.0, 1.0]


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor([0.0, -1.0, 1.0])
    (g,) = gradients(ad.tsum(ad.relu(x)), [x])
    assert g.tolist() == [0.0, 0.0, 1.0]


def test_l2_norm_subgradient_at_origin_is_zero():
    x = Tensor([0.0, 0.0])
    (g,) = gradients(ad.l2_norm(x), [x])
    assert g.tolist() == [0.0, 0.0]


def test_gradient_accumulates_when_tensor_is_reused():
    x = Tensor([2.0, 3.0])
    loss = ad.tsum(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    (g,) = gradients(loss, [x])
    assert g.tolist() == [5.0, 7.0]


def test_unused_parameter_gets_zero_gradient():
    x = Tensor([1.0])
    unused = Tensor([[1.0, 2.0]])
    (gx, gu) = gradients(ad.tsum(ad.mul(x, 3.0)), [x, unused])
    assert gx.tolist() == [3.0]
    assert gu.tolist() == [[0.0, 0.0]]


def test_gradients_requires_scalar_output():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ShapeError):
        gradients(ad.mul(x, 2.0), [x])


def test_shape_mismatch_raises_named_error():
    with pytest.raises(ShapeError) as err:
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "matmul" in str(err.value)
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_log_of_nonpositive_raises_nonfinite_error():
    with pytest.raises(NonFiniteError):
        ad.log(Tensor([1.0, 0.0]))
    with pytest.raises(NonFiniteError):
        ad.log(Tensor([-1.0]))


def test_construction_rejects_nan():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])


def test_evaluation_is_pure_and_bitwise_repeatable():
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(2,))]

    def run():
        x, w, b = [Tensor(a) for a in arrays]
        return ad.tmean(ad.softmax(ad.add(ad.matmul(ad.tanh(x), w), b)))

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


def test_adam_matches_hand_recurrence():
    grads = [0.5, 0.5, -0.25, 1.5, -0.75]
    expected = adam_reference_steps(1.0, grads, lr=0.01)
    p = Tensor([1.0])
    opt = Adam([p], lr=0.01)
    seen = []
    for g in grads:
        opt.step([np.array([g])])
        seen.append(float(p.data[0]))
    assert np.allclose(seen, expected, rtol=0, atol=1e-15)


def test_adam_first_step_magnitude_is_learning_rate():
    rng = np.random.default_rng(9)
    for lr in (0.01, 0.1):
        p = Tensor(rng.normal(size=(6,)))
        before = p.data.copy()
        g = rng.normal(size=(6,))
        g[np.abs(g) < 1e-3] = 1e-3
        Adam([p], lr=lr).step([g])
        steps = np.abs(p.data - before)
        assert np.all(steps < lr * (1 + 1e-6))
        assert np.all(steps > lr * 0.99)


def test_adam_converges_on_quadratic():
    p = Tensor([0.0])
    opt = Adam([p], lr=0.05)
    for _ in range(2000):
        diff = ad.sub(p, 3.0)
        step_loss(opt, ad.tsum(ad.mul(diff, diff)))
    assert abs(float(p.data[0]) - 3.0) < 1e-3


# -- fused ops ----------------------------------------------------------------

X_SHAPES = [(6,), (1, 6), (32, 6)]


def _one_hot_rows(rng, shape):
    return np.eye(shape[-1])[rng.integers(0, shape[-1], size=shape[:-1])]


def _bind_constant(fused, unfused, leaf, constant):
    return (lambda t: fused(t, constant), lambda t: unfused(t, constant), [leaf])


# name -> (fused op, unfused composition, leaf arrays for an input of x_shape);
# constants the loss ops take without a gradient are bound into the builders
FUSED_CASES = {
    "softmax_cross_entropy": lambda rng, x_shape: _bind_constant(
        ad.softmax_cross_entropy, unfused_softmax_cross_entropy,
        rng.normal(scale=2.0, size=x_shape), _one_hot_rows(rng, x_shape)),
}

# name -> (array form, giving (value, product toward its first argument),
# unfused composition, leaf arrays for an input of x_shape), as above
ARRAY_CASES = {
    "tanh_unit": lambda rng, x_shape: (
        ad.tanh_unit_terms, unfused_tanh_unit, [rng.normal(scale=2.0, size=x_shape)]),
    "softmax_cross_entropy": lambda rng, x_shape: _bind_constant(
        ad.softmax_cross_entropy_terms, unfused_softmax_cross_entropy,
        rng.normal(scale=2.0, size=x_shape), _one_hot_rows(rng, x_shape)),
    "squared_error": lambda rng, x_shape: _bind_constant(
        ad.squared_error_terms, unfused_squared_error,
        rng.normal(size=x_shape), rng.normal(size=x_shape)),
}


def fused_case(name, x_shape, seed):
    """The case's ops and leaves, plus weights that mix its output into a scalar."""
    rng = np.random.default_rng(seed)
    fused, unfused, arrays = FUSED_CASES[name](rng, x_shape)
    out_shape = fused(*[Tensor(a) for a in arrays]).shape
    return fused, unfused, arrays, rng.uniform(0.5, 1.5, size=out_shape)


@pytest.mark.parametrize("name", FUSED_CASES, ids=lambda name: "%s-unfused_%s" % (name, name))
@pytest.mark.parametrize("x_shape", X_SHAPES)
def test_fused_op_equals_unfused_composition_bit_for_bit(name, x_shape):
    fused, unfused, arrays, mix = fused_case(name, x_shape, sum(x_shape))
    results = []
    for build in (fused, unfused):
        tensors = [Tensor(a) for a in arrays]
        out = build(*tensors)
        grads = gradients(ad.tsum(ad.mul(out, mix)), tensors)
        results.append([out.data.tobytes()] + [g.tobytes() for g in grads])
    assert results[0] == results[1]


@pytest.mark.parametrize("name", FUSED_CASES)
@pytest.mark.parametrize("x_shape", X_SHAPES)
def test_fused_op_gradients_match_finite_differences(name, x_shape):
    fused, _, arrays, mix = fused_case(name, x_shape, x_shape[0] + 99)
    fd_check(lambda ts: ad.tsum(ad.mul(fused(*ts), mix)), arrays)


def array_case(name, x_shape, seed):
    """The case's array form, unfused composition and leaf, plus weights
    that mix its output into a scalar."""
    rng = np.random.default_rng(seed)
    terms, unfused, (leaf,) = ARRAY_CASES[name](rng, x_shape)
    return terms, unfused, leaf, rng.uniform(0.5, 1.5, size=np.shape(terms(leaf)[0]))


@pytest.mark.parametrize("name", ARRAY_CASES)
@pytest.mark.parametrize("x_shape", X_SHAPES)
def test_array_form_equals_unfused_composition_bit_for_bit(name, x_shape):
    terms, unfused, leaf, mix = array_case(name, x_shape, sum(x_shape))
    value, vjp = terms(leaf)
    x = Tensor(leaf)
    out = unfused(x)
    (grad,) = gradients(ad.tsum(ad.mul(out, mix)), [x])
    assert np.asarray(value).tobytes() == out.data.tobytes()
    assert vjp(mix).tobytes() == grad.tobytes()


@pytest.mark.parametrize("name", ARRAY_CASES)
@pytest.mark.parametrize("x_shape", X_SHAPES)
def test_array_form_gradients_match_finite_differences(name, x_shape):
    terms, _, leaf, mix = array_case(name, x_shape, x_shape[0] + 99)
    fd = finite_difference(lambda arrays: float(np.sum(terms(arrays[0])[0] * mix)), [leaf])
    assert max_relative_error([terms(leaf)[1](mix)], fd) < 1e-6


# name -> (array form on x, giving (value, product toward x), its unfused
# form on the column blocks of x as separate tensors, the column blocks it
# reads); more than 8 columns, so a pairwise sum over columns would round
# differently from the left-to-right one the unfused forms do
COLUMN_CASES = {
    "mean_of_column_means": (lambda x: ad.mean_of_column_means_terms(x, 1, 11),
                             unfused_mean_of_means, [(j, j + 1) for j in range(1, 11)]),
    "hinge_sum": (lambda x: ad.hinge_terms(x, 0.3, 1, 11),
                  lambda ts: unfused_hinge_sum(ts, 0.3), [(j, j + 1) for j in range(1, 11)]),
    "entropy_hinge_sum": (lambda x: ad.entropy_hinge_terms(x, 0.9, 3, 4),
                          lambda ts: unfused_entropy_hinge_sum(ts, 0.9),
                          [(0, 3), (3, 6), (6, 9), (9, 12)]),
}
COLUMN_SHAPES = [(12,), (1, 12), (32, 12)]


@pytest.mark.parametrize("name", COLUMN_CASES)
@pytest.mark.parametrize("x_shape", COLUMN_SHAPES)
def test_column_op_equals_unfused_composition_bit_for_bit(name, x_shape):
    terms, unfused, blocks = COLUMN_CASES[name]
    x = np.random.default_rng(sum(x_shape)).normal(scale=1.5, size=x_shape)
    value, vjp = terms(x)
    parts = [Tensor(x[..., a:b]) for a, b in blocks]
    ref = unfused(parts)
    expected = np.zeros(x_shape)
    for (a, b), g in zip(blocks, gradients(ref, parts)):
        expected[..., a:b] = g
    assert np.asarray(value).tobytes() == ref.data.tobytes()
    assert vjp(ad._ONE).tobytes() == expected.tobytes()


@pytest.mark.parametrize("x_shape", [(32,), (1, 32), (7, 32)])
def test_entropy_hinge_over_wide_exits_equals_unfused_composition_bit_for_bit(x_shape):
    # all exits run in one pass; with more than 8 classes a different
    # reduction order over them would change the bits
    width, count = 10, 3
    x = np.random.default_rng(x_shape[0]).normal(scale=2.0, size=x_shape)
    value, vjp = ad.entropy_hinge_terms(x, 1.8, width, count)
    parts = [Tensor(x[..., k * width:(k + 1) * width]) for k in range(count)]
    ref = unfused_entropy_hinge_sum(parts, 1.8)
    expected = np.zeros(x_shape)
    expected[..., :width * count] = np.concatenate(gradients(ref, parts), axis=-1)
    assert 0.0 < value
    assert np.asarray(value).tobytes() == ref.data.tobytes()
    assert vjp(ad._ONE).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", COLUMN_CASES)
@pytest.mark.parametrize("x_shape", COLUMN_SHAPES)
def test_column_op_gradients_match_finite_differences(name, x_shape):
    terms = COLUMN_CASES[name][0]
    x = np.random.default_rng(x_shape[0] + 7).normal(scale=1.5, size=x_shape)
    fd = finite_difference(lambda arrays: float(terms(arrays[0])[0]), [x])
    assert max_relative_error([terms(x)[1](ad._ONE)], fd) < 1e-6


def test_columns_slices_and_scatters_back():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    part = ad.columns(x, 1, 3)
    assert part.data.tolist() == [[1.0, 2.0], [5.0, 6.0], [9.0, 10.0]]
    (g,) = gradients(ad.tsum(ad.mul(part, np.array([2.0, 3.0]))), [x])
    assert g.tolist() == [[0.0, 2.0, 3.0, 0.0]] * 3


def test_fused_ops_check_shapes():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="columns"):
        ad.columns(x, 2, 4)
    with pytest.raises(ShapeError, match="columns"):
        ad.columns(Tensor(np.ones((2, 2, 3))), 0, 1)
    with pytest.raises(ShapeError, match="mean_of_column_means"):
        ad.mean_of_column_means_terms(x.data, 1, 1)
    with pytest.raises(ShapeError, match="hinge_sum"):
        ad.hinge_terms(x.data, 0.5, -1, 2)
    with pytest.raises(ShapeError, match="entropy_hinge_sum"):
        ad.entropy_hinge_terms(x.data, 0.5, 2, 2)
    with pytest.raises(ShapeError, match="softmax_cross_entropy"):
        ad.softmax_cross_entropy(x, np.ones((2, 4)))
    with pytest.raises(ShapeError, match="softmax_cross_entropy"):
        ad.softmax_cross_entropy(Tensor(np.ones((0, 3))), np.ones((0, 3)))
    with pytest.raises(ShapeError, match="squared_error"):
        ad.squared_error_terms(x.data, np.ones(3))


def graph_nodes(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(parent for parent, _ in node._vjps)
    return nodes


# -- one node per network -------------------------------------------------------


def small_models():
    """One unfitted model of each kind, built at a small size."""
    rng = np.random.default_rng(20)
    skip = GatedSkipNet(input_dim=5, width=4, num_blocks=3, num_classes=3)._build(rng)
    skip._calibrate_gates(rng.uniform(0, 1, size=(20, 5)), slope=4.0)
    exit_net = EarlyExitNet(input_dim=5, width=4, num_segments=3, num_classes=3)._build(rng)
    est = EnergyEstimator(input_dim=5, width=4, num_blocks=2)
    est._build(rng)
    filt = FilterModel(input_dim=5, width=4, num_blocks=2)
    filt.stem_ = Dense.init(rng, 5, 4)
    filt.blocks_ = [ResidualBlock.init(rng, 4) for _ in range(2)]
    filt.head_ = Dense.init(rng, 4, 2)
    return {"skip": skip, "exit": exit_net, "estimator": est, "filter": filt}


def unfused_network(model, x):
    """The model's one-node output, built unfused, as one Tensor per part."""
    if isinstance(model, GatedSkipNet):
        logits, gates = unfused_skip_forward(model, x)
        return [logits] + gates
    if isinstance(model, EarlyExitNet):
        return unfused_exit_forward(model, x)
    return [unfused_estimator_forward(model, x)]


@pytest.mark.parametrize("kind", ["skip", "exit", "estimator", "filter"])
def test_network_forward_is_one_node_over_one_flat_leaf(kind):
    model = small_models()[kind]
    x = Tensor(np.full((2, 5), 0.5))
    out = model._net()(x)
    assert out.op == "residual_mlp"
    (px, _), (theta, _) = out._vjps
    assert px is x and isinstance(theta, ad.FlatLeaf)
    assert theta.holds(model._net().params)
    assert len(graph_nodes(out)) == 3


def test_a_dropped_network_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        models = small_models()
        for model in models.values():
            ad.tsum(model._net()(Tensor(np.full((2, 5), 0.5))))
        del model, models
        assert gc.collect() == 0
    finally:
        gc.enable()


def rebuilt(model):
    """A fresh model of the same kind over copies of `model`'s current layer
    values: no tensor, layer or list of it is shared."""
    twin = type(model)(**model.get_params())

    def dense(layer):
        return Dense(layer.weight.data.copy(), layer.bias.data.copy())

    def fresh(value):
        if isinstance(value, Dense):
            return dense(value)
        if isinstance(value, ResidualBlock):
            return ResidualBlock(dense(value.lin1), dense(value.lin2))
        if isinstance(value, Tensor):
            return Tensor(value.data.copy())
        return [fresh(v) for v in value] if isinstance(value, list) else value

    for key, value in vars(model).items():
        if key != "_kept_network":
            setattr(twin, key, fresh(value))
    return twin


def network_outputs(model):
    """Every output a model's network gives on a fixed batch, as arrays:
    the soft forward, and the hard inference or the prediction."""
    X = np.random.default_rng(24).uniform(0, 1, size=(6, 5))
    outs = [model._net()(Tensor(X)).data]
    if hasattr(model, "forward_terms"):
        outs.append(model.forward_terms(X)[0])
        for trace in model.infer(X):
            outs += [trace.logits, np.array([trace.flops, trace.active_units])]
    if isinstance(model, EnergyEstimator):
        outs.append(model.predict_terms(X)[0])
    outs.append(model.predict(X))
    return [np.asarray(o, dtype=np.float64).tobytes() for o in outs]


def reuse_models():
    models = small_models()
    est = models["estimator"]
    est.energy_mean_, est.energy_scale_ = 2.0, 0.5
    return models


def layer_changes(kind):
    """Ways to replace part of a model's layers after a forward: name and
    an in-place edit. Each leaves every container but the edited part in
    place, so only a comparison of the layer tensors themselves sees it."""
    rng = np.random.default_rng(25)
    blocks = "segments_" if kind == "exit" else "blocks_"

    def new_lin1_weight(m):
        lin1 = getattr(m, blocks)[0].lin1
        lin1.weight = Tensor(lin1.weight.data + rng.normal(0, 0.5, size=lin1.weight.shape))

    def new_block(m):
        getattr(m, blocks)[-1] = ResidualBlock.init(rng, m.width)

    def new_stem(m):
        m.stem_ = Dense.init(rng, 5, m.width)

    changes = [("lin1.weight", new_lin1_weight), ("block", new_block), ("stem_", new_stem)]
    if kind == "skip":
        def new_gate_entry(m):
            m.gate_biases_[1] = Tensor(np.float64(-3.0))

        def new_gate_list(m):
            m.gate_weights_ = [Tensor(np.float64(w)) for w in (-2.0, 6.0, 1.0)]

        changes += [("gate entry", new_gate_entry), ("gate list", new_gate_list)]
    return changes


@pytest.mark.parametrize("kind", ["skip", "exit", "estimator", "filter"])
def test_network_is_reused_until_a_layer_is_replaced(kind):
    for name, change in layer_changes(kind):
        model = reuse_models()[kind]
        net = model._net()
        before = network_outputs(model)
        assert model._net() is net, "two forwards with no change share one network"
        change(model)
        after = network_outputs(model)
        assert after != before, name
        assert after == network_outputs(rebuilt(model)), name
        assert model._net() is not net and model._net().theta is not net.theta, name


@pytest.mark.parametrize("kind", ["skip", "exit", "estimator", "filter"])
def test_writing_a_view_changes_the_output_without_a_rebuild(kind):
    model = reuse_models()[kind]
    net = model._net()
    before = network_outputs(model)
    weight = model.stem_.weight
    weight.data = weight.data * 0.5 + 0.1
    assert model.stem_.weight is weight
    after = network_outputs(model)
    assert after != before
    assert after == network_outputs(rebuilt(model))
    assert model._net() is net


@pytest.mark.parametrize("kind", ["skip", "exit", "estimator", "filter"])
@pytest.mark.parametrize("x_shape", [(5,), (1, 5), (7, 5)])
def test_network_op_equals_unfused_composition(kind, x_shape):
    model = small_models()[kind]
    rng = np.random.default_rng(sum(x_shape))
    x = Tensor(rng.uniform(0, 1, size=x_shape))
    out = model._net()(x)
    parts = unfused_network(model, x)
    assert np.array_equal(out.data, np.concatenate([p.data for p in parts], axis=-1))
    mix = rng.uniform(0.5, 1.5, size=out.shape)
    width = [p.shape[-1] for p in parts]
    bounds = np.cumsum([0] + width)
    ref = unfused_loss_over_parts(parts, mix, bounds)
    params = model._net().params
    fused = gradients(ad.tsum(ad.mul(out, mix)), [x] + params)
    unfused = gradients(ref, [x] + params)
    assert all(np.array_equal(a, b) for a, b in zip(fused, unfused))
    assert np.any(fused[0] != 0) and any(np.any(g != 0) for g in fused[1:])


def unfused_loss_over_parts(parts, mix, bounds):
    terms = [ad.tsum(ad.mul(p, mix[..., a:b])) for p, a, b in zip(parts, bounds, bounds[1:])]
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize("kind", ["skip", "exit", "estimator", "filter"])
def test_network_op_gradients_match_finite_differences(kind):
    model = small_models()[kind]
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 1, size=(3, 5))
    theta = model._net().theta
    xt = Tensor(x)
    out = model._net()(xt)
    mix = rng.uniform(0.5, 1.5, size=out.shape)
    grads = gradients(ad.tsum(ad.mul(out, mix)), [xt, theta])

    def loss(arrays):
        theta.data = arrays[1]
        return ad.tsum(ad.mul(model._net()(Tensor(arrays[0])), mix)).item()

    fd = finite_difference(loss, [x.copy(), theta.data.copy()])
    assert max_relative_error(grads, fd) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hard_forward_skips_a_block_no_row_fires():
    net = GatedSkipNet(num_blocks=2)._build(np.random.default_rng(22))
    # block 1's hidden layer overflows wherever it runs
    net.stem_.weight.data = np.ones((64, 16))
    net.blocks_[1].lin1.weight.data = np.full((16, 16), 1e308)
    net.gate_biases_[1].data = np.float64(-800.0)
    net.gate_weights_[1].data = np.float64(0.0)
    x = np.full((3, 64), 0.9)
    assert not any(t.gate_decisions[1] for t in net.infer(x))
    with pytest.raises(NonFiniteError, match="residual_mlp"):
        net.forward(Tensor(x), mode="soft")


def test_view_reads_and_writes_its_slice_of_the_flat_leaf():
    a, b = Tensor(np.arange(6.0).reshape(2, 3)), Tensor(np.array(7.0))
    theta, (va, vb) = ad.pack([a, b])
    assert va.shape == (2, 3) and vb.shape == ()
    assert theta.data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
    old = theta.data
    vb.data = 8.0
    assert theta.data is not old and old[-1] == 7.0 and theta.data[-1] == 8.0
    assert va.data.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    with pytest.raises(ShapeError, match="view"):
        va.data = np.zeros(6)


def test_gradient_of_a_view_is_the_slice_of_the_flat_gradient(trained_skip, skip_dataset):
    net = trained_skip._net()
    X = Tensor(skip_dataset.inputs[:8])
    loss = cross_entropy(trained_skip.forward(X, mode="soft")[0],
                         skip_dataset.labels[:8], trained_skip.num_classes)
    (flat,) = gradients(loss, [net.theta])
    for view in net.params:
        (g,) = gradients(loss, [view])
        assert g.tobytes() == flat[view.start:view.stop].reshape(view.shape).tobytes()
        assert np.any(g != 0)


@pytest.mark.parametrize("kind", ["skip", "exit", "estimator", "filter"])
def test_stem_grad_gives_the_stem_slice_of_the_theta_gradient(kind):
    model = small_models()[kind]
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 1, size=(4, 5))
    net = model._net()
    out = net(Tensor(x))
    mix = rng.uniform(-1.5, 1.5, size=out.shape)
    (want,) = gradients(ad.tsum(ad.mul(out, mix)), [net.params[0]])
    seen = []

    def out_grad(value):
        seen.append(value)
        return mix

    dz0 = net.stem_grad(x, out_grad)
    assert seen[0].tobytes() == out.data.tobytes()
    assert dz0.shape == (4, 4)
    assert (x.T @ dz0).tobytes() == want.tobytes()
    # no gradient reaches the stem: zeros of the pre-activation's shape
    assert np.array_equal(net.stem_grad(x, np.zeros_like), np.zeros((4, 4)))


def test_network_computes_its_reverse_walk_once_per_incoming_gradient(monkeypatch):
    from adnn_energy_lab.nn import ResidualMLP
    calls = []
    walk = ResidualMLP._backward

    def counted(self, *args):
        calls.append(1)
        return walk(self, *args)

    monkeypatch.setattr(ResidualMLP, "_backward", counted)
    model = small_models()["skip"]
    out = model._net()(Tensor(np.full((2, 5), 0.4)))
    (_, grad_x), (_, grad_theta) = out._vjps
    g = np.random.default_rng(23).normal(size=out.shape)
    first = grad_x(g)
    grad_theta(g)
    assert len(calls) == 1
    again = grad_x(g.copy())
    assert len(calls) == 2 and again.tobytes() == first.tobytes()


FIT_KINDS = ["skip", "exit", "estimator", "filter"]


def small_fit(kind, **settings):
    """An unfitted small model of `kind` and its training inputs and targets."""
    data = generate_dataset(40, seed=5)
    X, y = data.inputs, data.labels
    if kind == "skip":
        model = GatedSkipNet(**{"num_blocks": 3, "epochs": 2, "sparsity_weight": 0.05, "seed": 2,
                                **settings})
    elif kind == "exit":
        model = EarlyExitNet(**{"num_segments": 3, "epochs": 2, "seed": 2, **settings})
    elif kind == "estimator":
        X = estimator_corpus(40, seed=5)
        model, y = EnergyEstimator(width=8, num_blocks=2, epochs=3, seed=2), X.mean(axis=1)
    else:
        model, y = FilterModel(epochs=2, seed=2), y % 2
    return model, X, y


ATTACK_KINDS = ["input_based", "universal", "ilfo_gate", "ilfo_exit"]


def small_run(kind):
    """A function that runs the fit of a small model of `kind`, or
    `generate` of a three-iteration attack of `kind` on a small model, which
    is fitted here."""
    if kind in FIT_KINDS:
        model, X, y = small_fit(kind)
        return lambda: model.fit(X, y)
    x = np.full(64, 0.3)
    if kind in ("input_based", "universal"):
        est, X, y = small_fit("estimator")
        est.fit(X, y)
        if kind == "input_based":
            return lambda: InputBasedAttack(est, TestGenConfig(iterations=3)).generate(x)
        cfg = TestGenConfig(mode="universal", iterations=3, restarts=2)
        return UniversalAttack(est, cfg).generate
    target = kind.partition("_")[2]
    model, X, y = small_fit("skip" if target == "gate" else "exit")
    model.fit(X, y)
    return lambda: IlfoAttack(model, IlfoConfig(target=target, iterations=3)).generate(x)


@pytest.mark.parametrize("kind", FIT_KINDS + ATTACK_KINDS)
def test_fit_steps_build_no_tensor(kind, monkeypatch):
    """From the moment a fit, or an attack's `generate`, builds its Adam to
    its end, no Tensor is built: the steps run on arrays."""
    run = small_run(kind)
    built, stepping = [], []
    init, adam_init = Tensor.__init__, Adam.__init__

    def counting_init(self, *args, **kwargs):
        if stepping:
            built.append(1)
        init(self, *args, **kwargs)

    def flagging_adam_init(opt, *args, **kwargs):
        adam_init(opt, *args, **kwargs)
        stepping.append(1)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(Adam, "__init__", flagging_adam_init)
    run()
    assert stepping and not built


def _step_losses(net, X, y):
    """Two losses that share one soft forward of `net`."""
    out = net._net()(Tensor(X))
    c = net.num_classes
    logits = ad.columns(out, 0, c)
    gates = ad.tmean(ad.columns(out, c, c + net.num_blocks))
    return [cross_entropy(logits, y, c),
            ad.add(ad.mul(gates, 3.0), ad.tsum(ad.tanh(logits)))]


def test_two_threads_on_one_graph_get_the_serial_gradients(trained_skip, skip_dataset):
    X, y = skip_dataset.inputs[:32], skip_dataset.labels[:32]
    params = trained_skip._params()
    # each reference loss on a graph of its own, so no memo entry is shared
    serial = [[g.tobytes() for g in gradients(_step_losses(trained_skip, X, y)[i], params)]
              for i in range(2)]
    losses = _step_losses(trained_skip, X, y)
    seen = [[] for _ in range(4)]

    def worker(i):
        for _ in range(25):
            seen[i].append([g.tobytes() for g in gradients(losses[i % 2], params)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, runs in enumerate(seen):
        assert len(runs) == 25 and all(r == serial[i % 2] for r in runs)


UNFUSED_LOSSES = {"skip": unfused_skip_loss, "exit": unfused_exit_loss,
                  "estimator": unfused_estimator_loss, "filter": unfused_filter_loss}


@pytest.fixture(scope="module")
def training_step_cases():
    """A briefly fitted model of each kind, its parameters, one batch and
    the oracle that builds the batch's loss unfused."""
    data = generate_dataset(64, seed=3)
    X, y = data.inputs[:32], data.labels[:32]
    skip = GatedSkipNet(epochs=2, sparsity_weight=0.05, seed=1).fit(data.inputs, data.labels)
    exit_net = EarlyExitNet(epochs=2, seed=1).fit(data.inputs, data.labels)
    corpus = estimator_corpus(40, seed=3)
    est = EnergyEstimator(epochs=2, seed=1).fit(corpus, corpus.mean(axis=1))
    targets = (corpus.mean(axis=1)[:32] - est.energy_mean_) / est.energy_scale_
    filt = FilterModel(epochs=2, seed=1).fit(data.inputs, data.labels % 2)
    filt_params = filt.stem_.params + [p for b in filt.blocks_ for p in b.params] + filt.head_.params
    return {
        "skip": (skip, skip._params(), X, y, UNFUSED_LOSSES["skip"]),
        "exit": (exit_net, exit_net._params(), X, y, UNFUSED_LOSSES["exit"]),
        "estimator": (est, est._params(), corpus[:32], targets, UNFUSED_LOSSES["estimator"]),
        "filter": (filt, filt_params, X, y % 2, UNFUSED_LOSSES["filter"]),
    }


@pytest.mark.parametrize("kind", FIT_KINDS)
def test_training_step_equals_unfused_oracle_graph(training_step_cases, kind):
    model, params, X, y, oracle = training_step_cases[kind]
    loss, grad = model._batch_terms(X, y)
    want = oracle(model, X, y)
    assert np.float64(loss).tobytes() == want.data.tobytes()
    for view, g in zip(params, gradients(want, params)):
        assert grad[view.start:view.stop].reshape(view.shape).tobytes() == g.tobytes()


@pytest.mark.parametrize("kind, settings", [
    ("skip", {}), ("skip", {"sparsity_weight": 0.0}), ("skip", {"sparsity_weight": 7.5}),
    ("exit", {}), ("exit", {"num_segments": 1}), ("estimator", {}), ("filter", {})],
    ids=lambda v: v if isinstance(v, str) else "-".join("%s=%s" % kv for kv in v.items()))
def test_batch_terms_equal_the_unfused_graph_step(kind, settings):
    """Loss and the whole theta gradient, byte for byte, against the unfused
    oracle graph of the batch's loss, whose gradient toward each layer
    tensor lands in that tensor's slice of theta."""
    model, X, y = small_fit(kind, **settings)
    model.fit(X, y)
    if kind == "estimator":
        y = (y - model.energy_mean_) / model.energy_scale_
    params = model._net().params
    for rows in (slice(0, 32), slice(32, 40)):
        loss, grad = model._batch_terms(X[rows], y[rows])
        want = UNFUSED_LOSSES[kind](model, X[rows], y[rows])
        want_grad = np.concatenate([g.reshape(-1) for g in gradients(want, params)])
        assert np.float64(loss).tobytes() == want.data.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def _overflowing(kind, where):
    """A small model of `kind` whose training step overflows at `where`: the
    stem or the first block's hidden pre-activation, the last head's logits,
    or the loss. Every stem unit is live on a positive input, and every
    block's branch is zero, so h is the stem's output throughout."""
    model = small_models()[kind]
    views = model._net().params
    n = model.num_segments if kind == "exit" else model.num_blocks
    views[0].data = np.ones(views[0].shape)
    for i in range(n):
        views[4 + 4 * i].data = np.zeros(views[4 + 4 * i].shape)
    weight, bias = views[-2], views[-1]
    if where == "stem":
        views[0].data = np.full(views[0].shape, 1e308)
    elif where == "block":
        views[2].data = np.full(views[2].shape, 1e308)
    elif where == "logits":
        weight.data = np.full(weight.shape, 1e308)
    else:
        # logits the spread of which overflows a log-probability, or a
        # prediction whose squared error overflows
        weight.data = np.zeros(weight.shape)
        bias.data = [1e200] if kind == "estimator" else np.resize([1e308, -1e308], bias.shape)
    return model


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where, op", [("stem", "residual_mlp"), ("block", "residual_mlp"),
                                       ("logits", "residual_mlp"), ("loss", None)])
@pytest.mark.parametrize("kind", FIT_KINDS)
def test_training_step_overflow_names_the_op_the_graph_step_names(kind, where, op):
    # the op names the fused graph step of each fit raised under
    model = _overflowing(kind, where)
    rng = np.random.default_rng(24)
    X = rng.uniform(0.5, 1.0, size=(6, 5))
    classes = 2 if kind == "filter" else 3
    y = rng.normal(size=6) if kind == "estimator" else np.arange(6) % classes
    op = op or ("squared_error" if kind == "estimator" else "softmax_cross_entropy")
    with pytest.raises(NonFiniteError, match="op '%s' produced" % op):
        model._batch_terms(X, y)


@pytest.mark.parametrize("kind", FIT_KINDS)
def test_fit_steps_theta_in_one_array_sliced_once(kind, monkeypatch):
    """Every step of a fit writes the one array theta holds, and the
    network cuts its layer slices from it once; the estimator cuts them once
    more from the checkpoint it restores."""
    held, slices = [], []
    step, slice_layers = Adam.step, ResidualMLP._slice_layers

    def recording_step(opt, grads):
        step(opt, grads)
        held.append(opt.params[0].data)

    def counted_slices(net, data):
        slices.append(data)
        return slice_layers(net, data)

    monkeypatch.setattr(Adam, "step", recording_step)
    monkeypatch.setattr(ResidualMLP, "_slice_layers", counted_slices)
    model, X, y = small_fit(kind)
    model.fit(X, y)
    assert len(held) > 2 and all(data is held[0] for data in held)
    assert slices[0] is held[0]
    assert len(slices) == (2 if kind == "estimator" else 1)


# -- finiteness contract ------------------------------------------------------
# numpy's overflow warning is silenced here, as outside a test run, so the
# library's own check is what raises.


def overflow_net(stem_weight, block_weight=1.0, gate_weight=None):
    """A one-block net on 3 inputs, width 3, whose stem weights, block
    hidden weights and (when given) gate weight are set constants."""
    stem = Dense(np.full((3, 3), stem_weight), np.zeros(3))
    block = ResidualBlock(Dense(np.full((3, 3), block_weight), np.zeros(3)),
                          Dense(np.ones((3, 3)), np.zeros(3)))
    gates = None
    if gate_weight is not None:
        gates = ([Tensor(np.float64(gate_weight))], [Tensor(np.float64(0.0))])
    return ResidualMLP(stem, [block], [Dense(np.ones((3, 2)), np.zeros(2))], gates=gates,
                       pool=np.full((3, 1), 1.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_network_stem_overflow_masked_by_relu_raises():
    # the stem pre-activation is -inf, which the relu would turn into 0
    with pytest.raises(NonFiniteError, match="residual_mlp"):
        overflow_net(-1e200)(Tensor(np.full((2, 3), 1e200)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_network_hidden_overflow_masked_by_relu_raises():
    # the block's hidden pre-activation is -inf, which the relu would turn into 0
    for gate_weight in (None, 1.0):
        net = overflow_net(1e200, block_weight=-1e200, gate_weight=gate_weight)
        with pytest.raises(NonFiniteError, match="residual_mlp"):
            net(Tensor(np.full((2, 3), 1.0)))
        with pytest.raises(NonFiniteError, match="residual_mlp"):
            net.run(np.full((2, 3), 1.0), threshold=0.5 if gate_weight else None)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_network_logits_overflow_raises_in_both_modes():
    # every pre-activation is finite (at most 9e307); only the head overflows
    net = overflow_net(1e154, block_weight=1e-10)
    x = np.full((2, 3), 3e153)
    with pytest.raises(NonFiniteError, match="residual_mlp"):
        net(Tensor(x))
    with pytest.raises(NonFiniteError, match="residual_mlp"):
        net.run(x)


def test_network_rejects_an_input_of_the_wrong_width():
    net = overflow_net(1.0)
    for shape in ((2, 4), (4,), (1, 2, 3)):
        with pytest.raises(ShapeError, match="residual_mlp"):
            net(Tensor(np.ones(shape)))
        with pytest.raises(ShapeError, match="residual_mlp"):
            net.run(np.ones(shape))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_network_gate_infinite_pre_activation_raises():
    # sigmoid(-inf) would read as a closed gate, 0.0
    net = overflow_net(1.0, gate_weight=-1e200)
    with pytest.raises(NonFiniteError, match="residual_mlp"):
        net(Tensor(np.full((1, 3), 1e200)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_entropy_hinge_infinite_log_probability_raises():
    # the second class's log-probability overflows to -inf
    with pytest.raises(NonFiniteError, match="entropy_hinge_sum"):
        ad.entropy_hinge_terms(np.array([[1e308, -1e308]]), 0.5, 2, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_softmax_cross_entropy_infinite_log_probability_raises():
    # the second class's log-probability overflows to -inf
    with pytest.raises(NonFiniteError, match="softmax_cross_entropy"):
        ad.softmax_cross_entropy(Tensor([[1e308, -1e308]]), np.array([[1.0, 0.0]]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backward_overflow_raises_nonfinite_error():
    x, w = Tensor([1e-300]), Tensor([[1e308, 1e308]])
    loss = ad.tsum(ad.matmul(x, w))  # finite: 2e8
    assert np.isfinite(loss.item())
    # d loss / dx = 1e308 + 1e308 overflows
    with pytest.raises(NonFiniteError, match="matmul.grad"):
        gradients(loss, [x])
    # the weight gradient is finite, and the overflowing product toward x
    # lies on no path to w, so it is not evaluated
    (gw,) = gradients(loss, [w])
    assert gw.tolist() == [[1e-300, 1e-300]]


# numbers that make a sum overflow, or are not finite themselves
EXTREMES = [np.nan, np.inf, -np.inf, 1e308, -1e308]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 5000),
                  elements=st.one_of(st.floats(), st.sampled_from(EXTREMES)),
                  fill=st.sampled_from([0.0, 0.5, 1e308, -1e308])),
       st.sampled_from([1, 2, 3]), st.booleans())
def test_require_finite_raises_exactly_on_a_non_finite_entry(flat, rows, transpose):
    a = flat.reshape(rows, -1) if flat.size % rows == 0 else flat
    if transpose:
        a = a.T
    if np.isfinite(a).all():
        ad._require_finite(a, "probe")
    else:
        with pytest.raises(NonFiniteError, match="'probe'"):
            ad._require_finite(a, "probe")


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(), st.sampled_from(EXTREMES)))
def test_require_finite_on_numbers_and_one_entry_arrays(value):
    forms = [value, np.float64(value), np.array(value), np.array([value]), np.array([[value]])]
    for form in forms:
        if np.isfinite(value):
            ad._require_finite(form, "probe")
        else:
            with pytest.raises(NonFiniteError, match="'probe'"):
                ad._require_finite(form, "probe")


@pytest.mark.parametrize("numpy_errors", ["warn", "raise"])
def test_require_finite_passes_a_finite_array_whose_sum_overflows(numpy_errors):
    # the tests turn numpy's warnings into errors; numpy can raise them too
    with np.errstate(all=numpy_errors):
        for a in (np.full(3, 1e308), np.full((2, 2), -1e308), np.full((4, 3), 1e308).T):
            ad._require_finite(a, "probe")
        with pytest.raises(NonFiniteError, match="'probe'"):
            ad._require_finite(np.array([np.inf, -np.inf, 1.0]), "probe")


# -- gradients toward a subset of leaves --------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.booleans(), min_size=8, max_size=8))
def test_gradients_of_subset_equal_entries_of_full_set(seed, picks):
    build, arrays = random_op_mix_graph(np.random.default_rng(seed))
    tensors = [Tensor(a) for a in arrays]
    loss = build(tensors)
    full = gradients(loss, tensors)
    subset = [i for i, pick in enumerate(picks) if pick]
    part = gradients(loss, [tensors[i] for i in subset])
    assert [g.tobytes() for g in part] == [full[i].tobytes() for i in subset]


def test_gradients_of_subset_on_a_soft_model_forward(trained_skip):
    x = Tensor(np.linspace(0.0, 1.0, 2 * trained_skip.input_dim).reshape(2, -1))
    logits, _, _ = trained_skip.forward(x, mode="soft")
    loss = ad.tsum(ad.mul(ad.log_softmax(logits), -1.0))
    params = [trained_skip.stem_.weight] + trained_skip.blocks_[-1].params
    full = gradients(loss, [x] + params)
    for subset in ([x], params, [params[0]]):
        part = gradients(loss, subset)
        expected = [full[([x] + params).index(t)] for t in subset]
        assert [g.tobytes() for g in part] == [g.tobytes() for g in expected]


def test_vjp_toward_a_parent_off_every_path_to_wrt_is_not_called():
    def unreachable(g):
        raise AssertionError("evaluated a VJP whose parent cannot reach wrt")

    x, const = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    prod = Tensor(x.data * const.data, ((x, lambda g: g * const.data), (const, unreachable)), "mul")
    (gx,) = gradients(ad.tsum(prod), [x])
    assert gx.tolist() == [3.0, 4.0]


# -- flat Adam ----------------------------------------------------------------


def test_adam_rejects_gradient_of_wrong_shape():
    p = Tensor(np.zeros(3))
    opt = Adam([p])
    with pytest.raises(ValueError, match="shape"):
        opt.step([np.array(1.0)])
    with pytest.raises(ValueError, match="shape"):
        opt.step([np.zeros((3, 1))])
    assert p.data.tolist() == [0.0, 0.0, 0.0] and opt.t == 0


@pytest.mark.parametrize("name, value", [
    ("lr", math.nan), ("lr", True), ("lr", -0.1), ("lr", math.inf), ("lr", "0.1"),
    ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan), ("beta2", 1.0), ("beta2", True),
    ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan), ("eps", math.inf),
])
def test_adam_rejects_a_bad_setting_when_built(name, value):
    p = Tensor(np.zeros(3))
    with pytest.raises(ValueError, match=name):
        Adam([p], **{name: value})


def test_adam_accepts_the_edges_of_its_ranges():
    p = Tensor(np.ones(2))
    opt = Adam([p], lr=0, beta1=0.0, beta2=np.float64(0.5), eps=np.float32(1e-3))
    opt.step([np.ones(2)])
    assert p.data.tolist() == [1.0, 1.0]


def test_flat_adam_equals_per_parameter_loop_with_rebinding():
    rng = np.random.default_rng(11)
    shapes = [(), (3,), (2, 4), (1,), (4, 1)]
    params = [Tensor(rng.normal(size=s)) for s in shapes]
    opt = Adam(params, lr=0.05)
    state = {}
    for step in range(6):
        if step == 3:
            # a checkpoint restore between steps, as the estimator's fit does
            for p in params:
                p.data = rng.normal(size=p.data.shape)
        grads = [rng.normal(size=s) for s in shapes]
        before = [p.data for p in params]
        snapshot = [b.copy() for b in before]
        expected = adam_per_parameter_steps(snapshot, grads, state, lr=0.05)
        opt.step(grads)
        for p, old, snap, exp in zip(params, before, snapshot, expected):
            assert p.data.shape == exp.shape
            assert p.data.tobytes() == exp.tobytes()
            assert p.data is not old and old.tobytes() == snap.tobytes()


def test_one_parameter_adam_steps_its_own_copy_in_place():
    rng = np.random.default_rng(13)
    start = rng.normal(size=(3, 2))
    snapshot = start.copy()
    p = Tensor(start)
    assert p.data is start   # a Tensor holds a float64 array as it is
    opt = Adam([p], lr=0.05)
    own, state = p.data, {}
    assert own is not start
    for step in range(6):
        if step == 3:
            # a checkpoint restore between steps: copied, then stepped in place
            restored = rng.normal(size=(3, 2))
            kept = restored.copy()
            p.data = restored
        grad = rng.normal(size=(3, 2))
        (expected,) = adam_per_parameter_steps([p.data.copy()], [grad], state, lr=0.05)
        opt.step([grad])
        assert p.data.tobytes() == expected.tobytes()
        if step == 3:
            assert p.data is not restored
            own = p.data
        assert p.data is own
    assert start.tobytes() == snapshot.tobytes()
    assert restored.tobytes() == kept.tobytes()


def test_flat_adam_matches_scalar_recurrence_per_coordinate():
    rng = np.random.default_rng(12)
    shapes = [(), (3,), (2, 2)]
    starts = [rng.normal(size=s) for s in shapes]
    params = [Tensor(a) for a in starts]
    steps = [[rng.normal(size=s) for s in shapes] for _ in range(5)]
    opt = Adam(params, lr=0.01)
    trails = [[] for _ in shapes]
    for grads in steps:
        opt.step(grads)
        for trail, p in zip(trails, params):
            trail.append(p.data.copy())
    for i, start in enumerate(starts):
        for j in np.ndindex(start.shape):
            expected = adam_reference_steps(start[j], [g[i][j] for g in steps], lr=0.01)
            assert np.allclose([t[j] for t in trails[i]], expected, rtol=0, atol=1e-15)


# -- the shared minibatch loop ------------------------------------------------


class _CountingRng:
    """A generator that records the length of every permutation drawn."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = []

    def permutation(self, n):
        self.drawn.append(n)
        return self.rng.permutation(n)


def _toy_problem():
    data = np.random.default_rng(21)
    return data.normal(size=(23, 3)), data.normal(size=(23, 1)), Tensor(data.normal(size=(3, 1)))


def test_fit_minibatch_equals_the_reference_epoch_loop():
    rng, ref_rng, calls = _CountingRng(5), _CountingRng(5), []
    X, y, theta = _toy_problem()
    _, _, ref_theta = _toy_problem()

    def on_epoch(epoch, opt):
        calls.append((epoch, len(rng.drawn), opt.t))

    def batch_terms(Xb, yb):
        # squared_error(Xb @ theta) and its hand-written adjoint
        loss, loss_grad = ad.squared_error_terms(Xb @ theta.data, yb)
        return loss, Xb.T @ loss_grad(ad._ONE)

    def batch_loss(Xb, yb):
        return unfused_squared_error(Tensor(Xb) @ ref_theta, Tensor(yb))

    history = fit_minibatch(batch_terms, theta, X, y, 4, 8, 0.05, rng, on_epoch=on_epoch)
    ref_history = minibatch_reference(batch_loss, ref_theta, X, y, 4, 8, 0.05, ref_rng)
    assert history == ref_history and len(history) == 4
    assert theta.data.tobytes() == ref_theta.data.tobytes()
    assert rng.drawn == ref_rng.drawn == [23] * 4
    # after each epoch: that epoch's permutation drawn, its three steps taken
    assert calls == [(e, e + 1, 3 * (e + 1)) for e in range(4)]
