import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnn_energy_lab import autodiff as ad
from adnn_energy_lab.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    gradients,
)
from adnn_energy_lab.data import estimator_corpus, generate_dataset
from adnn_energy_lab.defense import FilterModel
from adnn_energy_lab.estimator import EnergyEstimator
from adnn_energy_lab.models import EarlyExitNet, GatedSkipNet
from adnn_energy_lab.nn import Dense, ResidualBlock, cross_entropy
from adnn_energy_lab.optim import Adam

from oracles import (
    adam_per_parameter_steps,
    adam_reference_steps,
    finite_difference,
    max_relative_error,
    random_op_mix_graph,
    unfused_affine,
    unfused_estimator_loss,
    unfused_exit_loss,
    unfused_filter_loss,
    unfused_mean_of_means,
    unfused_residual_step,
    unfused_sigmoid_gate,
    unfused_skip_loss,
    unfused_softmax_cross_entropy,
    unfused_squared_error,
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
        opt.step_loss(ad.tsum(ad.mul(diff, diff)))
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
    "affine": lambda rng, x_shape: (
        ad.affine, unfused_affine,
        [rng.normal(size=x_shape), rng.normal(size=(6, 5)), rng.normal(size=(5,))]),
    "residual_step": lambda rng, x_shape: (
        ad.residual_step, unfused_residual_step,
        [rng.normal(size=x_shape), rng.normal(size=(6, 5)), rng.normal(size=(5,)),
         rng.normal(size=(5, 6)), rng.normal(size=(6,))]),
    "residual_step_gated": lambda rng, x_shape: (
        ad.residual_step, unfused_residual_step,
        [rng.normal(size=x_shape), rng.normal(size=(6, 5)), rng.normal(size=(5,)),
         rng.normal(size=(5, 6)), rng.normal(size=(6,)),
         rng.uniform(0.0, 1.0, size=x_shape[:-1] + (1,))]),
    "sigmoid_gate": lambda rng, x_shape: (
        ad.sigmoid_gate, unfused_sigmoid_gate,
        [rng.uniform(0.0, 1.0, size=x_shape[:-1] + (1,)), rng.normal(scale=3.0, size=()),
         rng.normal(size=())]),
    "softmax_cross_entropy": lambda rng, x_shape: _bind_constant(
        ad.softmax_cross_entropy, unfused_softmax_cross_entropy,
        rng.normal(scale=2.0, size=x_shape), _one_hot_rows(rng, x_shape)),
    "squared_error": lambda rng, x_shape: _bind_constant(
        ad.squared_error, unfused_squared_error,
        rng.normal(size=x_shape), rng.normal(size=x_shape)),
    "mean_of_means": lambda rng, x_shape: (
        lambda *ts: ad.mean_of_means(ts), lambda *ts: unfused_mean_of_means(ts),
        [rng.normal(size=x_shape), rng.normal(size=(3,)), rng.normal(size=())]),
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


def test_fused_ops_check_shapes():
    x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    with pytest.raises(ShapeError, match="affine"):
        ad.affine(x, Tensor(np.ones((2, 4))), b)
    with pytest.raises(ShapeError, match="affine"):
        ad.affine(x, w, Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="affine"):
        ad.affine(Tensor(np.ones((2, 2, 3))), w, b)
    w2, b2 = Tensor(np.ones((4, 3))), Tensor(np.ones(3))
    with pytest.raises(ShapeError, match="residual_step"):
        ad.residual_step(x, w, b, Tensor(np.ones((3, 3))), b2)
    with pytest.raises(ShapeError, match="residual_step"):
        ad.residual_step(x, w, b, Tensor(np.ones((4, 4))), b)
    with pytest.raises(ShapeError, match="residual_step"):
        ad.residual_step(x, w, b, w2, b2, Tensor(np.ones((3, 1))))
    with pytest.raises(ShapeError, match="residual_step"):
        ad.residual_step(x, w, b, w2, b2, Tensor(np.ones((4, 2, 1))))
    with pytest.raises(ShapeError, match="sigmoid_gate"):
        ad.sigmoid_gate(x, Tensor(np.ones(2)), Tensor(0.0))
    with pytest.raises(ShapeError, match="softmax_cross_entropy"):
        ad.softmax_cross_entropy(x, np.ones((2, 4)))
    with pytest.raises(ShapeError, match="softmax_cross_entropy"):
        ad.softmax_cross_entropy(Tensor(np.ones((0, 3))), np.ones((0, 3)))
    with pytest.raises(ShapeError, match="squared_error"):
        ad.squared_error(x, np.ones(3))
    with pytest.raises(ShapeError, match="mean_of_means"):
        ad.mean_of_means([])


def test_layers_build_one_node_per_affine_map_and_branch():
    rng = np.random.default_rng(10)
    h = Tensor(rng.normal(size=(3, 4)))
    assert Dense.init(rng, 4, 2)(h).op == "affine"
    block = ResidualBlock.init(rng, 4)
    # the skip path and the branch are two products toward h in one node
    out = block(h)
    assert out.op == "residual_step"
    parents = [p for p, _ in out._vjps]
    assert len(parents) == 6 and all(a is b for a, b in zip(parents, [h, h] + block.params))
    gate = Tensor(rng.uniform(size=(3, 1)))
    gated = block(h, gate)
    gated_parents = [p for p, _ in gated._vjps]
    assert gated.op == "residual_step" and len(gated_parents) == 7
    assert all(a is b for a, b in zip(gated_parents, parents + [gate]))


def graph_nodes(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(parent for parent, _ in node._vjps)
    return nodes


def test_skip_training_graph_has_one_node_per_gate_step_and_loss(trained_skip, skip_dataset):
    X, y = skip_dataset.inputs[:32], skip_dataset.labels[:32]
    ops = Counter(node.op for node in graph_nodes(trained_skip._batch_loss(X, y)))
    blocks = trained_skip.num_blocks
    assert ops["sigmoid_gate"] == ops["residual_step"] == blocks
    assert ops["softmax_cross_entropy"] == ops["mean_of_means"] == 1
    assert sum(ops.values()) == 79


def test_residual_step_computes_its_hidden_gradient_once_per_incoming_gradient():
    rng = np.random.default_rng(13)
    block = ResidualBlock.init(rng, 4)
    out = block(Tensor(rng.normal(size=4)))
    # for a 1-D input the b1 product returns the shared hidden gradient itself
    (_, grad_b1) = out._vjps[3]
    g = rng.normal(size=4)
    assert grad_b1(g) is grad_b1(g)
    again = grad_b1(g.copy())
    assert again is not grad_b1(g) and again.tobytes() == grad_b1(g).tobytes()


def _step_losses(net, X, y):
    """Two losses that share one soft forward of `net`."""
    logits, gates, _ = net.forward(Tensor(X), mode="soft")
    return [cross_entropy(logits, y, net.num_classes),
            ad.add(ad.mul(ad.mean_of_means(gates), 3.0), ad.tsum(ad.tanh(logits)))]


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
        "skip": (skip, skip._params(), X, y, unfused_skip_loss),
        "exit": (exit_net, exit_net._params(), X, y, unfused_exit_loss),
        "estimator": (est, est._parameters(), corpus[:32], targets, unfused_estimator_loss),
        "filter": (filt, filt_params, X, y % 2, unfused_filter_loss),
    }


@pytest.mark.parametrize("kind", ["skip", "exit", "estimator", "filter"])
def test_training_step_equals_unfused_oracle_graph(training_step_cases, kind):
    model, params, X, y, oracle = training_step_cases[kind]
    results = []
    for loss in (model._batch_loss(X, y), oracle(model, X, y)):
        results.append([loss.data.tobytes()] + [g.tobytes() for g in gradients(loss, params)])
    assert results[0] == results[1]


# -- finiteness contract ------------------------------------------------------
# numpy's overflow warning is silenced here, as outside a test run, so the
# library's own check is what raises.


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_affine_overflow_raises_nonfinite_error():
    with pytest.raises(NonFiniteError, match="affine"):
        ad.affine(Tensor(np.full(4, 1e200)), Tensor(np.full((4, 2), 1e200)), Tensor(np.zeros(2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_residual_step_hidden_overflow_masked_by_relu_raises():
    # the hidden pre-activation is -inf, which the relu would turn into 0
    h = Tensor(np.full((2, 3), 1e200))
    w1, b1 = Tensor(np.full((3, 3), -1e200)), Tensor(np.zeros(3))
    w2, b2 = Tensor(np.ones((3, 3))), Tensor(np.zeros(3))
    for s in (None, Tensor(np.ones((2, 1)))):
        with pytest.raises(NonFiniteError, match="residual_step"):
            ad.residual_step(h, w1, b1, w2, b2, s)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sigmoid_gate_infinite_pre_activation_raises():
    # sigmoid(-inf) would read as a closed gate, 0.0
    with pytest.raises(NonFiniteError, match="sigmoid_gate"):
        ad.sigmoid_gate(Tensor([[1e200]]), Tensor(-1e200), Tensor(0.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_softmax_cross_entropy_infinite_log_probability_raises():
    # the second class's log-probability overflows to -inf
    with pytest.raises(NonFiniteError, match="softmax_cross_entropy"):
        ad.softmax_cross_entropy(Tensor([[1e308, -1e308]]), np.array([[1.0, 0.0]]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backward_overflow_raises_nonfinite_error():
    x, w, b = Tensor([1e-300]), Tensor([[1e308, 1e308]]), Tensor(np.zeros(2))
    loss = ad.tsum(ad.affine(x, w, b))  # finite: 2e8
    assert np.isfinite(loss.item())
    # d loss / dx = 1e308 + 1e308 overflows
    with pytest.raises(NonFiniteError, match="affine.grad"):
        gradients(loss, [x])
    # the weight gradient is finite, and the overflowing product toward x
    # lies on no path to w, so it is not evaluated
    (gw,) = gradients(loss, [w])
    assert gw.tolist() == [[1e-300, 1e-300]]


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
