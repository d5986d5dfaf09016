"""Black-box energy regressor: learns joules from (input, measured mean)
pairs without ever touching the target model's internals.

A residual MLP (stem 64->64, four width-64 residual blocks, linear head)
regresses normalized energies; predictions de-normalize back to joules.
The head is linear on purpose so the ascent signal used by test-input
generation stays unbounded.
"""

import math

import numpy as np

from .autodiff import _ONE, _checked, squared_error_terms
from .base import ParamsMixin, check_is_fitted
from .nn import (Dense, ResidualBlock, fit_minibatch, kept_network, layers_from_payload,
                 params_to_payload, payload_layout)
from .seeding import derive_rng
from .serialize import payload_config
from .validation import (FRACTION, INT, NONNEGATIVE, POSITIVE, REAL, SIZE, as_sample_matrix,
                         check_params, check_same_length)


def estimator_loss(predictions, targets):
    """Mean squared error between predicted and measured joules."""
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    check_same_length(predictions, targets, "predictions", "targets")
    if len(predictions) == 0:
        raise ValueError("need at least one prediction/target pair")
    return float(np.mean((predictions - targets) ** 2))


class EnergyEstimator(ParamsMixin):
    """Regression network imitating a target's energy consumption."""

    PARAMS = {"input_dim": SIZE, "width": SIZE, "num_blocks": SIZE, "epochs": SIZE,
              "lr": NONNEGATIVE, "batch_size": SIZE, "val_fraction": FRACTION, "seed": INT,
              # fitted state, saved with the sizes; checked only when a payload loads
              "energy_mean": REAL, "energy_scale": POSITIVE}
    _SAVED = ("input_dim", "width", "num_blocks", "energy_mean", "energy_scale")

    def __init__(self, input_dim=64, width=64, num_blocks=4, epochs=2000,
                 lr=0.005, batch_size=32, val_fraction=0.1, seed=0,
                 target_id=None):
        self.input_dim = input_dim
        self.width = width
        self.num_blocks = num_blocks
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.val_fraction = val_fraction
        self.seed = seed
        self.target_id = target_id
        check_params(self.PARAMS, vars(self))

    # -- construction ----------------------------------------------------

    def _build(self, rng):
        self.stem_ = Dense.init(rng, self.input_dim, self.width)
        self.blocks_ = [ResidualBlock.init(rng, self.width)
                        for _ in range(self.num_blocks)]
        self.head_ = Dense.init(rng, self.width, 1)

    def _net(self):
        """The network over the current layers; see `nn.kept_network`."""
        return kept_network(self, self.stem_, self.blocks_, [self.head_])

    def _params(self):
        return self._net().params

    def _layout(self):
        return payload_layout(self.input_dim, self.width, self.num_blocks, 1, "block%d", ["head"])

    def _batch_terms(self, X, targets, net=None):
        """Mean over the batch of the squared error in normalized joules, and
        its gradient toward theta, on arrays; checked as the graph
        squared_error(network(X), targets) checks it. `net` is the network,
        if already resolved."""
        out, grad_theta = (self._net() if net is None else net).theta_terms(X)
        loss, loss_grad = squared_error_terms(out, targets.reshape(-1, 1))
        return (_checked(loss, "squared_error"),
                grad_theta(_checked(loss_grad(_ONE), "squared_error.grad")))

    # -- training ----------------------------------------------------------

    def fit(self, X, y):
        """Regress measured joules on inputs; holds out a seeded 10% split."""
        check_params(self.PARAMS, vars(self))
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        check_same_length(X, y, "X", "y")
        if len(X) < 20:
            raise ValueError("need at least 20 measured pairs, got %d" % len(X))

        self.energy_mean_ = float(y.mean())
        scale = float(y.std())
        self.energy_scale_ = scale if scale > 0 else 1.0
        targets = (y - self.energy_mean_) / self.energy_scale_

        rng = derive_rng(self.seed, "estimator")
        order = rng.permutation(len(X))
        n_val = max(1, int(round(self.val_fraction * len(X))))
        val_idx, train_idx = order[:n_val], order[n_val:]

        self._build(rng)
        net = self._net()
        theta = net.theta
        self.val_history_ = []
        best = [np.inf, theta.data.copy(), 0]
        # burn-in: barely-trained nets can win the (small) validation split
        # by luck while still being useless off-manifold
        warmup = self.epochs // 10

        def on_epoch(epoch, opt):
            (val_norm,), _ = net.run(X[val_idx])
            val_mse = float(np.mean((val_norm.reshape(-1) - targets[val_idx]) ** 2))
            self.val_history_.append(val_mse)
            if epoch >= warmup and val_mse < best[0]:
                best[:] = val_mse, theta.data.copy(), epoch
            # cosine-annealed step size for the next epoch (the first runs at lr itself):
            # the late tiny steps let the fit settle instead of bouncing on minibatch noise
            opt.lr = self.lr * 0.5 * (1.0 + math.cos(math.pi * (epoch + 1) / max(1, self.epochs)))

        self.history_ = fit_minibatch(lambda Xb, yb: self._batch_terms(Xb, yb, net), theta,
                                      X[train_idx], targets[train_idx], self.epochs,
                                      self.batch_size, self.lr, rng, on_epoch)
        # keep the checkpoint that generalized best, not the last one;
        # late epochs can trade held-out accuracy for training-set fit
        theta.data = best[1]
        self.best_epoch_ = best[2]

        val_pred = self.predict(X[val_idx])
        self.val_rmse_ = float(np.sqrt(estimator_loss(val_pred, y[val_idx])))
        span = float(y.max() - y.min())
        # degenerate (all-equal) targets have no range to be a fraction of
        self.val_relative_rmse_ = self.val_rmse_ / span if span > 0 else 0.0
        return self

    # -- inference ---------------------------------------------------------

    def predict_terms(self, f):
        """Joules, out * scale + mean over the network's output, on array `f`
        (a vector or a batch of rows), and their vector-Jacobian product toward
        `f`, with no graph; checked as "residual_mlp", then "denormalize", and
        the products under each name plus ".grad"."""
        check_is_fitted(self, "head_")
        out, vjp = self._net().terms(f)
        scale = self.energy_scale_
        return (_checked(out * scale + self.energy_mean_, "denormalize"),
                lambda g: vjp(_checked(g * scale, "denormalize.grad")))

    def predict(self, X):
        check_is_fitted(self, "head_")
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        (out,), _ = self._net().run(X)
        return (out * self.energy_scale_ + self.energy_mean_).reshape(-1)

    # -- serialization -------------------------------------------------------

    def to_payload(self):
        check_is_fitted(self, "head_")
        return {
            "kind": "estimator",
            "config": {
                "input_dim": self.input_dim, "width": self.width,
                "num_blocks": self.num_blocks, "target_id": self.target_id,
                "energy_mean": self.energy_mean_,
                "energy_scale": self.energy_scale_,
            },
            "params": params_to_payload(self._layout(), self._params()),
        }

    @classmethod
    def from_payload(cls, payload):
        config = payload_config(payload, cls.PARAMS, cls._SAVED)
        est = cls(input_dim=config["input_dim"], width=config["width"],
                  num_blocks=config["num_blocks"],
                  target_id=config.get("target_id"))
        est.stem_, est.blocks_, _, (est.head_,) = layers_from_payload(
            payload, est._layout(), est.num_blocks)
        est.energy_mean_ = float(config["energy_mean"])
        est.energy_scale_ = float(config["energy_scale"])
        return est

