"""Layers shared by the adaptive models, the energy regressor and the filter.

FLOPs accounting is fixed at 2 * fan_in * fan_out per affine map (one
multiply plus one add per weight). Activations, pooling and gate heads are
treated as free; only affine maps carry cost.
"""

import numpy as np

from .autodiff import (Tensor, affine, log_softmax, mul, residual_step, softmax,
                       softmax_cross_entropy, tmean, tsum)
from .serialize import param_from_json


def xavier_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Dense:
    """Affine map x @ W + b. Accepts a single vector or a batch of rows."""

    def __init__(self, weight, bias):
        self.weight = weight if isinstance(weight, Tensor) else Tensor(weight)
        self.bias = bias if isinstance(bias, Tensor) else Tensor(bias)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                "weight must be 2-D with bias matching its columns, got %s / %s"
                % (self.weight.shape, self.bias.shape)
            )

    @classmethod
    def init(cls, rng, fan_in, fan_out):
        return cls(xavier_uniform(rng, fan_in, fan_out), np.zeros(fan_out))

    @classmethod
    def from_payload(cls, payload, prefix, fan_in, fan_out):
        """The layer stored under `prefix` in a model payload."""
        return cls(param_from_json(payload, prefix + ".weight", (fan_in, fan_out)),
                   param_from_json(payload, prefix + ".bias", (fan_out,)))

    @property
    def fan_in(self):
        return self.weight.shape[0]

    @property
    def fan_out(self):
        return self.weight.shape[1]

    @property
    def flops(self):
        return 2 * self.fan_in * self.fan_out

    @property
    def params(self):
        return [self.weight, self.bias]

    def __call__(self, x):
        return affine(x, self.weight, self.bias)


class ResidualBlock:
    """h + s * lin2(relu(lin1(h))), both affine maps width -> width.

    `s` scales the branch: a soft gate Tensor, a hard 0/1 fire mask, or None
    for the plain block. Each call is one `autodiff.residual_step` node.
    """

    def __init__(self, lin1, lin2):
        self.lin1 = lin1
        self.lin2 = lin2

    @classmethod
    def init(cls, rng, width):
        return cls(Dense.init(rng, width, width), Dense.init(rng, width, width))

    @classmethod
    def from_payload(cls, payload, prefix, width):
        return cls(Dense.from_payload(payload, prefix + ".lin1", width, width),
                   Dense.from_payload(payload, prefix + ".lin2", width, width))

    @property
    def flops(self):
        return self.lin1.flops + self.lin2.flops

    @property
    def params(self):
        return self.lin1.params + self.lin2.params

    def __call__(self, h, s=None):
        return residual_step(h, *self.lin1.params, *self.lin2.params, s)


def one_hot(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for %d classes" % num_classes)
    eye = np.eye(num_classes)
    return eye[labels]


def cross_entropy(logits, labels, num_classes):
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    return softmax_cross_entropy(logits, one_hot(labels, num_classes))


def uniform_cross_entropy(logits):
    """Cross-entropy of softmax(logits) rows against the uniform distribution:
    -mean_k log p_k. A smooth stand-in for entropy that shares its maximizer."""
    return mul(tmean(log_softmax(logits)), -1.0)


def entropy_from_logits(logits):
    """Shannon entropy of softmax(logits) rows, differentiable and safe when
    some probabilities underflow to zero (0 * log 0 = 0)."""
    p = softmax(logits)
    plogp = tsum(mul(p, log_softmax(logits)), axis=-1)
    return mul(plogp, -1.0)
