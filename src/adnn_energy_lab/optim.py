"""Adam with bias correction.

Parameters are leaf Tensors. `step` updates all of them as one flat vector:
the moments `m` and `v` are single flat arrays, the gradients and the current
`p.data` of every parameter are concatenated (one parameter, such as a
network's flat leaf, is used as it is), the update runs once, and each
`p.data` is rebound to its slice of the new vector between graph
constructions. `m` and `v` are updated in place, and the update's
temporaries go to two scratch arrays allocated with them, so a step
allocates only the new parameter vector. A parameter's old array is never
written, and `p.data` is read afresh on every step, so a caller may rebind
it (say, to restore a checkpoint) between steps. With bias correction the
very first update has magnitude close to `lr` in every coordinate with a
nonzero gradient, which makes the step size directly interpretable.
"""

import numpy as np

from .autodiff import gradients
from .validation import FRACTION, NONNEGATIVE, POSITIVE, check_params


class Adam:
    # checked once, when built: a beta of 1 zeroes a bias correction, and a
    # NaN step size would write NaN into a leaf that no check reads
    PARAMS = {"lr": NONNEGATIVE, "beta1": FRACTION, "beta2": FRACTION, "eps": POSITIVE}

    def __init__(self, params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        check_params(self.PARAMS, locals())
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        size = sum(p.data.size for p in self.params)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, grads):
        if len(grads) != len(self.params):
            raise ValueError("got %d gradients for %d parameters" % (len(grads), len(self.params)))
        for p, g in zip(self.params, grads):
            if np.shape(g) != p.data.shape:
                raise ValueError("gradient of shape %s for a parameter of shape %s"
                                 % (np.shape(g), p.data.shape))
        self.t += 1
        if not self.params:
            return
        if len(self.params) == 1:
            g = np.ravel(grads[0])
            data = self.params[0].data.ravel()
        else:
            g = np.concatenate([np.ravel(g) for g in grads])
            data = np.concatenate([p.data.ravel() for p in self.params])
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v = self._m, self._v
        s, u = self._scratch
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, in place
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        np.multiply(g, g, out=s)
        v += np.multiply(1.0 - b2, s, out=s)
        # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=s)
        np.sqrt(np.divide(v, bc2, out=u), out=u)
        np.divide(s, np.add(u, self.eps, out=u), out=s)
        data = data - np.multiply(self.lr, s, out=s)
        start = 0
        for p in self.params:
            end = start + p.data.size
            p.data = data[start:end].reshape(p.data.shape)
            start = end

    def step_loss(self, loss):
        """Backward pass on `loss` followed by one update; returns the loss."""
        self.step(gradients(loss, self.params))
        return float(loss.data)
