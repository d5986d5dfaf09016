"""Adam with bias correction.

Parameters are leaf Tensors, and `step` takes one gradient array per
parameter. The moments `m` and `v` are single flat arrays, updated in place,
and the update's temporaries go to two scratch arrays allocated with them.

One parameter (a network's flat leaf, an attack's modifier; not a `View`)
is stepped in place: Adam copies its array when built and binds the
parameter to the copy, so the caller's array is never written and the
parameter keeps one array from step to step. Several parameters are
stepped as one flat vector: their gradients and current `p.data` are
concatenated, the update runs once, and each `p.data` is rebound to its
slice of the new vector, so an old array is never written. Either way
`p.data` is read afresh on every step, so a caller may rebind it (say, to
restore a checkpoint) between steps; a rebound single parameter is copied
again before it is stepped. With bias correction the very first update has
magnitude close to `lr` in every coordinate with a nonzero gradient, which
makes the step size directly interpretable.
"""

import numpy as np

from .autodiff import View
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
        # a View hands out a new slice on every read, so it is rebound instead
        one = len(self.params) == 1 and not isinstance(self.params[0], View)
        self._own = self._adopt() if one else None

    def _adopt(self):
        """Bind the one parameter to a fresh C-ordered copy of its array, and
        return that copy: the array every in-place step writes."""
        p = self.params[0]
        own = np.array(p.data, dtype=np.float64, order="C")
        p.data = own
        return own

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
        if self._own is not None:
            if self.params[0].data is not self._own:   # rebound since the last step
                self._own = self._adopt()
            g = np.ravel(grads[0])
            data = self._own.reshape(-1)
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
        np.multiply(self.lr, s, out=s)
        if self._own is not None:
            np.subtract(data, s, out=data)
            return
        data = data - s
        start = 0
        for p in self.params:
            end = start + p.data.size
            p.data = data[start:end].reshape(p.data.shape)
            start = end
