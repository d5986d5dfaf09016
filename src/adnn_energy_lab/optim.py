"""Adam with bias correction, in the folded form of Kingma & Ba (ICLR 2015, §2).

Parameters are leaf Tensors, and `step` takes one gradient array per
parameter. Each step makes 11 full-length passes, all in place or into two
scratch arrays allocated with the moments:

- the first moment, m <- b1 m + (1 - b1) g (three passes);
- the second moment unscaled, v <- b2 v + g^2 (three passes; the
  squared gradient is `np.square(g)`, the bytes of `g * g` in about half
  the time of `np.multiply(g, g)`);
- the step alpha m / (sqrt(v) + eps_hat) (five passes), with both bias
  corrections and v's missing factor 1 - b2 folded into the two scalars
  alpha = lr / (1 - b1^t) * sqrt((1 - b2^t) / (1 - b2)) and
  eps_hat = eps * sqrt((1 - b2^t) / (1 - b2)).

This equals the textbook update lr m_hat / (sqrt(v_hat) + eps) up to
rounding. The first moment keeps its (1 - b1) factor: a convex mix of
finite gradients cannot overflow, whereas an unscaled sum of gradients
near the largest float would reach inf and turn the step into inf / inf.

One parameter (a network's flat leaf, an attack's modifier; not a `View`)
is stepped in place, with moments shaped like it: Adam copies its array
when built and binds the parameter to the copy, so the caller's array is
never written and the parameter keeps one array from step to step. Several
parameters are stepped as one flat vector: their gradients and current
`p.data` are concatenated, the update runs once, and each `p.data` is
rebound to its slice of the new vector, so an old array is never written.
Either way `p.data` is read afresh on every step, so a caller may rebind it
(say, to restore a checkpoint) between steps; a rebound single parameter
is copied again before it is stepped, and one rebound to another size is
rejected before `t` or a moment moves. With bias correction the very first
update has magnitude close to `lr` in every coordinate with a nonzero
gradient, which makes the step size directly interpretable.
"""

import math

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
        """Bind the one parameter to a fresh C-ordered copy of its array, shape
        the moments and the scratch arrays like it, and return the copy: the
        array every in-place step writes."""
        p = self.params[0]
        own = np.array(p.data, dtype=np.float64, order="C")
        p.data = own
        self._m, self._v = self._m.reshape(own.shape), self._v.reshape(own.shape)
        self._scratch = tuple(a.reshape(own.shape) for a in self._scratch)
        return own

    def step(self, grads):
        own = self._own
        # the one in-place parameter takes one shape check; any other call all of them
        if own is None or len(grads) != 1 or np.shape(grads[0]) != self.params[0].data.shape:
            if len(grads) != len(self.params):
                raise ValueError("got %d gradients for %d parameters"
                                 % (len(grads), len(self.params)))
            for p, g in zip(self.params, grads):
                if np.shape(g) != p.data.shape:
                    raise ValueError("gradient of shape %s for a parameter of shape %s"
                                     % (np.shape(g), p.data.shape))
        if own is not None and self.params[0].data is not own:   # rebound since the last step
            if self.params[0].data.size != own.size:
                raise ValueError("a parameter of %d entries was rebound to %d"
                                 % (own.size, self.params[0].data.size))
            own = self._own = self._adopt()
        self.t += 1
        if not self.params:
            return
        if own is not None:
            g, data = grads[0], own
        else:
            g = np.concatenate([np.ravel(g) for g in grads])
            data = np.concatenate([p.data.ravel() for p in self.params])
        b1, b2 = self.beta1, self.beta2
        scale = math.sqrt((1.0 - b2 ** self.t) / (1.0 - b2))
        alpha = self.lr / (1.0 - b1 ** self.t) * scale
        m, v = self._m, self._v
        s, u = self._scratch
        # m = b1 m + (1 - b1) g and v = b2 v + g^2, in place
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        v += np.square(g, out=s)
        # update = alpha m / (sqrt(v) + eps_hat)
        np.sqrt(v, out=u)
        u += self.eps * scale
        np.divide(m, u, out=s)
        s *= alpha
        if own is not None:
            data -= s
            return
        data = data - s
        start = 0
        for p in self.params:
            end = start + p.data.size
            p.data = data[start:end].reshape(p.data.shape)
            start = end
