"""Shared estimator plumbing: parameter introspection and fitted-state checks."""

import inspect


class NotFittedError(RuntimeError):
    """Raised when predict/transform is called before fit."""


class ParamsMixin:
    """get_params/set_params over the constructor signature.

    Constructor arguments are treated as hyperparameters and stored verbatim
    under the same attribute names. Fitted state uses trailing-underscore
    attributes and is never reported by get_params.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set hyperparameters, checked as the constructor checks them.

        A model is built from the current parameters with these replaced
        before anything is assigned, so an unknown name or a value the
        constructor rejects raises ValueError and leaves `self` unchanged.
        Each parameter then takes the value the constructor stored.
        """
        valid = set(self._param_names())
        for key in params:
            if key not in valid:
                raise ValueError(
                    "unknown parameter %r for %s; valid parameters: %s"
                    % (key, type(self).__name__, sorted(valid))
                )
        checked = type(self)(**{**self.get_params(), **params})
        for key in params:
            setattr(self, key, getattr(checked, key))
        return self

    def __repr__(self):
        args = ", ".join("%s=%r" % (k, v) for k, v in self.get_params().items())
        return "%s(%s)" % (type(self).__name__, args)


def check_is_fitted(obj, *attrs):
    missing = [a for a in attrs if getattr(obj, a, None) is None]
    if missing:
        raise NotFittedError(
            "%s is not fitted yet; call fit first (missing: %s)"
            % (type(obj).__name__, ", ".join(missing))
        )
