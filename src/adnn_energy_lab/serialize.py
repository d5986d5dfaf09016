"""JSON wire formats for arrays and fitted models.

Arrays travel as {"shape": [...], "data": [flat row-major values]}. Floats
rely on repr round-tripping, so a dump/load cycle is lossless.
"""

import json
import math
import numbers

import numpy as np


class DataFormatError(ValueError):
    """Malformed serialized payload."""


def array_to_json(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}


def array_from_json(obj, name="array"):
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise DataFormatError("%s must be an object with 'shape' and 'data'" % name)
    if not _KINDS[COUNTS](obj["shape"]):
        raise DataFormatError("%s shape must be %s" % (name, COUNTS))
    shape = tuple(int(s) for s in obj["shape"])
    try:
        data = np.asarray(obj["data"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DataFormatError("%s data must be numbers" % name) from None
    expected = math.prod(shape)
    if data.size != expected:
        raise DataFormatError(
            "%s carries %d values but shape %s needs %d"
            % (name, data.size, list(shape), expected)
        )
    if data.size and not np.isfinite(data).all():
        raise DataFormatError("%s contains non-finite values" % name)
    return data.reshape(shape)


# kinds of config value, named by what they must be
SIZE = "a positive integer"
COUNT = "a nonnegative integer"
COUNTS = "a list of nonnegative integers"
REAL = "a finite number"
POSITIVE = "a finite positive number"
REALS = "a list of finite numbers"


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


_KINDS = {
    SIZE: lambda v: _is_int(v) and v >= 1,
    COUNT: lambda v: _is_int(v) and v >= 0,
    COUNTS: lambda v: isinstance(v, list) and all(_is_int(t) and t >= 0 for t in v),
    REAL: _is_real,
    POSITIVE: lambda v: _is_real(v) and v > 0,
    REALS: lambda v: isinstance(v, list) and all(_is_real(t) for t in v),
}


def payload_config(payload, spec, optional=()):
    """A model payload's config object, checked against `spec`.

    `spec` maps each key to the kind of value it must hold (SIZE, COUNT,
    REAL, POSITIVE or REALS). Every key is required except those in
    `optional`, which are checked when present. Call it before parsing any
    parameter, so that a bad config is reported as such.
    """
    config = payload.get("config") if isinstance(payload, dict) else None
    if not isinstance(config, dict):
        raise DataFormatError("payload needs a 'config' object")
    missing = [k for k in spec if k not in config and k not in optional]
    if missing:
        raise DataFormatError("payload config lacks %s" % ", ".join(missing))
    for key, kind in spec.items():
        if key in config and not _KINDS[kind](config[key]):
            raise DataFormatError("payload config %r must be %s, got %r"
                                  % (key, kind, config[key]))
    return config


def from_config(factory, **kwargs):
    """factory(**kwargs) for values read from a payload config: a value the
    factory rejects with ValueError, such as one out of its range, is
    reported as DataFormatError."""
    try:
        return factory(**kwargs)
    except ValueError as err:
        raise DataFormatError("payload config: %s" % err) from None


def param_from_json(payload, key, shape):
    """Parameter `key` of a model payload, in the shape its config implies."""
    params = payload.get("params")
    if not isinstance(params, dict) or key not in params:
        raise DataFormatError("payload lacks parameter %r" % key)
    arr = array_from_json(params[key], key)
    if arr.shape != tuple(shape):
        raise DataFormatError("%s has shape %s, the config implies %s"
                              % (key, list(arr.shape), list(shape)))
    return arr


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path, name="file"):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as err:
        raise DataFormatError("%s is not valid JSON: %s" % (name, err)) from None
