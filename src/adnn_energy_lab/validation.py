"""Input validation helpers used at public API boundaries, and the kinds of
setting value that a settings table maps each setting to (README.md,
"Settings", lists them)."""

import math
import numbers

import numpy as np


def is_int(value):
    """An integer, numpy's included, that is not a bool."""
    # a plain int skips the slower abstract-class check
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_real(value, inf=False):
    """A real number, numpy's included, that is neither a bool nor NaN, and
    finite unless `inf` allows an infinite one. An integer past the float
    range is none: it has no float value."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) or inf and not math.isnan(value)
    except OverflowError:
        return False


def _is_positive(value):
    return is_real(value) and value > 0


def _is_list_of(value, check):
    """A list, tuple or 1-D array whose every entry passes `check`."""
    return ((isinstance(value, (list, tuple))
             or isinstance(value, np.ndarray) and value.ndim == 1)
            and all(check(v) for v in value))


# kinds of setting value, named by what they must be; every numeric kind
# rests on is_int or is_real, so a bool or a NaN is none of them
SIZE = "a positive integer"
COUNT = "a nonnegative integer"
INT = "an integer"
COUNTS = "a list of nonnegative integers"
FLAG = "a bool"
REAL = "a finite number"
REAL_OR_NONE = "None or a finite number"
NONNEGATIVE = "a finite nonnegative number"
POSITIVE = "a finite positive number"
OPEN_UNIT = "a number in (0, 1)"
FRACTION = "a number in [0, 1)"
ABOVE_ONE = "a number above 1, or inf"
JOULES = "a finite positive number, or a nonempty list of them"
LADDER = "an ascending list of numbers in [0, 1]"


KINDS = {
    SIZE: lambda v: is_int(v) and v >= 1,
    COUNT: lambda v: is_int(v) and v >= 0,
    INT: is_int,
    COUNTS: lambda v: isinstance(v, list) and all(is_int(t) and t >= 0 for t in v),
    FLAG: lambda v: isinstance(v, (bool, np.bool_)),
    REAL: is_real,
    REAL_OR_NONE: lambda v: v is None or is_real(v),
    NONNEGATIVE: lambda v: is_real(v) and v >= 0,
    POSITIVE: _is_positive,
    OPEN_UNIT: lambda v: is_real(v) and 0 < v < 1,
    FRACTION: lambda v: is_real(v) and 0 <= v < 1,
    ABOVE_ONE: lambda v: is_real(v, inf=True) and v > 1,
    JOULES: lambda v: _is_positive(v) or _is_list_of(v, _is_positive) and len(v) > 0,
    LADDER: lambda v: (_is_list_of(v, lambda t: is_real(t) and 0 <= t <= 1)
                       and list(v) == sorted(v)),
}


def check_params(table, values):
    """Raise ValueError naming the first parameter of `table`, a map from
    parameter name to kind, whose value in the mapping `values` is not of
    that kind; a name `values` lacks is skipped.

    A settings class keeps one such table, its `PARAMS`, and checks its
    constructor's arguments (`locals()`) or attributes (`vars(self)`)
    against it when it is built (and so in `set_params`), and its
    attributes again when it fits, so that an attribute assigned directly
    is refused before a step. Its payload loader reads the kinds of the
    saved keys from the same table and raises `DataFormatError`, so a model
    that builds also loads from its own payload.
    """
    for name, kind in table.items():
        if name in values and not KINDS[kind](values[name]):
            raise ValueError("%s must be %s, got %r" % (name, kind, values[name]))


def as_float_array(x, name="x", ndim=None):
    """Coerce to a float64 ndarray, rejecting non-finite values."""
    arr = np.asarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError("%s must be %d-dimensional, got shape %s" % (name, ndim, arr.shape))
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("%s contains non-finite values" % name)
    return arr


def as_sample_matrix(x, name="X", feature_dim=None):
    """Coerce to a 2-D (n_samples, n_features) float64 matrix.

    A single 1-D sample is promoted to one row. A row needs at least one
    feature; a matrix of no rows is valid, a (0, 0) one too.
    """
    arr = as_float_array(x, name)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("%s must be 1-D or 2-D, got shape %s" % (name, arr.shape))
    if arr.shape[1] == 0 and len(arr):
        raise ValueError("%s has rows with no features, shape %s" % (name, arr.shape))
    if feature_dim is not None and arr.shape[1] != feature_dim:
        raise ValueError(
            "%s has %d features, expected %d" % (name, arr.shape[1], feature_dim)
        )
    return arr


def check_unit_range(x, name="x"):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError(
            "%s must lie in [0, 1], got range [%g, %g]" % (name, arr.min(), arr.max())
        )
    return arr


def as_label_array(y, name="y", n=None, num_classes=None):
    """Coerce to 1-D int64 labels, optionally of length n and in [0, num_classes)."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError("%s must be 1-D, got shape %s" % (name, arr.shape))
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(np.asarray(arr, dtype=np.float64))
        if not (np.isfinite(rounded).all() and np.allclose(arr, rounded)):
            raise ValueError("%s must contain integer labels" % name)
        if rounded.size and np.abs(rounded).max() >= 2.0 ** 63:
            raise ValueError("%s has a label beyond the int64 range" % name)
        arr = rounded.astype(np.int64)
    else:
        arr = arr.astype(np.int64)
    if n is not None and arr.shape[0] != n:
        raise ValueError("%s has length %d, expected %d" % (name, arr.shape[0], n))
    if num_classes is not None and arr.size and (arr.min() < 0 or arr.max() >= num_classes):
        raise ValueError(
            "%s must lie in [0, %d), got range [%d, %d]"
            % (name, num_classes, arr.min(), arr.max())
        )
    return arr


def check_same_length(a, b, name_a="a", name_b="b"):
    if len(a) != len(b):
        raise ValueError(
            "%s and %s must have the same length (%d vs %d)"
            % (name_a, name_b, len(a), len(b))
        )
