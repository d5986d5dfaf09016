"""Input validation helpers used at public API boundaries."""

import numpy as np


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

    A single 1-D sample is promoted to one row.
    """
    arr = as_float_array(x, name)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("%s must be 1-D or 2-D, got shape %s" % (name, arr.shape))
    if feature_dim is not None and arr.shape[1] != feature_dim:
        raise ValueError(
            "%s has %d features, expected %d" % (name, arr.shape[1], feature_dim)
        )
    return arr


def check_unit_range(x, name="x", tol=0.0):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (arr.min() < -tol or arr.max() > 1.0 + tol):
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
