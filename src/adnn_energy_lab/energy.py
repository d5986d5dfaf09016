"""Step-wise joule model over execution traces plus a repeat-and-reject
measurement protocol.

Energy for a block-count trace is base + per_block * active; early-exit
traces pay the prefix of per-segment costs through their exit. Both are one
step ladder indexed by the trace's active units, which prices a single trace
and a whole `TraceBatch` alike. Gaussian noise (if any) perturbs the
whole-inference reading, and repeated measurements discard samples far above
the median before averaging, so a noiseless model yields the step value
exactly. `measure_many` runs the protocol on the (inputs, repetitions)
matrix of readings in columns: one median per row, and one row-wise sum for
every group of rows that keep the same number of readings. It returns a
`MeasurementBatch` of the readings, the kept mask and the means, whose
`EnergyMeasurement` rows are built only when they are read.

An adnn's `infer` must be deterministic and, on a batch of rows, return a
`TraceBatch`: each input is inferred once, and the repetitions resample
only the read noise. An adnn whose execution varies from call to call
would need one inference per repetition, which this protocol does not do.
A per-segment price list shorter than an exit net's segments raises only
for a batch in which some row exits past its end, so an empty batch never
raises.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .base import ParamsMixin
from .seeding import array_fingerprints, normal_rows
from .validation import (ABOVE_ONE, INT, JOULES, NONNEGATIVE, POSITIVE, SIZE, as_float_array,
                         as_sample_matrix, check_params, is_real)


class EnergyModel(ParamsMixin):
    """Maps execution traces to joules: a base cost plus per-unit steps.

    per_block_joules may be a scalar (uniform steps, required for
    block-count traces) or a per-segment list for early-exit traces.
    """

    # the seed keys every noise stream; a float or a string would be
    # truncated or parsed into some integer's streams
    PARAMS = {"base_joules": POSITIVE, "per_block_joules": JOULES, "noise_sigma": NONNEGATIVE,
              "seed": INT}

    def __init__(self, base_joules=1.0, per_block_joules=0.5, noise_sigma=0.05,
                 seed=0):
        check_params(self.PARAMS, locals())
        self.base_joules = float(base_joules)
        self.per_block_joules = (float(per_block_joules) if np.isscalar(per_block_joules)
                                 else [float(v) for v in per_block_joules])
        # + 0.0 turns a -0.0 into the 0.0 that measures as noiseless
        self.noise_sigma = float(noise_sigma) + 0.0
        self.seed = seed

    # -- noiseless step values ------------------------------------------

    def _ladder(self, kind, top):
        """Noiseless joules for 0..top active units of a `kind` trace:
        blocks run (skip) or segments consumed (exit)."""
        per_block = self.per_block_joules
        if kind == "exit":
            costs = [per_block] * top if np.isscalar(per_block) else per_block[:top]
            if len(costs) < top:
                raise ValueError("trace uses %d segments but the model prices only %d"
                                 % (top, len(costs)))
            return [self.base_joules + sum(costs[:k]) for k in range(top + 1)]
        if not np.isscalar(per_block):
            raise ValueError("block-count traces need a scalar per_block_joules")
        return [self.base_joules + per_block * k for k in range(top + 1)]

    def noiseless_energy(self, trace):
        """Joules for the trace with sigma treated as 0."""
        units = trace.active_units
        return self._ladder(trace.kind, units)[units]

    def noiseless_energies(self, batch):
        """`noiseless_energy` of every row of a TraceBatch, as an array."""
        units = batch.active_units
        if len(units) == 0:
            return np.zeros(0)
        return np.array(self._ladder(batch.kind, int(units.max())))[units]


@dataclass(frozen=True)
class MeasurementProtocol:
    repetitions: int = 20
    rejection_factor: float = 1.5

    # an infinite rejection_factor rejects nothing
    PARAMS = {"repetitions": SIZE, "rejection_factor": ABOVE_ONE}

    def __post_init__(self):
        check_params(self.PARAMS, vars(self))


@dataclass(frozen=True)
class EnergyMeasurement:
    raw_samples: tuple
    retained: tuple
    mean: float


@dataclass(frozen=True, eq=False)
class MeasurementBatch:
    """The protocol's verdict on a batch of inputs, one column per field.

    `raw` is the (n, repetitions) matrix of readings, `kept` the same-shaped
    bool mask of the readings the rejection rule keeps, and `means` the (n,)
    means of the kept readings. Row `i` is `batch[i]`, an `EnergyMeasurement`
    of Python floats built only when it is read; a slice or an index array
    raises `TypeError`, so take rows of the columns instead. The batch
    compares by identity: compare `list(batch)` with a list of rows.
    """

    raw: np.ndarray
    kept: np.ndarray
    means: np.ndarray

    def __len__(self):
        return len(self.means)

    def __getitem__(self, i):
        # one row at an integer index; a slice or an index array raises
        i = operator.index(i)
        return self._row(i, self.raw[i].tolist(), self.kept[i].all(), self.means[i].item())

    def __iter__(self):
        return map(self._row, range(len(self)), self.raw.tolist(),
                   self.kept.all(axis=1).tolist(), self.means.tolist())

    def _row(self, i, raw, kept_all, mean):
        raw = tuple(raw)
        # a row that rejects no reading retains its readings' tuple itself
        retained = raw if kept_all else tuple(itertools.compress(raw, self.kept[i].tolist()))
        return EnergyMeasurement(raw, retained, mean)


def _row_medians(raw):
    """np.median(raw, axis=1, keepdims=True) of a finite matrix, from one
    partition: the middle value of each row, or the mean of the middle
    pair, the sum and division np.median makes."""
    mid = raw.shape[1] // 2
    if raw.shape[1] % 2:
        return np.partition(raw, mid, axis=1)[:, mid:mid + 1]
    pair = np.partition(raw, (mid - 1, mid), axis=1)[:, mid - 1:mid + 1]
    return np.add.reduce(pair, axis=1, keepdims=True) / 2


def reject_and_average(readings, rejection_factor=1.5):
    """The protocol's verdict on an (inputs, repetitions) matrix of readings,
    as a MeasurementBatch: each row keeps its readings at most
    `rejection_factor` times its median, ties kept, and averages them as
    np.mean does. A factor of 1 keeps the readings at most the median; inf
    keeps every reading.

    It runs on the whole matrix: one partition gives every row's median,
    then one row-wise sum runs for every group of rows that keep the same
    number of readings, straight over `raw` when every row keeps all. The
    batch's `raw` is `readings` itself when that is already a float64 array.
    """
    raw = as_float_array(readings, "readings", ndim=2)
    if raw.shape[1] == 0:
        raise ValueError("readings need at least one repetition per row")
    if not (is_real(rejection_factor, inf=True) and rejection_factor >= 1):
        raise ValueError("rejection_factor must be a number of at least 1, or inf, got %r"
                         % (rejection_factor,))
    factor = float(rejection_factor)
    if factor == math.inf:
        # inf * a median of 0 would be NaN, a cutoff no reading passes
        kept = np.ones(raw.shape, dtype=bool)
    else:
        kept = raw <= factor * _row_medians(raw)
    if raw.flags.c_contiguous and np.count_nonzero(kept) == kept.size:
        # every row keeps every reading: `raw` is the one group's values
        return MeasurementBatch(raw, kept, np.add.reduce(raw, axis=1) / raw.shape[1])
    counts = np.count_nonzero(kept, axis=1)
    means = np.empty(len(raw))
    for count in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == count)
        values = raw[rows][kept[rows]].reshape(len(rows), count)
        # np.mean's sum and division: a row-wise reduce sums each row as a
        # reduce of that row alone does
        means[rows] = np.add.reduce(values, axis=1) / count
    return MeasurementBatch(raw, kept, means)


def measure_energy(adnn, energy_model, x, protocol=MeasurementProtocol()):
    """Infer once, sample energy `repetitions` times, reject outliers, average.

    `x` is one input: a vector or a (1, d) row. The adnn's `infer` must be
    deterministic: only the read noise is resampled. Its stream is keyed by
    the model seed and the input's fingerprint, so the order and batching of
    measured inputs do not change the result.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x.ndim == 1 or x.ndim == 2 and len(x) == 1):
        raise ValueError("x must be one input, a vector or a (1, d) row, got shape %s"
                         % (x.shape,))
    return measure_many(adnn, energy_model, x, protocol)[0]


def measure_many(adnn, energy_model, inputs, protocol=MeasurementProtocol()):
    """`measure_energy` for every input row, as a MeasurementBatch.

    The whole batch is inferred in one `infer` call, which must be
    deterministic: the repetitions resample only the read noise. The rows'
    noise streams are keyed by their `seeding.array_fingerprints` and derived
    together by `seeding.normal_rows`, each equal to the row's own
    `derive_rng` stream.
    """
    inputs = as_sample_matrix(inputs, "inputs")
    energies = energy_model.noiseless_energies(adnn.infer(inputs))
    noise = normal_rows(energy_model.seed, ("measure",), array_fingerprints(inputs),
                        energy_model.noise_sigma, protocol.repetitions)
    return reject_and_average(np.maximum(energies[:, None] + noise, 0.0),
                              protocol.rejection_factor)
