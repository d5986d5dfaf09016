"""Step-wise joule model over execution traces plus a repeat-and-reject
measurement protocol.

Energy for a block-count trace is base + per_block * active; early-exit
traces pay the prefix of per-segment costs through their exit. Gaussian
noise (if any) perturbs the whole-inference reading, and repeated
measurements discard samples far above the median before averaging, so a
noiseless model yields the step value exactly.
"""

import statistics
from dataclasses import dataclass

import numpy as np

from .base import ParamsMixin
from .seeding import array_fingerprint, derive_rng


class EnergyModel(ParamsMixin):
    """Maps execution traces to joules: a base cost plus per-unit steps.

    per_block_joules may be a scalar (uniform steps, required for
    block-count traces) or a per-segment list for early-exit traces.
    """

    def __init__(self, base_joules=1.0, per_block_joules=0.5, noise_sigma=0.05,
                 seed=0):
        if base_joules <= 0:
            raise ValueError("base_joules must be positive")
        per_block = per_block_joules
        if np.isscalar(per_block):
            if per_block <= 0:
                raise ValueError("per_block_joules must be positive")
        else:
            per_block = [float(v) for v in per_block]
            if not per_block or any(v <= 0 for v in per_block):
                raise ValueError("per-segment joules must be positive")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        self.base_joules = float(base_joules)
        self.per_block_joules = per_block
        self.noise_sigma = float(noise_sigma)
        self.seed = seed

    # -- noiseless step values ------------------------------------------

    def _segment_costs(self, count):
        if np.isscalar(self.per_block_joules):
            return [self.per_block_joules] * count
        if count > len(self.per_block_joules):
            raise ValueError(
                "trace uses %d segments but the model prices only %d"
                % (count, len(self.per_block_joules))
            )
        return self.per_block_joules[:count]

    def noiseless_energy(self, trace):
        """Joules for the trace with sigma treated as 0."""
        if trace.kind == "exit":
            return self.base_joules + sum(self._segment_costs(trace.exit_index + 1))
        if not np.isscalar(self.per_block_joules):
            raise ValueError("block-count traces need a scalar per_block_joules")
        return self.base_joules + self.per_block_joules * trace.active_units

    def step_values(self, max_units):
        """Noiseless energy ladder for 0..max_units active blocks."""
        if not np.isscalar(self.per_block_joules):
            raise ValueError("step ladder is defined for scalar per_block_joules")
        return [self.base_joules + self.per_block_joules * k
                for k in range(max_units + 1)]


def energy_of_trace(model, trace, rng=None):
    """One energy sample for a trace: step value plus Gaussian read noise.

    Noise perturbs the final reading, not individual blocks, and the
    result is clamped at zero. A noisy model needs an rng to draw from.
    """
    value = model.noiseless_energy(trace)
    if model.noise_sigma > 0:
        if rng is None:
            raise ValueError("a noisy energy model needs an rng to sample from")
        value += rng.normal(0.0, model.noise_sigma)
    return max(value, 0.0)


@dataclass(frozen=True)
class MeasurementProtocol:
    repetitions: int = 20
    rejection_factor: float = 1.5

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.rejection_factor <= 1:
            raise ValueError("rejection_factor must exceed 1")


@dataclass(frozen=True)
class EnergyMeasurement:
    raw_samples: tuple
    retained: tuple
    mean: float

    def to_json_row(self, input_id):
        return {
            "input_id": input_id,
            "raw": list(self.raw_samples),
            "retained": list(self.retained),
            "mean": self.mean,
        }


def filter_outliers(samples, protocol=MeasurementProtocol()):
    """Drop samples above rejection_factor times the median; ties kept."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot filter an empty sample list")
    cutoff = protocol.rejection_factor * statistics.median(samples)
    return [v for v in samples if v <= cutoff]


def measure_energy(adnn, energy_model, x, protocol=MeasurementProtocol()):
    """Infer once, sample energy `repetitions` times, reject outliers, average.

    The adnn's `infer` must be deterministic: only the read noise is resampled.
    Its stream is keyed by the model seed and the input's fingerprint, so the
    order and batching of measured inputs do not change the result.
    """
    return measure_many(adnn, energy_model, np.ravel(x), protocol)[0]


def measure_many(adnn, energy_model, inputs, protocol=MeasurementProtocol()):
    """`measure_energy` for every input row; returns a list of EnergyMeasurement.

    The whole batch is inferred in one `infer` call, which must be
    deterministic: the repetitions resample only the read noise.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    measurements = []
    for x, trace in zip(inputs, adnn.infer(inputs)):
        rng = derive_rng(energy_model.seed, "measure", array_fingerprint(x))
        noise = rng.normal(0.0, energy_model.noise_sigma, size=protocol.repetitions)
        raw = np.maximum(energy_model.noiseless_energy(trace) + noise, 0.0).tolist()
        retained = filter_outliers(raw, protocol)
        measurements.append(EnergyMeasurement(
            tuple(raw), tuple(retained), float(np.mean(retained))))
    return measurements
