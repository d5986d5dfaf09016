"""Synthetic 8x8 grayscale classification set with graded difficulty.

Each class owns a fixed bright-band prototype. An example is its class
prototype plus elementwise uniform noise whose amplitude is drawn per
example; that amplitude, scaled to [0, 1], is recorded as the example's
difficulty. Harder examples are therefore literally noisier ones.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng
from .serialize import DataFormatError, dump_json, load_json
from .validation import as_label_array, as_sample_matrix, check_unit_range


def class_prototypes(num_classes, input_dim=64, contrast=0.8):
    """One prototype per class: a bright band on a dim background, bands disjoint.

    The band sits ``contrast`` above the background, both centered on 0.5, so
    low-contrast prototypes stay away from the clamp rails and genuinely blur
    together under noise instead of leaving tell-tale saturated pixels.
    """
    if num_classes < 2 or input_dim < num_classes:
        raise ValueError("need >= 2 classes and input_dim >= num_classes")
    if not 0.0 < contrast <= 1.0:
        raise ValueError("contrast must be in (0, 1]")
    protos = np.full((num_classes, input_dim), 0.5 - contrast / 2.0)
    bounds = np.linspace(0, input_dim, num_classes + 1).astype(int)
    for k in range(num_classes):
        protos[k, bounds[k] : bounds[k + 1]] = 0.5 + contrast / 2.0
    return protos


@dataclass
class LabeledDataset:
    inputs: np.ndarray      # (n, input_dim) float64 in [0, 1]
    labels: np.ndarray      # (n,) int64
    difficulty: np.ndarray  # (n,) float64 in [0, 1]

    def __post_init__(self):
        self.inputs = as_sample_matrix(self.inputs, "inputs")
        check_unit_range(self.inputs, "inputs")
        self.labels = as_label_array(self.labels, "labels", n=len(self.inputs))
        self.difficulty = np.asarray(self.difficulty, dtype=np.float64)
        if self.difficulty.shape != (len(self.inputs),):
            raise ValueError("difficulty must have one value per example")

    def __len__(self):
        return len(self.inputs)

    @property
    def input_dim(self):
        return self.inputs.shape[1]

    @property
    def num_classes(self):
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def save(self, path):
        dump_json(
            {
                "inputs": [row.tolist() for row in self.inputs],
                "labels": self.labels.tolist(),
                "difficulty": self.difficulty.tolist(),
            },
            path,
        )

    @classmethod
    def load(cls, path):
        """The dataset saved at `path`; any malformed content raises
        `DataFormatError`."""
        obj = load_json(path, "dataset")
        if not isinstance(obj, dict):
            raise DataFormatError("dataset file must hold a JSON object")
        for key in ("inputs", "labels", "difficulty"):
            if key not in obj:
                raise DataFormatError("dataset file is missing %r" % key)
        try:
            inputs = np.asarray(obj["inputs"], dtype=np.float64)
            if inputs.size == 0:
                inputs = inputs.reshape(0, 0)
            return cls(
                inputs=inputs,
                labels=np.asarray(obj["labels"]),
                difficulty=np.asarray(obj["difficulty"], dtype=np.float64),
            )
        except (TypeError, ValueError, OverflowError) as err:
            raise DataFormatError("dataset file is malformed: %s" % err) from None


def probe_inputs(num_probes, input_dim=64, jitter=0.02, seed=0, levels=None):
    """Brightness-sweep probe set for black-box energy profiling.

    Each probe is a near-uniform image at a random level in [0, 1] with a
    little per-pixel jitter. Sweeping levels walks a mean-keyed model
    through its whole activity range; keeping jitter small stops a
    regressor from keying on pixel idiosyncrasies instead of the level.
    """
    if num_probes < 1:
        raise ValueError("num_probes must be positive")
    rng = derive_rng(seed, "probe")
    if levels is None:
        levels = rng.uniform(0.0, 1.0, size=num_probes)
    else:
        levels = np.asarray(levels, dtype=np.float64).reshape(-1)
        if len(levels) != num_probes:
            raise ValueError("levels must have one entry per probe")
    noise = rng.uniform(-jitter, jitter, size=(num_probes, input_dim))
    return np.clip(levels[:, None] + noise, 0.0, 1.0)


def estimator_corpus(num_inputs=500, input_dim=64, seed=0):
    """Training inputs for an energy regressor that must survive an attacker.

    Three families, roughly 30/30/40: brightness probes pin down the
    on-manifold response; random binary masks cover extreme textures at
    every mean level; tanh-of-Gaussian images ((tanh(s*z + b) + 1)/2) match
    the parameterization gradient attacks search in, so the regressor has
    seen that family and cannot be walked into unsupported regions where
    its head extrapolates wildly.
    """
    if num_inputs < 10:
        raise ValueError("num_inputs must be at least 10")
    n_probe = int(num_inputs * 0.3)
    n_mask = int(num_inputs * 0.3)
    n_tanh = num_inputs - n_probe - n_mask
    probes = probe_inputs(n_probe, input_dim, seed=seed)
    rng = derive_rng(seed, "mask")
    fracs = rng.uniform(0.0, 1.0, size=n_mask)
    masks = (rng.uniform(0.0, 1.0, size=(n_mask, input_dim)) < fracs[:, None])
    rng = derive_rng(seed, "tanh-family")
    rows = []
    for _ in range(n_tanh):
        scale = rng.uniform(0.5, 3.0)
        shift = rng.uniform(-3.0, 3.0)
        z = rng.normal(0.0, 1.0, size=input_dim)
        rows.append((np.tanh(z * scale + shift) + 1.0) / 2.0)
    return np.concatenate([probes, masks.astype(np.float64), np.array(rows)])


def generate_dataset(num_examples, num_classes=4, input_dim=64, noise_span=0.6,
                     seed=0, contrast=0.8):
    """Balanced labeled set; difficulty is the per-example noise amplitude."""
    if num_examples < 1:
        raise ValueError("num_examples must be positive")
    rng = derive_rng(seed, "dataset")
    protos = class_prototypes(num_classes, input_dim, contrast=contrast)
    labels = np.arange(num_examples, dtype=np.int64) % num_classes
    difficulty = rng.uniform(0.0, 1.0, size=num_examples)
    noise = rng.uniform(-1.0, 1.0, size=(num_examples, input_dim))
    inputs = protos[labels] + noise * (difficulty[:, None] * noise_span)
    np.clip(inputs, 0.0, 1.0, out=inputs)
    return LabeledDataset(inputs=inputs, labels=labels, difficulty=difficulty)
