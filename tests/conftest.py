"""Shared model fixtures.

Training is seconds-scale but not free, so the standard skip and exit
fixtures are session-scoped and shared across test modules. Tests must
not mutate them; anything needing a variant copies or retrains. The gate
analogue fixture builds a fresh hand-gated model on each call.
"""

import numpy as np
import pytest

from adnn_energy_lab.data import generate_dataset
from adnn_energy_lab.models import EarlyExitNet, GatedSkipNet
from adnn_energy_lab.seeding import derive_rng


@pytest.fixture(scope="session")
def skip_dataset():
    return generate_dataset(400, noise_span=0.6, seed=0)


@pytest.fixture(scope="session")
def trained_skip(skip_dataset):
    net = GatedSkipNet(epochs=200, seed=0)
    net.fit(skip_dataset.inputs, skip_dataset.labels)
    return net


@pytest.fixture(scope="session")
def exit_dataset():
    return generate_dataset(600, noise_span=0.9, seed=7, contrast=0.1)


@pytest.fixture(scope="session")
def trained_exit(exit_dataset):
    net = EarlyExitNet(entropy_threshold=0.3, epochs=60, seed=0)
    net.fit(exit_dataset.inputs, exit_dataset.labels)
    return net


@pytest.fixture(scope="session")
def scripted_gate_analogue():
    """A factory of GatedSkipNets whose gate i outputs
    sigmoid(sharpness * (mean(x) - thresholds[i])).

    Stem, blocks and head come from the usual seeded init; only the gates are
    hand-set, making the model a differentiable twin of a ScriptedAdnn with
    the same thresholds: the hard decision for gate i is exactly
    mean(x) >= thresholds[i]. Used as a white-box model with known behavior.
    """
    def build(thresholds, sharpness=40.0, input_dim=64, width=16, num_classes=4, seed=0):
        thresholds = [float(t) for t in thresholds]
        net = GatedSkipNet(input_dim=input_dim, width=width, num_blocks=len(thresholds),
                           num_classes=num_classes)
        net._build(derive_rng(seed, "scripted-analogue"))
        for weight, bias, t in zip(net.gate_weights_, net.gate_biases_, thresholds):
            weight.data, bias.data = np.float64(sharpness), np.float64(-sharpness * t)
        return net

    return build
