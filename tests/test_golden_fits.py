"""The four fits' outputs, pinned byte for byte.

For each seed, a small gated-skip net (sparsity 0.05), an early-exit net,
an energy estimator and an input filter are fitted. The SHA-256 of each
fitted `theta` and its `history_` are written to one JSON file per seed in
`tests/data`, with the estimator's `val_history_` and `best_epoch_` and the
exit net's `exit_accuracies_`; floats travel by repr, so equal files mean
bit-equal values.

The files carry the arithmetic digest of `test_golden_attacks`, and the
test skips where it differs, for the reason given there.

To write the files afresh (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden_fits.py
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from adnn_energy_lab.data import estimator_corpus, generate_dataset
from adnn_energy_lab.defense import FilterModel
from adnn_energy_lab.estimator import EnergyEstimator
from adnn_energy_lab.models import EarlyExitNet, GatedSkipNet
from adnn_energy_lab.serialize import dump_json

from test_golden_attacks import arithmetic_probe

GOLDEN = pathlib.Path(__file__).parent / "data"
SEEDS = (0, 1, 2, 3)


def _fitted(model):
    """The SHA-256 of a fitted model's theta, and its training curve."""
    theta = model._net().theta.data
    return {"theta_sha256": hashlib.sha256(theta.tobytes()).hexdigest(),
            "history": model.history_}


def golden_record(seed):
    """Every pinned output of one seed, as a JSON-ready dict."""
    data = generate_dataset(80, noise_span=0.6, seed=seed)
    skip = GatedSkipNet(epochs=6, sparsity_weight=0.05, seed=seed)
    skip.fit(data.inputs, data.labels)
    exit_data = generate_dataset(80, noise_span=0.9, seed=seed + 10, contrast=0.1)
    exit_net = EarlyExitNet(num_segments=3, epochs=6, seed=seed)
    exit_net.fit(exit_data.inputs, exit_data.labels)
    corpus = estimator_corpus(60, seed=seed)
    noise = np.random.default_rng(seed).normal(0.0, 0.1, size=len(corpus))
    # noisy targets, so that the best held-out epoch comes before the last
    est = EnergyEstimator(width=16, num_blocks=2, epochs=30, lr=0.02, seed=seed)
    est.fit(corpus, 1.0 + 2.0 * corpus.mean(axis=1) ** 2 + noise)
    filt = FilterModel(epochs=6, seed=seed).fit(data.inputs, data.labels % 2)
    return {
        "arithmetic": arithmetic_probe(),
        "seed": seed,
        "skip": _fitted(skip),
        "exit": dict(_fitted(exit_net), exit_accuracies=exit_net.exit_accuracies_),
        "estimator": dict(_fitted(est), val_history=est.val_history_,
                          best_epoch=est.best_epoch_),
        "filter": _fitted(filt),
    }


def _golden_path(seed):
    return GOLDEN / ("fits_seed%d.json" % seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_fit_outputs_match_golden_file(seed, tmp_path):
    golden = _golden_path(seed)
    if json.loads(golden.read_text())["arithmetic"] != arithmetic_probe():
        pytest.skip("this numpy/BLAS build rounds differently from the one that "
                    "wrote %s" % golden.name)
    fresh = tmp_path / "fresh.json"
    dump_json(golden_record(seed), fresh)
    assert fresh.read_bytes() == golden.read_bytes()


if __name__ == "__main__":
    for s in SEEDS:
        dump_json(golden_record(s), _golden_path(s))
        print("wrote", _golden_path(s), file=sys.stderr)
