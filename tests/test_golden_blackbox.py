"""The black-box attacks' outputs, pinned byte for byte.

For each seed, a small energy estimator is fitted on the noisy measured
energies of a gated-skip target. The input-based attack then crafts tests
from two seed inputs, once returning its final iterate and once its best,
and the universal attack runs four restarts. Every test input,
`history_`, `best_loss_`, `final_loss_`, and the universal attack's
`restart_losses_`, `restart_inputs_` and `best_restart_` are written to one
JSON file per seed in `tests/data`; floats travel by repr, so equal files
mean bit-equal values.

The files carry the arithmetic digest of `test_golden_attacks`, and the
test skips where it differs, for the reason given there.

To write the files afresh (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden_blackbox.py
"""

import json
import pathlib
import sys

import pytest

from adnn_energy_lab.attacks import InputBasedAttack, TestGenConfig as GenConfig, UniversalAttack
from adnn_energy_lab.data import estimator_corpus, generate_dataset
from adnn_energy_lab.energy import EnergyModel, measure_many
from adnn_energy_lab.estimator import EnergyEstimator
from adnn_energy_lab.models import GatedSkipNet
from adnn_energy_lab.serialize import array_to_json, dump_json

from test_golden_attacks import arithmetic_probe

GOLDEN = pathlib.Path(__file__).parent / "data"
SEEDS = (0, 1, 2, 3)
ENERGY = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.05)


def _fitted_estimator(seed):
    data = generate_dataset(96, noise_span=0.6, seed=seed)
    skip = GatedSkipNet(epochs=8, seed=seed).fit(data.inputs, data.labels)
    corpus = estimator_corpus(60, seed=seed)
    energies = [m.mean for m in measure_many(skip, ENERGY, corpus)]
    est = EnergyEstimator(width=16, num_blocks=2, epochs=30, seed=seed).fit(corpus, energies)
    return est, data.inputs[:2]


def golden_record(seed):
    """Every pinned output of one seed, as a JSON-ready dict."""
    est, seeds = _fitted_estimator(seed)
    input_based = []
    for track_best in (False, True):
        # a large step, so that the loss climbs back after its minimum
        cfg = GenConfig(c=1.0, lr=0.8, iterations=25, track_best=track_best, seed=seed)
        for x in seeds:
            attack = InputBasedAttack(est, cfg)
            test = attack.generate(x)
            input_based.append({"track_best": track_best, "test": array_to_json(test),
                                "history": attack.history_, "best_loss": attack.best_loss_,
                                "final_loss": attack.final_loss_})
    universal = UniversalAttack(est, GenConfig(mode="universal", iterations=15, restarts=4,
                                               lr=0.1, seed=seed))
    universal.generate()
    return {
        "arithmetic": arithmetic_probe(),
        "seed": seed,
        "input_based": input_based,
        "universal": {"restart_losses": universal.restart_losses_,
                      "restart_inputs": [array_to_json(f) for f in universal.restart_inputs_],
                      "best_restart": universal.best_restart_},
    }


def _golden_path(seed):
    return GOLDEN / ("blackbox_seed%d.json" % seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_black_box_outputs_match_golden_file(seed, tmp_path):
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
