"""The white-box attack's outputs, pinned byte for byte.

For each seed, small gated-skip and early-exit targets are fitted, ILFO
attacks two seed inputs of each through its gate and exit objectives, and
the surrogate study attacks a small gated-skip stand-in and replays its
tests on the gated-skip target. Every test input, `min_losses_`,
`best_loss_`, and the study's ITP, ETP and exclusion count are written to
one JSON file per seed in `tests/data`; floats travel by repr, so equal
files mean bit-equal values.

The bytes rest on the float arithmetic of the numpy and BLAS build that
wrote them: a BLAS kernel for another CPU may round a matrix product
differently, and numpy's SIMD exp, log and tanh may differ in the last
place. Each file therefore carries a digest of that arithmetic on fixed
operands (`arithmetic_probe`); where the digest differs, the outputs are
not comparable and the test is skipped with that reason, rather than
failed.

To write the files afresh (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden_attacks.py
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from adnn_energy_lab.attacks import IlfoAttack, IlfoConfig, surrogate_pipeline
from adnn_energy_lab.data import generate_dataset
from adnn_energy_lab.models import EarlyExitNet, GatedSkipNet
from adnn_energy_lab.serialize import array_to_json, dump_json

GOLDEN = pathlib.Path(__file__).parent / "data"
SEEDS = (0, 1, 2, 3)


def _ilfo_runs(model, inputs, config):
    runs = []
    for x in inputs:
        attack = IlfoAttack(model, config)
        test = attack.generate(x)
        runs.append({"test": array_to_json(test), "min_losses": attack.min_losses_,
                     "best_loss": attack.best_loss_})
    return runs


def arithmetic_probe():
    """SHA-256 of matrix products of the shapes the pinned models use, and
    of the elementwise functions and sums their fits and attacks call."""
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for rows, inner, cols in ((1, 64, 16), (32, 64, 16), (1, 16, 16), (32, 16, 16),
                              (1, 16, 4), (32, 16, 4), (32, 8, 8), (32, 8, 4)):
        a, b = rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))
        out = a @ b
        for part in (out, out @ b.T, a.T @ out):
            digest.update(part.tobytes())
    v = rng.uniform(-3.0, 3.0, size=1000)
    for part in (np.exp(v), np.tanh(v), np.log(np.abs(v)), np.arctanh(v / 4.0),
                 np.sqrt(np.abs(v)), v.sum(keepdims=True)):
        digest.update(part.tobytes())
    return digest.hexdigest()


def golden_record(seed):
    """Every pinned output of one seed, as a JSON-ready dict."""
    skip_data = generate_dataset(96, noise_span=0.6, seed=seed)
    skip = GatedSkipNet(epochs=8, seed=seed).fit(skip_data.inputs, skip_data.labels)
    exit_data = generate_dataset(96, noise_span=0.9, seed=seed + 10, contrast=0.1)
    exit_net = EarlyExitNet(entropy_threshold=0.3, epochs=30, seed=seed)
    exit_net.fit(exit_data.inputs, exit_data.labels)
    # a large step, so that a short run opens gates and delays exits
    gate_runs = _ilfo_runs(skip, skip_data.inputs[:2], IlfoConfig(iterations=25, lr=0.1))
    exit_runs = _ilfo_runs(exit_net, exit_data.inputs[:2],
                           IlfoConfig(target="exit", iterations=25, lr=0.1))
    surrogate = GatedSkipNet(width=8, num_blocks=4, epochs=5, seed=seed)
    tests, report = surrogate_pipeline(skip, surrogate, skip_data.inputs[:32],
                                       IlfoConfig(iterations=20, lr=0.1), num_attack=3)
    return {
        "arithmetic": arithmetic_probe(),
        "seed": seed,
        "ilfo_gate": gate_runs,
        "ilfo_exit": exit_runs,
        "surrogate": {"tests": [array_to_json(t) for t in tests], "itp": report["itp"],
                      "etp": report["etp"], "excluded": report["excluded"]},
    }


def _golden_path(seed):
    return GOLDEN / ("ilfo_seed%d.json" % seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_ilfo_and_surrogate_outputs_match_golden_file(seed, tmp_path):
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
