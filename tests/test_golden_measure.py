"""The measurement protocol's outputs and noise streams, pinned byte for byte.

Two things are written to `tests/data/measure_golden.jsonl`, one JSON
object per line:

- the `PCG64` state that `derive_rng(seed, "measure", key)` starts from, for
  keys at the edges of numpy's entropy coercion (one 32-bit word or two)
  and for real input fingerprints, at several seeds; NumPy's random number
  generator policy (NEP 19) keeps the `SeedSequence` -> `PCG64` mapping
  stable across releases, so these states do not depend on the numpy build;
- `measure_many`'s `(raw, retained, mean)` for every row of a fixed batch
  on `ScriptedAdnn`, at energy seeds 0-3 and noise sigmas 0, 0.05 and 0.6
  (the last one drops readings above the rejection cutoff and clamps
  readings at 0).

Floats travel by repr, so equal files mean bit-equal values.

To write the file afresh (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden_measure.py
"""

import json
import pathlib
import sys

import numpy as np

from adnn_energy_lab.energy import EnergyModel, measure_many
from adnn_energy_lab.models import ScriptedAdnn
from adnn_energy_lab.seeding import derive_rng

from oracles import array_fingerprint

GOLDEN = pathlib.Path(__file__).parent / "data" / "measure_golden.jsonl"
SEEDS = (0, 1, 2, 3)
SIGMAS = (0.0, 0.05, 0.6)
STATE_SEEDS = (0, 3, -5, 2**64 + 7)
EDGE_KEYS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**63 + 12345, 2**64 - 1)
SCRIPTED = ScriptedAdnn([0.2, 0.4, 0.6, 0.8], base_flops=100, block_flops=256)


def golden_inputs():
    """Eight rows whose means span the scripted gate thresholds."""
    u = derive_rng(0, "golden-measure-inputs").uniform(0.0, 1.0, size=(8, 64))
    return np.clip(u * np.linspace(0.1, 1.9, 8)[:, None], 0.0, 1.0)


def golden_records():
    """Every pinned value, one JSON-ready dict per stream state or measured row."""
    X = golden_inputs()
    keys = list(EDGE_KEYS) + [array_fingerprint(x) for x in X[:4]]
    records = [{"seed": seed, "key": key,
                "pcg64": derive_rng(seed, "measure", key).bit_generator.state["state"]}
               for seed in STATE_SEEDS for key in keys]
    for seed in SEEDS:
        for sigma in SIGMAS:
            em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=sigma,
                             seed=seed)
            records += [{"seed": seed, "sigma": sigma, "row": i, "raw": list(m.raw_samples),
                         "retained": list(m.retained), "mean": m.mean}
                        for i, m in enumerate(measure_many(SCRIPTED, em, X))]
    return records


def golden_text():
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in golden_records())


def test_measurements_and_stream_states_match_golden_file():
    assert golden_text() == GOLDEN.read_text()


def test_golden_file_covers_rejection_and_clamping():
    rows = [r for r in golden_records() if r.get("sigma") == 0.6]
    assert any(len(r["retained"]) < len(r["raw"]) for r in rows)
    assert any(0.0 in r["raw"] for r in rows)


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
    print("wrote", GOLDEN, file=sys.stderr)
