"""Scene documents for the benchmark workloads, built from a seed.

Every scene is a plain ``{"config": {...}, "scene": [...]}`` dictionary in
the layout ``bsar simulate --config`` reads, so any input the benchmark
times can be written out and replayed by hand:

    python3 bench/scenes.py large_oracle --seed 7 --index 0 --out large.json
    bsar simulate --config large.json --out raw.bsar --truth truth.json

The seed is the only source of variation: it picks the noise realization
and, for the synthetic scenes, where the scatterers sit.  ``bsar`` itself
only ever receives the generated documents.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DESK_SCENES = ("desk_default", "desk_squint")
SPEED_OF_LIGHT = 299792458.0

LARGE_PULSES = 2048
LARGE_SAMPLES = 4096
CLUTTER_SCATTERERS = 20


def derived_seed(seed, index):
    """Independent 32-bit seed for input number `index` of a run."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def desk_scene(name, seed):
    """One of the committed desk scenes with the noise seed replaced."""
    with open(ROOT / "configs" / f"{name}.json") as fh:
        doc = json.load(fh)
    doc["config"]["rng_seed"] = int(seed)
    return doc


def large_scene(seed):
    """Zero-squint 2048 x 4096 scene with one scatterer near the grid centre.

    Radar parameters are those of ``desk_default``; the seed sets the noise
    and moves the target by up to 0.5 s in azimuth and 200 m in range.
    """
    doc = desk_scene("desk_default", seed)
    cfg = doc["config"]
    cfg["num_pulses"] = LARGE_PULSES
    cfg["samples_per_pulse"] = LARGE_SAMPLES
    rng = np.random.default_rng(int(seed))
    centre = (LARGE_PULSES - 1) / cfg["prf"] / 2.0
    doc["scene"] = [{
        "azimuth_time": centre + float(rng.uniform(-0.5, 0.5)),
        "range_offset": 5000.0 + float(rng.uniform(-200.0, 200.0)),
        "reflectivity": [1.0, 0.0],
    }]
    return doc


def clutter_scene(seed, count=CLUTTER_SCATTERERS):
    """Desk-sized scene of `count` unit-modulus scatterers with random phases.

    No scatterer dominates, so sigma1/sigma2 stays near 1.1 and the blind
    chain must refuse the scene.  Positions keep every main lobe and range
    echo (with its migration) inside the grid.
    """
    doc = desk_scene("desk_default", seed)
    cfg = doc["config"]
    rng = np.random.default_rng(int(seed))
    half = cfg["beam_azimuth_extent"] / 2.0
    t_max = (cfg["num_pulses"] - 1) / cfg["prf"]
    chirp = int(round(cfg["chirp_duration"] * cfg["range_sampling"]))
    max_offset = (cfg["samples_per_pulse"] - chirp - 20) / (
        2.0 * cfg["range_sampling"] / SPEED_OF_LIGHT)
    scene = []
    for _ in range(count):
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        scene.append({
            "azimuth_time": float(rng.uniform(half + 0.02, t_max - half - 0.02)),
            "range_offset": float(rng.uniform(0.0, max_offset)),
            "reflectivity": [math.cos(phase), math.sin(phase)],
        })
    doc["scene"] = scene
    return doc


def workload_input(name, seed, index):
    """Scene document of input number `index` in a run of workload `name`."""
    sub = derived_seed(seed, index)
    if name == "cli_chain":
        return desk_scene(DESK_SCENES[index % 2], sub)
    if name == "large_oracle":
        return large_scene(sub)
    if name == "clutter_reject":
        return clutter_scene(sub)
    raise ValueError(f"unknown workload {name!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("cli_chain", "large_oracle", "clutter_reject"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="input number within the run")
    parser.add_argument("--out", required=True, help="scene JSON to write")
    args = parser.parse_args()
    with open(args.out, "w") as fh:
        json.dump(workload_input(args.workload, args.seed, args.index), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
