"""Shared fixtures: the two committed desk-scale scenes, simulated once per
session, plus the blind and oracle focusing products derived from them."""

from pathlib import Path

import numpy as np
import pytest

from bsar import fileio
from bsar.estimate import blind_estimate
from bsar.focus import focus_pipeline
from bsar.simulate import SPEED_OF_LIGHT, Scatterer, oracle_estimate, simulate_raw

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
DEFAULT_CONFIG = CONFIG_DIR / "desk_default.json"
SQUINT_CONFIG = CONFIG_DIR / "desk_squint.json"


@pytest.fixture(scope="session")
def default_scene():
    return fileio.load_scene(DEFAULT_CONFIG)


@pytest.fixture(scope="session")
def squint_scene():
    return fileio.load_scene(SQUINT_CONFIG)


@pytest.fixture(scope="session")
def default_sim(default_scene):
    config, scene = default_scene
    return simulate_raw(config, scene)


@pytest.fixture(scope="session")
def squint_sim(squint_scene):
    config, scene = squint_scene
    return simulate_raw(config, scene)


@pytest.fixture(scope="session")
def clutter_sim(default_scene):
    """Raw matrix of 20 unit-modulus scatterers with random phases on the
    desk_default grid: no scatterer dominates, so sigma1/sigma2 sits near 1."""
    config, _ = default_scene
    rng = np.random.default_rng(1301)
    half = config.beam_azimuth_extent / 2.0
    t_max = (config.num_pulses - 1) / config.prf
    max_offset = (config.samples_per_pulse - config.chirp_samples - 20) / (
        2.0 * config.range_sampling / SPEED_OF_LIGHT)
    scene = [Scatterer(azimuth_time=float(rng.uniform(half + 0.02, t_max - half - 0.02)),
                       range_offset=float(rng.uniform(0.0, max_offset)),
                       reflectivity=complex(np.exp(2j * np.pi * rng.uniform())))
             for _ in range(20)]
    return simulate_raw(config, scene)[0]


@pytest.fixture(scope="session")
def default_estimate(default_sim):
    raw, _ = default_sim
    return blind_estimate(raw)


@pytest.fixture(scope="session")
def squint_estimate(squint_sim):
    raw, _ = squint_sim
    return blind_estimate(raw)


@pytest.fixture(scope="session")
def default_oracle(default_sim):
    _, truth = default_sim
    return oracle_estimate(truth)


@pytest.fixture(scope="session")
def squint_oracle(squint_sim):
    _, truth = squint_sim
    return oracle_estimate(truth)


@pytest.fixture(scope="session")
def blind_image(default_sim, default_estimate):
    """Blind-focused default scene."""
    raw, _ = default_sim
    return focus_pipeline(raw, default_estimate)


@pytest.fixture(scope="session")
def oracle_image(default_sim, default_oracle):
    """Oracle-focused default scene."""
    raw, _ = default_sim
    estimate, rcm = default_oracle
    return focus_pipeline(raw, estimate, rcm_override=rcm, provenance="oracle")
