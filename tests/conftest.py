"""Shared fixtures: the two committed desk-scale scenes, simulated once per
session, plus the blind and oracle focusing products derived from them."""

from pathlib import Path

import numpy as np
import pytest

from bsar import fileio
from bsar.estimate import blind_estimate
from bsar.focus import focus_pipeline
from bsar.simulate import oracle_estimate, simulate_raw

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
    """Blind-focused default scene with untapered references."""
    raw, _ = default_sim
    return focus_pipeline(raw, default_estimate, taper_fraction=0.0)


@pytest.fixture(scope="session")
def oracle_image(default_sim, default_oracle):
    """Oracle-focused default scene with untapered references."""
    raw, _ = default_sim
    estimate, rcm = default_oracle
    return focus_pipeline(raw, estimate, taper_fraction=0.0,
                          rcm_override=rcm, provenance="oracle")
