"""The benchmark's own checks reject wrong answers.

Inputs are built here by hand, apart from bsar.  Run with:

    python3 -m pytest -q bench/test_checks.py
"""

import json
import math
import struct

import numpy as np
import pytest

import checks

SCENE = {
    "config": {
        "wavelength": 1.2, "platform_speed": 400.0, "closest_range": 3000.0,
        "prf": 190.0, "range_sampling": 5.0e7, "chirp_rate": 4.8828125e12,
        "chirp_duration": 2.56e-6, "beam_azimuth_extent": 2.2,
        "squint_offset": 0.0, "num_pulses": 512, "samples_per_pulse": 1024,
        "noise_sigma": 0.04, "rng_seed": 1,
    },
    "scene": [{"azimuth_time": 1.35, "range_offset": 1250.0, "reflectivity": [1.0, 0.0]}],
}


def squinted(offset):
    doc = json.loads(json.dumps(SCENE))
    doc["config"]["squint_offset"] = offset
    return doc


@pytest.fixture
def exp():
    return checks.expected(SCENE)


def test_closed_forms():
    exp = checks.expected(SCENE)
    assert exp["range_rate"] == pytest.approx(4.8828125e12 / (2 * 5.0e7 ** 2))
    assert exp["azimuth_rate"] == pytest.approx(-400.0 ** 2 / (1.2 * 4250.0) / 190.0 ** 2)
    assert exp["doppler_centroid"] == 0.0
    assert exp["row"] == pytest.approx(1.35 * 190.0)
    assert exp["col"] == pytest.approx(2 * 1250.0 / 299792458.0 * 5.0e7 + 63.5)
    assert exp["irw_range"] == pytest.approx(0.886 / 0.25)
    assert not exp["squinted"]


def test_centroid_follows_squint_and_wraps():
    f = checks.expected(squinted(-0.2))["doppler_centroid"]
    r = math.hypot(4250.0, 400.0 * 0.2)
    assert f == pytest.approx(2 * 400.0 ** 2 * 0.2 / (1.2 * r) / 190.0)
    assert -0.5 < checks.expected(squinted(-0.5))["doppler_centroid"] <= 0.5


def test_exact_estimate_passes(exp):
    assert checks.check_estimate(exp["range_rate"], exp["azimuth_rate"],
                                 exp["doppler_centroid"], exp) == []


@pytest.mark.parametrize("field", ["range_rate", "azimuth_rate"])
def test_rate_five_percent_off_is_rejected(exp, field):
    values = {k: exp[k] for k in ("range_rate", "azimuth_rate", "doppler_centroid")}
    values[field] *= 1.05
    errors = checks.check_estimate(values["range_rate"], values["azimuth_rate"],
                                   values["doppler_centroid"], exp)
    assert len(errors) == 1 and "5.00%" in errors[0]


def test_centroid_off_is_rejected(exp):
    assert checks.check_estimate(exp["range_rate"], exp["azimuth_rate"], 0.02, exp)


def test_centroid_compared_modulo_one_cycle(exp):
    near = dict(exp, doppler_centroid=0.499)
    assert checks.check_estimate(exp["range_rate"], exp["azimuth_rate"], -0.4995, near) == []


def test_ideal_impulse_passes(exp):
    assert checks.check_impulse((exp["row"], exp["col"]), exp["irw_range"], -13.26, exp) == []


@pytest.mark.parametrize("axis", [0, 1])
def test_peak_two_samples_off_is_rejected(exp, axis):
    peak = [exp["row"], exp["col"]]
    peak[axis] += 2.0
    errors = checks.check_impulse(peak, exp["irw_range"], -13.26, exp)
    assert len(errors) == 1 and "2.000 samples off" in errors[0]


def test_squinted_scene_checks_azimuth_position_only():
    exp = checks.expected(squinted(-0.45))
    assert checks.check_impulse((exp["row"], exp["col"] + 1.3), exp["irw_range"], -13.3, exp) == []
    assert checks.check_impulse((exp["row"] + 2.0, exp["col"]), exp["irw_range"], -13.3, exp)


def test_wide_irw_and_high_sidelobes_are_rejected(exp):
    peak = (exp["row"], exp["col"])
    assert checks.check_impulse(peak, exp["irw_range"] * 1.2, -13.26, exp)
    assert checks.check_impulse(peak, exp["irw_range"], -11.0, exp)


def test_correlation_bound():
    assert checks.check_correlation(0.99) == []
    assert checks.check_correlation(0.95)


def test_clutter_must_be_refused():
    assert checks.check_rejection("UnsuitableSceneError", 1.1) == []


@pytest.mark.parametrize("outcome", [None, "ConvergenceError", "TrackingError"])
def test_clutter_accepted_or_unconverged_is_rejected(outcome):
    assert checks.check_rejection(outcome, 1.1)


def test_clutter_scene_with_dominant_target_is_rejected():
    assert checks.check_rejection("UnsuitableSceneError", 3.5)


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_non_standard_json_is_rejected(tmp_path, constant):
    path = tmp_path / "report.json"
    path.write_text('{"dominance_ratio": %s}' % constant)
    doc, errors = checks.check_strict_json(path)
    assert doc is None and len(errors) == 1


def test_strict_json_passes_and_reports_syntax_errors(tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{"correlation": 0.99, "peak_offset": [0, 1]}')
    assert checks.check_strict_json(good) == ({"correlation": 0.99, "peak_offset": [0, 1]}, [])
    bad = tmp_path / "bad.json"
    bad.write_text('{"correlation": }')
    assert checks.check_strict_json(bad)[1]


def write_bsar(path, image, flags=1):
    pairs = np.empty(image.shape + (2,), dtype="<f4")
    pairs[:, :, 0] = image.real
    pairs[:, :, 1] = image.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHHII16s", b"BSAR", 1, flags, *image.shape, bytes(16)))
        fh.write(pairs.tobytes())


def test_bsar_readback(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    path = tmp_path / "img.bsar"
    write_bsar(path, image)
    assert checks.check_bsar_file(path, image) == []
    changed = image.copy()
    changed[2, 3] += 1e-3
    assert checks.check_bsar_file(path, changed)
    assert checks.check_bsar_file(path, image[:5])
    write_bsar(path, image, flags=0)
    assert checks.check_bsar_file(path, image)
