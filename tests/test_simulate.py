import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from bsar.core import RCMC_BLOCK_ROWS, next_fast_len, unwrap_phase
from bsar.errors import ConfigurationError, ParameterError
from bsar.simulate import SPEED_OF_LIGHT, Scatterer, raw_rows, simulate_raw
from oracles import direct_echoes, raw_statistics


def quiet(config, **changes):
    return replace(config, noise_sigma=0.0, **changes)


def raw128(config, scene):
    """The whole raw matrix in complex128, as raw_rows gives simulate_raw
    each row block before the cast."""
    rows, _ = raw_rows(config, scene)
    return rows(slice(None))


def test_empty_scene_no_noise_is_zero(default_scene):
    config, _ = default_scene
    raw, truth = simulate_raw(quiet(config), [])
    assert np.all(raw == 0)
    assert truth.positions == []


def test_energy_peaks_at_boresight_pulse(default_scene):
    config, scene = default_scene
    assert config.squint_offset == 0.0
    raw, _ = simulate_raw(quiet(config), scene)
    energy = np.sum(np.abs(raw) ** 2, axis=1)
    best = int(np.argmax(energy))
    nearest = int(round(scene[0].azimuth_time * config.prf))
    assert abs(best - nearest) <= 1


def test_energy_monotone_within_main_lobe(default_scene):
    config, scene = default_scene
    raw, truth = simulate_raw(quiet(config), scene)
    energy = np.sum(np.abs(raw) ** 2, axis=1)
    lo, hi = truth.azimuth_support
    peak = int(np.argmax(energy))
    assert np.all(np.diff(energy[lo + 1:peak]) >= 0)
    assert np.all(np.diff(energy[peak:hi - 1]) <= 0)


def test_rcm_curve_is_analytic_sqrt_law(default_sim, default_scene):
    config, scene = default_scene
    _, truth = default_sim
    sc = scene[0]
    eta = np.arange(config.num_pulses) / config.prf
    r0s = config.closest_range + sc.range_offset
    r = np.sqrt(r0s**2 + (config.platform_speed * (eta - sc.azimuth_time)) ** 2)
    expected = (r - r0s) * 2.0 * config.range_sampling / SPEED_OF_LIGHT
    np.testing.assert_allclose(truth.rcm_curve, expected, atol=1e-12)
    # the default config is chosen to exhibit real migration
    lo, hi = truth.azimuth_support
    assert np.max(truth.rcm_curve[lo:hi]) - np.min(truth.rcm_curve[lo:hi]) > 2.0


def test_determinism(default_scene):
    config, scene = default_scene
    a, _ = simulate_raw(config, scene)
    b, _ = simulate_raw(config, scene)
    assert np.array_equal(a, b)


def test_raw_is_the_one_cast_of_the_complex128_rows(default_scene):
    # each row block's noise is added in complex128 and the block cast once,
    # so the complex64 raw holds the file's values and nothing else rounds
    config, scene = default_scene
    raw, _ = simulate_raw(config, scene)
    assert raw.dtype == np.complex64 and raw.flags.c_contiguous
    np.testing.assert_array_equal(raw, raw128(config, scene).astype(np.complex64))


def test_seed_changes_noise_only(default_scene):
    config, scene = default_scene
    a = raw128(config, scene)
    b = raw128(replace(config, rng_seed=config.rng_seed + 1), scene)
    assert not np.array_equal(a, b)
    clean = raw128(quiet(config), scene)
    # noise realizations differ but the deterministic echo part is shared
    np.testing.assert_allclose(np.mean(a - clean), np.mean(a) - np.mean(clean),
                               atol=1e-12)


def test_superposition_is_exact(default_scene):
    config, scene = default_scene
    cfg = quiet(config)
    sc1 = scene[0]
    sc2 = Scatterer(azimuth_time=sc1.azimuth_time + 0.2,
                    range_offset=sc1.range_offset - 300.0,
                    reflectivity=0.5 - 0.25j)
    both = raw128(cfg, [sc1, sc2])
    only1 = raw128(cfg, [sc1])
    only2 = raw128(cfg, [sc2])
    # superposition is exact up to float rounding in the shared inverse FFT
    scale = np.max(np.abs(both))
    np.testing.assert_allclose(both, only1 + only2, atol=1e-13 * scale)


@pytest.mark.parametrize("squint", [0.0, 0.2], ids=["zero-squint", "squinted"])
def test_echoes_match_the_closed_form(default_scene, squint):
    # 300 pulses (not a whole number of row blocks) and N + chirp = 1155 =
    # 3*5*7*11, an odd FFT length; three scatterers of unequal reflectivity
    config, _ = default_scene
    cfg = quiet(config, num_pulses=300, samples_per_pulse=1155 - config.chirp_samples,
                beam_azimuth_extent=1.0, squint_offset=squint)
    assert next_fast_len(cfg.samples_per_pulse + cfg.chirp_samples) == 1155
    scene = [Scatterer(0.55, 1250.0), Scatterer(0.7, 1600.0, 0.5 - 0.25j),
             Scatterer(0.8, 900.0, -0.3 + 0.8j)]
    raw = raw128(cfg, scene)
    expected = direct_echoes(cfg, scene)
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(raw, expected, rtol=0.0, atol=1e-11 * scale)


def test_azimuth_column_phase_is_quadratic_dominated(default_scene):
    config, scene = default_scene
    raw, truth = simulate_raw(quiet(config), scene)
    # follow the migration trajectory so the echo stays in view
    lo, hi = truth.azimuth_support
    rows = np.arange(lo + 2, hi - 2)
    col0 = int(round(truth.positions[0][1]))
    samples = raw[rows, col0 + np.round(truth.rcm_curve[rows]).astype(int)]
    phase = unwrap_phase(np.angle(samples)) / (2.0 * np.pi)
    d = rows - truth.beam_center_row
    design = np.column_stack([d**2, d, np.ones_like(d, dtype=float)])
    coeffs, _, _, _ = np.linalg.lstsq(design, phase, rcond=None)
    resid = phase - design @ coeffs
    quad_span = abs(coeffs[0]) * np.max(d**2)
    assert np.sqrt(np.mean(resid**2)) < 0.05 * quad_span
    assert coeffs[0] == pytest.approx(truth.azimuth_chirp_rate, rel=0.02)


def test_scatterer_off_grid_names_index(default_scene):
    config, scene = default_scene
    bad = Scatterer(azimuth_time=0.01, range_offset=scene[0].range_offset)
    with pytest.raises(ConfigurationError, match="scatterer 1"):
        simulate_raw(quiet(config), [scene[0], bad])


def test_scatterer_range_overflow_rejected(default_scene):
    config, scene = default_scene
    bad = Scatterer(azimuth_time=scene[0].azimuth_time, range_offset=5000.0)
    with pytest.raises(ConfigurationError, match="swath"):
        simulate_raw(quiet(config), [bad])


def test_config_invariants(default_scene):
    config, scene = default_scene
    with pytest.raises(ParameterError):
        replace(config, wavelength=-1.0)
    with pytest.raises(ParameterError):
        replace(config, noise_sigma=-0.1)
    with pytest.raises(ParameterError):
        replace(config, chirp_rate=config.range_sampling / config.chirp_duration * 2)
    with pytest.raises(ParameterError):
        replace(config, beam_azimuth_extent=(config.num_pulses + 1) / config.prf)
    # no field takes a NaN or an infinity, nor a scatterer's
    for name, value in [("wavelength", np.inf), ("prf", np.nan), ("closest_range", np.inf),
                        ("noise_sigma", np.nan), ("noise_sigma", np.inf),
                        ("squint_offset", np.inf), ("squint_offset", -np.inf),
                        ("squint_offset", np.nan)]:
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            replace(config, **{name: value})
    for name, value in [("azimuth_time", np.nan), ("range_offset", -np.inf),
                        ("reflectivity", complex(0.0, np.nan))]:
        with pytest.raises(ParameterError, match=f"^scatterer {name} must be finite"):
            replace(scene[0], **{name: value})


@pytest.mark.parametrize("case", ["closest_range", "range_offset", "platform_speed",
                                  "reflectivity"])
def test_overflowing_scene_is_refused(default_scene, case):
    # finite inputs whose echoes overflow float64, or whose raw samples
    # overflow complex64, are refused, not turned into infinities
    config, scene = default_scene
    if case in ("closest_range", "platform_speed"):
        config = replace(config, **{case: 1e200})
    else:
        scene = [replace(scene[0], **{case: {"range_offset": -1e308, "reflectivity": 1e300}[case]})]
    match = "overflows complex64" if case == "reflectivity" else "scatterer 0: its echo geometry"
    with pytest.raises(ConfigurationError, match=match):
        simulate_raw(config, scene)


def test_ground_truth_position_convention(default_scene):
    config, scene = default_scene
    _, truth = simulate_raw(quiet(config), scene)
    sc = scene[0]
    row, col = truth.positions[0]
    assert row == pytest.approx(sc.azimuth_time * config.prf)
    expected_col = (2.0 * sc.range_offset / SPEED_OF_LIGHT * config.range_sampling
                    + (config.chirp_samples - 1) / 2.0)
    assert col == pytest.approx(expected_col)


def test_ground_truth_rates(default_scene):
    config, scene = default_scene
    _, truth = simulate_raw(quiet(config), scene)
    assert truth.range_chirp_rate == pytest.approx(
        config.chirp_rate / (2.0 * config.range_sampling**2)
    )
    r0s = config.closest_range + scene[0].range_offset
    expected_az = -(config.platform_speed**2) / (config.wavelength * r0s) / config.prf**2
    assert truth.azimuth_chirp_rate == pytest.approx(expected_az)
    assert truth.doppler_centroid == 0.0


def test_squint_doppler_centroid(squint_sim, squint_scene):
    config, _ = squint_scene
    _, truth = squint_sim
    assert config.squint_offset != 0.0
    assert abs(truth.doppler_centroid) == pytest.approx(0.15, abs=0.001)


@pytest.mark.parametrize("scene_name", ["default_scene", "squint_scene"])
def test_simulate_raw_peak_memory(request, scene_name):
    # the raw matrix is mapped outside the traced heap, which holds only the
    # rows in flight (a spectrum row, a ramp-table row and their
    # temporaries): 2.7-2.8 times 64 spectrum rows on the desk scenes
    config, scene = request.getfixturevalue(scene_name)
    nfft = next_fast_len(config.samples_per_pulse + config.chirp_samples)
    rows_bytes = RCMC_BLOCK_ROWS * nfft * 16
    tracemalloc.start()
    try:
        raw, _ = simulate_raw(config, scene)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.flags.c_contiguous and raw.shape == (config.num_pulses, config.samples_per_pulse)
    assert peak <= 3.5 * rows_bytes, peak / rows_bytes


# --- raw_statistics -------------------------------------------------------------

def test_statistics_zero_matrix():
    stats = raw_statistics(np.zeros((8, 8), dtype=np.complex128))
    for part in ("real", "imag"):
        assert stats[part]["mean"] == 0.0
        assert stats[part]["variance"] == 0.0
        assert stats[part]["skewness"] == 0.0
        assert stats[part]["excess_kurtosis"] == 0.0


def test_statistics_pure_noise_variance(default_scene):
    config, _ = default_scene
    cfg = replace(config, noise_sigma=1.0)
    raw, _ = simulate_raw(cfg, [])
    assert raw.size >= 2**18
    stats = raw_statistics(raw)
    assert stats["real"]["variance"] == pytest.approx(1.0, rel=0.05)
    assert stats["imag"]["variance"] == pytest.approx(1.0, rel=0.05)


def test_statistics_histogram_shape():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    stats = raw_statistics(raw)
    hist = stats["real"]["histogram"]
    assert len(hist["counts"]) == 64
    assert len(hist["edges"]) == 65
    assert sum(hist["counts"]) == raw.size


def test_statistics_rejects_empty():
    with pytest.raises(ParameterError):
        raw_statistics(np.zeros((0,)))
