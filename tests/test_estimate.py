import numpy as np
import pytest
from dataclasses import replace

from bsar.core import ChirpModel, synth_chirp, unwrap_phase, wrap_half_open
from bsar.errors import (
    DegenerateFitError,
    ParameterError,
    UnsuitableSceneError,
)
from bsar.estimate import (
    blind_estimate,
    build_references,
    detect_support,
    estimate_azimuth,
    estimate_range,
    fit_quadratic_phase,
)
from bsar.simulate import simulate_raw


# --- detect_support -------------------------------------------------------------

def test_support_simple_peak():
    env = [0.0, 0.05, 0.5, 1.0, 0.5, 0.05, 0.0]
    assert detect_support(env, 0.1) == (2, 5)


def test_support_constant_envelope():
    assert detect_support(np.ones(11), 0.1) == (0, 11)


def test_support_monotone_in_threshold():
    rng = np.random.default_rng(0)
    env = np.convolve(rng.uniform(0, 1, 200), np.ones(9) / 9, mode="same")
    prev = None
    for frac in (0.5, 0.3, 0.1, 0.05):
        start, stop = detect_support(env, frac)
        if prev is not None:
            assert start <= prev[0] and stop >= prev[1]
        prev = (start, stop)


def test_support_zero_envelope_errors():
    with pytest.raises(UnsuitableSceneError):
        detect_support(np.zeros(16), 0.1)
    with pytest.raises(ParameterError):
        detect_support(np.ones(4), 1.5)


def test_support_length_matches_chirp(default_estimate, default_sim):
    # blind 10% thresholding recovers the configured chirp length to +-4
    _, truth = default_sim
    start, stop = default_estimate.range_chirp.support
    assert abs((stop - start) - truth.chirp_samples) <= 4


# --- fit_quadratic_phase --------------------------------------------------------

def test_fit_exact_polynomial():
    n = np.arange(100, dtype=np.float64)
    k, b, c0 = 0.002, 0.01, 0.3
    signal = np.exp(2j * np.pi * (k * n**2 + b * n + c0))
    model = fit_quadratic_phase(signal, (0, 100))
    assert model.rate == pytest.approx(k, abs=1e-9)
    # the fit stores vertex form; expand back to the n-polynomial
    recovered = model.phase_cycles(n)
    truth = k * n**2 + b * n + c0
    shift = np.round(np.mean(recovered - truth))  # 2*pi ambiguity only
    np.testing.assert_allclose(recovered - shift, truth, atol=1e-9)
    assert model.fit_rms < 1e-9


def test_fit_recovers_true_range_rate(default_estimate, default_sim):
    _, truth = default_sim
    assert abs(default_estimate.range_chirp.rate) == pytest.approx(
        abs(truth.range_chirp_rate), rel=0.01
    )


def test_fit_noise_robustness(default_scene):
    # 10 dB SNR inside the support, over 20 seeds: rate error stays below 5%
    config, _ = default_scene
    pulse = config.transmitted_pulse()
    true_rate = config.range_chirp_model().rate
    sigma = np.sqrt(0.1 / 2.0)  # per-component std for 10 dB SNR on |s|=1
    errors = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = pulse + sigma * (rng.standard_normal(pulse.size)
                                 + 1j * rng.standard_normal(pulse.size))
        model = fit_quadratic_phase(noisy, (0, pulse.size))
        errors.append(abs(model.rate - true_rate) / true_rate)
    assert max(errors) < 0.05


def test_fit_degenerate_phase_rejected():
    signal = np.ones(32, dtype=np.complex128)
    with pytest.raises(DegenerateFitError) as info:
        fit_quadratic_phase(signal, (0, 32))
    assert info.value.model is None or info.value.model.rate == 0.0


def test_fit_support_validation():
    sig = np.exp(2j * np.pi * 0.001 * np.arange(64) ** 2)
    with pytest.raises(ParameterError):
        fit_quadratic_phase(sig, (10, 14))  # too short
    with pytest.raises(ParameterError):
        fit_quadratic_phase(sig, (0, 100))  # outside the signal


# --- estimate_azimuth -----------------------------------------------------------

def test_zero_squint_doppler_centroid(default_estimate):
    assert abs(default_estimate.doppler_centroid) < 0.01


def test_squint_doppler_centroid(squint_estimate, squint_sim):
    _, truth = squint_sim
    assert abs(truth.doppler_centroid) == pytest.approx(0.15, abs=0.001)
    assert squint_estimate.doppler_centroid == pytest.approx(
        truth.doppler_centroid, abs=0.01
    )


def test_azimuth_rate_recovery(default_estimate, default_sim):
    _, truth = default_sim
    assert default_estimate.azimuth_chirp.rate == pytest.approx(
        truth.azimuth_chirp_rate, rel=0.02
    )


def test_azimuth_gauge_invariance(default_sim):
    from bsar.decompose import leading_triplets

    raw, _ = default_sim
    svd = leading_triplets(raw, k=2)
    u1 = svd.left_vectors[:, 0]
    base_model, base_dc, _, base_peak = estimate_azimuth(u1)
    rng = np.random.default_rng(1)
    for theta in rng.uniform(0, 2 * np.pi, 3):
        model, dc, _, peak = estimate_azimuth(u1 * np.exp(1j * theta))
        assert model.rate == pytest.approx(base_model.rate, abs=1e-15)
        assert model.center == pytest.approx(base_model.center, abs=1e-9)
        assert dc == pytest.approx(base_dc, abs=1e-12)
        assert peak == pytest.approx(base_peak, abs=1e-9)


# --- estimate_range -------------------------------------------------------------

def test_range_from_exact_pulse(default_scene):
    config, _ = default_scene
    pulse = config.transmitted_pulse()
    true_model = config.range_chirp_model()
    model = estimate_range(pulse)
    assert model.rate == pytest.approx(true_model.rate, abs=1e-6 * abs(true_model.rate))
    assert model.center == pytest.approx(true_model.center, abs=1e-3)


def test_range_sign_resolved_by_compression(default_sim, default_estimate):
    _, truth = default_sim
    # conj(v1) carries the transmitted up-chirp, so the fitted sign matches it
    assert default_estimate.range_chirp.rate == pytest.approx(
        truth.range_chirp_rate, rel=0.01
    )


def test_reflectivity_phase_is_a_gauge(default_scene):
    config, scene = default_scene
    cfg = replace(config, noise_sigma=0.0)
    raw_a, _ = simulate_raw(cfg, scene)
    rotated = [replace(scene[0], reflectivity=scene[0].reflectivity * np.exp(0.7j))]
    raw_b, _ = simulate_raw(cfg, rotated)
    est_a = blind_estimate(raw_a)
    est_b = blind_estimate(raw_b)
    assert est_b.range_chirp.rate == pytest.approx(est_a.range_chirp.rate, rel=1e-9)
    assert est_b.range_chirp.support == est_a.range_chirp.support


def test_scale_invariance(default_sim, default_estimate):
    raw, _ = default_sim
    scaled = blind_estimate(37.5 * raw)
    base = default_estimate
    assert scaled.range_chirp.rate == pytest.approx(base.range_chirp.rate, abs=1e-15)
    assert scaled.azimuth_chirp.rate == pytest.approx(base.azimuth_chirp.rate, abs=1e-15)
    assert scaled.doppler_centroid == pytest.approx(base.doppler_centroid, abs=1e-12)
    assert scaled.dominance_ratio == pytest.approx(base.dominance_ratio, rel=1e-9)
    assert scaled.range_chirp.support == base.range_chirp.support
    assert scaled.azimuth_chirp.support == base.azimuth_chirp.support


def test_gate_refuses_noise_only():
    rng = np.random.default_rng(2)
    noise = rng.standard_normal((96, 128)) + 1j * rng.standard_normal((96, 128))
    with pytest.raises(UnsuitableSceneError):
        blind_estimate(noise)


def test_gate_refuses_degenerate_first_pair():
    with pytest.raises(UnsuitableSceneError, match="degenerate"):
        blind_estimate(np.eye(16, dtype=np.complex128))


def test_all_zero_matrix_is_unsuitable():
    with pytest.raises(UnsuitableSceneError, match="all-zero"):
        blind_estimate(np.zeros((32, 48), dtype=np.complex128))


# --- build_references -----------------------------------------------------------

def test_references_untapered_are_rectangular(default_estimate):
    range_ref, azimuth_ref = build_references(default_estimate, taper_fraction=0.0)
    for ref in (range_ref, azimuth_ref):
        mag = np.abs(ref)
        nz = mag > 0
        np.testing.assert_allclose(mag[nz], 1.0, atol=1e-12)
    assert range_ref.size % 2 == 1  # vertex exactly at the center index


def test_range_reference_matches_transmitted_pulse(default_estimate, default_scene):
    config, _ = default_scene
    range_ref, _ = build_references(default_estimate, taper_fraction=0.0)
    pulse = config.transmitted_pulse()
    n = min(range_ref.size, pulse.size)
    corr = np.correlate(range_ref, pulse, mode="full")
    peak = np.max(np.abs(corr))
    peak /= np.linalg.norm(range_ref) * np.linalg.norm(pulse)
    # lengths differ by a few samples, so normalize by the overlap deficit
    assert peak * max(range_ref.size, pulse.size) / n >= 0.98


def test_azimuth_reference_frequency_at_beam_peak(default_estimate):
    est = default_estimate
    model_f = wrap_half_open(
        est.azimuth_chirp.instantaneous_frequency(est.beam_peak_index)
    )
    assert model_f == pytest.approx(est.doppler_centroid, abs=1e-6)
    # and the synthesized reference itself carries that frequency at the
    # wrapped index corresponding to the beam peak offset
    _, azimuth_ref = build_references(est, taper_fraction=0.0)
    m_total = azimuth_ref.size
    offset = int(round(est.beam_peak_index - est.azimuth_chirp.center))
    idx = offset % m_total
    seg = azimuth_ref[idx - 2:idx + 3]
    assert np.all(np.abs(seg) > 0)
    phase = unwrap_phase(np.angle(seg)) / (2.0 * np.pi)
    measured = wrap_half_open((phase[3] - phase[1]) / 2.0)
    assert measured == pytest.approx(est.doppler_centroid, abs=1e-3)


def test_references_taper_validation(default_estimate):
    with pytest.raises(ParameterError):
        build_references(default_estimate, taper_fraction=0.7)


def test_estimate_validates_doppler_range(default_estimate):
    from bsar.estimate import BlindEstimate

    with pytest.raises(ParameterError):
        BlindEstimate(
            range_chirp=default_estimate.range_chirp,
            azimuth_chirp=default_estimate.azimuth_chirp,
            doppler_centroid=0.75,
            beam_envelope=default_estimate.beam_envelope,
            beam_peak_index=default_estimate.beam_peak_index,
            dominance_ratio=default_estimate.dominance_ratio,
            fit_residuals={"range": 0.0, "azimuth": 0.0},
        )
