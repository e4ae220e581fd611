import re
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from bsar.core import ChirpModel, unwrap_phase, wrap_half_open
from bsar.errors import (
    DegenerateFitError,
    ParameterError,
    UnsuitableSceneError,
)
from bsar.decompose import leading_triplets
from bsar.estimate import (
    DOMINANCE_GATE,
    MIN_PHASE_EXCURSION,
    blind_estimate,
    build_references,
    detect_support,
    estimate_azimuth,
    estimate_doppler_centroid,
    estimate_range,
    fit_quadratic_phase,
)
from bsar.simulate import Scatterer, simulate_raw


# --- detect_support -------------------------------------------------------------

def test_support_simple_peak():
    env = [0.0, 0.05, 0.5, 1.0, 0.5, 0.05, 0.0]
    assert detect_support(env) == (2, 5)


def test_support_constant_envelope():
    assert detect_support(np.ones(11)) == (0, 11)


def test_support_zero_envelope_errors():
    with pytest.raises(UnsuitableSceneError):
        detect_support(np.zeros(16))


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
    with pytest.raises(DegenerateFitError):
        fit_quadratic_phase(signal, (0, 32))


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["below", "above"])
def test_fit_degeneracy_is_judged_by_phase_excursion(factor):
    # a chirp whose phase moves |rate| * L**2 / 4 cycles from the support
    # centre to either edge, with its vertex off centre and a linear term
    length = 200
    rate = factor * MIN_PHASE_EXCURSION * 4.0 / length**2
    n = np.arange(length)
    signal = np.exp(2j * np.pi * (rate * (n - 80.0) ** 2 + 0.05 * n))
    if factor < 1.0:
        with pytest.raises(DegenerateFitError, match="excursion"):
            fit_quadratic_phase(signal, (0, length))
    else:
        model = fit_quadratic_phase(signal, (0, length))
        assert model.rate == pytest.approx(rate, rel=1e-9)
        assert model.center == pytest.approx(80.0 - 0.05 / (2.0 * rate), rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_fit_rejects_non_finite_samples(capfd, bad):
    # refused before LAPACK sees them, so nothing reaches stderr
    signal = np.exp(2j * np.pi * 0.002 * (np.arange(32) - 16.0) ** 2)
    signal[20] = bad
    with pytest.raises(ParameterError, match="non-finite sample") as info:
        fit_quadratic_phase(signal, (0, 32))
    assert type(info.value) is ParameterError
    assert capfd.readouterr().err == ""


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
    base_model, base_peak = estimate_azimuth(u1)
    rng = np.random.default_rng(1)
    for theta in rng.uniform(0, 2 * np.pi, 3):
        model, peak = estimate_azimuth(u1 * np.exp(1j * theta))
        assert model.rate == pytest.approx(base_model.rate, abs=1e-15)
        assert model.center == pytest.approx(base_model.center, abs=1e-9)
        assert peak == pytest.approx(base_peak, abs=1e-9)


# --- estimate_doppler_centroid --------------------------------------------------

@pytest.mark.parametrize("f", [0.0, 0.1234, -0.3, 0.45, 0.5])
def test_centroid_of_a_pure_doppler_tone(f):
    rng = np.random.default_rng(7)
    profile = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x = np.exp(2j * np.pi * f * np.arange(64))[:, None] * profile[None, :]
    assert estimate_doppler_centroid(x) == pytest.approx(f, abs=1e-12)


@pytest.fixture(scope="module", params=["default", "squint"])
def noise_seed_runs(request):
    """(blind estimate, truth) on noise seeds 3000-3039 of a desk scene."""
    config, scene = request.getfixturevalue(f"{request.param}_scene")
    runs = []
    for seed in range(3000, 3040):
        raw, truth = simulate_raw(replace(config, rng_seed=seed), scene)
        runs.append((blind_estimate(raw), truth))
    return runs


def test_blind_centroid_within_a1_bound_on_40_noise_seeds(noise_seed_runs):
    errors = [abs(wrap_half_open(est.doppler_centroid - truth.doppler_centroid))
              for est, truth in noise_seed_runs]
    assert max(errors) < 0.01, max(errors)


def test_blind_beam_center_on_40_noise_seeds(noise_seed_runs):
    # the centroid-crossing row, not the envelope peak (3.4 pulses off on
    # desk_default), is the beam centre the focusing counts pulses from
    errors = [abs(est.beam_center_row - truth.beam_center_row)
              for est, truth in noise_seed_runs]
    assert max(errors) <= 0.25, max(errors)


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


def test_scale_invariance(default_sim):
    # in complex128, where scaling by 37.5 rounds no sample
    raw = default_sim[0].astype(np.complex128)
    scaled = blind_estimate(37.5 * raw)
    base = blind_estimate(raw)
    assert scaled.range_chirp.rate == pytest.approx(base.range_chirp.rate, abs=1e-15)
    assert scaled.azimuth_chirp.rate == pytest.approx(base.azimuth_chirp.rate, abs=1e-15)
    assert scaled.doppler_centroid == pytest.approx(base.doppler_centroid, abs=1e-12)
    assert scaled.dominance_ratio == pytest.approx(base.dominance_ratio, rel=1e-9)
    assert scaled.range_chirp.support == base.range_chirp.support
    assert scaled.azimuth_chirp.support == base.azimuth_chirp.support


def strided(raw):
    """raw as the [:, :N] view of a wider buffer: rows apart, not C-ordered."""
    padded = np.zeros((raw.shape[0], raw.shape[1] + 128), dtype=raw.dtype)
    padded[:, :raw.shape[1]] = raw
    return padded[:, :raw.shape[1]]


def test_layout_leaves_the_decomposition_and_estimate_bit_identical(default_sim):
    # simulate_raw returns a C-ordered matrix; a [:, :N] view of a wider
    # buffer is strided, and a transposed copy's .T is Fortran-ordered
    raw, _ = default_sim
    assert raw.flags.c_contiguous
    svd = leading_triplets(raw, k=2, gate=DOMINANCE_GATE)
    est = blind_estimate(raw)
    for X in (strided(raw), raw.T.copy().T):
        other = leading_triplets(X, k=2, gate=DOMINANCE_GATE)
        for name in ("singular_values", "left_vectors", "right_vectors"):
            assert np.array_equal(getattr(other, name), getattr(svd, name)), name
        assert (other.products, other.ratio_bound) == (svd.products, svd.ratio_bound)
        assert blind_estimate(X) == est


@pytest.mark.parametrize("step", [lambda X: leading_triplets(X, k=2), blind_estimate],
                         ids=["leading_triplets", "blind_estimate"])
def test_strided_raw_is_copied_once(default_sim, step):
    # one C-ordered copy of X, where np.vdot's strided path copied both operands
    raw = strided(default_sim[0])
    step(raw)  # warm-up: lazy imports inside numpy are not the method's
    tracemalloc.start()
    try:
        step(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * raw.nbytes, f"peak {peak / raw.nbytes:.3f} x X.nbytes"


def test_gate_refuses_noise_only():
    rng = np.random.default_rng(2)
    noise = rng.standard_normal((96, 128)) + 1j * rng.standard_normal((96, 128))
    with pytest.raises(UnsuitableSceneError):
        blind_estimate(noise)


REFUSAL = re.compile(r"Ritz ratio (\S+) after (\d+) products? over X below gate 3\.000 "
                     r"\(sigma1/sigma2 proven at most (\S+)\): ")


def refusal(raw):
    """(Ritz ratio, products over X, proven bound) named by blind_estimate's refusal."""
    with pytest.raises(UnsuitableSceneError) as info:
        blind_estimate(raw)
    match = REFUSAL.search(str(info.value))
    assert match, str(info.value)
    return float(match.group(1)), int(match.group(2)), float(match.group(3))


def test_gate_refuses_clutter_on_a_proven_bound(clutter_sim):
    # the message names the Ritz ratio, the product count and the bound
    _, products, bound = refusal(clutter_sim)
    s = np.linalg.svd(clutter_sim, compute_uv=False)
    assert products <= 5 and s[0] / s[1] <= bound < 3.0


def test_refusal_ritz_ratio_within_its_bound(clutter_sim):
    # one message for both paths: a bound proven below the gate (clutter),
    # and a converged Ritz ratio below it whose bound is not (noise)
    rng = np.random.default_rng(2)
    noise = rng.standard_normal((96, 128)) + 1j * rng.standard_normal((96, 128))
    for raw, certified in ((clutter_sim, True), (noise, False)):
        ratio, _, bound = refusal(raw)
        assert 1.0 <= ratio <= bound and (bound < 3.0) == certified, (ratio, bound)


@pytest.mark.parametrize("case", ["squint", "second_scatterer"])
def test_near_gate_scene_is_refused(default_scene, case):
    # sigma1/sigma2 2.94 (0.2 s of squint) and 2.81 (a second scatterer at
    # 0.9): the squinted scene's bound does not decide it, so it is refused
    # on its converged Ritz ratio; no product count is pinned, so a run to
    # the sweep limit fails here too
    config, scene = default_scene
    if case == "squint":
        config = replace(config, squint_offset=-0.2)
        scene = [replace(scene[0], azimuth_time=scene[0].azimuth_time + 0.2)]
    else:
        scene = scene + [Scatterer(azimuth_time=1.35, range_offset=1100.0, reflectivity=0.9)]
    raw = simulate_raw(config, scene)[0]
    ratio, _, bound = refusal(raw)
    s = np.linalg.svd(raw, compute_uv=False)
    assert ratio <= bound and s[0] / s[1] <= bound, (ratio, s[0] / s[1], bound)


def test_gate_refuses_degenerate_first_pair():
    # identity: Ritz ratio exactly 1, and no bound below the gate
    assert refusal(np.eye(16, dtype=np.complex128))[0] == 1.0


def test_all_zero_matrix_is_unsuitable():
    with pytest.raises(UnsuitableSceneError, match="all-zero"):
        blind_estimate(np.zeros((32, 48), dtype=np.complex128))


# --- build_references -----------------------------------------------------------

def test_references_are_rectangular(default_estimate, default_sim):
    range_ref, azimuth_ref = build_references(default_estimate, default_sim[0].shape[0])
    for ref in (range_ref, azimuth_ref):
        mag = np.abs(ref)
        nz = mag > 0
        np.testing.assert_allclose(mag[nz], 1.0, atol=1e-12)
    assert range_ref.size % 2 == 1  # vertex exactly at the center index


def test_range_reference_matches_transmitted_pulse(default_estimate, default_scene):
    config, _ = default_scene
    range_ref, _ = build_references(default_estimate, config.num_pulses)
    pulse = config.transmitted_pulse()
    n = min(range_ref.size, pulse.size)
    corr = np.correlate(range_ref, pulse, mode="full")
    peak = np.max(np.abs(corr))
    peak /= np.linalg.norm(range_ref) * np.linalg.norm(pulse)
    # lengths differ by a few samples, so normalize by the overlap deficit
    assert peak * max(range_ref.size, pulse.size) / n >= 0.98


def test_azimuth_reference_frequency_at_beam_peak(default_estimate, default_sim):
    # the synthesized reference carries the fitted chirp's frequency at the
    # wrapped index corresponding to the beam centre offset
    est = default_estimate
    model_f = wrap_half_open(
        est.azimuth_chirp.instantaneous_frequency(est.beam_center_row)
    )
    _, azimuth_ref = build_references(est, default_sim[0].shape[0])
    m_total = azimuth_ref.size
    offset = int(round(est.beam_center_row - est.azimuth_chirp.center))
    seg = azimuth_ref[np.arange(offset - 2, offset + 3) % m_total]  # wrapped layout
    assert np.all(np.abs(seg) > 0)
    phase = unwrap_phase(np.angle(seg)) / (2.0 * np.pi)
    measured = wrap_half_open((phase[3] - phase[1]) / 2.0)
    assert measured == pytest.approx(model_f, abs=1e-3)


def test_estimate_validates_doppler_range(default_estimate):
    from bsar.estimate import BlindEstimate

    with pytest.raises(ParameterError):
        BlindEstimate(
            range_chirp=default_estimate.range_chirp,
            azimuth_chirp=default_estimate.azimuth_chirp,
            doppler_centroid=0.75,
            beam_center_row=default_estimate.beam_center_row,
            dominance_ratio=default_estimate.dominance_ratio,
        )


def test_estimate_rejects_off_grid_beam_center(default_estimate, default_sim):
    # focusing counts migration offsets from the beam centre, a row of the
    # raw matrix's pulse grid
    m = default_sim[0].shape[0]
    for row in (-0.5, float(m), float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="beam center"):
            build_references(replace(default_estimate, beam_center_row=row), m)
    for row in (0.0, m - 0.5):
        build_references(replace(default_estimate, beam_center_row=row), m)

