import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import bsar.core
import bsar.focus
from bsar import fileio
from bsar.core import ChirpModel, mapped_zeros, next_fast_len, sample_chirp, shift_ramp
from bsar.errors import ParameterError, TrackingError
from bsar.estimate import _parabolic_peak, build_references
from bsar.focus import (
    RcmModel,
    azimuth_compress,
    fit_rcm,
    focus_pipeline,
    range_compress,
    rcmc,
    track_rcm,
)
from bsar.quality import analyze_point_target
from bsar.simulate import oracle_estimate, simulate_raw
from oracles import (
    direct_shift_ramp,
    out_of_place_azimuth_compress,
    oversampled_autocorrelation,
    range_spectrum,
    rolled_range_compress,
    six_pass_focus,
)


def make_reference(rate=1e-3, half=40):
    """Odd-length chirp with the phase vertex at the center index."""
    model = ChirpModel(rate=rate, center=half, support=(0, 2 * half + 1))
    positions = np.arange(2 * half + 1, dtype=np.float64)
    return model, sample_chirp(model, positions)


def delay_of(ref):
    """The reference's group delay, its center index."""
    return (ref.size - 1) // 2


def compressed(raw, ref):
    """Pass 1's rows inverse-FFTed, rolled by the group delay and trimmed to
    the row length: the time-domain rows that track_rcm reads."""
    rows = np.fft.ifft(range_compress(raw, ref), axis=1)
    return np.roll(rows, delay_of(ref), axis=1)[:, :raw.shape[1]]


# --- range_compress -------------------------------------------------------------

def test_self_correlation_peak_and_sidelobes():
    model, ref = make_reference(rate=2e-3, half=64)
    row = np.zeros(512, dtype=np.complex128)
    start = 200
    row[start:start + ref.size] = ref
    rc = compressed(row[None, :], ref)[0]
    peak_col = int(np.argmax(np.abs(rc)))
    assert peak_col == start + 64  # the echo's phase-vertex column
    assert abs(rc[peak_col]) == pytest.approx(np.sum(np.abs(ref) ** 2), rel=1e-9)

    # PSLR of the oversampled response: the direct-correlation oracle on a
    # fine lag grid reproduces the analytic sinc sidelobe level (-13.26 dB)
    lags = np.arange(-12.0, 12.0, 1.0 / 64.0)
    positions = np.arange(ref.size, dtype=np.float64)
    fine = np.abs(oversampled_autocorrelation(
        ref, positions, lambda p: sample_chirp(model, p), lags
    ))
    peak = int(np.argmax(fine))
    left = peak
    while left > 0 and fine[left - 1] < fine[left]:
        left -= 1
    right = peak
    while right < fine.size - 1 and fine[right + 1] < fine[right]:
        right += 1
    side = max(np.max(fine[:left]), np.max(fine[right + 1:]))
    pslr = 20.0 * np.log10(side / fine[peak])
    assert pslr == pytest.approx(-13.26, abs=0.3)

    # the FFT compression samples the same response on the integer grid
    coarse = np.abs(rc[peak_col - 12:peak_col + 12])
    expected = fine[np.isclose(lags % 1.0, 0.0)][:coarse.size]
    np.testing.assert_allclose(coarse, expected[:coarse.size],
                               atol=1e-6 * fine[peak])


def test_zero_row_stays_zero():
    _, ref = make_reference()
    spectrum = range_compress(np.zeros((3, 256), dtype=np.complex128), ref)
    assert spectrum.shape == (3, next_fast_len(256 + ref.size - 1))
    assert np.all(spectrum == 0)


def test_shift_invariance_two_echoes():
    _, ref = make_reference(half=30)
    row = np.zeros(400, dtype=np.complex128)
    row[50:50 + ref.size] = ref
    row[150:150 + ref.size] += ref
    rc = np.abs(compressed(row[None, :], ref)[0])
    p1 = int(np.argmax(rc[:130]))
    p2 = 130 + int(np.argmax(rc[130:]))
    assert p2 - p1 == 100
    assert rc[p1] == pytest.approx(rc[p2], abs=1e-9 * rc[p1])


def test_reference_longer_than_row_rejected():
    _, ref = make_reference(half=64)
    x = np.zeros((2, 64), dtype=np.complex128)
    with pytest.raises(ParameterError, match="longer"):
        range_compress(x, ref)


@pytest.mark.parametrize("ref_len", [1, 2, 3, 128, 200])
def test_range_compress_matches_rolled_correlation(ref_len):
    # group delay 0 for lengths 1 and 2; the last reference is as long as a row
    rng = np.random.default_rng(ref_len)
    n = 200
    raw = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    ref = rng.standard_normal(ref_len) + 1j * rng.standard_normal(ref_len)
    nfft = next_fast_len(n + ref_len - 1)
    np.testing.assert_array_equal(range_compress(raw, ref), range_spectrum(raw, ref, nfft))
    np.testing.assert_array_equal(compressed(raw, ref), rolled_range_compress(raw, ref, nfft))


# --- track_rcm ------------------------------------------------------------------

def noiseless_oracle(config, scene):
    """(raw, untapered range reference, truth, oracle estimate)."""
    raw, truth = simulate_raw(replace(config, noise_sigma=0.0), scene)
    estimate, _ = oracle_estimate(truth)
    range_ref, _ = build_references(estimate, raw.shape[0])
    return raw, range_ref, truth, estimate


def track(raw, ref, offsets):
    """track_rcm on pass 1 of `raw`'s rows."""
    return track_rcm(range_compress(raw, ref), raw.shape[1], delay_of(ref), offsets)


def tracked(raw, range_ref, estimate):
    """track_rcm as focus_pipeline calls it: the rows of the azimuth support,
    against their pulse offsets from the estimate's beam centre."""
    lo, hi = estimate.azimuth_chirp.support
    return track(raw[lo:hi], range_ref, np.arange(lo, hi) - estimate.beam_center_row)


def rolled_peaks(raw, ref):
    """Parabolic peaks of the rows compressed by the whole-buffer oracle."""
    nfft = next_fast_len(raw.shape[1] + ref.size - 1)
    mags = np.abs(rolled_range_compress(raw, ref, nfft))
    return np.array([_parabolic_peak(row, int(np.argmax(row))) for row in mags])


def rolled_tracked(raw, range_ref, estimate):
    """The migration fit to the oracle's peaks on the azimuth support."""
    lo, hi = estimate.azimuth_chirp.support
    offsets = np.arange(lo, hi) - estimate.beam_center_row
    return fit_rcm(offsets, rolled_peaks(raw[lo:hi], range_ref))


def test_tracked_curve_matches_truth(default_scene):
    config, scene = default_scene
    raw, range_ref, truth, estimate = noiseless_oracle(config, scene)
    rcm = tracked(raw, range_ref, estimate)
    lo, hi = truth.azimuth_support
    rows = np.arange(lo + 1, hi - 1)
    predicted = rcm.reference_range_bin + rcm.delta(rows - truth.beam_center_row)
    col0 = truth.positions[0][1]
    analytic = col0 + truth.rcm_curve[rows]
    rms = np.sqrt(np.mean((predicted - analytic) ** 2))
    assert rms < 0.25


def test_zero_migration_input():
    _, ref = make_reference(half=30)
    m = 128
    rows = np.zeros((m, 300), dtype=np.complex128)
    rows[:, 100:100 + ref.size] = ref[None, :]
    rcm = track(rows, ref, np.arange(m) - 64.0)
    assert abs(rcm.quadratic) < 1e-3
    assert abs(rcm.linear) < 1e-3


def test_migration_scales_with_inverse_range(default_scene):
    # halving the closest approach distance doubles the migration curvature
    config, scene = default_scene
    raw1, ref1, _, est1 = noiseless_oracle(config, scene)
    near = replace(config, closest_range=config.closest_range / 2.0)
    near_scene = [replace(scene[0], range_offset=scene[0].range_offset / 2.0)]
    raw2, ref2, _, est2 = noiseless_oracle(near, near_scene)
    q1 = tracked(raw1, ref1, est1).quadratic
    q2 = tracked(raw2, ref2, est2).quadratic
    assert q2 / q1 == pytest.approx(2.0, rel=0.05)


def test_tracking_needs_enough_pulses():
    _, ref = make_reference(half=20)
    rows = np.zeros((40, 200), dtype=np.complex128)
    rows[:, 80:80 + ref.size] = ref[None, :]
    spectrum = range_compress(rows, ref)
    with pytest.raises(TrackingError):
        track_rcm(spectrum[18:26], 200, 20, np.arange(18, 26) - 22.0)  # only 8 pulses
    with pytest.raises(ParameterError, match="offset"):
        track_rcm(spectrum, 200, 20, np.arange(39) - 22.0)


def test_track_rcm_origin_invariance(default_sim, default_estimate):
    # moving the origin of the offsets re-parameterizes the same trajectory
    raw, _ = default_sim
    est = default_estimate
    range_ref, _ = build_references(est, raw.shape[0])
    lo, hi = est.azimuth_chirp.support
    spectrum = range_compress(raw[lo:hi], range_ref)
    offsets = np.arange(lo, hi) - est.beam_center_row
    a = track_rcm(spectrum, raw.shape[1], delay_of(range_ref), offsets)
    b = track_rcm(spectrum, raw.shape[1], delay_of(range_ref), offsets - 3.5)
    np.testing.assert_allclose(b.reference_range_bin + b.delta(offsets - 3.5),
                               a.reference_range_bin + a.delta(offsets),
                               rtol=0.0, atol=1e-9)
    assert b.quadratic == pytest.approx(a.quadratic, rel=1e-9)
    assert b.fit_rms == pytest.approx(a.fit_rms, rel=1e-9)


@pytest.mark.parametrize("scene", ["default", "squint"])
def test_pipeline_tracks_the_peaks_of_rolled_rows(request, scene):
    # the blind model is exactly the fit to the peaks of the support rows
    # compressed in the time domain, so the blind image is the image that
    # fit gives; a group delay or a trim off by one sample moves every peak
    raw = request.getfixturevalue(f"{scene}_sim")[0].astype(np.complex128)
    estimate = request.getfixturevalue(f"{scene}_estimate")
    range_ref, _ = build_references(estimate, raw.shape[0])
    override = rolled_tracked(raw, range_ref, estimate)
    image = focus_pipeline(raw, estimate).image
    assert image.tobytes() == focus_pipeline(raw, estimate, rcm_override=override).image.tobytes()


@pytest.mark.parametrize("ref_len", [1, 2, 9])
def test_track_rcm_reads_the_rolled_trimmed_rows(ref_len):
    # on noise any column can hold a row's peak, the first and the last
    # included, so a roll or a trim off by one sample changes the fit; noise
    # that grows towards the row's end puts many peaks at its edge
    raw = random_matrix(ref_len, (64, 24)) * np.geomspace(0.1, 10.0, 24)
    ref = random_matrix(ref_len + 1, (1, ref_len))[0]
    offsets = np.arange(64) - 32.0
    assert track(raw, ref, offsets) == fit_rcm(offsets, rolled_peaks(raw, ref))


# --- rcmc -----------------------------------------------------------------------

IMPULSE = np.ones(1, dtype=np.complex128)  # a range reference that compresses nothing


def range_doppler(raw, ref, *args, **kwargs):
    """Passes 1 to 3: rcmc of range_compress's output."""
    return rcmc(range_compress(raw, ref), raw.shape[1], delay_of(ref), *args, **kwargs)


def test_rcmc_zero_model_is_pure_dft():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 48)) + 1j * rng.standard_normal((32, 48))
    rcm = RcmModel(reference_range_bin=0.0, linear=0.0, quadratic=0.0, fit_rms=0.0)
    out = range_doppler(x, IMPULSE, rcm, azimuth_rate=-1e-3, doppler_centroid=0.0)
    np.testing.assert_allclose(out, np.fft.fft(x, axis=0), atol=1e-10)


def test_rcmc_single_frequency_shift():
    # a single azimuth frequency must be shifted by exactly delta(f) samples
    m, n = 64, 128
    f0 = 5.0 / m
    rng = np.random.default_rng(1)
    profile = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = np.exp(2j * np.pi * f0 * np.arange(m))[:, None] * profile[None, :]
    rate = -1e-3
    # choose the linear term so the shift at bin f0 is exactly 3 samples
    offset = f0 / (2.0 * rate)
    rcm = RcmModel(reference_range_bin=0.0, linear=3.0 / offset, quadratic=0.0,
                   fit_rms=0.0)
    out = range_doppler(x, IMPULSE, rcm, azimuth_rate=rate, doppler_centroid=0.0)
    line = out[5]  # bin of f0 after the azimuth DFT
    np.testing.assert_allclose(line / m, np.roll(profile, -3), atol=1e-9)
    # other bins carry no energy
    others = np.delete(np.abs(out), 5, axis=0)
    assert np.max(others) < 1e-9 * np.max(np.abs(line))


def test_rcmc_leaves_zero_doppler_in_place():
    # the anchor: the zero-Doppler bin is not shifted, whatever the centroid
    m, n = 64, 128
    rng = np.random.default_rng(5)
    profile = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = np.repeat(profile[None, :], m, axis=0)  # all energy at zero Doppler
    rcm = RcmModel(reference_range_bin=0.0, linear=0.02, quadratic=1e-4, fit_rms=0.0)
    out = range_doppler(x, IMPULSE, rcm, azimuth_rate=-1e-3, doppler_centroid=0.1)
    np.testing.assert_allclose(out[0] / m, profile, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1023, 1024, 4097])
def test_shift_ramp_matches_direct_exp(n):
    delta = np.linspace(-6.0, 6.0, 37)  # shifts of a few samples either way
    np.testing.assert_allclose(shift_ramp(delta, n), direct_shift_ramp(delta, n),
                               rtol=0.0, atol=1e-13)


def random_matrix(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


MIGRATION = RcmModel(reference_range_bin=0.0, linear=0.02, quadratic=1e-4, fit_rms=0.0)


def test_stages_leave_inputs_unchanged():
    # range_compress leaves the raw rows alone, and track_rcm pass 1's
    # buffer, which rcmc then transforms in place
    x = random_matrix(3, (48, 96))
    _, ref = make_reference(half=10)
    for raw in (x, x.astype(np.complex64)):
        before = raw.copy()
        spectrum = range_compress(raw, ref)
        np.testing.assert_array_equal(raw, before)
    before = spectrum.copy()
    track_rcm(spectrum, 96, 10, np.arange(48) - 24.0)
    np.testing.assert_array_equal(spectrum, before)
    assert np.shares_memory(rcmc(spectrum, 96, 10, MIGRATION, -1e-3, 0.05), spectrum)


@pytest.mark.parametrize("layout", ["column-slice", "fortran"])
def test_rcmc_accepts_non_contiguous_input(layout):
    wide = random_matrix(4, (48, 130))
    x = wide[:, :96] if layout == "column-slice" else np.asfortranarray(wide[:, :96])
    _, ref = make_reference(half=10)
    expected = range_doppler(np.ascontiguousarray(x), ref, MIGRATION, -1e-3, 0.05)
    np.testing.assert_array_equal(range_doppler(x, ref, MIGRATION, -1e-3, 0.05), expected)


def test_rcmc_rejects_zero_rate_and_huge_shift():
    x = np.ones((16, 32), dtype=np.complex128)
    rcm = RcmModel(reference_range_bin=0.0, linear=0.0, quadratic=0.0, fit_rms=0.0)
    with pytest.raises(ParameterError):
        range_doppler(x, IMPULSE, rcm, azimuth_rate=0.0, doppler_centroid=0.0)
    big = RcmModel(reference_range_bin=0.0, linear=1.0, quadratic=0.0, fit_rms=0.0)
    with pytest.raises(ParameterError, match="implausible"):
        range_doppler(x, IMPULSE, big, azimuth_rate=1e-6, doppler_centroid=0.0)


def test_rcmc_effectiveness(default_scene):
    # peak spread across pulses: > 2 samples before, < 1 sample after
    config, scene = default_scene
    raw, range_ref, truth, estimate = noiseless_oracle(config, scene)
    rc = compressed(raw, range_ref)
    rcm = tracked(raw, range_ref, estimate)
    rd = range_doppler(raw, range_ref, rcm, truth.azimuth_chirp_rate, truth.doppler_centroid)
    corrected = np.fft.ifft(rd, axis=0)

    lo, hi = truth.azimuth_support
    rows = np.arange(lo + 2, hi - 2)

    def spread(matrix):
        mags = np.abs(matrix[rows])
        cols = np.argmax(mags, axis=1)
        peaks = [_parabolic_peak(mags[i], cols[i]) for i in range(rows.size)]
        return float(np.max(peaks) - np.min(peaks))

    assert spread(rc) > 2.0
    assert spread(corrected) < 1.0


# --- azimuth_compress and the pipeline -------------------------------------------

def test_azimuth_impulse_reference_is_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((24, 16)) + 1j * rng.standard_normal((24, 16))
    impulse = np.zeros(24, dtype=np.complex128)
    impulse[0] = 1.0
    expected = np.fft.ifft(x.copy(), axis=0)
    img = azimuth_compress(x, impulse)
    assert img is x
    np.testing.assert_allclose(img, expected, atol=1e-12)


def test_azimuth_compress_filters_rd_in_place():
    # the image is rcmc's buffer, filtered exactly as a new product matrix
    # and a new inverse FFT would be
    _, ref = make_reference(half=10)
    rd = range_doppler(random_matrix(5, (48, 96)), ref, MIGRATION, -1e-3, 0.05)
    expected = out_of_place_azimuth_compress(rd, ref)
    image = azimuth_compress(rd, ref)
    assert image is rd
    np.testing.assert_array_equal(image, expected)


def test_blind_peak_hits_ground_truth(blind_image, default_sim):
    _, truth = default_sim
    mag = np.abs(blind_image.image)
    peak = np.unravel_index(np.argmax(mag), mag.shape)
    row0, col0 = truth.positions[0]
    assert abs(peak[0] - row0) <= 1.0
    assert abs(peak[1] - col0) <= 1.0


def test_pipeline_linearity(default_scene):
    config, scene = default_scene
    cfg = replace(config, noise_sigma=0.0)
    sc1 = scene[0]
    sc2 = replace(sc1, azimuth_time=sc1.azimuth_time + 0.15,
                  range_offset=sc1.range_offset - 200.0, reflectivity=0.6 + 0.2j)
    # complex128 raw keeps a complex128 map, so every stage stays linear to
    # float64 precision
    raw1, truth = simulate_raw(cfg, [sc1])
    raw1 = raw1.astype(np.complex128)
    raw2 = simulate_raw(cfg, [sc2])[0].astype(np.complex128)
    estimate, rcm = oracle_estimate(truth)
    img1, img2, both = (focus_pipeline(raw, estimate, rcm_override=rcm).image
                        for raw in (raw1, raw2, raw1 + raw2))
    assert both.dtype == np.complex128
    scale = np.max(np.abs(both))
    np.testing.assert_allclose(both, img1 + img2, atol=1e-9 * scale)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("mode", ["blind", "oracle"])
def test_image_is_the_stage_image_in_pass_one_map(monkeypatch, request, mode, workers):
    # the returned image is the M x N view of pass 1's map in the raw's
    # precision, at any worker count: its root is the map's flat buffer of
    # M x nfft samples, it starts at that buffer's first byte, and its rows
    # step by nfft
    raw, _, estimate, rcm = focus_inputs(request, "default", mode)
    monkeypatch.setattr(bsar.core, "block_workers", lambda: workers)
    image = focus_pipeline(raw, estimate, rcm_override=rcm, provenance=mode).image
    assert image.shape == raw.shape and image.dtype == raw.dtype == np.complex64
    (m, nfft), dtype = pass_one_map(raw, estimate, np.complex64)
    root = image.base
    assert root.shape == (m * nfft,) and root.dtype == dtype
    assert image.ctypes.data == root.ctypes.data
    assert image.strides == (nfft * dtype.itemsize, dtype.itemsize)


def test_range_shift_covariance(default_scene):
    config, scene = default_scene
    cfg = replace(config, noise_sigma=0.0)
    shift_m = 5.0 * 299792458.0 / (2.0 * config.range_sampling)  # 5 samples
    shifted = [replace(scene[0], range_offset=scene[0].range_offset + shift_m)]

    peaks = []
    for scn in (scene, shifted):
        raw, truth = simulate_raw(cfg, scn)
        estimate, rcm = oracle_estimate(truth)
        img = focus_pipeline(raw, estimate, rcm_override=rcm).image
        peaks.append(np.unravel_index(np.argmax(np.abs(img)), img.shape))
    assert peaks[1][0] == peaks[0][0]
    assert peaks[1][1] - peaks[0][1] == 5


def test_argmax_stable_under_scaling(default_sim, default_estimate):
    raw, _ = default_sim
    a = focus_pipeline(raw, default_estimate).image
    b = focus_pipeline(7.25 * raw, default_estimate).image
    pa = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    pb = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    assert pa == pb


def focus_inputs(request, scene, mode):
    """(raw, truth, estimate, rcm_override) for a desk scene and focusing mode."""
    raw, truth = request.getfixturevalue(f"{scene}_sim")
    if mode == "blind":
        return raw, truth, request.getfixturevalue(f"{scene}_estimate"), None
    return (raw, truth) + tuple(request.getfixturevalue(f"{scene}_oracle"))


@pytest.mark.parametrize("mode", ["blind", "oracle"])
@pytest.mark.parametrize("scene", ["default", "squint"])
def test_pipeline_matches_six_pass_reference(request, scene, mode):
    # four fused passes against range compression, RCMC and azimuth
    # compression done one after the other, tracking on rows compressed from
    # the whole matrix
    raw, truth, estimate, rcm = focus_inputs(request, scene, mode)
    image = focus_pipeline(raw, estimate, rcm_override=rcm, provenance=mode).image
    range_ref, azimuth_ref = build_references(estimate, raw.shape[0])
    nfft = next_fast_len(raw.shape[1] + range_ref.size - 1)
    if rcm is None:
        rcm = rolled_tracked(raw, range_ref, estimate)
    expected = six_pass_focus(raw, range_ref, azimuth_ref, rcm, estimate.azimuth_chirp.rate,
                              estimate.doppler_centroid, nfft)
    r, c = (int(round(v)) for v in truth.positions[0])
    window = (slice(r - 32, r + 32), slice(c - 32, c + 32))
    peak = np.max(np.abs(expected))
    assert np.max(np.abs(image[window] - expected[window])) <= 1e-5 * peak
    assert (analyze_point_target(image, truth.positions[0]).peak_position
            == analyze_point_target(expected, truth.positions[0]).peak_position)


@pytest.mark.parametrize("mode", ["blind", "oracle"])
def test_squint_peak_at_closest_approach(request, mode):
    # RCMC anchored at zero Doppler puts the target at its closest-approach
    # range, not at its range at the beam centre (1.3 samples further out)
    raw, truth, estimate, rcm = focus_inputs(request, "squint", mode)
    image = focus_pipeline(raw, estimate, rcm_override=rcm, provenance=mode)
    peak = analyze_point_target(image, truth.positions[0]).peak_position
    np.testing.assert_allclose(peak, truth.positions[0], rtol=0.0, atol=0.25)


def test_stage_errors_name_the_stage(default_sim, default_estimate):
    raw, _ = default_sim
    bad = RcmModel(reference_range_bin=0.0, linear=1e6, quadratic=0.0, fit_rms=0.0)
    with pytest.raises(ParameterError, match="rcmc"):
        focus_pipeline(raw, default_estimate, rcm_override=bad)


@pytest.mark.parametrize("mode", ["blind", "oracle"])
def test_zero_azimuth_rate_is_a_parameter_error(request, mode):
    raw, _, estimate, rcm = focus_inputs(request, "default", mode)
    flat = replace(estimate, azimuth_chirp=replace(estimate.azimuth_chirp, rate=0.0))
    with pytest.raises(ParameterError, match="nonzero"):
        focus_pipeline(raw, flat, rcm_override=rcm)


def focus_memory(monkeypatch, raw, estimate, rcm):
    """(maps, heap peak) of one focus_pipeline call on `raw`, a matrix or a
    fileio.MatrixReader: the (shape, dtype) of every map it asks
    core.mapped_zeros for, which tracemalloc does not see, and the peak of
    what tracemalloc does see, in units of M*N*16 bytes."""
    maps = []

    def recorded(shape, dtype):
        maps.append((shape, np.dtype(dtype)))
        return mapped_zeros(shape, dtype)

    monkeypatch.setattr(bsar.focus, "mapped_zeros", recorded)
    tracemalloc.start()
    try:
        focus_pipeline(raw, estimate, rcm_override=rcm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m, n = raw.shape
    return maps, peak / (m * n * 16)


def pass_one_map(raw, estimate, dtype):
    """The (shape, dtype) of pass 1's map: M rows of nfft."""
    range_ref, _ = build_references(estimate, raw.shape[0])
    nfft = next_fast_len(raw.shape[1] + range_ref.size - 1)
    return (raw.shape[0], nfft), np.dtype(dtype)


@pytest.mark.parametrize("mode", ["blind", "oracle"])
def test_focus_pipeline_peak_memory(monkeypatch, mode, default_sim, default_estimate,
                                    default_oracle):
    # pass 1's map is the one full-size matrix, and the image is a view of
    # it; any other scene-sized matrix on the heap, even a complex64
    # one (0.5 units), breaks the heap bound
    raw = default_sim[0].astype(np.complex128)
    estimate, rcm = (default_estimate, None) if mode == "blind" else default_oracle
    maps, peak = focus_memory(monkeypatch, raw, estimate, rcm)
    assert maps == [pass_one_map(raw, estimate, np.complex128)]
    assert peak <= 0.4, peak


U32 = 2.0 ** -24  # unit roundoff of float32: |fl(z) - z| <= U32 |z| for complex64


@pytest.mark.parametrize("scene", ["default", "squint"])
def test_complex64_map_is_the_complex128_spectrum_rounded_once(request, scene):
    # each block of rows is transformed in complex128 and stored once
    raw, _, estimate, _ = focus_inputs(request, scene, "blind")
    range_ref, _ = build_references(estimate, raw.shape[0])
    single = range_compress(raw, range_ref)
    assert single.dtype == np.complex64
    double = range_compress(raw.astype(np.complex128), range_ref)
    np.testing.assert_array_equal(single, double.astype(np.complex64))


@pytest.mark.parametrize("mode", ["blind", "oracle"])
@pytest.mark.parametrize("scene", ["default", "squint"])
def test_complex64_raw_focuses_like_its_upcast(request, scene, mode):
    # not bit for bit, but within a bound derived from U32 and the number of
    # stores: complex64 raw rounds each pass's complex128 block once as it is
    # stored into the map, at passes 1 to 4; complex128 raw is not rounded
    # at all.  With Y pass 1's exact spectrum, the later passes scale a
    # norm by sqrt(M) (azimuth FFT), by 1/sqrt(nfft) (unit-modulus ramp,
    # inverse range FFT, trim) and by at most g/sqrt(M) (matched filter of
    # peak gain g, inverse azimuth FFT), so the k-th store's error moves the
    # image by at most U32 (1 + U32)^k g ||Y|| / sqrt(nfft); float64
    # arithmetic adds far less than 1e-12 of the image's norm
    raw, _, estimate, rcm = focus_inputs(request, scene, mode)
    assert raw.dtype == np.complex64  # simulate_raw's precision
    single = focus_pipeline(raw, estimate, rcm_override=rcm).image
    range_ref, azimuth_ref = build_references(estimate, raw.shape[0])
    rcm = tracked(raw, range_ref, estimate) if rcm is None else rcm  # one model for both images
    double = focus_pipeline(raw.astype(np.complex128), estimate, rcm_override=rcm).image
    spectrum = range_compress(raw.astype(np.complex128), range_ref)
    gain = np.max(np.abs(np.fft.fft(azimuth_ref, raw.shape[0])))
    stores = 4
    per_rounding = U32 * gain * np.linalg.norm(spectrum) / np.sqrt(spectrum.shape[1])
    bound = per_rounding * sum((1 + U32) ** k for k in range(stores))
    error = np.linalg.norm(single.astype(np.complex128) - double)
    assert error <= bound + 1e-12 * np.linalg.norm(double), (error, bound)


@pytest.mark.parametrize("mode", ["blind", "oracle"])
def test_focus_pipeline_peak_memory_complex64(monkeypatch, mode, default_sim, default_estimate,
                                              default_oracle):
    # complex64 raw is not copied whole, and pass 1's map is complex64, half
    # the bytes of complex128's; the heap holds block-sized temporaries only
    raw = default_sim[0]
    estimate, rcm = (default_estimate, None) if mode == "blind" else default_oracle
    maps, peak = focus_memory(monkeypatch, raw, estimate, rcm)
    assert maps == [pass_one_map(raw, estimate, np.complex64)]
    assert peak <= 0.4, peak


@pytest.mark.parametrize("mode", ["blind", "oracle"])
def test_focus_pipeline_on_a_reader_maps_one_complex64_matrix(
        monkeypatch, tmp_path, mode, default_sim, default_estimate, default_oracle):
    # a BSAR file focused a row block at a time: one complex64 map of M x
    # nfft, and no scene-sized matrix on the heap
    raw = default_sim[0]
    fileio.write_matrix(raw, tmp_path / "raw.bsar")
    estimate, rcm = (default_estimate, None) if mode == "blind" else default_oracle
    with fileio.MatrixReader(tmp_path / "raw.bsar") as reader:
        maps, peak = focus_memory(monkeypatch, reader, estimate, rcm)
    assert maps == [pass_one_map(raw, estimate, np.complex64)]
    assert peak <= 0.4, peak


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("stage", ["range_compress", "rcmc"])
def test_complex64_map_overflow_is_a_parameter_error(monkeypatch, default_sim, default_oracle,
                                                     stage, workers):
    # complex64 raw scaled so that pass 1's spectrum peaks at twice float32's
    # largest value, or at half of it while pass 2's azimuth spectrum peaks
    # past twice of it: the store that overflows is refused, not written as
    # an infinity, at any worker count
    raw = default_sim[0]
    estimate, rcm = default_oracle
    range_ref, _ = build_references(estimate, raw.shape[0])
    spectrum = range_compress(raw.astype(np.complex128), range_ref)
    f32_max = float(np.finfo(np.float32).max)
    scale = (2.0 if stage == "range_compress" else 0.5) * f32_max / np.max(np.abs(spectrum))
    if stage == "rcmc":
        assert scale * np.max(np.abs(np.fft.fft(spectrum, axis=0))) > 2.0 * f32_max
    big = raw * float(scale)
    assert big.dtype == np.complex64 and np.isfinite(big).all()
    monkeypatch.setattr(bsar.core, "block_workers", lambda: workers)
    with pytest.raises(ParameterError, match=f"stage '{stage}': a sample overflows complex64"):
        focus_pipeline(big, estimate, rcm_override=rcm)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("scene", ["default", "squint"])
def test_pipeline_is_its_stages_composed(request, scene, dtype):
    # the blind image is azimuth_compress of rcmc of range_compress, with
    # the model track_rcm fits to pass 1's rows of the azimuth support,
    # each stage called on its own
    raw = request.getfixturevalue(f"{scene}_sim")[0].astype(dtype)
    estimate = request.getfixturevalue(f"{scene}_estimate")
    image = focus_pipeline(raw, estimate).image
    range_ref, azimuth_ref = build_references(estimate, raw.shape[0])
    rd = rcmc(range_compress(raw, range_ref), raw.shape[1], delay_of(range_ref),
              tracked(raw, range_ref, estimate), estimate.azimuth_chirp.rate,
              estimate.doppler_centroid)
    assert azimuth_compress(rd, azimuth_ref).tobytes() == image.tobytes()
