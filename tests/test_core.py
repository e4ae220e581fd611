import tracemalloc

import numpy as np
import pytest

from bsar.core import (
    ChirpModel,
    mapped_zeros,
    median,
    next_fast_len,
    sample_chirp,
    unwrap_phase,
    wrap_half_open,
)
from bsar.errors import ParameterError
from oracles import smooth_numbers


# --- sample_chirp ------------------------------------------------------------

def test_zero_rate_chirp_is_constant():
    model = ChirpModel(rate=0.0, center=0.0, support=(0, 8))
    out = sample_chirp(model, np.arange(8))
    np.testing.assert_allclose(out, np.ones(8, dtype=np.complex128), atol=1e-15)


def test_chirp_analytic_sample():
    # K=0.5 cycles/sample^2, n0=0: sample n=1 is exp(j*2*pi*0.5) = -1
    model = ChirpModel(rate=0.5, center=0.0, support=(0, 4))
    out = sample_chirp(model, np.arange(4))
    np.testing.assert_allclose(out[1], -1.0 + 0.0j, atol=1e-14)


def test_chirp_matches_simulator_pulse(default_scene):
    config, _ = default_scene
    model = config.range_chirp_model()
    ours = sample_chirp(model, np.arange(128))
    pulse = config.transmitted_pulse()
    corr = abs(np.vdot(pulse, ours)) / (np.linalg.norm(pulse) * np.linalg.norm(ours))
    assert corr >= 0.999


def test_chirp_zero_outside_support():
    model = ChirpModel(rate=0.01, center=10.0, support=(4, 16))
    out = sample_chirp(model, np.arange(24))
    assert np.all(out[:4] == 0) and np.all(out[16:] == 0)
    assert np.all(np.abs(out[4:16]) > 0)


def test_chirp_symmetry_about_vertex():
    # with b=0, s[n0+m] = s[n0-m] for integer offsets inside the support
    model = ChirpModel(rate=3e-3, center=32.0, support=(0, 65), constant=0.2)
    out = sample_chirp(model, np.arange(65))
    for m in range(1, 30):
        np.testing.assert_allclose(out[32 + m], out[32 - m], atol=1e-13)


def test_chirp_model_validation():
    with pytest.raises(ParameterError):
        ChirpModel(rate=0.1, center=0.0, support=(5, 5))
    with pytest.raises(ParameterError):
        ChirpModel(rate=0.1, center=0.0, support=(-1, 5))
    for support in ((0.5, 8), (0, 8.0)):
        with pytest.raises(ParameterError):
            ChirpModel(rate=0.1, center=0.0, support=support)
    with pytest.raises(ParameterError):
        ChirpModel(rate=float("nan"), center=0.0, support=(0, 8))


def test_support_mask_gives_rectangular_magnitude():
    model = ChirpModel(rate=2e-3, center=16.0, support=(0, 32))
    out = sample_chirp(model, np.arange(32))
    np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-14)


# --- unwrap_phase --------------------------------------------------------------

def test_unwrap_no_jumps_passthrough():
    seq = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(unwrap_phase(seq), seq, atol=1e-15)


def test_unwrap_restores_2pi_jump():
    # wrapped value of 6.0 rad is 6.0 - 2*pi = -0.2832
    wrapped = np.array([0.0, 3.0, 6.0 - 2.0 * np.pi])
    np.testing.assert_allclose(unwrap_phase(wrapped), [0.0, 3.0, 6.0], atol=1e-12)


def test_unwrap_roundtrip_on_quadratic_phase():
    n = np.arange(200, dtype=np.float64)
    phi = 2.0 * np.pi * (1e-3 * (n - 100) ** 2)  # below Nyquist everywhere
    wrapped = np.angle(np.exp(1j * phi))
    recovered = unwrap_phase(wrapped)
    offset = recovered - phi
    np.testing.assert_allclose(offset, offset[0], atol=1e-10)
    assert abs(offset[0] / (2.0 * np.pi) - round(offset[0] / (2.0 * np.pi))) < 1e-10


def test_unwrap_idempotent():
    n = np.arange(100, dtype=np.float64)
    phi = 0.02 * n**2
    once = unwrap_phase(np.angle(np.exp(1j * phi)))
    np.testing.assert_allclose(unwrap_phase(once), once, atol=1e-12)


def test_unwrap_preserves_first_sample_and_modulo():
    rng = np.random.default_rng(3)
    phi = np.cumsum(rng.uniform(-0.5, 0.5, 64)) + 1.3
    wrapped = np.angle(np.exp(1j * phi))
    out = unwrap_phase(wrapped)
    assert out[0] == wrapped[0]
    np.testing.assert_allclose(np.angle(np.exp(1j * (out - wrapped))), 0.0, atol=1e-12)


def test_unwrap_rejects_empty():
    with pytest.raises(ParameterError):
        unwrap_phase(np.array([]))


# --- next_fast_len ---------------------------------------------------------------

def test_next_fast_len_is_smallest_11_smooth_length():
    smooth = smooth_numbers(30000, (2, 3, 5, 7, 11))
    targets = np.arange(1, 20000)
    expected = smooth[np.searchsorted(smooth, targets)]
    assert [next_fast_len(int(t)) for t in targets] == expected.tolist()


def test_next_fast_len_small_and_prime_targets():
    assert [next_fast_len(t) for t in (1, 7, 11, 13, 17, 1021)] == [1, 7, 11, 14, 18, 1024]


# --- instantaneous frequency of synthesized chirps --------------------------------
# np.gradient takes central differences inside and one-sided ones at the ends

def cycles_per_sample(phase):
    return np.gradient(phase) / (2.0 * np.pi)


def test_if_zero_crossing_at_chirp_vertex():
    # frequency of a synthesized chirp crosses zero within half a sample of n0
    model = ChirpModel(rate=2e-3, center=47.3, support=(0, 96))
    sig = sample_chirp(model, np.arange(96))
    f = cycles_per_sample(unwrap_phase(np.angle(sig)))
    sign_change = np.nonzero(np.diff(np.sign(f)) != 0)[0]
    assert sign_change.size >= 1
    assert abs(float(sign_change[0]) + 0.5 - model.center) <= 0.5


def test_if_recovers_chirp_slope():
    model = ChirpModel(rate=1.5e-3, center=60.0, support=(0, 120))
    sig = sample_chirp(model, np.arange(120))
    f = cycles_per_sample(unwrap_phase(np.angle(sig)))
    n = np.arange(120, dtype=np.float64)
    expected = 2.0 * model.rate * (n - model.center)
    assert np.max(np.abs(f[1:-1] - expected[1:-1])) < 1e-9


# --- wrap_half_open -------------------------------------------------------------

def test_wrap_half_open_interval():
    vals = np.array([-0.5, 0.5, 0.75, -0.75, 1.5, 0.0])
    wrapped = wrap_half_open(vals)
    assert np.all((wrapped > -0.5) & (wrapped <= 0.5))
    np.testing.assert_allclose(np.mod(wrapped - vals, 1.0), 0.0, atol=1e-12)


def test_sample_chirp_fractional_positions():
    model = ChirpModel(rate=1e-3, center=10.0, support=(0, 21))
    pos = np.array([10.0, 10.5, 9.5])
    out = sample_chirp(model, pos)
    expected = np.exp(2j * np.pi * model.phase_cycles(pos))
    np.testing.assert_allclose(out, expected, atol=1e-14)


# --- median ---------------------------------------------------------------------

@pytest.mark.parametrize("shape", [1, 2, 7, 64, 1001, (64, 64)])
def test_median_matches_numpy_bit_for_bit(shape):
    rng = np.random.default_rng(np.prod(shape))
    for x in (rng.standard_normal(shape), rng.integers(-3, 4, shape).astype(np.float64)):
        kept = x.copy()
        assert median(x).tobytes() == np.median(x).tobytes()
        assert np.array_equal(x, kept)  # the input is left as it was


def test_median_propagates_nan():
    for size in (5, 6):
        x = np.arange(float(size))
        x[1] = np.nan
        assert np.isnan(median(x)) and np.isnan(np.median(x))


# --- mapped_zeros -------------------------------------------------------------

@pytest.mark.parametrize("shape", [(0, 3), (5, 7), (512, 1024)])
def test_mapped_zeros_is_a_writable_zero_array_outside_the_heap(shape):
    tracemalloc.start()
    try:
        x = mapped_zeros(shape, np.complex128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == shape and x.dtype == np.complex128 and x.flags.c_contiguous
    assert not np.any(x)
    x[...] = 1.0 + 2.0j
    assert np.all(x == 1.0 + 2.0j)
    assert peak < 4096  # only the array objects are traced, not the map
