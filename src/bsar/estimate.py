"""Blind extraction of focusing references from the first singular triplet.

The first left singular vector carries the azimuth chirp modulated by the
antenna beam pattern.  Each row of X = U S V^H is dominated by sigma1 * u1[m]
* conj(v1), so conj(v1) carries the range chirp (up to the SVD phase gauge).
Both are noisy, so clean references are re-synthesized from least-squares
quadratic phase fits rather than used directly.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ChirpModel,
    as_complex_matrix,
    as_complex_vector,
    sample_chirp,
    unwrap_phase,
    wrap_half_open,
)
from .decompose import leading_triplets
from .errors import DegenerateFitError, ParameterError, UnsuitableSceneError

DEFAULT_THRESHOLD = 0.1       # fraction of the envelope peak
DEFAULT_DOMINANCE_GATE = 3.0  # sigma1/sigma2 required for a usable scene
DEFAULT_TAPER = 0.1
CONSUMED_TRIPLETS = 2         # sigma1, sigma2, u1 and v1 are all the chain uses


@dataclass
class BlindEstimate:
    """Everything the focusing stage needs, derived from raw data alone."""

    range_chirp: ChirpModel
    azimuth_chirp: ChirpModel
    doppler_centroid: float      # cycles/pulse, in (-0.5, 0.5]
    beam_envelope: np.ndarray    # smoothed |u1|, length M
    beam_peak_index: float       # fractional pulse index of the beam center
    dominance_ratio: float
    fit_residuals: dict          # RMS cycles per fit, keys "range"/"azimuth"

    def __post_init__(self):
        if not (-0.5 < self.doppler_centroid <= 0.5):
            raise ParameterError("doppler centroid outside (-0.5, 0.5] cycles/pulse")
        for key, value in self.fit_residuals.items():
            if not np.isfinite(value):
                raise ParameterError(f"non-finite fit residual for {key!r}")


def smooth_envelope(magnitude, window):
    """Boxcar smoothing with edge replication; window is forced odd, >= 1."""
    x = np.asarray(magnitude, dtype=np.float64)
    w = max(int(window), 1)
    if w % 2 == 0:
        w += 1
    if w == 1 or x.size < 2:
        return x.copy()
    pad = w // 2
    padded = np.concatenate([np.full(pad, x[0]), x, np.full(pad, x[-1])])
    kernel = np.full(w, 1.0 / w)
    return np.convolve(padded, kernel, mode="valid")


def detect_support(envelope, threshold_fraction):
    """Widest contiguous interval [start, stop) around the global peak where
    envelope >= threshold_fraction * peak."""
    env = np.asarray(envelope, dtype=np.float64)
    if env.size == 0:
        raise ParameterError("empty envelope")
    if not (0.0 < threshold_fraction < 1.0):
        raise ParameterError("threshold_fraction must lie in (0, 1)")
    peak = int(np.argmax(env))
    if env[peak] <= 0.0:
        raise UnsuitableSceneError("no signal: envelope is identically zero")
    level = threshold_fraction * env[peak]
    start = peak
    while start > 0 and env[start - 1] >= level:
        start -= 1
    stop = peak + 1
    while stop < env.size and env[stop] >= level:
        stop += 1
    return start, stop


def _auto_support(signal_mag):
    """Two-pass support detection: a light first smoothing sizes the window."""
    first = detect_support(smooth_envelope(signal_mag, 5), DEFAULT_THRESHOLD)
    window = max(5, (first[1] - first[0]) // 50)
    env = smooth_envelope(signal_mag, window)
    return detect_support(env, DEFAULT_THRESHOLD), env


def _parabolic_peak(values, index):
    """Sub-sample peak via 3-point parabolic interpolation around index."""
    v = np.asarray(values, dtype=np.float64)
    if index <= 0 or index >= v.size - 1:
        return float(index)
    a, b, c = v[index - 1], v[index], v[index + 1]
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return float(index)
    shift = 0.5 * (a - c) / denom
    return float(index + np.clip(shift, -0.5, 0.5))


def fit_quadratic_phase(signal, support, taper_fraction=0.0):
    """Magnitude-weighted LMS fit of a parabolic phase over the support.

    The phase of signal[start:stop] is unwrapped, converted to cycles, and fit
    with phi(n) = K*(n - n0)^2 + c0 where n0 is the fitted phase-slope zero
    (the vertex); the linear term is absorbed into the vertex position.
    """
    x = as_complex_vector(signal)
    start, stop = int(support[0]), int(support[1])
    if not (0 <= start < stop <= x.size):
        raise ParameterError(f"support [{start}, {stop}) outside the signal")
    if stop - start < 8:
        raise ParameterError("support too short for a quadratic phase fit")

    seg = x[start:stop]
    mag = np.abs(seg)
    if np.all(mag == 0.0):
        raise DegenerateFitError("all-zero signal over the support")
    cycles = unwrap_phase(np.angle(seg)) / (2.0 * np.pi)
    n = np.arange(start, stop, dtype=np.float64)
    n_mid = float(np.mean(n))
    d = n - n_mid

    w = np.sqrt(mag / np.max(mag))  # weights applied to the residuals
    design = np.column_stack([d * d, d, np.ones_like(d)]) * w[:, None]
    rhs = cycles * w
    coeffs, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    a2, a1, a0 = coeffs
    scale = max(np.max(np.abs(cycles)), 1.0)
    if rank < 3 or abs(a2) < 1e-12 * scale / max((stop - start) ** 2, 1):
        raise DegenerateFitError(
            "rank-deficient quadratic phase fit (constant or linear phase)",
            model=ChirpModel(rate=0.0, center=n_mid, support=(start, stop)),
        )

    residual = rhs - design @ coeffs
    rms = float(np.sqrt(np.sum(residual**2) / np.sum(w**2)))
    vertex = n_mid - a1 / (2.0 * a2)
    constant = float(a0 - a1**2 / (4.0 * a2))
    return ChirpModel(
        rate=float(a2),
        center=float(vertex),
        support=(start, stop),
        taper_fraction=taper_fraction,
        constant=constant,
        fit_rms=rms,
    )


def estimate_azimuth(u1):
    """Azimuth chirp, Doppler centroid and beam pattern from the first left
    singular vector.

    Returns (ChirpModel, doppler_centroid, beam_envelope, beam_peak_index).
    The Doppler centroid is the fitted instantaneous frequency at the beam
    peak, wrapped into (-0.5, 0.5] cycles/pulse.
    """
    u = as_complex_vector(u1)
    support, envelope = _auto_support(np.abs(u))
    peak = _parabolic_peak(envelope, int(np.argmax(envelope)))
    model = fit_quadratic_phase(u, support)
    dc = float(wrap_half_open(model.instantaneous_frequency(peak)))
    return model, dc, envelope, peak


def estimate_range(v1):
    """Range chirp model fit to a range line as given.

    blind_estimate passes conj(v1), the range line every row of the raw
    matrix is proportional to, so the fitted rate has the transmitted sign.
    """
    v = as_complex_vector(v1)
    support, _ = _auto_support(np.abs(v))
    return fit_quadratic_phase(v, support)


def blind_estimate(raw, gate=DEFAULT_DOMINANCE_GATE, svd=None):
    """Full blind parameter extraction from a raw data matrix.

    `svd` is a TruncatedSVD of `raw` with k >= 2 that the caller already
    computed; without one, the leading pair is decomposed here.
    """
    if svd is None:
        X = as_complex_matrix(raw)
        svd = leading_triplets(X, k=min(CONSUMED_TRIPLETS, min(X.shape)))
    if svd.singular_values[0] == 0.0:
        raise UnsuitableSceneError("all-zero matrix: no signal to estimate from")
    ratio = svd.dominance_ratio
    if 0 in svd.degenerate_pairs:
        raise UnsuitableSceneError(
            "first singular pair is degenerate: no dominant point scatterer"
        )
    if ratio < gate:
        raise UnsuitableSceneError(
            f"dominance ratio {ratio:.3f} below gate {gate:.3f}: "
            "scene lacks a strong point scatterer"
        )
    u1 = svd.left_vectors[:, 0]
    v1 = svd.right_vectors[:, 0]
    az_model, dc, envelope, peak = estimate_azimuth(u1)
    range_model = estimate_range(np.conj(v1))
    return BlindEstimate(
        range_chirp=range_model,
        azimuth_chirp=az_model,
        doppler_centroid=dc,
        beam_envelope=envelope,
        beam_peak_index=peak,
        dominance_ratio=ratio,
        fit_residuals={"range": range_model.fit_rms, "azimuth": az_model.fit_rms},
    )


def build_references(estimate, taper_fraction=DEFAULT_TAPER):
    """Synthesize clean, tapered reference functions from the fitted models.

    Range reference: odd-length vector sampled symmetrically around the fitted
    vertex, so the phase vertex sits exactly at the center index (the group
    delay assumed by range compression).

    Azimuth reference: full-length vector in vertex-at-index-0 wrapped layout
    (index m holds the chirp at signed pulse offset ((m + M/2) mod M) - M/2
    from the vertex), ready for circular matched filtering; its instantaneous
    frequency at the beam peak equals the Doppler centroid by construction.
    """
    if not (0.0 <= taper_fraction <= 0.5):
        raise ParameterError("taper_fraction must be in [0, 0.5]")

    r = estimate.range_chirp
    start, stop = r.support
    half = int(np.floor(min(r.center - start, (stop - 1) - r.center)))
    if half < 1:
        raise ParameterError("range chirp vertex too close to the support edge")
    r_model = replace(r, taper_fraction=taper_fraction)
    range_positions = r.center + np.arange(-half, half + 1, dtype=np.float64)
    range_ref = sample_chirp(r_model, range_positions)

    a = estimate.azimuth_chirp
    m_total = estimate.beam_envelope.size
    a_model = replace(a, taper_fraction=taper_fraction)
    if a.support[0] < a.center - m_total // 2 or a.support[1] > a.center + m_total // 2:
        raise ParameterError("azimuth support does not fit the wrapped reference grid")
    offsets = (np.arange(m_total) + m_total // 2) % m_total - m_total // 2
    azimuth_ref = sample_chirp(a_model, a.center + offsets.astype(np.float64))
    return range_ref, azimuth_ref
