"""Blind extraction of focusing references from the first singular triplet.

The first left singular vector carries the azimuth chirp modulated by the
antenna beam pattern.  Each row of X = U S V^H is dominated by sigma1 * u1[m]
* conj(v1), so conj(v1) carries the range chirp (up to the SVD phase gauge).
Both are noisy, so clean references are re-synthesized from least-squares
quadratic phase fits rather than used directly, with unit amplitude over the
fitted support: the two-way beam pattern in the data already weights the
azimuth spectrum, so no edge weighting is added.  The Doppler centroid comes
from the raw matrix itself, as the phase of its lag-one azimuth correlation,
and the beam center is the row where the fitted azimuth chirp crosses it.
"""

from dataclasses import dataclass

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

SUPPORT_THRESHOLD = 0.1       # fraction of the envelope peak that bounds a support
DOMINANCE_GATE = 3.0          # sigma1/sigma2 required for a usable scene
CONSUMED_TRIPLETS = 2         # sigma1, sigma2, u1 and v1 are all the chain uses
MIN_PHASE_EXCURSION = 0.125  # cycles, |rate|*L^2/4: a time-bandwidth product of 1
CENTROID_BLOCK_ROWS = 16      # rows upcast at a time by the centroid's float64 sum


@dataclass
class BlindEstimate:
    """Everything the focusing stage needs, derived from raw data alone."""

    range_chirp: ChirpModel
    azimuth_chirp: ChirpModel
    doppler_centroid: float      # cycles/pulse, in (-0.5, 0.5]
    beam_center_row: float       # fractional pulse index of the beam center
    dominance_ratio: float

    def __post_init__(self):
        if not (-0.5 < self.doppler_centroid <= 0.5):
            raise ParameterError("doppler centroid outside (-0.5, 0.5] cycles/pulse")


def smooth_envelope(magnitude, window):
    """Boxcar smoothing with edge replication; an even window grows by one."""
    x = np.asarray(magnitude, dtype=np.float64)
    w = int(window)
    if w % 2 == 0:
        w += 1
    pad = w // 2
    padded = np.concatenate([np.full(pad, x[0]), x, np.full(pad, x[-1])])
    kernel = np.full(w, 1.0 / w)
    return np.convolve(padded, kernel, mode="valid")


def detect_support(envelope):
    """Widest contiguous interval [start, stop) around the global peak where
    envelope >= SUPPORT_THRESHOLD * peak."""
    env = np.asarray(envelope, dtype=np.float64)
    peak = int(np.argmax(env))
    if env[peak] <= 0.0:
        raise UnsuitableSceneError("no signal: envelope is identically zero")
    level = SUPPORT_THRESHOLD * env[peak]
    start = peak
    while start > 0 and env[start - 1] >= level:
        start -= 1
    stop = peak + 1
    while stop < env.size and env[stop] >= level:
        stop += 1
    return start, stop


def _auto_support(signal_mag):
    """Two-pass support detection: a light first smoothing sizes the window."""
    first = detect_support(smooth_envelope(signal_mag, 5))
    window = max(5, (first[1] - first[0]) // 50)
    env = smooth_envelope(signal_mag, window)
    return detect_support(env), env


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


def fit_quadratic_phase(signal, support):
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
    if not np.all(np.isfinite(seg)):
        raise ParameterError(f"non-finite sample in the phase-fit support [{start}, {stop})")
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
    excursion = abs(a2) * (stop - start) ** 2 / 4.0  # cycles, support centre to either edge
    if rank < 3 or excursion < MIN_PHASE_EXCURSION:
        raise DegenerateFitError(f"phase excursion {excursion:.3g} < {MIN_PHASE_EXCURSION} cycles")

    residual = rhs - design @ coeffs
    rms = float(np.sqrt(np.sum(residual**2) / np.sum(w**2)))
    vertex = n_mid - a1 / (2.0 * a2)
    constant = float(a0 - a1**2 / (4.0 * a2))
    return ChirpModel(
        rate=float(a2),
        center=float(vertex),
        support=(start, stop),
        constant=constant,
        fit_rms=rms,
    )


def estimate_azimuth(u1):
    """Azimuth chirp from the first left singular vector.

    Returns (ChirpModel, sub-sample peak row of the smoothed |u1|).
    """
    u = as_complex_vector(u1)
    support, envelope = _auto_support(np.abs(u))
    peak = _parabolic_peak(envelope, int(np.argmax(envelope)))
    return fit_quadratic_phase(u, support), peak


def estimate_doppler_centroid(raw):
    """Doppler centroid from the lag-one azimuth correlation of the raw data.

    f_dc = arg(sum_mn conj(x[m, n]) * x[m + 1, n]) / 2 pi, in cycles/pulse
    wrapped into (-0.5, 0.5] (S. N. Madsen, IEEE TAES 25(2), 1989).  The sum
    runs over the whole matrix, so noise averages out and no beam weighting
    biases it.  It is accumulated in float64 over blocks of
    CENTROID_BLOCK_ROWS + 1 rows, consecutive blocks sharing a row, each
    upcast once from complex64 raw, so no scene-sized copy is made.
    """
    x = as_complex_matrix(raw)
    total = 0j
    for lo in range(0, x.shape[0] - 1, CENTROID_BLOCK_ROWS):
        rows = x[lo:lo + CENTROID_BLOCK_ROWS + 1].astype(np.complex128, copy=False)
        total += np.vdot(rows[:-1], rows[1:])
        del rows  # before the next block is upcast
    return float(wrap_half_open(np.angle(total) / (2.0 * np.pi)))


def estimate_range(v1):
    """Range chirp model fit to a range line as given.

    blind_estimate passes conj(v1), the range line every row of the raw
    matrix is proportional to, so the fitted rate has the transmitted sign.
    """
    v = as_complex_vector(v1)
    support, _ = _auto_support(np.abs(v))
    return fit_quadratic_phase(v, support)


def blind_estimate(raw, svd=None):
    """Full blind parameter extraction from a raw data matrix.

    `svd` is a TruncatedSVD of `raw` with k >= 2 that the caller already
    computed; without one, the leading pair is decomposed here.  complex64
    raw is used as it is, in the decomposition's products and the centroid's
    blocks; a strided `raw` is copied to C order once, in its own precision.
    A Ritz ratio sigma1/sigma2 below DOMINANCE_GATE refuses the scene; so
    does a bound proven below it, never below its block's Ritz ratio.
    An estimate whose references do not fit the raw grid
    (``build_references``) is a parameter error here, not in focus.
    """
    X = np.ascontiguousarray(as_complex_matrix(raw))
    if min(X.shape) < 2:
        raise ParameterError(f"raw matrix is {X.shape[0]}x{X.shape[1]}: "
                             "the estimate needs at least 2 rows and 2 columns")
    if svd is None:
        svd = leading_triplets(X, k=CONSUMED_TRIPLETS, gate=DOMINANCE_GATE)
    if svd.singular_values[0] == 0.0:
        raise UnsuitableSceneError("all-zero matrix: no signal to estimate from")
    ratio = svd.dominance_ratio
    if ratio < DOMINANCE_GATE:
        raise UnsuitableSceneError(
            f"Ritz ratio {ratio:.3f} after {svd.products} product{'s' * (svd.products != 1)} "
            f"over X below gate {DOMINANCE_GATE:.3f} (sigma1/sigma2 proven at most "
            f"{svd.ratio_bound:.3f}): scene lacks a strong point scatterer")
    u1 = svd.left_vectors[:, 0]
    v1 = svd.right_vectors[:, 0]
    az_model, peak = estimate_azimuth(u1)
    range_model = estimate_range(np.conj(v1))
    dc = estimate_doppler_centroid(X)
    # the beam center is the row where the azimuth chirp's frequency equals
    # the centroid, taken nearest the envelope peak
    crossing = wrap_half_open(dc - az_model.instantaneous_frequency(peak))
    est = BlindEstimate(
        range_chirp=range_model,
        azimuth_chirp=az_model,
        doppler_centroid=dc,
        beam_center_row=peak + float(crossing) / (2.0 * az_model.rate),
        dominance_ratio=ratio,
    )
    build_references(est, X.shape[0])
    return est


def build_references(estimate, num_pulses):
    """Synthesize clean reference functions from the fitted models: unit
    amplitude over each model's support, zero outside (Cumming & Wong,
    *Digital Processing of Synthetic Aperture Radar Data*, 2005, ch. 6).

    Range reference: odd-length vector sampled symmetrically around the fitted
    vertex, so the phase vertex sits exactly at the center index (the group
    delay assumed by range compression).

    Azimuth reference: vector of length num_pulses, the raw matrix's row
    count, in vertex-at-index-0 wrapped layout (index m holds the chirp at
    signed pulse offset ((m + M/2) mod M) - M/2 from the vertex), ready for
    circular matched filtering.  The beam center and the azimuth support
    must lie on that pulse grid.
    """
    m_total = num_pulses
    if not (0.0 <= estimate.beam_center_row < m_total):
        raise ParameterError(
            f"beam center row {estimate.beam_center_row} outside the {m_total}-pulse grid"
        )
    a = estimate.azimuth_chirp
    if a.support[1] > m_total:
        raise ParameterError(f"azimuth support {a.support} outside the {m_total}-pulse grid")

    r = estimate.range_chirp
    start, stop = r.support
    half = int(np.floor(min(r.center - start, (stop - 1) - r.center)))
    if half < 1:
        raise ParameterError("range chirp vertex too close to the support edge")
    range_positions = r.center + np.arange(-half, half + 1, dtype=np.float64)
    range_ref = sample_chirp(r, range_positions)

    if a.support[0] < a.center - m_total // 2 or a.support[1] > a.center + m_total // 2:
        raise ParameterError("azimuth support does not fit the wrapped reference grid")
    offsets = (np.arange(m_total) + m_total // 2) % m_total - m_total // 2
    azimuth_ref = sample_chirp(a, a.center + offsets.astype(np.float64))
    return range_ref, azimuth_ref
