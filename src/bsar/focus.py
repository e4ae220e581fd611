"""Frequency-domain range-Doppler focusing with blind or oracle references.

Stage order: range compression -> migration tracking -> range cell migration
correction in the range-Doppler domain -> azimuth matched filtering.

Peak-position convention (fixed and relied on by the ground truth): after
range compression a point echo's peak lands at the echo's phase-vertex
(chirp-center) column; the reference's group delay is its center index, so
references must have odd length with the vertex at the center.  Azimuth
compression uses the vertex-at-index-0 wrapped reference layout produced by
``build_references``, which puts the focused peak at the target's
zero-Doppler row.

Each stage allocates its output once and transforms it in place, never
writing into its input; the RCMC phase ramp is factored into two small
exponential tables (``_shift_ramp``) instead of one exp per sample.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_complex_matrix, as_complex_vector, next_fast_len, wrap_half_open
from .errors import BsarError, ParameterError, TrackingError
from .estimate import _parabolic_peak, build_references, detect_support

MIN_TRACK_POINTS = 16
MAD_REJECT = 3.0
RCMC_BLOCK_ROWS = 64  # rows per in-place range FFT / ramp / inverse FFT block
RAMP_STEP = 64        # fine-table length of the factored RCMC phase ramp


@dataclass
class RcmModel:
    """Quadratic range-migration trajectory around the beam center.

    delta(d_eta) = linear * d_eta + quadratic * d_eta**2   [range samples],
    with d_eta the pulse offset from the beam peak; delta(0) = 0 by
    construction and reference_range_bin is the absolute peak bin there.
    """

    reference_range_bin: float
    linear: float
    quadratic: float
    fit_rms: float
    source: str = "peak-tracking"  # or "analytic-oracle"

    def delta(self, pulse_offset):
        d = np.asarray(pulse_offset, dtype=np.float64)
        return self.linear * d + self.quadratic * d * d


@dataclass
class FocusedImage:
    """Single-look complex image plus provenance of the parameters used."""

    image: np.ndarray
    provenance: str            # "blind" or "oracle"


def range_compress(raw, range_ref):
    """Correlate every row with the conjugate reference (zero-padded FFTs).

    The output is trimmed to the input width with the reference group delay
    (center index) removed, so a point echo peaks at its phase-vertex column;
    a row equal to the reference itself peaks at the reference center with
    magnitude sum(|ref|^2).
    """
    x = as_complex_matrix(raw)
    ref = as_complex_vector(range_ref)
    n = x.shape[1]
    if ref.size > n:
        raise ParameterError("reference longer than a data row")
    nfft = next_fast_len(n + ref.size - 1)
    corr = np.fft.fft(x, nfft, axis=1)
    corr *= np.conj(np.fft.fft(ref, nfft))
    np.fft.ifft(corr, axis=1, out=corr)
    g = (ref.size - 1) // 2  # group delay, rolled back as two slice copies
    out = np.empty((x.shape[0], n), dtype=np.complex128)
    out[:, :g] = corr[:, nfft - g:]
    out[:, g:] = corr[:, :n - g]
    return out


def track_rcm(rc, beam_envelope, threshold=0.1):
    """Fit the dominant scatterer's migration trajectory from compressed rows.

    Within the azimuth support, the per-pulse range peak is located with
    sub-sample parabolic interpolation and fit with a quadratic in the pulse
    offset from the beam peak; outliers beyond 3x the residual MAD are
    rejected once and the curve refit.
    """
    x = as_complex_matrix(rc)
    env = np.asarray(beam_envelope, dtype=np.float64)
    if env.size != x.shape[0]:
        raise ParameterError("beam envelope length does not match the matrix")
    start, stop = detect_support(env, threshold)
    peak_row = _parabolic_peak(env, int(np.argmax(env)))

    rows = np.arange(start, stop)
    if rows.size < MIN_TRACK_POINTS:
        raise TrackingError(f"only {rows.size} pulses inside the azimuth support")
    mags = np.abs(x[start:stop])
    cols = np.argmax(mags, axis=1)
    peaks = np.array([_parabolic_peak(mags[i], cols[i]) for i in range(rows.size)])
    offsets = rows.astype(np.float64) - peak_row

    def fit(off, pk):
        design = np.column_stack([np.ones_like(off), off, off * off])
        coeffs, _, _, _ = np.linalg.lstsq(design, pk, rcond=None)
        resid = pk - design @ coeffs
        return coeffs, resid

    coeffs, resid = fit(offsets, peaks)
    mad = np.median(np.abs(resid - np.median(resid)))
    if mad > 0:
        keep = np.abs(resid - np.median(resid)) <= MAD_REJECT * mad
        if np.sum(keep) < MIN_TRACK_POINTS:
            raise TrackingError("too few inlier peaks after outlier rejection")
        coeffs, resid = fit(offsets[keep], peaks[keep])
    rms = float(np.sqrt(np.mean(resid**2)))
    return RcmModel(
        reference_range_bin=float(coeffs[0]),
        linear=float(coeffs[1]),
        quadratic=float(coeffs[2]),
        fit_rms=rms,
    )


def rcmc(rc, rcm, azimuth_rate, doppler_centroid):
    """Range cell migration correction in the range-Doppler domain.

    Each range line is azimuth-DFTed; every azimuth-frequency bin f (unwrapped
    around the Doppler centroid) maps to the pulse offset at which a target
    crosses that frequency, d_eta = (f - dc) / (2 * azimuth_rate), and the
    line is shifted by -delta(d_eta) range samples via an exact sub-sample
    phase ramp.  The output stays in the range-Doppler domain.
    """
    x = as_complex_matrix(rc)
    if azimuth_rate == 0.0:
        raise ParameterError("azimuth rate must be nonzero")
    m, n = x.shape
    freqs = np.fft.fftfreq(m)
    unwrapped = doppler_centroid + wrap_half_open(freqs - doppler_centroid)
    offsets = (unwrapped - doppler_centroid) / (2.0 * azimuth_rate)
    delta = rcm.delta(offsets)
    if np.max(np.abs(delta)) > n / 4:
        raise ParameterError(
            f"implausible migration: max shift {np.max(np.abs(delta)):.1f} > N/4"
        )
    rd = np.fft.fft(x, axis=0)
    for lo in range(0, m, RCMC_BLOCK_ROWS):
        block = rd[lo:lo + RCMC_BLOCK_ROWS]
        np.fft.fft(block, axis=1, out=block)
        block *= _shift_ramp(delta[lo:lo + RCMC_BLOCK_ROWS], n)
        np.fft.ifft(block, axis=1, out=block)
    return rd


def _shift_ramp(delta, n):
    """exp(2j*pi*delta[:, None]*fftfreq(n)) from coarse and fine exp tables.

    Column k = a*RAMP_STEP + b is coarse[a] * fine[b]; the columns where
    fftfreq is negative, (k - n)/n, also take the factor exp(-2j*pi*delta).
    """
    d = 2j * np.pi * np.asarray(delta, dtype=np.float64)[:, None]
    coarse = np.exp(d * (np.arange(0, n, RAMP_STEP) / n))
    fine = np.exp(d * (np.arange(RAMP_STEP) / n))
    ramp = (coarse[:, :, None] * fine[:, None, :]).reshape(d.shape[0], -1)[:, :n]
    ramp[:, (n + 1) // 2:] *= np.exp(-d)
    return ramp


def azimuth_compress(rd, azimuth_ref, provenance="blind"):
    """Azimuth matched filter in the frequency domain, then inverse DFT.

    `rd` must be in the range-Doppler domain; the reference is zero-padded to
    the column length and conjugated in the frequency domain.
    """
    x = as_complex_matrix(rd)
    ref = as_complex_vector(azimuth_ref)
    m = x.shape[0]
    if ref.size > m:
        raise ParameterError("azimuth reference longer than a column")
    image = x * np.conj(np.fft.fft(ref, m))[:, None]
    np.fft.ifft(image, axis=0, out=image)
    return FocusedImage(image=image, provenance=provenance)


def focus_pipeline(raw, estimate, taper_fraction=None, rcm_override=None,
                   provenance="blind", on_stage=None):
    """Compose the full focusing chain from a parameter estimate.

    taper_fraction defaults to the estimate's range-chirp taper.  An analytic
    RcmModel may be supplied to bypass peak tracking (oracle mode).  on_stage,
    when given, is called with (stage_name, matrix) after every stage.
    """
    x = as_complex_matrix(raw)
    taper = estimate.range_chirp.taper_fraction if taper_fraction is None else taper_fraction

    def stage(name, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except BsarError as exc:
            exc.args = (f"stage {name!r}: {exc}",) + exc.args[1:]
            raise
        if on_stage is not None:
            on_stage(name, result)
        return result

    range_ref, azimuth_ref = build_references(estimate, taper_fraction=taper)
    rc = stage("range_compress", range_compress, x, range_ref)
    rcm = rcm_override
    if rcm is None:
        rcm = stage("track_rcm", track_rcm, rc, estimate.beam_envelope)
    rd = stage("rcmc", rcmc, rc, rcm, estimate.azimuth_chirp.rate,
               estimate.doppler_centroid)
    del rc  # so that at most two matrices are alive during azimuth compression
    return stage("azimuth_compress", azimuth_compress, rd, azimuth_ref, provenance)
