"""Frequency-domain range-Doppler focusing with blind or oracle references.

The image is formed in four full-matrix FFT passes (``rcmc`` then
``azimuth_compress``):

1. range FFT of every row, zero-padded to nfft, times conj(R) -- range
   compression stays in the range-frequency domain;
2. azimuth FFT of every column;
3. one phase ramp per Doppler bin that applies the migration shift, anchored
   at zero Doppler, and removes the reference group delay, then the inverse
   range FFT, trimmed to N columns;
4. azimuth matched filter and inverse azimuth FFT.

In blind mode the migration is tracked first (``track_rcm``) on rows
range-compressed in the time domain (``range_compress``), but only the rows
inside the azimuth support, fit against their pulse offsets from the
estimate's beam center, the row ``rcmc`` counts pulses from.  The chain owns
one full-size matrix: rcmc's range-Doppler buffer, whose padded row stride
(``_padded_width``) keeps the two azimuth passes from thrashing the cache.
``azimuth_compress`` filters that buffer in place and returns it as the
image, so it consumes a complex128 input; ``range_compress`` and ``rcmc``
leave their inputs alone.

Each pass runs on row blocks (1, 3) or column blocks (2, 4) that
``core.run_blocks`` shares among one thread per CPU of the process's
affinity mask.  Every row and column goes through the same operations
whichever thread takes it, so the image is byte-identical at any worker
count.  On a 2048x4096 oracle scene on a 2-vCPU host the four passes take
0.33 s on two workers against 0.59 s on one.

Peak-position convention (fixed and relied on by the ground truth): after
range compression a point echo's peak lands at the echo's phase-vertex
(chirp-center) column; the reference's group delay is its center index, so
references must have odd length with the vertex at the center.  RCMC moves
each target to its range at closest approach (zero Doppler), and azimuth
compression uses the vertex-at-index-0 wrapped reference layout produced by
``build_references``, which puts the focused peak at the target's
zero-Doppler row.
"""

from dataclasses import dataclass

import numpy as np

from .core import (as_complex_matrix, as_complex_vector, median, next_fast_len, run_blocks,
                   shift_ramp, wrap_half_open)
from .errors import BsarError, ParameterError, TrackingError
from .estimate import _parabolic_peak, build_references

MIN_TRACK_POINTS = 16
MAD_REJECT = 3.0


@dataclass
class RcmModel:
    """Quadratic range-migration trajectory around the beam center.

    delta(d_eta) = linear * d_eta + quadratic * d_eta**2   [range samples],
    with d_eta the pulse offset from the beam center, the row where the
    target's Doppler frequency is the centroid (``beam_center_row``);
    delta(0) = 0 by construction and reference_range_bin is the absolute
    peak bin there.
    """

    reference_range_bin: float
    linear: float
    quadratic: float
    fit_rms: float

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


def _fit_quadratic(offsets, values):
    """Least-squares (c0, c1, c2) of values ~ c0 + c1*offsets + c2*offsets^2, and residuals."""
    design = np.column_stack([np.ones_like(offsets), offsets, offsets * offsets])
    coeffs, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    return coeffs, values - design @ coeffs


def track_rcm(rc, offsets):
    """Fit the dominant scatterer's migration trajectory from compressed rows.

    `offsets` gives each row's pulse offset from the beam center.  The
    per-pulse range peak is located with sub-sample parabolic interpolation
    and fit with a quadratic in that offset; outliers beyond 3x the residual
    MAD are rejected once and the curve refit.
    """
    x = as_complex_matrix(rc)
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.shape != (x.shape[0],):
        raise ParameterError("one pulse offset per compressed row is required")
    if offsets.size < MIN_TRACK_POINTS:
        raise TrackingError(f"only {offsets.size} pulses inside the azimuth support")
    mags = np.abs(x)
    cols = np.argmax(mags, axis=1)
    peaks = np.array([_parabolic_peak(mags[i], cols[i]) for i in range(offsets.size)])
    coeffs, resid = _fit_quadratic(offsets, peaks)
    spread = np.abs(resid - median(resid))
    mad = median(spread)
    if mad > 0:
        keep = spread <= MAD_REJECT * mad
        if np.sum(keep) < MIN_TRACK_POINTS:
            raise TrackingError("too few inlier peaks after outlier rejection")
        coeffs, resid = _fit_quadratic(offsets[keep], peaks[keep])
    rms = float(np.sqrt(np.mean(resid**2)))
    return RcmModel(
        reference_range_bin=float(coeffs[0]),
        linear=float(coeffs[1]),
        quadratic=float(coeffs[2]),
        fit_rms=rms,
    )


def rcmc(raw, range_ref, rcm, azimuth_rate, doppler_centroid):
    """Range compression and range cell migration correction in three FFT passes.

    The rows are range-compressed in the frequency domain (zero-padded to
    nfft, times conj(R)) and azimuth-DFTed; every azimuth-frequency bin f
    (unwrapped around the Doppler centroid) maps to the pulse offset at which
    a target crosses that frequency, d_eta = (f - dc) / (2 * azimuth_rate).
    One sub-sample phase ramp then shifts the bin by
    -(delta(d_eta) - delta(eta0)) range samples, with eta0 = -dc /
    (2 * azimuth_rate) the zero-Doppler offset, and removes the reference
    group delay before the inverse range DFT.  Targets thus land at their
    closest-approach range.  Returns the M x N range-Doppler matrix, a view
    of a padded buffer.  `raw` may be complex64: each block of rows is
    upcast to complex128 as it is copied into the buffer.
    """
    x = as_complex_matrix(raw, single=True)
    ref = as_complex_vector(range_ref)
    m, n = x.shape
    if ref.size > n:
        raise ParameterError("reference longer than a data row")
    if azimuth_rate == 0.0:
        raise ParameterError("azimuth rate must be nonzero")
    freqs = np.fft.fftfreq(m)
    unwrapped = doppler_centroid + wrap_half_open(freqs - doppler_centroid)
    offsets = (unwrapped - doppler_centroid) / (2.0 * azimuth_rate)
    zero_doppler = -doppler_centroid / (2.0 * azimuth_rate)
    delta = rcm.delta(offsets) - rcm.delta(zero_doppler)
    if np.max(np.abs(delta)) > n / 4:
        raise ParameterError(
            f"implausible migration: max shift {np.max(np.abs(delta)):.1f} > N/4"
        )
    nfft = next_fast_len(n + ref.size - 1)
    rd = np.empty((m, _padded_width(nfft)), dtype=np.complex128)[:, :nfft]
    ref_spectrum = np.conj(np.fft.fft(ref, nfft))
    shift = delta - (ref.size - 1) // 2  # the group delay is a constant shift

    def compress(rows):
        block = rd[rows]
        block[:, :n] = x[rows]
        block[:, n:] = 0.0
        np.fft.fft(block, axis=1, out=block)
        block *= ref_spectrum

    def azimuth_fft(cols):
        block = rd[:, cols]
        np.fft.fft(block, axis=0, out=block)

    def shift_range(rows):
        block = rd[rows]
        block *= shift_ramp(shift[rows], nfft)
        np.fft.ifft(block, axis=1, out=block)

    run_blocks(compress, m)
    run_blocks(azimuth_fft, nfft)
    run_blocks(shift_range, m)
    return rd[:, :n]


def _padded_width(n):
    """Smallest width >= n whose complex128 row is an odd number of 64-byte
    cache lines (width = 4 mod 8).

    Axis-0 FFTs step through memory one row at a time; at a power-of-two row
    stride every element of a column maps to the same few cache sets and
    evicts the others, while an odd number of lines spreads them over all
    sets.
    """
    return n + (4 - n) % 8


def azimuth_compress(rd, azimuth_ref, provenance="blind"):
    """Azimuth matched filter in the frequency domain, then inverse DFT.

    `rd` must be in the range-Doppler domain; the reference is zero-padded to
    the column length and conjugated in the frequency domain.  A complex128
    `rd` is consumed: it is filtered in place and returned as the image.
    """
    x = as_complex_matrix(rd)
    ref = as_complex_vector(azimuth_ref)
    if ref.size > x.shape[0]:
        raise ParameterError("azimuth reference longer than a column")
    matched = np.conj(np.fft.fft(ref, x.shape[0]))[:, None]

    def filter_columns(cols):
        block = x[:, cols]
        block *= matched
        np.fft.ifft(block, axis=0, out=block)

    run_blocks(filter_columns, x.shape[1])
    return FocusedImage(image=x, provenance=provenance)


def focus_pipeline(raw, estimate, rcm_override=None, provenance="blind", on_stage=None):
    """Compose the full focusing chain from a parameter estimate.

    The pulse grid is the raw matrix's: `build_references` builds the
    references on its rows.  An analytic RcmModel may be supplied to bypass
    peak tracking (oracle mode).  on_stage, when given, is called with
    (stage_name, result) after every stage, before the next stage
    overwrites rcmc's buffer with the image.
    `raw` may be complex64; only the rows it tracks and rcmc upcast it.
    """
    x = as_complex_matrix(raw, single=True)

    def stage(name, fn, *args):
        try:
            result = fn(*args)
        except BsarError as exc:
            exc.args = (f"stage {name!r}: {exc}",) + exc.args[1:]
            raise
        if on_stage is not None:
            on_stage(name, result)
        return result

    def track():
        # peaks are tracked only inside the azimuth support, so only those
        # rows are range-compressed in the time domain
        start, stop = estimate.azimuth_chirp.support
        return track_rcm(range_compress(x[start:stop], range_ref),
                         np.arange(start, stop) - estimate.beam_center_row)

    range_ref, azimuth_ref = build_references(estimate, x.shape[0])
    rcm = rcm_override
    if rcm is None:
        rcm = stage("track_rcm", track)
    rd = stage("rcmc", rcmc, x, range_ref, rcm, estimate.azimuth_chirp.rate,
               estimate.doppler_centroid)
    return stage("azimuth_compress", azimuth_compress, rd, azimuth_ref, provenance)
