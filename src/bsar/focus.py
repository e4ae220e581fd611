"""Frequency-domain range-Doppler focusing with blind or oracle references.

The image is formed in four full-matrix FFT passes (``range_compress``,
``rcmc``, ``azimuth_compress``):

1. range FFT of every row, zero-padded to nfft, times conj(R) -- range
   compression stays in the range-frequency domain;
2. azimuth FFT of every column;
3. one phase ramp per Doppler bin that applies the migration shift, anchored
   at zero Doppler, and removes the reference group delay, then the inverse
   range FFT, trimmed to N columns;
4. azimuth matched filter and inverse azimuth FFT.

In blind mode ``track_rcm`` runs between passes 1 and 2: it finds the
migration peaks on inverse FFTs of pass 1's rows inside the azimuth support,
a block of rows at a time, and fits them against their pulse offsets from
the estimate's beam center, the row ``rcmc`` counts pulses from.  The chain
owns one full-size matrix, pass 1's map, an M x nfft memory map of its own
in the raw rows' precision: complex64, half the bytes, for a BSAR file and
``simulate_raw``'s output, complex128 for complex128 rows.  Pass 1 fills
it from a matrix or, a row block at a time, straight from a BSAR file
(``fileio.MatrixReader``), so the payload is never resident whole; the
later passes transform it in place.  Every pass upcasts its block of rows
or columns to complex128, as complex64 FFTs are no faster, transforms it
and stores it back once (``_store``): a value that overflows complex64 is
a parameter error.  The image is pass 4's output where it lies, the M x N
view of that map in its precision; ``fileio.write_matrix`` casts and
writes it a block of rows at a time.

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

from .core import (as_complex_matrix, as_complex_vector, mapped_zeros, median, next_fast_len,
                   row_source, run_blocks, shift_ramp, wrap_half_open)
from .errors import BsarError, ParameterError, SampleError, TrackingError
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
    """Single-look complex image, the M x N view of pass 1's map in the raw
    rows' precision, plus provenance of the parameters used."""

    image: np.ndarray
    provenance: str            # "blind" or "oracle"


def _store(out, block):
    """out[...] = block, a complex128 block stored into pass 1's map; a value
    past a complex64 map's range is a parameter error, not an infinity.
    Called in the worker thread, as numpy's error state is per thread."""
    try:
        with np.errstate(over="raise"):
            out[...] = block
    except FloatingPointError:
        raise ParameterError("a sample overflows complex64: scale the raw data down")


def range_compress(raw, range_ref):
    """Pass 1: every row's range spectrum, zero-padded to nfft, times conj(R).

    Returns the M x nfft matrix, a map of its own (``core.mapped_zeros``),
    that ``rcmc`` and ``azimuth_compress`` transform in place.  `raw` is a
    matrix or a row-block reader (``core.row_source``), so a reader's
    payload is never resident whole.  The map has the raw rows' precision:
    complex64 for complex64 rows (a BSAR file, ``simulate_raw``), else
    complex128.  Each block of rows is transformed in complex128 and stored
    once (``_store``).  A row's inverse FFT, trimmed to N columns with the
    group delay (the reference's center index) removed, peaks at a point
    echo's phase-vertex column.
    """
    source, rows_of = row_source(raw)
    m, n = source.shape
    ref = as_complex_vector(range_ref)
    if ref.size > n:
        raise ParameterError("reference longer than a data row")
    nfft = next_fast_len(n + ref.size - 1)
    spectrum = mapped_zeros((m, nfft), source.dtype)
    ref_spectrum = np.conj(np.fft.fft(ref, nfft))

    def compress(rows):
        data = rows_of(rows)
        block = np.zeros((data.shape[0], nfft), np.complex128)
        block[:, :n] = data
        np.fft.fft(block, axis=1, out=block)
        block *= ref_spectrum
        _store(spectrum[rows], block)

    run_blocks(compress, m)
    return spectrum


def _fit_quadratic(offsets, values):
    """Least-squares (c0, c1, c2) of values ~ c0 + c1*offsets + c2*offsets^2, and residuals."""
    design = np.column_stack([np.ones_like(offsets), offsets, offsets * offsets])
    coeffs, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    return coeffs, values - design @ coeffs


def track_rcm(spectrum, width, delay, offsets):
    """Fit the dominant scatterer's migration trajectory from pass-1 rows.

    Each row of `spectrum`, rows of ``range_compress``'s output, goes back
    to time by an inverse FFT, trimmed to `width` columns with the group
    `delay` removed, one block of rows at a time; its peak, interpolated by
    a parabola, is fit by ``fit_rcm`` against the row's pulse offset from
    the beam center in `offsets`.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.shape != (spectrum.shape[0],):
        raise ParameterError("one pulse offset per compressed row is required")
    if offsets.size < MIN_TRACK_POINTS:
        raise TrackingError(f"only {offsets.size} pulses inside the azimuth support")
    peaks = np.empty(offsets.size)

    def find_peaks(rows):
        block = spectrum[rows].astype(np.complex128)
        mags = np.abs(np.fft.ifft(block, axis=1, out=block))
        mags = np.concatenate((mags[:, mags.shape[1] - delay:], mags[:, :width - delay]), axis=1)
        cols = np.argmax(mags, axis=1)
        peaks[rows] = [_parabolic_peak(row, col) for row, col in zip(mags, cols)]

    run_blocks(find_peaks, offsets.size)
    return fit_rcm(offsets, peaks)


def fit_rcm(offsets, peaks):
    """Quadratic fit of the peak columns against the pulse offsets; outliers
    beyond 3x the residual MAD are rejected once and the curve refit."""
    coeffs, resid = _fit_quadratic(offsets, peaks)
    spread = np.abs(resid - median(resid))
    mad = median(spread)
    if mad > 0:
        keep = spread <= MAD_REJECT * mad
        if np.sum(keep) < MIN_TRACK_POINTS:
            raise TrackingError("too few inlier peaks after outlier rejection")
        coeffs, resid = _fit_quadratic(offsets[keep], peaks[keep])
    return RcmModel(*(float(c) for c in coeffs), fit_rms=float(np.sqrt(np.mean(resid**2))))


def rcmc(spectrum, width, delay, rcm, azimuth_rate, doppler_centroid):
    """Passes 2 and 3: range cell migration correction of pass 1's output.

    The range-compressed spectrum is azimuth-DFTed; every azimuth-frequency
    bin f (unwrapped around the Doppler centroid) maps to the pulse offset at
    which a target crosses that frequency, d_eta = (f - dc) / (2 *
    azimuth_rate).  One sub-sample phase ramp then shifts the bin by
    -(delta(d_eta) - delta(eta0)) range samples, with eta0 = -dc /
    (2 * azimuth_rate) the zero-Doppler offset, and removes the group
    `delay` before the inverse range DFT.  Targets thus land at their
    closest-approach range.  A complex64 or complex128 `spectrum` is
    transformed in place, a block at a time in complex128; the M x `width`
    range-Doppler matrix returned is a view of it.
    """
    x = as_complex_matrix(spectrum)
    m, nfft = x.shape
    if azimuth_rate == 0.0:
        raise ParameterError("azimuth rate must be nonzero")
    freqs = np.fft.fftfreq(m)
    unwrapped = doppler_centroid + wrap_half_open(freqs - doppler_centroid)
    offsets = (unwrapped - doppler_centroid) / (2.0 * azimuth_rate)
    zero_doppler = -doppler_centroid / (2.0 * azimuth_rate)
    delta = rcm.delta(offsets) - rcm.delta(zero_doppler)
    if np.max(np.abs(delta)) > width / 4:
        raise ParameterError(f"implausible migration: max shift {np.max(np.abs(delta)):.1f} > N/4")
    shift = delta - delay  # the group delay is a constant shift

    def azimuth_fft(cols):
        block = x[:, cols].astype(np.complex128)
        _store(x[:, cols], np.fft.fft(block, axis=0, out=block))

    def shift_range(rows):
        table = shift_ramp(shift[rows], nfft)
        np.multiply(x[rows], table, out=table)  # x * ramp, as complex products differ swapped
        _store(x[rows], np.fft.ifft(table, axis=1, out=table))

    run_blocks(azimuth_fft, nfft)
    run_blocks(shift_range, m)
    return x[:, :width]


def azimuth_compress(rd, azimuth_ref):
    """Azimuth matched filter in the frequency domain, then inverse DFT.

    `rd` must be in the range-Doppler domain; the reference is zero-padded to
    the column length and conjugated in the frequency domain.  A complex64 or
    complex128 `rd` is consumed: it is filtered in place, a block at a time
    in complex128, and returned as the image.
    """
    x = as_complex_matrix(rd)
    ref = as_complex_vector(azimuth_ref)
    if ref.size > x.shape[0]:
        raise ParameterError("azimuth reference longer than a column")
    matched = np.conj(np.fft.fft(ref, x.shape[0]))[:, None]

    def filter_columns(cols):
        block = x[:, cols] * matched
        _store(x[:, cols], np.fft.ifft(block, axis=0, out=block))

    run_blocks(filter_columns, x.shape[1])
    return x


def focus_pipeline(raw, estimate, rcm_override=None, provenance="blind"):
    """Compose the full focusing chain from a parameter estimate.

    `raw` is a matrix, complex64 or complex128, or a row-block reader
    (``range_compress``), whose precision pass 1's map takes.  The pulse
    grid is the raw matrix's: `build_references` builds the references on
    its rows.  An analytic RcmModel may be supplied to bypass peak tracking
    (oracle mode).  The image returned is the M x N view of pass 1's map,
    the one scene-sized matrix, in the map's precision.
    """
    source, _ = row_source(raw)
    m, width = source.shape

    def stage(name, fn, *args):
        try:
            return fn(*args)
        except SampleError:
            raise  # names the file, row and column; no stage is at fault
        except BsarError as exc:
            exc.args = (f"stage {name!r}: {exc}",) + exc.args[1:]
            raise

    range_ref, azimuth_ref = build_references(estimate, m)
    delay = (range_ref.size - 1) // 2
    spectrum = stage("range_compress", range_compress, source, range_ref)
    rcm = rcm_override
    if rcm is None:
        # peaks are tracked only on the rows inside the azimuth support
        start, stop = estimate.azimuth_chirp.support
        rcm = stage("track_rcm", track_rcm, spectrum[start:stop], width, delay,
                    np.arange(start, stop) - estimate.beam_center_row)
    rd = stage("rcmc", rcmc, spectrum, width, delay, rcm, estimate.azimuth_chirp.rate,
               estimate.doppler_centroid)
    image = stage("azimuth_compress", azimuth_compress, rd, azimuth_ref)
    return FocusedImage(image=image, provenance=provenance)
