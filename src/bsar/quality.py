"""Point-target impulse-response metrics and image comparison.

The focused response is windowed, demodulated on each axis, oversampled by
zero-padded DFT interpolation, and measured along the two axis cuts through
the peak: -3 dB width (IRW), peak sidelobe ratio (PSLR) and integrated
sidelobe ratio (ISLR, mainlobe bounded by the first nulls, integration out to
10x the -3 dB width).
"""

from dataclasses import dataclass

import numpy as np

from .core import median
from .errors import NoTargetError, ParameterError

MINUS_3DB = 10.0 ** (-3.0 / 20.0)
ISLR_EXTENT = 10.0  # multiples of the -3 dB width integrated on each side
OVERSAMPLE = 16     # analysis interpolation factor
DB_FLOOR = -120.0   # compare_images clips magnitudes this far below the peak
ANALYSIS_WINDOW = 64  # samples on a side around the point target


@dataclass
class PointTargetReport:
    peak_position: tuple       # (row, col) fractional samples in the image
    peak_magnitude: float
    irw_range: float           # samples at -3 dB
    irw_azimuth: float
    pslr_range: float          # dB, <= 0
    pslr_azimuth: float
    islr_range: float          # dB
    islr_azimuth: float
    oversample_factor: int


def interpolation_operator(size, factor):
    """(size*factor) x size zero-padded-DFT interpolation matrix A: the
    fftshift / pad / inverse-FFT steps applied to the identity, so that the
    oversampled grid of a window W is A @ W @ A.T."""
    spectrum = np.fft.fftshift(np.fft.fft(np.eye(size), axis=0), axes=0)
    padded = np.zeros((size * factor, size), dtype=np.complex128)
    start = (size * factor - size) // 2
    padded[start:start + size] = spectrum
    return np.fft.ifft(np.fft.ifftshift(padded, axes=0), axis=0) * factor


def _crossing(mag, i_lo, i_hi, level):
    """Linear interpolation of the index where mag crosses level between
    adjacent samples i_lo (above) and i_hi (below or equal)."""
    a, b = mag[i_lo], mag[i_hi]
    if a == b:
        return float(i_hi)
    return i_lo + (a - level) / (a - b) * (i_hi - i_lo)


def _width_at_level(mag, peak_idx, level):
    left = peak_idx
    while left > 0 and mag[left - 1] >= level:
        left -= 1
    right = peak_idx
    while right < mag.size - 1 and mag[right + 1] >= level:
        right += 1
    lo = _crossing(mag, left, left - 1, level) if left > 0 else float(left)
    hi = _crossing(mag, right, right + 1, level) if right < mag.size - 1 else float(right)
    return hi - lo


def _first_nulls(mag, peak_idx):
    """Indices of the first local minima on each side of the peak."""
    left = peak_idx
    while left > 0 and mag[left - 1] < mag[left]:
        left -= 1
    right = peak_idx
    while right < mag.size - 1 and mag[right + 1] < mag[right]:
        right += 1
    return left, right


def cut_metrics(cut, peak_idx, factor):
    """(irw_samples, pslr_db, islr_db) for one oversampled cut through a peak."""
    mag = np.abs(cut)
    peak = mag[peak_idx]
    irw = _width_at_level(mag, peak_idx, peak * MINUS_3DB) / factor
    left, right = _first_nulls(mag, peak_idx)

    outside = np.concatenate([mag[:left], mag[right + 1:]])
    pslr = -np.inf
    if outside.size:
        pslr = 20.0 * np.log10(np.max(outside) / peak)

    extent = int(round(ISLR_EXTENT * irw * factor))
    lo = max(peak_idx - extent, 0)
    hi = min(peak_idx + extent + 1, mag.size)
    power = mag**2
    main = float(np.sum(power[left:right + 1]))
    side = float(np.sum(power[lo:left]) + np.sum(power[right + 1:hi]))
    islr = 10.0 * np.log10(side / main) if side > 0 else -np.inf
    return irw, float(pslr), float(islr)


def analyze_point_target(img, approx_position):
    """Oversampled impulse-response metrics around an approximate position."""
    x = np.asarray(img.image if hasattr(img, "image") else img)
    if x.ndim != 2:
        raise ParameterError("expected a 2-D image")
    if not np.all(np.isfinite(approx_position)):
        raise ParameterError(f"analysis position ({approx_position[0]}, {approx_position[1]})"
                             " is not finite")
    r = int(round(approx_position[0]))
    c = int(round(approx_position[1]))
    half = ANALYSIS_WINDOW // 2
    if r - half < 0 or c - half < 0 or r + half > x.shape[0] or c + half > x.shape[1]:
        raise ParameterError("analysis window extends outside the image")
    win = x[r - half:r + half, c - half:c + half].astype(np.complex128)

    mag = np.abs(win)
    peak_idx = np.unravel_index(np.argmax(mag), mag.shape)
    background = float(median(mag))
    if mag[peak_idx] == 0.0 or mag[peak_idx] < background * 10.0:
        raise NoTargetError(
            "no local peak 20 dB above the surrounding median in the window"
        )

    # each axis demodulated by its lag-one correlation phase (Madsen, 1989), so
    # that no band off zero frequency, as a squinted image's, is split by the padding
    n = np.arange(2 * half)
    win *= np.outer(np.exp(-1j * n * np.angle(np.vdot(win[:-1], win[1:]))),
                    np.exp(-1j * n * np.angle(np.vdot(win[:, :-1], win[:, 1:]))))

    # the fine peak lies within one coarse sample of the coarse one, on a
    # periodic fine grid; the two cuts through it are 1-D products
    f = OVERSAMPLE
    op = interpolation_operator(2 * half, f)
    rows = (peak_idx[0] * f + np.arange(-f, f + 1)) % op.shape[0]
    cols = (peak_idx[1] * f + np.arange(-f, f + 1)) % op.shape[0]
    block = np.abs(op[rows] @ win @ op[cols].T)
    i, j = np.unravel_index(np.argmax(block), block.shape)
    pr, pc = int(rows[i]), int(cols[j])
    range_cut = (op[pr] @ win) @ op.T
    azimuth_cut = op @ (win @ op[pc])
    peak_row = r - half + pr / f
    peak_col = c - half + pc / f

    irw_az, pslr_az, islr_az = cut_metrics(azimuth_cut, pr, f)
    irw_rg, pslr_rg, islr_rg = cut_metrics(range_cut, pc, f)
    return PointTargetReport(
        peak_position=(peak_row, peak_col),
        peak_magnitude=float(np.abs(range_cut[pc])),
        irw_range=irw_rg,
        irw_azimuth=irw_az,
        pslr_range=pslr_rg,
        pslr_azimuth=pslr_az,
        islr_range=islr_rg,
        islr_azimuth=islr_az,
        oversample_factor=OVERSAMPLE,
    )


def compare_images(a, b, window=None):
    """Normalized magnitude correlation, peak offset and dB RMS difference.

    `window`, when given, is (row_start, row_stop, col_start, col_stop).
    """
    ia, ib = np.asarray(a), np.asarray(b)
    if ia.shape != ib.shape:
        raise ParameterError(f"image dimensions differ: {ia.shape} vs {ib.shape}")
    if window is not None:
        r0, r1, c0, c1 = window
        rows, cols = ia.shape
        if not (0 <= r0 < r1 <= rows and 0 <= c0 < c1 <= cols):
            raise ParameterError(
                f"window rows {r0}:{r1}, cols {c0}:{c1} is empty or leaves the "
                f"{rows} x {cols} image"
            )
        ia = ia[r0:r1, c0:c1]
        ib = ib[r0:r1, c0:c1]

    ma, mb = (np.abs(v, dtype=np.float64) for v in (ia, ib))
    denom = np.linalg.norm(ma) * np.linalg.norm(mb)
    correlation = float(np.sum(ma * mb) / denom) if denom > 0 else 0.0

    pa = np.unravel_index(np.argmax(ma), ma.shape)
    pb = np.unravel_index(np.argmax(mb), mb.shape)
    offset = (int(pb[0] - pa[0]), int(pb[1] - pa[1]))

    floor = max(np.max(ma), np.max(mb)) * 10.0 ** (DB_FLOOR / 20.0)
    if floor <= 0:
        rms_db = 0.0
    else:
        for mag in (ma, mb):  # to dB in place
            np.log10(np.maximum(mag, floor, out=mag), out=mag)
            mag *= 20.0
        rms_db = float(np.sqrt(np.mean((ma - mb) ** 2)))
    return {
        "correlation": correlation,
        "peak_offset": offset,
        "rms_db_difference": rms_db,
    }
