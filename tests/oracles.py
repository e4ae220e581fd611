"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own code paths: smooth numbers built
by multiplication for FFT lengths, a cyclic Jacobi eigensolver for Hermitian
matrices, direct-summation correlation on a fine lag grid for sidelobe
checks, the one-exp-per-element echo spectrum that the simulator builds
from factored ramp tables, the one-exp-per-sample RCMC ramp,
roll-the-whole-buffer range compression, out-of-place azimuth compression
and six-pass focusing chain that the focusing stages replace, the
whole-window 2-D oversampling that the point-target analysis replaces with
two cuts, and the upcast-then-scale render levels that the PGM writer
computes in place.  Checks of outputs that no CLI path runs live here too:
the 2-column rotation of A5 and the raw-data statistics of A6.
"""

from dataclasses import dataclass

import numpy as np

from bsar.core import as_complex_vector
from bsar.errors import ParameterError
from bsar.quality import PointTargetReport, cut_metrics

HISTOGRAM_BINS = 64  # raw_statistics histogram bins per part


def smooth_numbers(limit, primes):
    """Sorted array of every integer in [1, limit] with no prime factor
    outside `primes`, built by multiplying up rather than by factoring."""
    found = {1}
    for p in primes:
        for n in sorted(found):
            n *= p
            while n <= limit:
                found.add(n)
                n *= p
    return np.array(sorted(found))


def jacobi_eigh(H, sweeps=100, tol=1e-14):
    """Eigenvalues/vectors of a Hermitian matrix by cyclic complex Jacobi
    rotations.  Returns (eigenvalues descending, eigenvector columns)."""
    A = np.array(H, dtype=np.complex128)
    n = A.shape[0]
    V = np.eye(n, dtype=np.complex128)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(A - np.diag(np.diag(A))) ** 2))
        if off < tol * max(np.sqrt(np.sum(np.abs(np.diag(A)) ** 2)), 1.0):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) == 0.0:
                    continue
                app = A[p, p].real
                aqq = A[q, q].real
                # unitary 2x2 rotation diagonalizing the (p, q) block
                phi = np.angle(apq)
                tau = (aqq - app) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c * np.exp(1j * phi)
                rot = np.eye(n, dtype=np.complex128)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -np.conj(s)
                A = rot.conj().T @ A @ rot
                V = V @ rot
    evals = np.diag(A).real
    order = np.argsort(evals)[::-1]
    return evals[order], V[:, order]


def singular_values_by_jacobi(X):
    """Singular values of X via Jacobi eigendecomposition of the Gram matrix."""
    X = np.asarray(X, dtype=np.complex128)
    gram = X.conj().T @ X if X.shape[1] <= X.shape[0] else X @ X.conj().T
    evals, _ = jacobi_eigh(gram)
    return np.sqrt(np.clip(evals, 0.0, None))


def oversampled_autocorrelation(signal, sample_positions, evaluate, lags):
    """Correlation of a sampled signal against an analytic waveform at
    arbitrary (fractional) lags: corr(t) = sum_n s[n] * conj(w(n - t))."""
    s = np.asarray(signal, dtype=np.complex128)
    out = np.empty(len(lags), dtype=np.complex128)
    for i, lag in enumerate(lags):
        out[i] = np.sum(s * np.conj(evaluate(sample_positions - lag)))
    return out


def sinc_peak_metrics(bandwidth_fraction, halfwidth=12.0, step=1.0 / 256.0):
    """PSLR (dB) and -3 dB width (samples) of the ideal compressed response
    sin(pi*B*t)/(pi*B*t), measured on a dense analytic grid."""
    t = np.arange(-halfwidth, halfwidth + step, step)
    mag = np.abs(np.sinc(bandwidth_fraction * t))
    peak = np.argmax(mag)
    level = 10.0 ** (-3.0 / 20.0)
    above = mag >= level * mag[peak]
    irw = np.sum(above) * step  # contiguous by shape of the mainlobe
    # first nulls, then highest sidelobe
    left = peak
    while left > 0 and mag[left - 1] < mag[left]:
        left -= 1
    right = peak
    while right < mag.size - 1 and mag[right + 1] < mag[right]:
        right += 1
    side = max(np.max(mag[:left]), np.max(mag[right + 1:]))
    pslr = 20.0 * np.log10(side / mag[peak])
    return pslr, irw


def direct_echoes(config, scene):
    """Noise-free raw echoes from the closed form, in one M x nfft spectrum.

    Per scatterer and pulse: slant range r, leading-edge delay in samples,
    two-way sinc^2 beam weight and two-way phase exp(-4j*pi*r/wavelength),
    with the delay applied as exp(-2j*pi*f*lead), one np.exp per element.
    The sum is multiplied by the transmitted chirp's nfft-point spectrum and
    inverse-transformed once; nfft is the smallest 11-smooth length that
    holds a row plus the chirp.
    """
    c = 299792458.0
    m, n = config.num_pulses, config.samples_per_pulse
    chirp = int(round(config.chirp_duration * config.range_sampling))
    smooth = smooth_numbers(2 * (n + chirp), (2, 3, 5, 7, 11))
    nfft = int(smooth[smooth >= n + chirp][0])
    t = (np.arange(chirp) - (chirp - 1) / 2.0) / config.range_sampling
    pulse = np.exp(1j * np.pi * config.chirp_rate * t * t)
    freqs = np.fft.fftfreq(nfft)
    eta = np.arange(m) / config.prf
    spectrum = np.zeros((m, nfft), dtype=np.complex128)
    for sc in scene:
        # sqrt of the sum of squares, as the simulator: at a range of km a
        # rounding of r by 1 ulp moves the two-way phase by 1e-11 rad
        r = np.sqrt((config.closest_range + sc.range_offset) ** 2
                    + (config.platform_speed * (eta - sc.azimuth_time)) ** 2)
        lead = 2.0 * (r - config.closest_range) / c * config.range_sampling
        off_boresight = eta - sc.azimuth_time - config.squint_offset
        beam = np.sinc(2.0 * off_boresight / config.beam_azimuth_extent) ** 2
        amp = sc.reflectivity * beam * np.exp(-4j * np.pi * r / config.wavelength)
        spectrum += amp[:, None] * np.exp(-2j * np.pi * freqs[None, :] * lead[:, None])
    return np.fft.ifft(spectrum * np.fft.fft(pulse, nfft), axis=1)[:, :n]


def direct_shift_ramp(delta, n):
    """Sub-sample shift ramp exp(2j*pi*fftfreq(n)*delta), one exp per sample."""
    delta = np.asarray(delta, dtype=np.float64)
    return np.exp(2j * np.pi * np.fft.fftfreq(n)[None, :] * delta[:, None])


def range_spectrum(raw, ref, nfft):
    """Every row's length-nfft spectrum times the conjugate reference spectrum."""
    return np.fft.fft(raw, nfft, axis=1) * np.conj(np.fft.fft(ref, nfft))


def rolled_range_compress(raw, ref, nfft):
    """Range compression as one length-nfft circular correlation, rolled by
    the reference group delay and trimmed to the row length."""
    corr = np.fft.ifft(range_spectrum(raw, ref, nfft), axis=1)
    return np.roll(corr, (ref.size - 1) // 2, axis=1)[:, :raw.shape[1]]


def six_pass_focus(raw, range_ref, azimuth_ref, rcm, azimuth_rate, doppler_centroid, nfft):
    """Range-Doppler focusing in six full-matrix FFT passes: rolled range
    compression, then an azimuth FFT, a range FFT, the one-exp-per-sample
    shift ramp anchored at zero Doppler and an inverse range FFT at the row
    length, then the azimuth matched filter and an inverse azimuth FFT."""
    m, n = raw.shape
    rd = np.fft.fft(rolled_range_compress(raw, range_ref, nfft), axis=0)
    f = np.fft.fftfreq(m) - doppler_centroid
    offsets = (f - np.ceil(f - 0.5)) / (2.0 * azimuth_rate)  # wrapped around the centroid
    zero_doppler = -doppler_centroid / (2.0 * azimuth_rate)

    def migration(offset):
        return rcm.linear * offset + rcm.quadratic * offset * offset

    ramp = direct_shift_ramp(migration(offsets) - migration(zero_doppler), n)
    rd = np.fft.ifft(np.fft.fft(rd, axis=1) * ramp, axis=1)
    return out_of_place_azimuth_compress(rd, azimuth_ref)


def out_of_place_azimuth_compress(rd, azimuth_ref):
    """Azimuth matched filter as a new product matrix, then a new inverse
    azimuth FFT; `rd` is left unchanged."""
    return np.fft.ifft(rd * np.conj(np.fft.fft(azimuth_ref, rd.shape[0]))[:, None], axis=0)


def pgm_levels(image, db_floor):
    """8-bit render levels from the complex128 upcast of `image`, each step a
    new array: dB relative to the peak, scaled from the floor and clipped."""
    mag = np.abs(np.asarray(image, np.complex128))
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / np.max(mag))
    return np.round(np.clip((db - db_floor) / (0.0 - db_floor), 0.0, 1.0) * 255.0).astype(np.uint8)


def oversample_window(window, factor):
    """Band-limited interpolation of a complex window by zero-padded 2-D DFT."""
    w = np.asarray(window, dtype=np.complex128)
    m, n = w.shape
    spectrum = np.fft.fftshift(np.fft.fft2(w))
    padded = np.zeros((m * factor, n * factor), dtype=np.complex128)
    r0 = (m * factor - m) // 2
    c0 = (n * factor - n) // 2
    padded[r0:r0 + m, c0:c0 + n] = spectrum
    return np.fft.ifft2(np.fft.ifftshift(padded)) * factor * factor


def whole_window_point_target(image, approx_position, window=64, factor=16):
    """Point-target report read from the whole oversampled window: the fine
    peak is the maximum of the full 2-D grid, and the cuts are its row and
    column through that peak.  Before it is oversampled, the window's
    spectrum is centred on each axis at its mean frequency, the phase of
    sum_f P(f) exp(2 pi i f / N) over that axis's power spectrum P, taken on
    N = twice the window, so that the sum is the aperiodic lag-one
    correlation (Wiener-Khinchin) of the window's samples.  The sum is taken
    in extended precision (where numpy's long double is wider than float64):
    on a full-band target it nearly cancels, and its float64 rounding alone
    moved a sinc target's report by 1.2e-12 relatively."""
    x = np.asarray(getattr(image, "image", image), dtype=np.complex128)
    r, c = (int(round(p)) for p in approx_position)
    half = window // 2
    w = x[r - half:r + half, c - half:c + half]
    power = np.abs(np.fft.fft2(w.astype(np.clongdouble), s=(2 * window, 2 * window))) ** 2
    for axis, size in enumerate(w.shape):
        spectrum = power.sum(axis=1 - axis)
        lags = np.exp(1j * np.pi * np.arange(2 * size, dtype=np.longdouble) / size)
        mean = np.angle(np.sum(spectrum * lags))
        ramp = np.exp(-1j * mean * np.arange(size, dtype=np.longdouble)).astype(np.complex128)
        w = w * ramp.reshape((size, 1) if axis == 0 else (1, size))
    fine = oversample_window(w, factor)
    fmag = np.abs(fine)
    pr, pc = np.unravel_index(np.argmax(fmag), fmag.shape)
    irw_az, pslr_az, islr_az = cut_metrics(fine[:, pc], pr, factor)
    irw_rg, pslr_rg, islr_rg = cut_metrics(fine[pr, :], pc, factor)
    return PointTargetReport(
        peak_position=(r - half + pr / factor, c - half + pc / factor),
        peak_magnitude=float(fmag[pr, pc]), irw_range=irw_rg, irw_azimuth=irw_az,
        pslr_range=pslr_rg, pslr_azimuth=pslr_az, islr_range=islr_rg,
        islr_azimuth=islr_az, oversample_factor=factor)


@dataclass(frozen=True)
class GibbsRotation:
    """2-column SVD rotation entries and diagnostics (|c|^2 + |s|^2 = 1)."""

    c: complex
    s: complex
    orthogonality_residual: float
    column_norms: tuple


def gibbs_rotation_check(x1, x2):
    """Rotation that orthogonalizes a 2-column matrix, with residual checks.

    Returns the rotation entries (c, s), the magnitude of the inner product of
    the two rotated columns, and the rotated column norms (the two singular
    values of [x1, x2]).
    """
    a = as_complex_vector(x1)
    b = as_complex_vector(x2)
    if a.size != b.size:
        raise ParameterError("columns must have equal length")
    if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
        raise ParameterError("degenerate input: zero-norm column")
    A = np.column_stack([a, b])
    H = A.conj().T @ A
    H = 0.5 * (H + H.conj().T)
    evals, evecs = np.linalg.eigh(H)
    order = np.argsort(evals)[::-1]
    rot = evecs[:, order]
    E = A @ rot
    residual = float(abs(np.vdot(E[:, 0], E[:, 1])))
    norms = (float(np.linalg.norm(E[:, 0])), float(np.linalg.norm(E[:, 1])))
    return GibbsRotation(
        c=complex(rot[0, 0]),
        s=complex(np.conj(rot[1, 0])),
        orthogonality_residual=residual,
        column_norms=norms,
    )


def raw_statistics(raw):
    """Moment summary and fixed-bin histogram of the real and imaginary parts."""
    x = np.asarray(raw)
    if x.size == 0:
        raise ParameterError("empty matrix")
    out = {}
    for name, part in (("real", x.real.ravel()), ("imag", x.imag.ravel())):
        if np.all(part == 0.0):
            moments = {"mean": 0.0, "variance": 0.0, "skewness": 0.0, "excess_kurtosis": 0.0}
        else:
            # biased central moments; a constant part has m2 == 0 and gives NaN
            mean = np.mean(part)
            m2, m3, m4 = (np.mean((part - mean) ** p) for p in (2, 3, 4))
            with np.errstate(divide="ignore", invalid="ignore"):
                moments = {
                    "mean": float(mean),
                    "variance": float(m2),
                    "skewness": float(m3 / m2**1.5),
                    "excess_kurtosis": float(m4 / m2**2 - 3.0),
                }
        span = float(np.max(np.abs(part)))
        half = span if span > 0 else 1.0
        edges = np.linspace(-half, half, HISTOGRAM_BINS + 1)
        counts, edges = np.histogram(part, bins=edges)
        moments["histogram"] = {"counts": counts.tolist(), "edges": edges.tolist()}
        out[name] = moments
    return out
