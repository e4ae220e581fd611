"""Stripmap SAR raw-data simulator with analytic ground truth.

The simulator is the oracle for every blind estimate: it knows the exact
geometry, so it can report the true chirp rates, Doppler centroid, migration
trajectory and the expected focused position of every scatterer.

Modeling choices: stop-and-go approximation, rectilinear uniform motion,
two-way azimuth beam pattern modeled as a squared cardinal sine with first
nulls at +-beam_azimuth_extent/2 around the (possibly squinted) boresight.
Sub-sample echo delays are realized exactly by frequency-domain phase ramps.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (ChirpModel, mapped_zeros, next_fast_len, run_blocks, sample_chirp, shift_ramp,
                   wrap_half_open)
from .errors import ConfigurationError, ParameterError
from .estimate import BlindEstimate
from .focus import RcmModel, _fit_quadratic

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class AcquisitionConfig:
    """Geometry and radar parameters of a simulated stripmap acquisition.

    These are exactly the ancillary quantities the blind pipeline must never
    read; only the simulator and the oracle-focusing path may use them.
    """

    wavelength: float          # m
    platform_speed: float      # m/s
    closest_range: float       # m, range of the first sample (swath start)
    prf: float                 # Hz, azimuth sampling
    range_sampling: float      # Hz
    chirp_rate: float          # Hz/s
    chirp_duration: float      # s
    beam_azimuth_extent: float  # s of illumination (dwell, null-to-null)
    squint_offset: float       # s, shifts the beam center along track
    num_pulses: int
    samples_per_pulse: int
    noise_sigma: float         # linear amplitude (std of each I/Q component)
    rng_seed: int

    def __post_init__(self):
        positive = (
            "wavelength", "platform_speed", "closest_range", "prf",
            "range_sampling", "chirp_rate", "chirp_duration",
            "beam_azimuth_extent",
        )
        for name in positive:
            if not 0 < getattr(self, name) < np.inf:  # NaN fails both comparisons
                raise ParameterError(f"{name} must be finite and > 0, not {getattr(self, name)}")
        for name in ("num_pulses", "samples_per_pulse", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, not {value!r}")
        if self.num_pulses < 1 or self.samples_per_pulse < 1:
            raise ParameterError("matrix dimensions must be >= 1")
        if self.rng_seed < 0:
            raise ParameterError(f"rng_seed must be >= 0, not {self.rng_seed}")
        if not 0 <= self.noise_sigma < np.inf:
            raise ParameterError(f"noise_sigma must be finite and >= 0, not {self.noise_sigma}")
        if not np.isfinite(self.squint_offset):
            raise ParameterError(f"squint_offset must be finite, not {self.squint_offset}")
        if self.chirp_rate * self.chirp_duration > self.range_sampling:
            raise ParameterError("transmitted bandwidth exceeds the sampling band")
        if self.chirp_samples > self.samples_per_pulse:  # before the pulse is built
            raise ParameterError(f"the {self.chirp_samples}-sample pulse is longer than "
                                 f"the {self.samples_per_pulse}-sample swath")
        if self.beam_azimuth_extent * self.prf > self.num_pulses:
            raise ParameterError("azimuth dwell does not fit inside the pulse grid")

    @property
    def chirp_samples(self):
        return int(round(self.chirp_duration * self.range_sampling))

    @property
    def bandwidth_fraction(self):
        """Transmitted chirp bandwidth as a fraction of the range sampling rate."""
        return self.chirp_rate * self.chirp_duration / self.range_sampling

    def range_chirp_model(self):
        """Transmitted pulse as a ChirpModel in cycles/sample^2 units."""
        n = self.chirp_samples
        rate = self.chirp_rate / (2.0 * self.range_sampling**2)
        return ChirpModel(rate=rate, center=(n - 1) / 2.0, support=(0, n))

    def transmitted_pulse(self):
        return sample_chirp(self.range_chirp_model(), np.arange(self.chirp_samples))


@dataclass(frozen=True)
class Scatterer:
    azimuth_time: float        # s, zero-Doppler crossing
    range_offset: float        # m added to closest_range
    reflectivity: complex = 1.0 + 0.0j

    def __post_init__(self):
        for name in ("azimuth_time", "range_offset", "reflectivity"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"scatterer {name} must be finite, not {getattr(self, name)}")


@dataclass
class GroundTruth:
    """Oracle values derived deterministically from config + scene.

    Rates are in the blind pipeline's units (cycles/sample^2, cycles/pulse^2,
    cycles/pulse); focused positions follow the package's peak convention:
    the phase-vertex sample in range and the zero-Doppler row in azimuth.
    Scalar fields describe the first scatterer.
    """

    positions: list[tuple]     # (row, col) fractional samples per scatterer
    range_chirp_rate: float
    azimuth_chirp_rate: float
    doppler_centroid: float
    rcm_curve: np.ndarray      # range migration (samples) per pulse
    chirp_samples: int
    bandwidth_fraction: float
    beam_center_row: float
    range_support: tuple       # columns covered by the zero-Doppler echo
    azimuth_support: tuple     # main-lobe rows, clipped to the grid
    config: AcquisitionConfig = field(repr=False, default=None)


def _echo_geometry(config, scatterer):
    """Per-pulse slant range, leading-edge column, boresight offset (s) and beam weight."""
    eta = np.arange(config.num_pulses) / config.prf
    d_eta = eta - scatterer.azimuth_time
    r0s = config.closest_range + scatterer.range_offset
    r = np.sqrt(r0s**2 + (config.platform_speed * d_eta) ** 2)
    lead = 2.0 * (r - config.closest_range) / SPEED_OF_LIGHT * config.range_sampling
    boresight = d_eta - config.squint_offset
    beam = np.sinc(2.0 * boresight / config.beam_azimuth_extent) ** 2
    return r, lead, boresight, beam


def _validate_scatterer(config, scatterer, index, lead, boresight):
    main_lobe = np.abs(boresight) < config.beam_azimuth_extent / 2.0
    center = scatterer.azimuth_time + config.squint_offset
    half = config.beam_azimuth_extent / 2.0
    t_max = (config.num_pulses - 1) / config.prf
    if center - half < 0.0 or center + half > t_max:
        raise ConfigurationError(
            f"scatterer {index}: azimuth main lobe [{center - half:.3f}, "
            f"{center + half:.3f}] s leaves the pulse grid [0, {t_max:.3f}] s"
        )
    lobe_lead = lead[main_lobe] if np.any(main_lobe) else lead
    if np.min(lobe_lead) < 0.0 or np.max(lobe_lead) + config.chirp_samples > config.samples_per_pulse:
        raise ConfigurationError(
            f"scatterer {index}: range echo leaves the {config.samples_per_pulse}-sample swath"
        )


def raw_rows(config, scene):
    """Validate the scene and return (rows, truth): rows(slice) is the raw
    matrix's rows of that slice in complex128, echoes plus noise, and truth
    the scene's GroundTruth.

    Echoes are exact fractional-delay replicas of the transmitted pulse,
    weighted by the two-way beam pattern and the two-way propagation phase,
    plus seeded circular complex Gaussian noise (std = noise_sigma per I/Q
    component, independent per-row substreams).  Every echo's amplitude
    times its delay ramp (``core.shift_ramp``) is summed into the rows'
    nfft-wide spectrum, times the pulse spectrum once, inverse-transformed
    in place; the first N columns, given their rows' noise, are returned as
    a view of that spectrum.
    """
    M, N = config.num_pulses, config.samples_per_pulse
    pulse = config.transmitted_pulse()
    n_chirp = pulse.size
    nfft = next_fast_len(N + n_chirp)
    pulse_spectrum = np.fft.fft(pulse, nfft)

    echoes = []  # (amplitude, leading-edge column) per pulse, per scatterer
    positions = []
    first = None
    for index, sc in enumerate(scene):
        try:
            with np.errstate(over="raise", invalid="raise"):
                r, lead, boresight, beam = _echo_geometry(config, sc)
                amp = sc.reflectivity * beam * np.exp(-4j * np.pi * r / config.wavelength)
        except (OverflowError, FloatingPointError):  # Python's float power, numpy's arrays
            raise ConfigurationError(f"scatterer {index}: its echo geometry overflows float64")
        _validate_scatterer(config, sc, index, lead, boresight)
        echoes.append((amp, lead))
        row = sc.azimuth_time * config.prf
        col = (2.0 * sc.range_offset / SPEED_OF_LIGHT * config.range_sampling
               + (n_chirp - 1) / 2.0)
        positions.append((row, col))
        if first is None:
            first = (sc, r, lead)

    def rows(span):
        lo, hi, _ = span.indices(M)
        block = np.zeros((hi - lo, nfft), dtype=np.complex128)
        for amp, lead in echoes:
            ramp = shift_ramp(-lead[lo:hi], nfft)
            ramp *= amp[lo:hi, None]
            block += ramp
            del ramp  # before the next table: one per worker at a time
        block *= pulse_spectrum
        np.fft.ifft(block, axis=1, out=block)
        raw = block[:, :N]
        if config.noise_sigma > 0:
            for m in range(lo, hi):
                rng = np.random.default_rng([config.rng_seed, m])
                raw[m - lo] += config.noise_sigma * (
                    rng.standard_normal(N) + 1j * rng.standard_normal(N)
                )
        return raw

    return rows, _ground_truth(config, scene, positions, first)


def simulate_raw(config, scene):
    """Synthesize the raw echo matrix and its ground truth.

    Returns (raw, truth) where raw is a C-contiguous M x N complex64 matrix,
    the precision of the file it is written to: each row block comes from
    ``raw_rows`` in complex128, noise included, and is cast once.  raw is
    the one full-size buffer, in a map of its own (``core.mapped_zeros``);
    the RCMC_BLOCK_ROWS rows in flight among the worker threads of
    ``core.run_blocks`` each hold a spectrum row and a ramp-table row.  A
    block that overflows, in float64 or in the cast, is a configuration error.
    """
    rows, truth = raw_rows(config, scene)
    raw = mapped_zeros((config.num_pulses, config.samples_per_pulse), np.complex64)

    def fill(span):
        try:
            with np.errstate(over="raise"):  # per thread, as numpy's error state is
                raw[span] = rows(span)
        except FloatingPointError:
            raise ConfigurationError("the raw matrix overflows complex64: scale the "
                                     "reflectivities or noise_sigma down")

    run_blocks(fill, config.num_pulses)
    return raw, truth


def _ground_truth(config, scene, positions, first):
    common = dict(range_chirp_rate=config.range_chirp_model().rate,
                  chirp_samples=config.chirp_samples,
                  bandwidth_fraction=config.bandwidth_fraction, config=config)
    if first is None:
        return GroundTruth(positions=[], azimuth_chirp_rate=0.0, doppler_centroid=0.0,
                           rcm_curve=np.zeros(config.num_pulses), beam_center_row=float("nan"),
                           range_support=(0, 0), azimuth_support=(0, 0), **common)

    sc, r, lead = first
    r0s = config.closest_range + sc.range_offset
    v = config.platform_speed
    lam = config.wavelength
    az_rate = -(v**2) / (lam * r0s) / config.prf**2
    r_boresight = float(np.sqrt(r0s**2 + (v * config.squint_offset) ** 2))
    dc = float(
        wrap_half_open(-2.0 * v**2 * config.squint_offset / (lam * r_boresight) / config.prf)
    )
    rcm = (r - r0s) * 2.0 * config.range_sampling / SPEED_OF_LIGHT

    lead0 = 2.0 * sc.range_offset / SPEED_OF_LIGHT * config.range_sampling
    beam_center = (sc.azimuth_time + config.squint_offset) * config.prf
    beam_rows = config.beam_azimuth_extent * config.prf  # null-to-null main lobe, pulses
    az_lo = max(int(np.floor(beam_center - beam_rows / 2.0)), 0)
    az_hi = min(int(np.ceil(beam_center + beam_rows / 2.0)) + 1, config.num_pulses)
    return GroundTruth(
        positions=positions,
        azimuth_chirp_rate=az_rate,
        doppler_centroid=dc,
        rcm_curve=rcm,
        beam_center_row=float(beam_center),
        range_support=(int(np.floor(lead0)), int(np.ceil(lead0)) + config.chirp_samples),
        azimuth_support=(az_lo, az_hi),
        **common,
    )


def oracle_estimate(truth):
    """Build focusing parameters from ground truth instead of blind estimation.

    Returns (estimate, rcm_model): a BlindEstimate-shaped bundle holding the
    true chirp models and an analytic RcmModel fit to the true migration
    curve, both usable by focus_pipeline for oracle-mode focusing.
    """
    if not truth.positions:
        raise ParameterError("ground truth contains no scatterer")
    config = truth.config
    row0, col0 = truth.positions[0]

    range_model = ChirpModel(rate=config.range_chirp_model().rate, center=col0,
                             support=truth.range_support, fit_rms=0.0)
    azimuth_model = ChirpModel(rate=truth.azimuth_chirp_rate, center=row0,
                               support=truth.azimuth_support, fit_rms=0.0)

    lo, hi = truth.azimuth_support
    offsets = np.arange(lo, hi, dtype=np.float64) - truth.beam_center_row
    coeffs, resid = _fit_quadratic(offsets, truth.rcm_curve[lo:hi])
    rcm = RcmModel(
        reference_range_bin=float(col0 + coeffs[0]),
        linear=float(coeffs[1]),
        quadratic=float(coeffs[2]),
        fit_rms=float(np.sqrt(np.mean(resid**2))),
    )
    estimate = BlindEstimate(
        range_chirp=range_model,
        azimuth_chirp=azimuth_model,
        doppler_centroid=truth.doppler_centroid,
        beam_center_row=truth.beam_center_row,
        dominance_ratio=float("inf"),
    )
    return estimate, rcm
