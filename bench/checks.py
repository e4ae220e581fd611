"""Correctness checks for benchmark outputs, computed apart from ``bsar``.

Expected values come from the closed forms of the scene document alone
(numpy and the standard library, no ``bsar`` import), so a check never
compares against a stored copy of an earlier output.  Every check returns a
list of failure messages; an empty list means the output passed.

Bounds are those of the acceptance suite (A1-A3):

* range chirp rate within 1 %, azimuth rate within 2 %, Doppler centroid
  within 0.01 cycles/pulse;
* focused peak within 1 sample of the zero-Doppler row and vertex column;
* range IRW within 15 % of 0.886/B samples (B = bandwidth / sampling rate);
* range PSLR at or below -12.5 dB (an ideal sinc gives -13.26 dB);
* blind-vs-oracle magnitude correlation at least 0.98.
"""

import json
import math
import struct

import numpy as np

SPEED_OF_LIGHT = 299792458.0

RANGE_RATE_TOL = 0.01
AZIMUTH_RATE_TOL = 0.02
CENTROID_TOL = 0.01
PEAK_TOL = 1.0
IRW_TOL = 0.15
PSLR_MAX_DB = -12.5
CORRELATION_MIN = 0.98
DOMINANCE_GATE = 3.0  # sigma1/sigma2 below which a scene has no dominant target

BSAR_HEADER = struct.Struct("<4sHHII16s")


def wrap_cycles(f):
    """Wrap a frequency in cycles/pulse into (-0.5, 0.5]."""
    return f - math.ceil(f - 0.5)


def expected(doc):
    """Closed-form focusing parameters of the first scatterer of a scene."""
    cfg = doc["config"]
    target = doc["scene"][0]
    fs = cfg["range_sampling"]
    prf = cfg["prf"]
    v = cfg["platform_speed"]
    lam = cfg["wavelength"]
    r0 = cfg["closest_range"] + target["range_offset"]
    squint = cfg["squint_offset"]
    chirp_samples = int(round(cfg["chirp_duration"] * fs))
    r_beam = math.sqrt(r0 ** 2 + (v * squint) ** 2)
    bandwidth = cfg["chirp_rate"] * cfg["chirp_duration"] / fs
    return {
        "range_rate": cfg["chirp_rate"] / (2.0 * fs ** 2),
        "azimuth_rate": -(v ** 2) / (lam * r0) / prf ** 2,
        "doppler_centroid": wrap_cycles(-2.0 * v ** 2 * squint / (lam * r_beam) / prf),
        "row": target["azimuth_time"] * prf,
        "col": 2.0 * target["range_offset"] / SPEED_OF_LIGHT * fs + (chirp_samples - 1) / 2.0,
        "irw_range": 0.886 / bandwidth,
        "squinted": squint != 0.0,
    }


def check_estimate(range_rate, azimuth_rate, doppler_centroid, exp):
    """A1 bounds on blindly estimated chirp rates and Doppler centroid.

    The centroid is skipped when exp["check_centroid"] is false.
    """
    errors = []
    kr = abs(range_rate - exp["range_rate"]) / abs(exp["range_rate"])
    if not kr < RANGE_RATE_TOL:
        errors.append(f"range rate {range_rate:.6g} is {kr:.2%} off {exp['range_rate']:.6g}")
    ka = abs(azimuth_rate - exp["azimuth_rate"]) / abs(exp["azimuth_rate"])
    if not ka < AZIMUTH_RATE_TOL:
        errors.append(f"azimuth rate {azimuth_rate:.6g} is {ka:.2%} off {exp['azimuth_rate']:.6g}")
    dc = abs(wrap_cycles(doppler_centroid - exp["doppler_centroid"]))
    if exp.get("check_centroid", True) and not dc < CENTROID_TOL:
        errors.append(f"Doppler centroid {doppler_centroid:.5f} is {dc:.5f} cycles/pulse off")
    return errors


def check_impulse(peak_position, irw_range, pslr_range, exp):
    """Peak position, range IRW and range PSLR of a focused point target.

    On a squinted scene only the azimuth position is checked: the range
    peak lands at the beam-centre range, not at the closest-approach range
    the closed form gives.
    """
    errors = []
    row, col = peak_position
    if not abs(row - exp["row"]) <= PEAK_TOL:
        errors.append(f"peak row {row:.3f} is {abs(row - exp['row']):.3f} samples off {exp['row']:.3f}")
    if not exp["squinted"] and not abs(col - exp["col"]) <= PEAK_TOL:
        errors.append(f"peak col {col:.3f} is {abs(col - exp['col']):.3f} samples off {exp['col']:.3f}")
    irw_err = abs(irw_range - exp["irw_range"]) / exp["irw_range"]
    if not irw_err <= IRW_TOL:
        errors.append(f"range IRW {irw_range:.3f} is {irw_err:.1%} off {exp['irw_range']:.3f}")
    if not pslr_range <= PSLR_MAX_DB:
        errors.append(f"range PSLR {pslr_range:.2f} dB above {PSLR_MAX_DB} dB")
    return errors


def check_correlation(correlation):
    if not correlation >= CORRELATION_MIN:
        return [f"blind-vs-oracle correlation {correlation:.4f} below {CORRELATION_MIN}"]
    return []


def check_rejection(outcome, sigma_ratio):
    """A clutter scene must end in UnsuitableSceneError.

    `outcome` is the class name of the exception the blind estimate raised,
    or None when it returned an estimate; `sigma_ratio` is sigma1/sigma2
    from an independent dense SVD, which must confirm the scene is below
    the dominance gate.
    """
    errors = []
    if not sigma_ratio < DOMINANCE_GATE:
        errors.append(f"dense SVD gives sigma1/sigma2 {sigma_ratio:.3f}, not below {DOMINANCE_GATE}")
    if outcome != "UnsuitableSceneError":
        errors.append(f"clutter scene ended in {outcome or 'an accepted estimate'}, "
                      "not UnsuitableSceneError")
    return errors


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_strict_json(path):
    """(document, errors) for a JSON output file, parsed as RFC 8259 JSON:
    NaN and +-Infinity are errors."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant), []
    except (OSError, ValueError) as exc:
        return None, [f"{path}: {exc}"]


def check_bsar_file(path, image):
    """A focused BSAR file must read back equal to the float32 cast of `image`.

    The header layout is the documented one: magic, version 1, flags with
    bit 0 set for focused data, rows, cols, 16 reserved bytes.
    """
    with open(path, "rb") as fh:
        header = fh.read(BSAR_HEADER.size)
        payload = np.fromfile(fh, dtype="<f4")
    magic, version, flags, rows, cols, _ = BSAR_HEADER.unpack(header)
    errors = []
    if (magic, version, flags & 1) != (b"BSAR", 1, 1):
        errors.append(f"{path}: header {magic!r} v{version} flags {flags:#x}")
    if (rows, cols) != image.shape or payload.size != 2 * image.size:
        errors.append(f"{path}: {rows}x{cols} with {payload.size} floats, image {image.shape}")
        return errors
    pairs = payload.reshape(rows, cols, 2)
    if not (np.array_equal(pairs[:, :, 0], image.real.astype(np.float32))
            and np.array_equal(pairs[:, :, 1], image.imag.astype(np.float32))):
        errors.append(f"{path}: payload differs from the float32 cast of the image")
    return errors
