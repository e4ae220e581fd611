"""Blind stripmap SAR focusing toolkit.

Extracts range and azimuth reference functions directly from raw echo data
via a truncated singular value decomposition, focuses the scene with a
range-Doppler chain, and validates everything against a built-in raw-data
simulator with known ground truth.
"""

__version__ = "0.1.0"

from .core import ChirpModel, synth_chirp, unwrap_phase
from .decompose import TruncatedSVD, gibbs_rotation_check, leading_triplets
from .estimate import BlindEstimate, blind_estimate, build_references, detect_support, fit_quadratic_phase
from .focus import FocusedImage, RcmModel, focus_pipeline, range_compress, rcmc, track_rcm
from .quality import PointTargetReport, analyze_point_target, compare_images
from .simulate import AcquisitionConfig, GroundTruth, Scatterer, oracle_estimate, raw_statistics, simulate_raw

__all__ = [
    "AcquisitionConfig",
    "BlindEstimate",
    "ChirpModel",
    "FocusedImage",
    "GroundTruth",
    "PointTargetReport",
    "RcmModel",
    "Scatterer",
    "TruncatedSVD",
    "analyze_point_target",
    "blind_estimate",
    "build_references",
    "compare_images",
    "detect_support",
    "fit_quadratic_phase",
    "focus_pipeline",
    "gibbs_rotation_check",
    "leading_triplets",
    "oracle_estimate",
    "range_compress",
    "raw_statistics",
    "rcmc",
    "simulate_raw",
    "synth_chirp",
    "track_rcm",
    "unwrap_phase",
]
