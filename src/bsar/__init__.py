"""Blind stripmap SAR focusing toolkit.

Extracts range and azimuth reference functions directly from raw echo data
via a truncated singular value decomposition, focuses the scene with a
range-Doppler chain, and validates everything against a built-in raw-data
simulator with known ground truth.
"""

__version__ = "0.1.0"
