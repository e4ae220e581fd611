"""File formats: BSAR complex matrices, PGM renders and JSON sidecars.

BSAR layout (little-endian): magic "BSAR", uint16 version (=1), uint16 flags
(bit 0 set for focused data), uint32 rows, uint32 cols, 16 reserved bytes that
must be zero, then rows*cols interleaved float32 (I, Q) pairs, row-major.
``MatrixReader`` checks a file's header and size once and reads it in row
blocks, each scanned for NaN and infinite samples; ``read_matrix``, the one
whole-file read, goes through it, so in-process callers are refused a
non-finite sample as the CLI is.  A raw payload read back stays complex64,
the precision ``simulate_raw`` makes it in: the decomposition multiplies it
as it is, and focusing keeps it complex64 in pass 1's map, upcasting it
block by block for each pass.  Everything else is float64, and a focused
image comes back to complex64 before it is written.

JSON sidecars hold one key per dataclass field, as strict RFC 8259 JSON:
non-finite floats are the strings "nan", "inf" and "-inf".
"""

import dataclasses
import hashlib
import json
import os
import struct
import typing
import warnings

import numpy as np

from . import __version__
from .core import RCMC_BLOCK_ROWS, mapped_zeros, row_source, run_blocks
from .errors import FormatError, ParameterError, SampleError
from .estimate import BlindEstimate
from .simulate import AcquisitionConfig, GroundTruth, Scatterer

MAGIC = b"BSAR"
VERSION = 1
HEADER = struct.Struct("<4sHHII16s")
FLAG_FOCUSED = 0x1
RENDER_FLOOR_DB = -40.0  # the dB level, relative to the peak, that a PGM renders black


def write_matrix(matrix, path, flags=0):
    """Write a complex matrix as a BSAR file (float32 payload), casting
    RCMC_BLOCK_ROWS rows at a time rather than copying the whole matrix;
    C-contiguous complex64 rows are written as they are.  A sample that
    overflows float32 is a parameter error, and the partial file is removed."""
    x = np.asarray(matrix)
    if x.ndim != 2:
        raise ParameterError("expected a 2-D matrix")
    m, n = x.shape
    try:
        with open(path, "wb") as fh, np.errstate(over="raise"):
            fh.write(HEADER.pack(MAGIC, VERSION, flags, m, n, bytes(16)))
            for lo in range(0, m, RCMC_BLOCK_ROWS):  # interleaved float32 (I, Q), row-major
                np.ascontiguousarray(x[lo:lo + RCMC_BLOCK_ROWS], dtype="<c8").tofile(fh)
    except FloatingPointError:
        if os.path.isfile(path):  # not a device such as os.devnull
            os.remove(path)
        raise ParameterError(f"{path}: the matrix overflows float32: scale it down")


class MatrixReader:
    """A BSAR file open for reading in row blocks.

    The header and the file size are checked once, on opening, so a
    malformed file, or one whose flag bit 0 is not `focused` (unless None),
    is refused before any row is read.  ``read`` is safe to call from
    several threads at once: each call fills its own block with one
    ``os.preadv`` at the rows' offset.
    """

    dtype = np.dtype("<c8")  # of the payload and of the blocks ``read`` returns

    def __init__(self, path, focused=None):
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)
        try:
            header = os.pread(self._fd, HEADER.size, 0)
            if len(header) < HEADER.size:
                raise FormatError(f"truncated header at byte {len(header)}")
            magic, version, self.flags, m, n, reserved = HEADER.unpack(header)
            if magic != MAGIC:
                raise FormatError(f"bad magic {magic!r} at byte 0")
            if version != VERSION:
                raise FormatError(f"unsupported version {version} at byte 4")
            if m < 1 or n < 1:
                raise FormatError(f"invalid dimensions {m}x{n} at byte 8")
            if reserved != bytes(16):
                raise FormatError("nonzero reserved header bytes at byte 16")
            size, end = os.fstat(self._fd).st_size, HEADER.size + m * n * 8
            if size != end:
                problem = "truncated payload" if size < end else "trailing bytes"
                raise FormatError(f"{problem} at byte {min(size, end)}: {m}x{n} needs {end} bytes")
            if focused is not None and bool(self.flags & FLAG_FOCUSED) != focused:
                raise ParameterError(f"{path}: raw data (flag bit 0 clear), not a focused image"
                                     if focused else
                                     f"{path}: a focused image (flag bit 0), not raw data")
        except BaseException as exc:
            os.close(self._fd)
            if isinstance(exc, OSError):  # a directory opens, then fails its first read
                exc.filename = path
            raise
        self.shape = (m, n)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self._fd)

    def read(self, rows, out=None):
        """The payload rows of slice `rows` as a complex64 block, new or
        `out` (C-contiguous, of their shape), scanned: a NaN or infinite
        sample raises SampleError naming the first one, by row and column."""
        lo, hi, _ = rows.indices(self.shape[0])
        block = np.empty((hi - lo, self.shape[1]), self.dtype) if out is None else out
        offset = HEADER.size + lo * self.shape[1] * 8
        got = os.preadv(self._fd, [block], offset)
        if got != block.nbytes:  # the file shrank after it was opened
            raise FormatError(f"{self.path}: truncated payload at byte {offset + got}, in row {lo}")
        if not np.isfinite(block.view("<f4")).all():  # I and Q as float32: cheaper than complex
            row, col = np.argwhere(~np.isfinite(block))[0]
            raise SampleError(f"{self.path}: non-finite sample at row {lo + row}, column {col}")
        return block


def read_matrix(path, keep=None, focused=None):
    """Read a BSAR file; returns (matrix, flags) with the payload as a writable
    complex64 matrix, read and scanned a row block at a time: a NaN or
    infinite sample raises SampleError naming the first one.  With `keep`, a
    (start, stop) row range, every row is still scanned but only those rows
    are kept, in a map whose other rows stay zero and take no memory.  A
    file whose flag bit 0 is not `focused` is refused (``MatrixReader``)."""
    with MatrixReader(path, focused) as reader:
        lo, hi = (0, reader.shape[0]) if keep is None else keep
        matrix = (np.empty if keep is None else mapped_zeros)(reader.shape, np.complex64)

        def fill(rows):
            first, last, _ = rows.indices(reader.shape[0])
            start, stop = max(first, lo), min(last, hi)
            if (start, stop) == (first, last):  # every row kept: read in place
                reader.read(rows, out=matrix[rows])
            else:
                block = reader.read(rows)
                if start < stop:
                    matrix[start:stop] = block[start - first:stop - first]

        run_blocks(fill, reader.shape[0])
    return matrix, reader.flags


def render_magnitude(image, path):
    """8-bit grayscale PGM of the magnitude in dB relative to the peak, from
    RENDER_FLOOR_DB (black) to 0 dB (white).

    `image` is a matrix or a row-block reader (``core.row_source``), read in
    two passes of RCMC_BLOCK_ROWS rows: the peak first, then the PGM rows,
    so that only a block's float64 magnitude is held, and a reader's
    non-finite sample is refused before the PGM is opened."""
    source, rows_of = row_source(image)
    m, n = source.shape
    blocks = [slice(lo, lo + RCMC_BLOCK_ROWS) for lo in range(0, m, RCMC_BLOCK_ROWS)]
    peak = float(np.max([np.max(np.abs(rows_of(rows), dtype=np.float64)) for rows in blocks]))
    if peak == 0.0:
        warnings.warn("all-zero input: rendering a uniform black image")
        peak = 1.0  # every pixel then sits at -inf dB, below the floor
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {m}\n255\n".encode("ascii"))
        for rows in blocks:
            # dB, floor-scaled and clipped, then 8-bit levels, all within `mag`
            mag = np.abs(rows_of(rows), dtype=np.float64)
            mag /= peak
            with np.errstate(divide="ignore"):
                np.log10(mag, out=mag)
            mag *= 20.0
            mag -= RENDER_FLOOR_DB
            mag /= 0.0 - RENDER_FLOOR_DB
            np.clip(mag, 0.0, 1.0, out=mag)
            mag *= 255.0
            fh.write(np.round(mag, out=mag).astype(np.uint8).tobytes())


def sha256_matrix(matrix, flags):
    """SHA-256 of the BSAR file of `matrix` and `flags`, header included,
    taken from the matrix in memory, so that it names the bytes read."""
    digest = hashlib.sha256(HEADER.pack(MAGIC, VERSION, flags, *matrix.shape, bytes(16)))
    digest.update(np.ascontiguousarray(matrix, dtype="<c8"))
    return digest.hexdigest()


def _plain(value):
    """JSON-ready copy: dataclasses become objects, tuples and arrays lists."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(item) for item in value]
    value = value.item() if isinstance(value, np.generic) else value
    return str(value) if isinstance(value, float) and not np.isfinite(value) else value


def _typed(kind, value):
    """Inverse of _plain for a field annotated `kind`; missing fields keep defaults."""
    if dataclasses.is_dataclass(kind):
        return None if value is None else kind(**{
            f.name: _typed(f.type, value[f.name])
            for f in dataclasses.fields(kind) if f.name in value})
    if typing.get_origin(kind) is list:
        return [_typed(typing.get_args(kind)[0], item) for item in value]
    if kind is complex:
        return complex(*value)
    if kind is np.ndarray:
        return np.asarray(value, dtype=np.float64)
    return kind(value) if kind in (float, tuple) else value


def write_json(obj, path):
    """Write a dataclass or dict as strict JSON."""
    with open(path, "w") as fh:
        json.dump(_plain(obj), fh, indent=1, allow_nan=False)
        fh.write("\n")


def _load_json(path, build):
    """`build` applied to the JSON document at `path`; faults raise FormatError."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except (KeyError, TypeError, ValueError) as exc:  # ValueError includes JSONDecodeError
        raise FormatError(f"{path}: invalid JSON document or field: {exc!r}")


def load_scene(path):
    """Read AcquisitionConfig + scatterer list from a JSON document."""
    return _load_json(path, lambda doc: (_typed(AcquisitionConfig, doc["config"]),
                                         _typed(list[Scatterer], doc.get("scene", []))))


def read_truth(path):
    return _load_json(path, lambda doc: _typed(GroundTruth, doc))


def write_estimate(estimate, path, input_hash="", decomposition=None):
    """Serialize a BlindEstimate so focusing can be reproduced bit-exactly,
    after what made it: the tool, the input's hash and, from ``bsar
    estimate``, the decomposition's settings and product count."""
    made_by = {"decomposition": decomposition} if decomposition else {}
    write_json({"tool": f"bsar {__version__}", "input_sha256": input_hash, **made_by,
                **_plain(estimate)}, path)


def read_estimate(path):
    """Load a BlindEstimate JSON; keys that are not fields of it are ignored."""
    return _load_json(path, lambda doc: _typed(BlindEstimate, doc))


def _write_csv(path, rows):
    with open(path, "w") as fh:
        fh.writelines(",".join(str(value) for value in row) + "\n" for row in rows)


def write_report_csv(report, path):
    doc = _plain(report)
    row, col = doc.pop("peak_position")
    _write_csv(path, [["peak_row", "peak_col", *doc], [row, col, *doc.values()]])


def write_spectrum_csv(singular_values, dominance_ratio, path):
    _write_csv(path, [("index", "singular_value"), *enumerate(_plain(singular_values)),
                      ("dominance_ratio", _plain(dominance_ratio))])
