"""Complex signal primitives: chirp synthesis, phase unwrapping, FFT lengths,
and the worker threads that run block passes (``run_blocks``).

Conventions used throughout the package:

* phases inside :class:`ChirpModel` are stored in **cycles** (the quadratic
  fits are numerically cleaner that way); signal-level functions work in
  radians,
* frequencies are in cycles/sample (range) or cycles/pulse (azimuth),
* the raw matrix is complex64 (float32 I/Q), from the simulator and the
  file alike; the decomposition's products over it run in float32, and
  focusing keeps it in a complex64 map whose blocks each pass upcasts and
  stores back.  All other arithmetic is float64.
"""

from dataclasses import dataclass
import math
import mmap
import os
import threading

import numpy as np

from .errors import ParameterError

TWO_PI = 2.0 * math.pi
RAMP_STEP = 64  # fine-table length of the factored phase ramp
RCMC_BLOCK_ROWS = 64  # rows in flight in a block pass, shared by its workers


def as_complex_matrix(data):
    """Validate and return a 2-D complex array (rows = pulses, cols = range):
    complex64 data as it is, without a copy, anything else as complex128."""
    x = np.asarray(data)
    x = x if x.dtype == np.complex64 else np.asarray(x, np.complex128)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ParameterError("expected a non-empty 2-D complex matrix")
    return x


def row_source(data):
    """(source, rows): `data` as a matrix (complex64 kept as it is) or as the
    row-block reader it is, anything with `shape`, `dtype` and a
    ``read(rows)`` such as ``fileio.MatrixReader``; rows(slice) returns
    those rows of it."""
    if hasattr(data, "read"):
        return data, data.read
    x = as_complex_matrix(data)
    return x, x.__getitem__


def mapped_zeros(shape, dtype):
    """np.zeros(shape, dtype) in a private anonymous memory map of its own,
    unmapped once the array and its views are gone.

    A scene-sized array from malloc's heap leaves a hole when it is freed,
    and the next one fits that hole only if nothing else was put into it
    meanwhile, which hangs on unrelated allocations and on thread timing; a
    map of its own keeps the peak RSS of a run of scenes the same from run
    to run.  Huge pages are asked for, as numpy does for its own arrays of
    4 MiB or more: a buffer written in full costs no more RSS with them,
    and far fewer page faults.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(count * dtype.itemsize, 1), access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def as_complex_vector(data):
    x = np.asarray(data, dtype=np.complex128)
    if x.ndim != 1 or x.size < 1:
        raise ParameterError("expected a non-empty 1-D complex vector")
    return x


@dataclass(frozen=True)
class ChirpModel:
    """Quadratic phase law in cycles.

    phase(n) = rate*(n - center)**2 + constant

    `support` is a half-open sample interval [start, stop); the chirp has
    unit amplitude inside it and is zero outside.  `fit_rms` records the RMS
    residual (cycles) of the least-squares fit that produced the model, NaN
    for models written down directly.
    """

    rate: float
    center: float
    support: tuple
    constant: float = 0.0
    fit_rms: float = float("nan")

    def __post_init__(self):
        start, stop = self.support
        # sample indices: focusing slices the raw rows with the azimuth support
        integral = all(isinstance(b, (int, np.integer)) for b in self.support)
        if not (integral and 0 <= start < stop):
            raise ParameterError(f"invalid chirp support [{start}, {stop})")
        for name in ("rate", "center", "constant"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"non-finite chirp parameter {name!r}")

    def phase_cycles(self, n):
        d = np.asarray(n, dtype=np.float64) - self.center
        return self.rate * d * d + self.constant

    def instantaneous_frequency(self, n):
        """Phase derivative in cycles/sample at position(s) n."""
        d = np.asarray(n, dtype=np.float64) - self.center
        return 2.0 * self.rate * d


def sample_chirp(model, positions):
    """Evaluate a ChirpModel at arbitrary (fractional) sample positions:
    unit amplitude inside the support, zero outside."""
    start, stop = model.support
    pos = np.asarray(positions, dtype=np.float64)
    inside = (pos >= start) & (pos < stop)
    out = np.zeros(pos.shape, dtype=np.complex128)
    out[inside] = np.exp(1j * TWO_PI * model.phase_cycles(pos[inside]))
    return out


def unwrap_phase(wrapped):
    """Unwrap radians so successive differences lie in (-pi, pi].

    Output equals the input modulo 2*pi elementwise and keeps the first sample.
    """
    phi = np.asarray(wrapped, dtype=np.float64)
    if phi.ndim != 1 or phi.size < 1:
        raise ParameterError("unwrap_phase expects a non-empty 1-D sequence")
    d = np.diff(phi)
    # map each difference into (-pi, pi]
    d_adj = d - TWO_PI * np.ceil((d - np.pi) / TWO_PI)
    out = np.empty_like(phi)
    out[0] = phi[0]
    out[1:] = phi[0] + np.cumsum(d_adj)
    return out


def next_fast_len(target):
    """Smallest 11-smooth integer (only prime factors 2, 3, 5, 7, 11) >= target.

    FFT lengths of that form are the fast ones for numpy's pocketfft.
    """
    n = max(int(target), 1)
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def shift_ramp(delta, n):
    """exp(2j*pi*delta[:, None]*fftfreq(n)), a writable view of a new array,
    from coarse and fine exp tables (RCMC's shifts and the simulator's delays).

    Column k = a*RAMP_STEP + b is coarse[a] * fine[b]; the columns where
    fftfreq is negative, (k - n)/n, also take the factor exp(-2j*pi*delta).
    """
    d = 2j * np.pi * np.asarray(delta, dtype=np.float64)[:, None]
    coarse = np.exp(d * (np.arange(0, n, RAMP_STEP) / n))
    fine = np.exp(d * (np.arange(RAMP_STEP) / n))
    ramp = (coarse[:, :, None] * fine[:, None, :]).reshape(d.shape[0], -1)[:, :n]
    ramp[:, (n + 1) // 2:] *= np.exp(-d)
    return ramp


def block_workers():
    """Threads for a block pass: the CPUs this process may run on, at most
    RCMC_BLOCK_ROWS (each worker keeps at least one row in flight)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, RCMC_BLOCK_ROWS)


def run_blocks(fn, stop):
    """Call fn(block) for the slices of `RCMC_BLOCK_ROWS // workers` indices
    that tile range(stop), shared among `block_workers()` threads.

    The blocks must be independent.  The calling thread is one of the
    workers, so with one worker this is a plain loop.  Blocks are handed out
    in increasing order and none after a block has raised, so every block
    below a failed one has run: once every thread is joined, the exception
    of the lowest failed block is re-raised here, the same one at any
    worker count.  numpy's
    FFTs and array loops release the GIL, so the threads run in parallel;
    each index is computed by the same operations whichever thread takes it.
    """
    workers = block_workers()
    step = RCMC_BLOCK_ROWS // workers
    pending = iter(range(0, stop, step))
    lock = threading.Lock()
    errors = []

    def work():
        while not errors:
            with lock:
                lo = next(pending, None)
            if lo is None:
                return
            try:
                fn(slice(lo, lo + step))
            except BaseException as exc:
                errors.append((lo, exc))

    threads = []
    try:
        for _ in range(min(workers, -(-stop // step)) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


def wrap_half_open(f):
    """Wrap frequency (cycles/sample) into the interval (-0.5, 0.5]."""
    return f - np.ceil(np.asarray(f, dtype=np.float64) - 0.5)


def median(values):
    """np.median of a non-empty real array, bit for bit and NaN if any value
    is NaN, without the numpy.ma import that np.median's NaN check makes."""
    x = np.ravel(values)
    half = x.size // 2
    kth = [half, -1] if x.size % 2 else [half - 1, half, -1]
    part = np.partition(x, kth)  # a NaN sorts last
    if np.isnan(part[-1]):
        return part[-1]
    return part[half] if x.size % 2 else (part[half - 1] + part[half]) / 2
