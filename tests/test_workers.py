"""Block passes on worker threads: every worker count gives the bytes of the
one-worker loop, and a block that raises reaches the caller after every
thread is joined."""

import itertools
import os
import sys
import threading

import numpy as np
import pytest

import bsar.core
import bsar.focus
from bsar.core import RCMC_BLOCK_ROWS, next_fast_len, run_blocks
from bsar.errors import ParameterError
from bsar.focus import RcmModel, azimuth_compress, focus_pipeline, range_compress, rcmc
from bsar.simulate import simulate_raw

WORKER_COUNTS = [2, 3, 5]  # 32-, 21- and 12-index blocks


def with_workers(monkeypatch, workers, fn, *args, **kwargs):
    monkeypatch.setattr(bsar.core, "block_workers", lambda: workers)
    return fn(*args, **kwargs)


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def range_doppler(raw, ref, *args):
    """Passes 1 to 3: rcmc of range_compress's output."""
    return rcmc(range_compress(raw, ref), raw.shape[1], (ref.size - 1) // 2, *args)


# --- run_blocks -------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, *WORKER_COUNTS])
@pytest.mark.parametrize("stop", [1, 45, 64, 130])
def test_blocks_tile_the_range_once(monkeypatch, workers, stop):
    seen = []
    with_workers(monkeypatch, workers, run_blocks, seen.append, stop)
    step = RCMC_BLOCK_ROWS // workers
    assert sorted(b.start for b in seen) == list(range(0, stop, step))
    assert all(b.stop - b.start == step for b in seen)


def test_one_worker_runs_in_the_calling_thread(monkeypatch):
    threads = set()
    with_workers(monkeypatch, 1, run_blocks,
                 lambda block: threads.add(threading.get_ident()), 200)
    assert threads == {threading.get_ident()}


def test_blocks_are_handed_out_once_under_contention(monkeypatch):
    # more workers than cores and a short switch interval: a block handed to
    # two threads, or to none, would show in the counts
    monkeypatch.setattr(bsar.core, "block_workers", lambda: 8)
    counts = np.zeros(8 * 400, dtype=np.int64)

    def add(block):
        counts[block] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run_blocks, args=(add, counts.size))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert np.all(counts == 1)


def test_worker_count_follows_the_affinity_mask():
    assert 1 <= bsar.core.block_workers() <= RCMC_BLOCK_ROWS
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
        assert bsar.core.block_workers() == min(cpus, RCMC_BLOCK_ROWS)


@pytest.mark.parametrize("workers", [1, *WORKER_COUNTS])
def test_block_error_reaches_the_caller_after_every_join(monkeypatch, workers):
    # one row block of rcmc's ramp pass raises; the caller gets that error
    # and no worker thread outlives the call
    ramp, calls = bsar.focus.shift_ramp, itertools.count()

    def failing_ramp(delta, n):
        if next(calls) == 1:
            raise ParameterError("block failed")
        return ramp(delta, n)

    monkeypatch.setattr(bsar.focus, "shift_ramp", failing_ramp)
    rcm = RcmModel(reference_range_bin=30.0, linear=0.01, quadratic=1e-4, fit_rms=0.0)
    before = threading.active_count()
    with pytest.raises(ParameterError, match="block failed"):
        with_workers(monkeypatch, workers, range_doppler, random_complex((300, 120), 1),
                     np.ones(9), rcm, 1e-3, 0.05)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, *WORKER_COUNTS])
def test_the_lowest_failed_block_is_raised(monkeypatch, workers):
    # the lower block fails last in time; its error is still the one raised,
    # so a scan names the first bad row at any worker count
    step = RCMC_BLOCK_ROWS // workers

    def fail(block):
        if block.start in (step, 3 * step):
            if block.start == step:
                threading.Event().wait(0.05)
            raise ParameterError(f"block {block.start}")

    with pytest.raises(ParameterError, match=f"^block {step}$"):
        with_workers(monkeypatch, workers, run_blocks, fail, 4 * step)


# --- byte identity with the one-worker path ---------------------------------------

@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("scene", ["default", "squint"])
def test_simulate_raw_is_worker_independent(monkeypatch, request, scene, workers):
    config, targets = request.getfixturevalue(f"{scene}_scene")
    assert config.noise_sigma > 0  # the per-row noise substreams run in the blocks
    one, _ = with_workers(monkeypatch, 1, simulate_raw, config, targets)
    many, _ = with_workers(monkeypatch, workers, simulate_raw, config, targets)
    np.testing.assert_array_equal(many, one)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("mode", ["blind", "oracle"])
@pytest.mark.parametrize("scene", ["default", "squint"])
def test_focus_pipeline_is_worker_independent(monkeypatch, request, scene, mode, workers):
    raw, _ = request.getfixturevalue(f"{scene}_sim")
    if mode == "blind":
        estimate, rcm = request.getfixturevalue(f"{scene}_estimate"), None
    else:
        estimate, rcm = request.getfixturevalue(f"{scene}_oracle")
    one = with_workers(monkeypatch, 1, focus_pipeline, raw, estimate,
                       rcm_override=rcm, provenance=mode).image
    many = with_workers(monkeypatch, workers, focus_pipeline, raw, estimate,
                        rcm_override=rcm, provenance=mode).image
    np.testing.assert_array_equal(many, one)


# M = 45 rows: not a multiple of any block and fewer than workers x block;
# with a 16-sample reference, n = 60 pads the range FFT to the odd nfft 75,
# and n = 49 to 64, a power-of-two row stride for pass 1's map (the n = 49
# cases carry an "n49" id, so the n = 60 ones keep their ids)
RAGGED_NFFT = {60: 75, 49: 64}


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("single, n", [(False, 60), (True, 60), (False, 49), (True, 49)],
                         ids=["False", "True", "False-n49", "True-n49"])
def test_rcmc_is_worker_independent_on_ragged_shapes(monkeypatch, workers, single, n):
    raw = random_complex((45, n), 2)
    raw = raw.astype(np.complex64) if single else raw
    ref = random_complex(16, 3)
    assert next_fast_len(n + 16 - 1) == RAGGED_NFFT[n]
    rcm = RcmModel(reference_range_bin=30.0, linear=0.02, quadratic=2e-4, fit_rms=0.0)
    args = (raw, ref, rcm, -2e-3, 0.1)
    np.testing.assert_array_equal(with_workers(monkeypatch, workers, range_doppler, *args),
                                  with_workers(monkeypatch, 1, range_doppler, *args))


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("shape", [(45, 75), (130, 33), (512, 1031)])
def test_azimuth_compress_is_worker_independent(monkeypatch, workers, shape):
    rd = random_complex(shape, 4)
    ref = random_complex(min(shape[0], 41), 5)
    one = with_workers(monkeypatch, 1, azimuth_compress, rd.copy(), ref)
    many = with_workers(monkeypatch, workers, azimuth_compress, rd.copy(), ref)
    np.testing.assert_array_equal(many, one)
